"""A virtualization host: hypervisor + Dom0 + a chosen toolstack variant.

:class:`Host` assembles the full platform for one of the five toolstack
configurations the paper compares in Figure 9:

========================  ====================================================
variant                   components
========================  ====================================================
``xl``                    XenStore + xl/libxl + bash hotplug scripts
``chaos+xs``              XenStore + chaos + xendevd
``chaos+xs+split``        XenStore + chaos + xendevd + shell-pool daemon
``chaos+noxs``            noxs device pages + sysctl + chaos + xendevd
``lightvm``               chaos + noxs + split toolstack + xendevd (all on)
========================  ====================================================
"""

from __future__ import annotations

import typing

from ..faults.plan import FaultInjector, FaultPlan
from ..guests.images import GuestImage
from ..hypervisor.domain import Domain
from ..hypervisor.hypervisor import Hypervisor
from ..noxs.module import NoxsModule
from ..noxs.sysctl import SysctlBackend
from ..sim.engine import Simulator
from ..sim.rng import RngRegistry
from ..toolstack.chaos import ChaosToolstack
from ..toolstack.config import VMConfig
from ..toolstack.hotplug import BashHotplug, Xendevd
from ..toolstack.migration import Checkpointer
from ..toolstack.phases import CreationRecord
from ..toolstack.power import PowerManager
from ..toolstack.shellpool import ChaosDaemon
from ..toolstack.xl import XlToolstack
from ..xenstore.daemon import XenStoreDaemon
from .hostspec import HostSpec, XEON_E5_1630

#: The Figure 9 configuration names.
VARIANTS = ("xl", "chaos+xs", "chaos+xs+split", "chaos+noxs", "lightvm")
#: The variants that run a XenStore daemon (the others run noxs).
XENSTORE_VARIANTS = ("xl", "chaos+xs", "chaos+xs+split")


class Host:
    """One physical machine running a complete virtualization stack."""

    def __init__(self, spec: HostSpec = XEON_E5_1630,
                 variant: str = "lightvm",
                 seed: int = 0,
                 sim: typing.Optional[Simulator] = None,
                 bridge=None,
                 xenstore_impl: str = "oxenstored",
                 xenstore_log: bool = True,
                 xenstore_workers: int = 1,
                 xenstore_batch: bool = False,
                 pool_target: int = 8,
                 shell_memory_kb: typing.Optional[int] = None,
                 shell_vifs: int = 1,
                 fault_plan: typing.Optional[FaultPlan] = None,
                 xenstore_queue_cap: typing.Optional[int] = None,
                 recovery: bool = False):
        if variant not in VARIANTS:
            raise ValueError("unknown variant %r; expected one of %s"
                             % (variant, ", ".join(VARIANTS)))
        self.spec = spec
        self.variant = variant
        self.sim = sim or Simulator()
        self.rng = RngRegistry(seed)
        #: Deterministic fault injector shared by every control-plane
        #: layer; with ``fault_plan=None`` it never fires and the host
        #: behaves exactly like a fault-free one.
        self.fault_plan = fault_plan
        self.faults = FaultInjector(fault_plan, rng=self.rng)
        self.hypervisor = Hypervisor(
            self.sim, memory_kb=spec.memory_kb, total_cores=spec.cores,
            dom0_cores=spec.dom0_cores,
            dom0_memory_kb=spec.dom0_memory_kb,
            faults=self.faults)
        self.bridge = bridge

        self.xenstore: typing.Optional[XenStoreDaemon] = None
        self.noxs: typing.Optional[NoxsModule] = None
        self.sysctl: typing.Optional[SysctlBackend] = None
        self.daemon: typing.Optional[ChaosDaemon] = None

        uses_xenstore = variant in XENSTORE_VARIANTS
        uses_split = variant in ("chaos+xs+split", "lightvm")

        if uses_xenstore:
            # workers=1 / batch off is the paper-faithful oxenstored;
            # the ablation benchmark turns the knobs to model a
            # concurrent/batched daemon (ROADMAP: async/batched control
            # plane).
            self.xenstore = XenStoreDaemon(
                self.sim, implementation=xenstore_impl,
                log_enabled=xenstore_log,
                rng=self.rng.stream("xenstore"),
                faults=self.faults,
                workers=xenstore_workers,
                batch_ops=xenstore_batch,
                queue_cap=xenstore_queue_cap)
        else:
            self.noxs = NoxsModule(self.sim, self.hypervisor,
                                   rng=self.rng.stream("retry/noxs"))
            self.sysctl = SysctlBackend(self.sim, self.hypervisor,
                                        self.noxs)

        hotplug_rng = self.rng.stream("hotplug")
        if variant == "xl":
            self.toolstack = XlToolstack(
                self.sim, self.hypervisor, self.xenstore,
                hotplug=BashHotplug(self.sim, bridge=bridge,
                                    faults=self.faults, rng=hotplug_rng),
                rng=self.rng.stream("retry/xl"))
        else:
            if uses_split:
                self.daemon = ChaosDaemon(
                    self.sim, self.hypervisor, noxs=self.noxs,
                    xenstore=self.xenstore, pool_target=pool_target,
                    shell_memory_kb=shell_memory_kb or 4096,
                    shell_vifs=shell_vifs,
                    faults=self.faults,
                    rng=self.rng.stream("retry/shellpool"))
                self.daemon.start()
            self.toolstack = ChaosToolstack(
                self.sim, self.hypervisor, xenstore=self.xenstore,
                noxs=self.noxs, sysctl=self.sysctl, daemon=self.daemon,
                hotplug=Xendevd(self.sim, bridge=bridge,
                                faults=self.faults, rng=hotplug_rng),
                rng=self.rng.stream("retry/chaos"))

        self.checkpointer = Checkpointer(self.toolstack)
        self.power = PowerManager(self.toolstack)
        self._vm_counter = 0

        #: Crash/restart layer (``recovery=True``): op journal + watchdog
        #: on the daemon, intent records on the toolstack, orphan reaper.
        #: None = the recovery fault points are never consulted and the
        #: host's timelines match pre-recovery builds exactly.
        self.recovery = None
        if recovery:
            from ..recovery import RecoveryManager
            self.recovery = RecoveryManager(self)

    # ------------------------------------------------------------------
    # Convenience synchronous API (drives the simulator)
    # ------------------------------------------------------------------
    def warmup(self, duration_ms: float = 500.0) -> None:
        """Let background daemons settle (e.g. the shell pool pre-fill)."""
        self.sim.run(until=self.sim.now + duration_ms)

    def next_name(self, prefix: str = "vm") -> str:
        self._vm_counter += 1
        return "%s%d" % (prefix, self._vm_counter)

    def config_for(self, image: GuestImage,
                   name: typing.Optional[str] = None,
                   memory_kb: typing.Optional[int] = None) -> VMConfig:
        """Build the canonical config for ``image`` on this host."""
        return VMConfig.for_image(image, name or self.next_name(),
                                  memory_kb=memory_kb)

    def create_vm(self, image_or_config, name: typing.Optional[str] = None,
                  boot: bool = True) -> CreationRecord:
        """Create (and boot) a VM, running the simulator until done."""
        if isinstance(image_or_config, GuestImage):
            config = self.config_for(image_or_config, name=name)
        else:
            config = image_or_config
        proc = self.sim.process(self.toolstack.create_vm(config, boot=boot))
        return self.sim.run(until=proc)

    def destroy_vm(self, domain: Domain) -> None:
        """Destroy a VM, running the simulator until done."""
        proc = self.sim.process(self.toolstack.destroy_vm(domain))
        self.sim.run(until=proc)

    def save_vm(self, domain: Domain, config: VMConfig):
        """Checkpoint a VM; returns the SavedImage."""
        proc = self.sim.process(self.checkpointer.save(domain, config))
        return self.sim.run(until=proc)

    def restore_vm(self, saved) -> Domain:
        """Restore a checkpoint; returns the new Domain."""
        proc = self.sim.process(self.checkpointer.restore(saved))
        return self.sim.run(until=proc)

    def pause_vm(self, domain: Domain) -> None:
        """Freeze a running guest (keeps memory, releases CPU)."""
        proc = self.sim.process(self.power.pause(domain))
        self.sim.run(until=proc)

    def recover(self) -> None:
        """Run one recovery pass: reap crashed toolstack operations and
        sweep the store for orphans (requires ``recovery=True``)."""
        if self.recovery is None:
            raise RuntimeError(
                "host was built without recovery=True; nothing to recover")
        proc = self.sim.process(self.recovery.recover())
        self.sim.run(until=proc)

    def unpause_vm(self, domain: Domain) -> None:
        """Thaw a paused guest (no reboot)."""
        proc = self.sim.process(self.power.unpause(domain))
        self.sim.run(until=proc)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def running_guests(self) -> int:
        """Guest domains, excluding Dom0 and pooled (SHELL) domains."""
        from ..hypervisor.domain import DomainState
        return sum(1 for d in self.hypervisor.domains.values()
                   if d.domid != 0 and d.state is not DomainState.SHELL)

    def guest_memory_kb(self) -> int:
        """KiB reserved by guests (excludes Dom0)."""
        return self.hypervisor.memory.used_kb - self.spec.dom0_memory_kb

    def cpu_utilization(self) -> float:
        """Instantaneous mean utilization over all cores, in [0, 1]."""
        return self.hypervisor.scheduler.utilization()

    def fault_metrics(self) -> typing.Dict[str, typing.Dict[str, int]]:
        """Per-fault-point counters: occurrences seen, faults injected."""
        return self.faults.metrics()

    def check_invariants(self) -> typing.List[str]:
        """Audit the host for leaked control-plane state; returns
        violation descriptions (empty = clean).  Drain the simulator
        first (async teardowns legitimately hold resources briefly)."""
        from ..faults.invariants import check_host
        return check_host(self)
