"""The create/destroy driver xl and chaos share (Figure 8).

chaos differs from xl only in what it streamlines (§5.1–5.2): its costs,
fewer XenStore entries, xendevd instead of bash hotplug, the noxs control
plane and the split prepare/execute phases.  So a subclass supplies data
and its XenStore registration step, and every step that differs between
the two control planes sits behind the plane (:mod:`repro.toolstack.plane`).
"""

from __future__ import annotations

import typing

from ..faults.plan import ToolstackCrashed, TransientHypercallError
from ..faults.retry import RetryPolicy, retry_call
from ..guests.boot import boot_guest
from ..hypervisor.domain import Domain, DomainState
from ..hypervisor.hypervisor import DOM0_ID, Hypervisor
from ..noxs.module import NoxsModule
from ..noxs.sysctl import SysctlBackend
from ..recovery.intents import crash_check
from ..trace.tracer import tracer_of
from ..xenstore.client import XsClient
from ..xenstore.daemon import XenStoreDaemon
from .config import VMConfig
from .devices import XsDeviceManager
from .phases import CreationRecord, PhaseRecorder
from .plane import NoxsPlane, XsPlane

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Simulator
    from .shellpool import ChaosDaemon


class Toolstack:
    """A toolstack command driving one control plane.

    A subclass supplies its data: ``command`` (the span prefix:
    ``xl.create_vm``, ``chaos.boot``, ...), the store nodes its device
    manager writes per device, its store roots, its costs and hotplug
    handler; and its registration step, :meth:`_register`.
    """

    command = ""
    #: XenStore nodes written per device: (front-end, back-end).
    device_entries: typing.Tuple[int, int] = (0, 0)
    #: Store roots holding one subtree per guest (``<root>/<domid>``).
    roots: typing.Tuple[str, ...] = ()

    def __init__(self, sim: "Simulator", hypervisor: Hypervisor, hotplug,
                 costs, xenstore: typing.Optional[XenStoreDaemon] = None,
                 noxs: typing.Optional[NoxsModule] = None,
                 sysctl: typing.Optional[SysctlBackend] = None,
                 daemon: typing.Optional["ChaosDaemon"] = None,
                 rng=None, retry_policy: typing.Optional[RetryPolicy] = None):
        self.sim = sim
        self.hypervisor = hypervisor
        self.xenstore = xenstore
        #: Dom0 connection handle (None on the noxs control plane).
        self.xs = XsClient(xenstore, DOM0_ID) if xenstore is not None \
            else None
        self.noxs = noxs
        self.sysctl = sysctl
        #: The split toolstack's shell pool (None = inline creation).
        self.daemon = daemon
        self.hotplug = hotplug
        self.costs = costs
        #: Jitter stream + schedule for control-plane retries.
        self.rng = rng
        self.retry_policy = retry_policy or RetryPolicy()
        front, back = self.device_entries
        self.devices = (XsDeviceManager(sim, hypervisor, xenstore, hotplug,
                                        frontend_entries=front,
                                        backend_entries=back, rng=rng)
                        if xenstore is not None else None)
        #: Every control-plane-specific step after the toolstack's own.
        self.plane = NoxsPlane(self) if noxs is not None else XsPlane(self)
        #: CreationRecords in creation order.
        self.created: typing.List[CreationRecord] = []
        #: Creations that failed and were rolled back.
        self.rollbacks = 0
        #: Intent log + crash injector (attached by the recovery layer;
        #: None = no toolstack crash model, ``toolstack.*`` fault points
        #: never consulted).
        self.intents = None
        self._crash_faults = None

    def attach_intents(self, intents, faults=None) -> None:
        """Attach per-phase intent records and the injector whose
        ``toolstack.create`` / ``toolstack.destroy`` crash points they
        consult (see :mod:`repro.recovery.intents`)."""
        self.intents = intents
        self._crash_faults = faults

    def _bookkeeping_ms(self) -> float:
        """Toolstack-internal work per creation."""
        return self.costs.toolstack_fixed_ms

    def _register(self, domain: Domain, config: VMConfig, shell):
        """Generator: the domain's XenStore registration (XenStore plane
        only); returns the transaction retries it took."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------
    def create_vm(self, config: VMConfig, boot: bool = True):
        """Generator: create (and optionally boot) a VM; returns the
        :class:`CreationRecord` (``boot_ms`` filled in when ``boot``)."""
        tracer = tracer_of(self.sim)
        with tracer.span(self.command + ".create_vm", config=config.name,
                         split=self.daemon is not None) as span:
            record = yield from self._create(config, span)
        # 9. VIRTUAL MACHINE BOOT.
        if boot:
            domain = record.domain
            boot_start = self.sim.now
            with tracer.span(self.command + ".boot", config=config.name,
                             domid=domain.domid):
                self.hypervisor.domctl_unpause(domain)
                report = yield from boot_guest(self.sim, self.hypervisor,
                                               domain, config.image,
                                               xenstore=self.xenstore)
            record.boot_ms = self.sim.now - boot_start
            domain.notes["boot_report"] = report
        return record

    def _create(self, config: VMConfig, span):
        recorder = PhaseRecorder(self.sim)
        costs = self.costs
        image = config.image
        start = self.sim.now

        # 6. CONFIGURATION PARSING (Figure 5's instrumentation: the
        # toolstack parses before anything else).
        recorder.start("config")
        lines = max(1, config.text.count("\n"))
        yield self.sim.timeout(costs.parse_fixed_ms
                               + lines * costs.parse_per_line_ms)

        recorder.start("toolstack")
        yield self.sim.timeout(self._bookkeeping_ms())

        shell = None
        domain = None
        intent = (self.intents.open("create", toolstack=self, config=config)
                  if self.intents is not None else None)
        try:
            if self.daemon is not None:
                # Execute phase: take a pre-created shell from the pool.
                shell = yield from self.daemon.get_shell(config)
                domain = shell.domain
                span.set(domid=domain.domid, shell=True)
                yield self.sim.timeout(costs.shell_claim_ms)
                recorder.start("hypervisor")
                if domain.memory_kb != config.memory_kb:
                    self.hypervisor.domctl_resize_shell(domain,
                                                        config.memory_kb)
                    yield self.sim.timeout(
                        abs(config.memory_kb - domain.memory_kb) / 1024.0
                        * costs.mem_prep_us_per_mb / 1000.0)
                self.hypervisor.domctl_claim_shell(domain, name=config.name)
            else:
                # 1-4. HYPERVISOR RESERVATION / COMPUTE / MEMORY.
                # Transient DOMCTL_createdomain failures retry w/ backoff.
                recorder.start("hypervisor")
                domain = yield from retry_call(
                    self.sim, self.retry_policy, self.rng,
                    lambda: self.hypervisor.domctl_create(
                        name=config.name, memory_kb=config.memory_kb,
                        vcpus=config.vcpus),
                    (TransientHypercallError,))
                span.set(domid=domain.domid)
                yield self.sim.timeout(costs.hypervisor_fixed_ms)
                yield self.sim.timeout(
                    config.memory_kb / 1024.0
                    * costs.mem_prep_us_per_mb / 1000.0)
            if intent is not None:
                intent.domain = domain
            crash_check(self._crash_faults, intent, "hypervisor")

            retries = 0
            if self.xs is not None:
                recorder.start("xenstore")
                retries = yield from self._register(domain, config, shell)
                crash_check(self._crash_faults, intent, "xenstore")

            # 5+7. DEVICE PRE-CREATION / INITIALIZATION.
            recorder.start("devices")
            retries += yield from self.plane.setup_devices(domain, config,
                                                           shell)
            crash_check(self._crash_faults, intent, "devices")

            # 8. IMAGE BUILD: parse the kernel image, load it into memory.
            recorder.start("load")
            yield self.sim.timeout(
                costs.image_load_fixed_ms + image.toolstack_build_ms
                + image.kernel_size_kb * costs.image_load_us_per_kb
                / 1000.0)
            domain.image = image
            crash_check(self._crash_faults, intent, "load")
            recorder.stop()
        except ToolstackCrashed:
            # The toolstack process is gone: no inline rollback runs.
            # The open intent hands the half-built domain to the orphan
            # reaper.
            raise
        except Exception:
            # Never leak a half-built domain — even a claimed shell is
            # destroyed (the daemon's replenisher refills the pool).
            if domain is not None:
                yield from self._rollback_create(domain, config)
            if intent is not None:
                intent.close()  # rolled back inline: nothing to reap
            raise

        record = CreationRecord(
            domain=domain, config_name=config.name,
            phases=dict(recorder.totals),
            create_ms=self.sim.now - start,
            xenstore_retries=retries)
        self.created.append(record)
        if intent is not None:
            intent.close()
        return record

    def _rollback_create(self, domain: Domain, config: VMConfig):
        """Generator: best-effort teardown of a failed creation, tolerant
        of not-yet-created state (the plane's rollback)."""
        self.rollbacks += 1
        tracer_of(self.sim).instant(self.command + ".rollback",
                                    config=config.name, domid=domain.domid)
        yield from self.plane.rollback(domain, config)

    # ------------------------------------------------------------------
    # Destruction
    # ------------------------------------------------------------------
    def destroy_vm(self, domain: Domain):
        """Generator: tear down devices, store state and the domain."""
        with tracer_of(self.sim).span(self.command + ".destroy_vm",
                                      domid=domain.domid):
            intent = (self.intents.open("destroy", toolstack=self,
                                        domain=domain)
                      if self.intents is not None else None)
            if domain.state == DomainState.RUNNING:
                self.hypervisor.domctl_pause(domain)
            crash_check(self._crash_faults, intent, "paused")
            yield from self.plane.destroy_devices(domain)
            if self.xs is not None:
                # The store-side phases exist only on the XenStore plane.
                crash_check(self._crash_faults, intent, "devices")
                with self.xs.batch() as batch:
                    for root in self.roots:
                        batch.rm("%s/%d" % (root, domain.domid))
                    yield from batch.commit()
                crash_check(self._crash_faults, intent, "xenstore")
            self.plane.detach(domain)
            self.hypervisor.domctl_destroy(domain)
            if intent is not None:
                intent.close()
