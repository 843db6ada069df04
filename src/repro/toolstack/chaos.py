"""The chaos/libchaos toolstack — LightVM's replacement for xl/libxl.

§5.1: "we begin by replacing libxl and the corresponding xl command with a
streamlined, thin library and command called libchaos and chaos".  chaos
can drive either control plane:

* **chaos [XS]** — still uses the XenStore, but writes far fewer entries
  and uses ``xendevd`` instead of bash hotplug scripts;
* **chaos [noxs]** — no XenStore at all: devices go through the noxs
  module's ioctls and the hypervisor device page; power operations go
  through the sysctl split device.

Combined with the split toolstack (:mod:`repro.toolstack.shellpool`) the
full LightVM configuration takes a pre-created shell from the chaos daemon
and only runs the execute phase: parse config, finalize devices, load the
image, boot.
"""

from __future__ import annotations

import dataclasses
import typing

from ..faults.plan import ToolstackCrashed, TransientHypercallError
from ..faults.retry import RetryExhausted, RetryPolicy, retry_call
from ..guests.boot import boot_guest
from ..hypervisor.devicepage import DEV_VBD, DEV_VIF
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
from .hotplug import Xendevd
from .phases import CreationRecord, PhaseRecorder
from .plane import NoxsPlane, XsPlane

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Simulator
    from .shellpool import ChaosDaemon


@dataclasses.dataclass
class ChaosCosts:
    """Cost constants for chaos/libchaos (ms unless noted)."""

    #: chaos's config format is trivial to parse.
    parse_fixed_ms: float = 0.06
    parse_per_line_ms: float = 0.004
    #: Lean binary, persistent state, no libxl context dance.
    toolstack_fixed_ms: float = 0.6
    #: Hypervisor interaction for domain creation.
    hypervisor_fixed_ms: float = 1.0
    #: Memory preparation, µs per MiB (batched mappings).
    mem_prep_us_per_mb: float = 2200.0
    #: Kernel image parse+load, µs per KiB (same storage path as xl).
    image_load_us_per_kb: float = 1.0
    image_load_fixed_ms: float = 0.08
    #: XenStore entries chaos writes per guest (XS mode only; no /vm tree,
    #: no name registration).
    base_entries: int = 3
    #: Entries written at execute time for a split-prepared device.
    split_device_entries: int = 1
    #: Claiming a shell from the daemon's pool (unix socket round trip).
    shell_claim_ms: float = 0.1


class ChaosToolstack:
    """The chaos command against either control plane."""

    def __init__(self, sim: "Simulator", hypervisor: Hypervisor,
                 xenstore: typing.Optional[XenStoreDaemon] = None,
                 noxs: typing.Optional[NoxsModule] = None,
                 sysctl: typing.Optional[SysctlBackend] = None,
                 daemon: typing.Optional["ChaosDaemon"] = None,
                 hotplug=None,
                 costs: typing.Optional[ChaosCosts] = None,
                 rng=None,
                 retry_policy: typing.Optional[RetryPolicy] = None):
        if (xenstore is None) == (noxs is None):
            raise ValueError("chaos needs exactly one control plane: "
                             "either a XenStore or a noxs module")
        if noxs is not None and sysctl is None:
            raise ValueError("the noxs control plane requires a sysctl "
                             "backend for power operations")
        self.sim = sim
        self.hypervisor = hypervisor
        self.xenstore = xenstore
        #: Dom0 connection handle (None on the noxs control plane).
        self.xs = XsClient(xenstore, DOM0_ID) if xenstore is not None \
            else None
        self.noxs = noxs
        self.sysctl = sysctl
        self.daemon = daemon
        self.costs = costs or ChaosCosts()
        self.hotplug = hotplug or Xendevd(sim)
        #: Jitter stream + schedule for control-plane retries.
        self.rng = rng
        self.retry_policy = retry_policy or RetryPolicy()
        self.devices = (XsDeviceManager(sim, hypervisor, xenstore,
                                        self.hotplug,
                                        frontend_entries=2,
                                        backend_entries=3,
                                        rng=rng)
                        if xenstore is not None else None)
        #: Guest control after creation.
        self.plane = (NoxsPlane(self) if noxs is not None
                      else XsPlane(self, roots=("/local/domain",)))
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

    @property
    def name(self) -> str:
        parts = ["chaos"]
        parts.append("noxs" if self.noxs is not None else "xs")
        if self.daemon is not None:
            parts.append("split")
        return "+".join(parts)

    @property
    def uses_noxs(self) -> bool:
        return self.noxs is not None

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------
    def create_vm(self, config: VMConfig, boot: bool = True):
        """Generator: create (and optionally boot) a VM; returns the
        :class:`CreationRecord`."""
        tracer = tracer_of(self.sim)
        with tracer.span("chaos.create_vm", config=config.name,
                         split=self.daemon is not None) as span:
            record = yield from self._create_vm(config, span)
        if boot:
            domain = record.domain
            boot_start = self.sim.now
            with tracer.span("chaos.boot", config=config.name,
                             domid=domain.domid):
                self.hypervisor.domctl_unpause(domain)
                report = yield from boot_guest(self.sim, self.hypervisor,
                                               domain, config.image,
                                               xenstore=self.xenstore)
            record.boot_ms = self.sim.now - boot_start
            domain.notes["boot_report"] = report
        return record

    def _create_vm(self, config: VMConfig, span):
        recorder = PhaseRecorder(self.sim)
        image = config.image
        start = self.sim.now

        recorder.start("config")
        lines = max(1, config.text.count("\n"))
        yield self.sim.timeout(self.costs.parse_fixed_ms
                               + lines * self.costs.parse_per_line_ms)

        recorder.start("toolstack")
        yield self.sim.timeout(self.costs.toolstack_fixed_ms)

        shell = None
        domain = None
        intent = (self.intents.open("create", toolstack=self, config=config)
                  if self.intents is not None else None)
        retries_before = (self.devices.retries_total
                          if self.devices is not None else 0)
        try:
            if self.daemon is not None:
                # Execute phase: take a pre-created shell from the pool.
                shell = yield from self.daemon.get_shell(config)
                domain = shell.domain
                span.set(domid=domain.domid, shell=True)
                yield self.sim.timeout(self.costs.shell_claim_ms)
                recorder.start("hypervisor")
                if domain.memory_kb != config.memory_kb:
                    self.hypervisor.domctl_resize_shell(domain,
                                                        config.memory_kb)
                    yield self.sim.timeout(
                        abs(config.memory_kb - domain.memory_kb) / 1024.0
                        * self.costs.mem_prep_us_per_mb / 1000.0)
                self.hypervisor.domctl_claim_shell(domain, name=config.name)
            else:
                # Transient DOMCTL_createdomain failures retry w/ backoff.
                recorder.start("hypervisor")
                domain = yield from retry_call(
                    self.sim, self.retry_policy, self.rng,
                    lambda: self.hypervisor.domctl_create(
                        name=config.name, memory_kb=config.memory_kb,
                        vcpus=config.vcpus),
                    (TransientHypercallError,))
                span.set(domid=domain.domid)
                yield self.sim.timeout(self.costs.hypervisor_fixed_ms)
                yield self.sim.timeout(
                    config.memory_kb / 1024.0
                    * self.costs.mem_prep_us_per_mb / 1000.0)
                if self.uses_noxs:
                    self.hypervisor.devpage_create(domain)
            if intent is not None:
                intent.domain = domain
            crash_check(self._crash_faults, intent, "hypervisor")

            if self.uses_noxs:
                recorder.start("devices")
                yield from self._setup_noxs_devices(domain, config, shell)
            else:
                recorder.start("xenstore")
                yield from self._write_domain_entries(domain, config, shell)
                crash_check(self._crash_faults, intent, "xenstore")
                recorder.start("devices")
                yield from self._setup_xs_devices(domain, config, shell)
            crash_check(self._crash_faults, intent, "devices")
            retries = ((self.devices.retries_total - retries_before)
                       if self.devices is not None else 0)

            recorder.start("load")
            yield self.sim.timeout(
                self.costs.image_load_fixed_ms + image.toolstack_build_ms
                + image.kernel_size_kb * self.costs.image_load_us_per_kb
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

    # ------------------------------------------------------------------
    # noxs device path
    # ------------------------------------------------------------------
    def _setup_noxs_devices(self, domain: Domain, config: VMConfig, shell):
        """Generator: ioctl-created devices recorded in the device page."""
        prepared = list(shell.prepared_devices) if shell is not None else []
        # Recorded incrementally so a mid-setup failure can roll back the
        # devices that already exist.
        entries = domain.notes.setdefault("noxs_devices", [])
        for index, vif in enumerate(config.vifs):
            if prepared:
                entry = prepared.pop(0)
            else:
                mac = _parse_mac(vif.get("mac"))
                entry = yield from self.noxs.ioctl_create_device(
                    domain, DEV_VIF, mac=mac)
            index_on_page = yield from self.noxs.write_devpage(domain,
                                                               entry)
            entries.append((index_on_page, entry))
            devname = "vif%d.%d" % (domain.domid, index)
            yield from self.hotplug.attach(domain.domid, devname)
        for _index in range(len(config.vbds)):
            if prepared:
                entry = prepared.pop(0)
            else:
                entry = yield from self.noxs.ioctl_create_device(
                    domain, DEV_VBD)
            index_on_page = yield from self.noxs.write_devpage(domain,
                                                               entry)
            entries.append((index_on_page, entry))
        # Power operations need the sysctl pseudo-device.
        yield from self.sysctl.attach(domain)

    # ------------------------------------------------------------------
    # XenStore device path
    # ------------------------------------------------------------------
    def _write_domain_entries(self, domain: Domain, config: VMConfig,
                              shell):
        """Generator: chaos's lean XenStore registration."""
        base = "/local/domain/%d" % domain.domid
        entry_count = self.costs.base_entries
        if shell is not None:
            # The prepare phase already wrote the skeleton; only the
            # VM-specific leaves remain.
            entry_count = 2

        def register(txn):
            yield from txn.write(base + "/memory/target",
                                 str(config.memory_kb))
            for index in range(max(0, entry_count - 1)):
                yield from txn.write(base + "/chaos/%d" % index, "x")

        try:
            yield from self.xs.transaction(register, rng=self.rng)
        except RetryExhausted as exc:
            raise RetryExhausted("chaos registration for %r: retries "
                                 "exhausted" % config.name) from exc

    def _setup_xs_devices(self, domain: Domain, config: VMConfig, shell):
        """Generator: device setup via XenStore, optionally pre-created."""
        if shell is not None:
            # Devices were pre-created in the prepare phase; just finalize
            # the VM-specific leaves and plumb the interface.
            for index, vif in enumerate(config.vifs):
                back_base = "/local/domain/%d/backend/vif/%d/%d" % (
                    DOM0_ID, domain.domid, index)
                with self.xs.batch() as batch:
                    if "mac" in vif:
                        batch.write(back_base + "/mac", vif["mac"])
                    for extra in range(self.costs.split_device_entries - 1):
                        batch.write(back_base + "/final-%d" % extra, "x")
                    yield from batch.commit()
                devname = "vif%d.%d" % (domain.domid, index)
                yield from self.hotplug.attach(domain.domid, devname)
            return
        for index, vif in enumerate(config.vifs):
            yield from self.devices.create_device(domain, "vif", index,
                                                  params=vif)
        for index, _vbd in enumerate(config.vbds):
            yield from self.devices.create_device(domain, "vbd", index)

    def _rollback_create(self, domain: Domain, config: VMConfig):
        """Generator: best-effort teardown of a failed creation on
        whichever control plane (tolerant of not-yet-created state)."""
        self.rollbacks += 1
        tracer_of(self.sim).instant("chaos.rollback", config=config.name,
                                    domid=domain.domid)
        yield from self.plane.rollback(domain, config)

    # ------------------------------------------------------------------
    # Destruction
    # ------------------------------------------------------------------
    def destroy_vm(self, domain: Domain):
        """Generator: tear the VM down on whichever control plane."""
        with tracer_of(self.sim).span("chaos.destroy_vm",
                                      domid=domain.domid):
            yield from self._destroy_vm(domain)

    def _destroy_vm(self, domain: Domain):
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
            yield from self.xs.rm("/local/domain/%d" % domain.domid)
            crash_check(self._crash_faults, intent, "xenstore")
        self.plane.detach(domain)
        self.hypervisor.domctl_destroy(domain)
        if intent is not None:
            intent.close()


def _parse_mac(text: typing.Optional[str]) -> bytes:
    """Parse 'aa:bb:cc:dd:ee:ff' into 6 bytes (zeros when absent)."""
    if not text:
        return b"\x00" * 6
    parts = text.split(":")
    if len(parts) != 6:
        raise ValueError("malformed MAC address %r" % text)
    return bytes(int(part, 16) for part in parts)
