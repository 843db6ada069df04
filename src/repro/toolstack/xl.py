"""The standard Xen toolstack: ``xl`` / ``libxl`` / ``libxc``.

Implements the nine-step creation process of Figure 8 on the XenStore
control plane, with per-phase accounting matching Figure 5's categories.
This is the baseline LightVM is measured against: creation cost grows with
the number of running guests because every XenStore interaction gets more
expensive (watch scans, ambient load, name checks, transaction retries).
"""

from __future__ import annotations

import dataclasses
import typing

from ..faults.plan import ToolstackCrashed, TransientHypercallError
from ..faults.retry import RetryExhausted, RetryPolicy, retry_call
from ..guests.boot import boot_guest
from ..recovery.intents import crash_check
from ..hypervisor.domain import Domain, DomainState
from ..hypervisor.hypervisor import DOM0_ID, Hypervisor
from ..trace.tracer import tracer_of
from ..xenstore.client import XsClient
from ..xenstore.daemon import XenStoreDaemon
from .config import VMConfig
from .devices import XsDeviceManager
from .hotplug import BashHotplug
from .phases import CreationRecord, PhaseRecorder
from .plane import XsPlane

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Simulator


@dataclasses.dataclass
class XlCosts:
    """Cost constants for xl/libxl (ms unless noted)."""

    #: Config file parsing: fixed + per line.
    parse_fixed_ms: float = 0.6
    parse_per_line_ms: float = 0.08
    #: xl process start + libxl context init + internal state keeping.
    toolstack_fixed_ms: float = 21.0
    #: libxl bookkeeping that grows mildly with existing domains (µs).
    toolstack_per_domain_us: float = 2.0
    #: Hypervisor interaction: domain creation, vCPU setup.
    hypervisor_fixed_ms: float = 5.5
    #: Preparing (scrubbing/mapping) guest memory, µs per MiB.
    mem_prep_us_per_mb: float = 2200.0
    #: Parsing + loading the kernel image into guest memory, µs per KiB
    #: (≈1 ms/MB — the slope of Figure 2).
    image_load_us_per_kb: float = 1.0
    image_load_fixed_ms: float = 0.4
    #: Base XenStore entries every xl guest gets (console, memory target,
    #: vm-path, features...).
    base_entries: int = 55
    #: Entries under /vm/<uuid> and the /libxl mirror tree.
    vm_entries: int = 20
    #: Entries removed/written during teardown.
    teardown_entries: int = 6


class ToolstackError(RetryExhausted):
    """An xl operation ran out of retries."""


class XlToolstack:
    """The xl command + libxl library against a XenStore control plane."""

    name = "xl"

    def __init__(self, sim: "Simulator", hypervisor: Hypervisor,
                 xenstore: XenStoreDaemon,
                 hotplug=None,
                 costs: typing.Optional[XlCosts] = None,
                 rng=None,
                 retry_policy: typing.Optional[RetryPolicy] = None):
        self.sim = sim
        self.hypervisor = hypervisor
        self.xenstore = xenstore
        #: Dom0 connection handle — all toolstack-side store traffic.
        self.xs = XsClient(xenstore, DOM0_ID)
        self.costs = costs or XlCosts()
        self.hotplug = hotplug or BashHotplug(sim)
        #: Jitter stream + schedule for control-plane retries.
        self.rng = rng
        self.retry_policy = retry_policy or RetryPolicy()
        self.devices = XsDeviceManager(sim, hypervisor, xenstore,
                                       self.hotplug,
                                       frontend_entries=5,
                                       backend_entries=6,
                                       rng=rng)
        #: Guest control after creation: store subtrees under both roots.
        self.plane = XsPlane(self, roots=("/local/domain", "/vm"))
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

    # ------------------------------------------------------------------
    # VM creation (Figure 8, standard toolstack column)
    # ------------------------------------------------------------------
    def create_vm(self, config: VMConfig, boot: bool = True):
        """Generator: create (and optionally boot) a VM.

        Returns a :class:`CreationRecord`; ``record.boot_ms`` is filled in
        when ``boot=True``.
        """
        recorder = PhaseRecorder(self.sim)
        image = config.image
        start = self.sim.now
        tracer = tracer_of(self.sim)
        intent = (self.intents.open("create", toolstack=self, config=config)
                  if self.intents is not None else None)

        with tracer.span("xl.create_vm", config=config.name) as create_span:
            # 6. CONFIGURATION PARSING (order per Figure 5's
            # instrumentation: xl parses before anything else).
            recorder.start("config")
            lines = max(1, config.text.count("\n"))
            yield self.sim.timeout(self.costs.parse_fixed_ms
                                   + lines * self.costs.parse_per_line_ms)

            # Internal toolstack bookkeeping.
            recorder.start("toolstack")
            domain_count = self.hypervisor.domain_count()
            yield self.sim.timeout(
                self.costs.toolstack_fixed_ms
                + domain_count * self.costs.toolstack_per_domain_us
                / 1000.0)

            # 1-4. HYPERVISOR RESERVATION / COMPUTE / MEMORY.  Transient
            # DOMCTL_createdomain failures are retried with backoff.
            recorder.start("hypervisor")
            domain = yield from retry_call(
                self.sim, self.retry_policy, self.rng,
                lambda: self.hypervisor.domctl_create(
                    name=config.name, memory_kb=config.memory_kb,
                    vcpus=config.vcpus),
                (TransientHypercallError,))
            create_span.set(domid=domain.domid)
            yield self.sim.timeout(self.costs.hypervisor_fixed_ms)
            yield self.sim.timeout(config.memory_kb / 1024.0
                                   * self.costs.mem_prep_us_per_mb / 1000.0)
            if intent is not None:
                intent.domain = domain
            crash_check(self._crash_faults, intent, "hypervisor")

            try:
                # XenStore registration: name check + base entries +
                # /vm tree.
                recorder.start("xenstore")
                retries = yield from self._write_domain_entries(domain,
                                                                config)
                crash_check(self._crash_faults, intent, "xenstore")

                # 5+7. DEVICE PRE-CREATION / INITIALIZATION.
                recorder.start("devices")
                for index, vif in enumerate(config.vifs):
                    yield from self.devices.create_device(domain, "vif",
                                                          index, params=vif)
                for index, _vbd in enumerate(config.vbds):
                    yield from self.devices.create_device(domain, "vbd",
                                                          index)
                crash_check(self._crash_faults, intent, "devices")

                # 8. IMAGE BUILD: parse the kernel image, load it into
                # memory.
                recorder.start("load")
                yield self.sim.timeout(
                    self.costs.image_load_fixed_ms
                    + image.toolstack_build_ms
                    + image.kernel_size_kb * self.costs.image_load_us_per_kb
                    / 1000.0)
                domain.image = image
                crash_check(self._crash_faults, intent, "load")
                recorder.stop()
            except ToolstackCrashed:
                # The toolstack process is gone: no inline rollback runs.
                # The open intent hands the half-built domain to the
                # orphan reaper.
                raise
            except Exception:
                # A failed creation must not leak the half-built domain:
                # tear down whatever was already registered, then re-raise.
                yield from self._rollback_create(domain, config)
                if intent is not None:
                    intent.close()  # rolled back inline: nothing to reap
                raise

            record = CreationRecord(
                domain=domain, config_name=config.name,
                phases=dict(recorder.totals),
                create_ms=self.sim.now - start,
                xenstore_retries=retries + self.devices.retries_total)
            self.created.append(record)
            if intent is not None:
                intent.close()

        # 9. VIRTUAL MACHINE BOOT.
        if boot:
            boot_start = self.sim.now
            with tracer.span("xl.boot", config=config.name,
                             domid=domain.domid):
                self.hypervisor.domctl_unpause(domain)
                report = yield from boot_guest(self.sim, self.hypervisor,
                                               domain, image,
                                               xenstore=self.xenstore)
            record.boot_ms = self.sim.now - boot_start
            domain.notes["boot_report"] = report
        return record

    def _write_domain_entries(self, domain: Domain, config: VMConfig):
        """Generator: the domain's XenStore registration (with retries)."""
        yield from self.xs.check_unique_name(config.name)
        entry_count = (self.costs.base_entries + self.costs.vm_entries
                       + config.image.extra_xenstore_entries)
        base = "/local/domain/%d" % domain.domid
        vm_base = "/vm/%d" % domain.domid

        def register(txn):
            yield from txn.write(base + "/name", config.name)
            yield from txn.write(base + "/memory/target",
                                 str(config.memory_kb))
            yield from txn.write(base + "/vm", vm_base)
            yield from txn.write(vm_base + "/name", config.name)
            for index in range(max(0, entry_count - 4)):
                yield from txn.write(base + "/data/%d" % index, "x")

        try:
            return (yield from self.xs.transaction(register, rng=self.rng))
        except RetryExhausted as exc:
            raise ToolstackError(
                "domain registration for %r: retries exhausted"
                % config.name) from exc

    def _rollback_create(self, domain: Domain, config: VMConfig):
        """Generator: roll a failed creation back (XsPlane.rollback)."""
        self.rollbacks += 1
        tracer_of(self.sim).instant("xl.rollback", config=config.name,
                                    domid=domain.domid)
        yield from self.plane.rollback(domain, config)

    # ------------------------------------------------------------------
    # Destruction
    # ------------------------------------------------------------------
    def destroy_vm(self, domain: Domain):
        """Generator: tear down devices, XenStore state and the domain."""
        intent = (self.intents.open("destroy", toolstack=self,
                                    domain=domain)
                  if self.intents is not None else None)
        with tracer_of(self.sim).span("xl.destroy_vm",
                                      domid=domain.domid):
            if domain.state == DomainState.RUNNING:
                self.hypervisor.domctl_pause(domain)
            crash_check(self._crash_faults, intent, "paused")
            yield from self.plane.destroy_devices(domain)
            crash_check(self._crash_faults, intent, "devices")
            with self.xs.batch() as batch:
                for root in self.plane.roots:
                    batch.rm("%s/%d" % (root, domain.domid))
                yield from batch.commit()
            crash_check(self._crash_faults, intent, "xenstore")
            self.plane.detach(domain)
            self.hypervisor.domctl_destroy(domain)
            if intent is not None:
                intent.close()
