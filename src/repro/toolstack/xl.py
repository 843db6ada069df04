"""The standard Xen toolstack: ``xl`` / ``libxl`` / ``libxc``.

Runs the nine-step creation process of Figure 8 (the shared driver,
:mod:`repro.toolstack.base`) on the XenStore control plane with xl's
costs, bash hotplug scripts and full XenStore registration.  This is the
baseline LightVM is measured against: creation cost grows with the number
of running guests because every XenStore interaction gets more expensive
(watch scans, ambient load, name checks, transaction retries).
"""

from __future__ import annotations

import dataclasses
import typing

from ..faults.retry import RetryExhausted, RetryPolicy
from ..hypervisor.domain import Domain
from ..hypervisor.hypervisor import Hypervisor
from ..xenstore.daemon import XenStoreDaemon
from .base import Toolstack
from .config import VMConfig
from .hotplug import BashHotplug

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
    #: Extra toolstack overhead around save (QEMU state, XS records).
    save_overhead_ms: float = 50.0
    #: Extra toolstack overhead around restore: QEMU device-model
    #: restore, front/back-end reconnection waits, console re-plumbing.
    #: Restore is xl's slowest direction (Fig 12b: ≈550 ms vs 128 ms).
    restore_overhead_ms: float = 390.0
    #: Command overhead around pause, unpause and reboot (process start,
    #: libxl).
    power_overhead_ms: float = 18.0


class ToolstackError(RetryExhausted):
    """An xl operation ran out of retries."""


class XlToolstack(Toolstack):
    """The xl command + libxl library against a XenStore control plane."""

    name = command = "xl"
    device_entries = (5, 6)
    #: Per-guest store subtrees: /local/domain plus the /vm tree.
    roots = ("/local/domain", "/vm")
    # Bound on the class itself, not only inherited: the benchmark
    # suite's layer ledger (benchmarks/suite/layers.py) patches both
    # through each toolstack class's own ``__dict__``.
    create_vm = Toolstack.create_vm
    destroy_vm = Toolstack.destroy_vm

    def __init__(self, sim: "Simulator", hypervisor: Hypervisor,
                 xenstore: XenStoreDaemon,
                 hotplug=None,
                 costs: typing.Optional[XlCosts] = None,
                 rng=None,
                 retry_policy: typing.Optional[RetryPolicy] = None):
        super().__init__(sim, hypervisor, hotplug or BashHotplug(sim),
                         costs or XlCosts(), xenstore=xenstore, rng=rng,
                         retry_policy=retry_policy)

    def _bookkeeping_ms(self) -> float:
        """libxl bookkeeping, growing mildly with existing domains."""
        return (self.costs.toolstack_fixed_ms
                + self.hypervisor.domain_count()
                * self.costs.toolstack_per_domain_us / 1000.0)

    def _register(self, domain: Domain, config: VMConfig, shell):
        """Generator: the unique-name check, then the base entries and
        the /vm tree in one transaction (with retries)."""
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
