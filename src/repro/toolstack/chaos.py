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
image, boot.  Every variant runs the create/destroy driver it shares with
xl (:mod:`repro.toolstack.base`), with chaos's costs and registration.
"""

from __future__ import annotations

import dataclasses
import typing

from ..faults.retry import RetryExhausted, RetryPolicy
from ..hypervisor.domain import Domain
from ..hypervisor.hypervisor import Hypervisor
from ..noxs.module import NoxsModule
from ..noxs.sysctl import SysctlBackend
from ..xenstore.daemon import XenStoreDaemon
from .base import Toolstack
from .config import VMConfig
from .hotplug import Xendevd

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
    #: Overhead around save and around restore (lean binary).
    save_overhead_ms: float = 1.0
    restore_overhead_ms: float = 1.0
    #: Command overhead around pause, unpause and reboot.
    power_overhead_ms: float = 0.4


class ChaosToolstack(Toolstack):
    """The chaos command against either control plane."""

    command = "chaos"
    device_entries = (2, 3)
    #: No /vm tree: guest store state lives under /local/domain only.
    roots = ("/local/domain",)
    # Bound on the class itself, for the reason given on XlToolstack.
    create_vm = Toolstack.create_vm
    destroy_vm = Toolstack.destroy_vm

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
        super().__init__(sim, hypervisor, hotplug or Xendevd(sim),
                         costs or ChaosCosts(), xenstore=xenstore,
                         noxs=noxs, sysctl=sysctl, daemon=daemon, rng=rng,
                         retry_policy=retry_policy)

    @property
    def name(self) -> str:
        parts = ["chaos"]
        parts.append("noxs" if self.noxs is not None else "xs")
        if self.daemon is not None:
            parts.append("split")
        return "+".join(parts)

    def _register(self, domain: Domain, config: VMConfig, shell):
        """Generator: chaos's lean XenStore registration — no /vm tree,
        no name check."""
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
            return (yield from self.xs.transaction(register, rng=self.rng))
        except RetryExhausted as exc:
            raise RetryExhausted("chaos registration for %r: retries "
                                 "exhausted" % config.name) from exc
