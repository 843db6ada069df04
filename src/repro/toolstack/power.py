"""Pause/unpause — the third container property the paper requires.

§2: "Along with short instantiation times, containers can be paused and
unpaused quickly.  This can be used to achieve even higher density by
pausing idle instances ... Amazon Lambda, for instance, 'freezes' and
'thaws' containers."

For a VM, pause is a single hypercall (stop scheduling the vCPUs) and is
therefore inherently fast on *any* toolstack; the toolstack only adds its
command overhead.  A paused guest stops exerting idle CPU load but keeps
its memory reservation — pausing raises density on CPU, not on RAM
(unless combined with checkpointing).  On the XenStore its xenbus goes
quiet too: the toolstack's control plane (:mod:`repro.toolstack.plane`)
takes its weight off the ambient ledger until unpause.
"""

from __future__ import annotations

import dataclasses
import typing

from ..hypervisor.domain import Domain
from ..hypervisor.hypervisor import Hypervisor

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Simulator


@dataclasses.dataclass
class PowerCosts:
    """Pause/unpause latency constants (ms)."""

    #: The pause/unpause hypercall plus vCPU descheduling (the command's
    #: own overhead is its toolstack's ``power_overhead_ms``).
    hypercall_ms: float = 0.05


class PowerManager:
    """pause/unpause on top of a toolstack instance."""

    def __init__(self, toolstack,
                 costs: typing.Optional[PowerCosts] = None):
        self.toolstack = toolstack
        self.sim: "Simulator" = toolstack.sim
        self.hypervisor: Hypervisor = toolstack.hypervisor
        self.costs = costs or PowerCosts()

    def pause(self, domain: Domain):
        """Generator: freeze the guest.

        The paused guest stops burning CPU (its idle weight and runnable
        slot are released) but keeps its memory reservation.
        """
        yield self.sim.timeout(self.toolstack.costs.power_overhead_ms)
        self.hypervisor.domctl_pause(domain)
        # On the XenStore plane a frozen guest also stops its ambient
        # xenbus chatter; its weight is parked until unpause.
        weight = self.toolstack.plane.disconnect(domain)
        if weight:
            domain.notes["paused_xenstore_weight"] = weight
        yield self.sim.timeout(self.costs.hypercall_ms)

    def reboot(self, domain: Domain):
        """Generator: reboot in place — shutdown, reload, boot.

        Unlike destroy+create, the domain (id, memory reservation,
        devices) survives; only the guest kernel restarts.  Returns the
        fresh BootReport.
        """
        from ..guests.boot import boot_guest
        from ..hypervisor.domain import DomainState, ShutdownReason
        image = domain.image
        if image is None:
            raise RuntimeError("domain %d has no image to reboot into"
                               % domain.domid)
        yield self.sim.timeout(self.toolstack.costs.power_overhead_ms)
        self.hypervisor.domctl_shutdown(domain, ShutdownReason.REBOOT)
        # The dying kernel's xenbus connection and watches go with it.
        self.toolstack.plane.detach(domain)
        # Reload the kernel image into the existing reservation.
        yield self.sim.timeout(image.kernel_size_kb / 1000.0)
        domain.state = DomainState.CREATED
        domain.shutdown_reason = None  # the guest is coming back up
        self.hypervisor.domctl_unpause(domain)
        report = yield from boot_guest(
            self.sim, self.hypervisor, domain, image,
            xenstore=self.toolstack.xenstore)
        return report

    def unpause(self, domain: Domain):
        """Generator: thaw the guest (no boot — it continues instantly)."""
        yield self.sim.timeout(self.toolstack.costs.power_overhead_ms)
        self.hypervisor.domctl_unpause(domain)
        weight = domain.notes.pop("paused_xenstore_weight", None)
        if weight:
            self.toolstack.plane.connect(domain, weight)
        if domain.image is not None and domain.image.idle_cpu_weight:
            self.hypervisor.scheduler.set_idle_load(
                domain, domain.image.idle_cpu_weight)
        yield self.sim.timeout(self.costs.hypercall_ms)
