"""The noxs Linux kernel module (Dom0 side).

§5.1 / Figure 7b: when ``chaos create`` runs, the toolstack requests device
creation from the back-end(s) "through an ioctl handled by the noxs Linux
kernel module"; the back-end returns the communication-channel details,
and the toolstack asks the hypervisor (via hypercall) to record them in
the VM's device page.

This module owns the back-end side of that flow: it allocates the event
channel, the device control page and its grant, and hands the triple back
to the toolstack.  It also keeps the frame → control-page mapping that
stands in for physical memory.
"""

from __future__ import annotations

import dataclasses
import typing

from ..faults.plan import GrantMapFailure
from ..faults.retry import RetryPolicy
from ..hypervisor.devicepage import DEV_SYSCTL, DEV_VBD, DEV_VIF, DeviceEntry
from ..hypervisor.domain import Domain
from ..hypervisor.grants import GrantError
from ..hypervisor.hypervisor import DOM0_ID, Hypervisor
from ..hypervisor.rings import RingPair
from ..trace.tracer import tracer_of
from .devctrl import DeviceControlPage

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Simulator


@dataclasses.dataclass
class NoxsCosts:
    """Cost constants for the noxs control path (µs)."""

    #: One ioctl into the kernel module (user/kernel crossing).
    ioctl_us: float = 8.0
    #: Back-end work to set up one device (channel + page + grant).
    backend_setup_us: float = 120.0
    #: The devpage-write hypercall issued by the toolstack.
    hypercall_us: float = 5.0
    #: Back-end teardown of one device.  Deliberately much larger than
    #: setup: §6.2 notes noxs "device destruction times ... which we have
    #: not yet optimized" make migration slightly slower than chaos+XS at
    #: low VM counts (Fig 13).
    backend_teardown_us: float = 9000.0


class NoxsModule:
    """Back-end device factory reached through ``/dev/noxs`` ioctls."""

    def __init__(self, sim: "Simulator", hypervisor: Hypervisor,
                 costs: typing.Optional[NoxsCosts] = None,
                 rng=None,
                 retry_policy: typing.Optional[RetryPolicy] = None):
        self.sim = sim
        self.hypervisor = hypervisor
        self.costs = costs or NoxsCosts()
        #: Retry schedule for transient grant-map failures.
        self.rng = rng
        self.retry_policy = retry_policy or RetryPolicy()
        self._next_frame = 0x100000
        #: frame number -> control page (both ends dereference through it).
        self.control_pages: typing.Dict[int, DeviceControlPage] = {}
        #: frame number -> the device's request/response ring pair.
        self.rings: typing.Dict[int, RingPair] = {}
        self.stats = {"devices_created": 0, "devices_destroyed": 0}

    def _alloc_frame(self) -> int:
        frame = self._next_frame
        self._next_frame += 1
        return frame

    # ------------------------------------------------------------------
    # ioctls (generators driven by toolstack processes)
    # ------------------------------------------------------------------
    def ioctl_create_device(self, domain: Domain, dev_type: int,
                            mac: bytes = b"\x00" * 6):
        """Generator: create one back-end device for ``domain``.

        Returns the :class:`DeviceEntry` the toolstack will write into the
        domain's device page via hypercall.  Currently back-ends must run
        in Dom0 (the paper notes the same restriction).
        """
        if dev_type not in (DEV_VIF, DEV_VBD, DEV_SYSCTL):
            raise ValueError("unsupported noxs device type %r" % dev_type)
        with tracer_of(self.sim).span("noxs.ioctl_create",
                                      domid=domain.domid,
                                      dev_type=dev_type):
            entry = yield from self._ioctl_create(domain, dev_type, mac)
        return entry

    def _ioctl_create(self, domain: Domain, dev_type: int, mac: bytes):
        yield self.sim.timeout(self.costs.ioctl_us / 1000.0)

        # Back-end: allocate the communication channel and control page.
        port = self.hypervisor.event_channels.alloc_unbound(
            DOM0_ID, domain.domid)
        frame = self._alloc_frame()
        page = DeviceControlPage(frame, dev_type, mac=mac)
        self.control_pages[frame] = page
        # Data path: the device's shared request/response rings, pointed
        # to by the control page (sysctl has no data path).
        if dev_type != DEV_SYSCTL:
            self.rings[frame] = RingPair()
            page.ring_ref = frame
        retry = 0
        started = self.sim.now
        while True:
            try:
                grant_ref = self.hypervisor.grants.grant_access(
                    DOM0_ID, domain.domid, frame)
                break
            except GrantMapFailure:
                retry += 1
                if self.retry_policy.give_up(retry, started, self.sim.now):
                    # Undo the half-built device before giving up.
                    self.control_pages.pop(frame, None)
                    self.rings.pop(frame, None)
                    self.hypervisor.event_channels.close(DOM0_ID, port)
                    raise
                yield self.sim.timeout(
                    self.retry_policy.backoff_ms(retry, self.rng))
        yield self.sim.timeout(self.costs.backend_setup_us / 1000.0)

        self.stats["devices_created"] += 1
        return DeviceEntry(dev_type=dev_type, state=page.state,
                           backend_domid=DOM0_ID, evtchn_port=port,
                           grant_ref=grant_ref, mac=mac)

    def ioctl_destroy_device(self, domain: Domain, entry):
        """Generator: tear down one back-end device (unoptimized path)."""
        with tracer_of(self.sim).span("noxs.ioctl_destroy",
                                      domid=domain.domid):
            yield from self._ioctl_destroy(domain, entry)

    def _ioctl_destroy(self, domain: Domain, entry):
        yield self.sim.timeout(self.costs.ioctl_us / 1000.0)
        # Force-revoke the control-page grant: the guest may be gone.
        try:
            grant = self.hypervisor.grants.entry(DOM0_ID, entry.grant_ref)
        except GrantError:
            pass  # already revoked
        else:
            self.control_pages.pop(grant.frame, None)
            self.rings.pop(grant.frame, None)
            grant.mapped_by = None
            self.hypervisor.grants.end_access(DOM0_ID, entry.grant_ref)
        try:
            self.hypervisor.event_channels.close(DOM0_ID, entry.evtchn_port)
        except Exception:
            pass  # peer already closed it during teardown
        yield self.sim.timeout(self.costs.backend_teardown_us / 1000.0)
        self.stats["devices_destroyed"] += 1

    def write_devpage(self, domain: Domain, entry: DeviceEntry):
        """Generator: hypercall adding ``entry`` to the domain's page."""
        with tracer_of(self.sim).span("noxs.devpage_write",
                                      domid=domain.domid):
            index = self.hypervisor.devpage_write(DOM0_ID, domain, entry)
            yield self.sim.timeout(self.costs.hypercall_us / 1000.0)
        return index
