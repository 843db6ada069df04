"""The guest control plane: the XenStore or noxs, behind one seam (§5.1).

Each toolstack builds one plane in its constructor, and every operation
on an existing guest goes through it: suspend and resume (save, restore,
migration), releasing a saved or migrated guest, device teardown,
create rollback and the ambient-client ledger.  Callers never branch on
the control plane.

The ledger: a XenStore guest with a live xenbus adds its image's
``ambient_weight`` to the daemon's ``ambient_clients`` and records it in
``domain.notes["xenstore_client"]``.  Apart from the registration at the
end of a XenStore boot (:func:`repro.guests.boot.boot_guest`), only
:meth:`XsPlane.connect` and :meth:`XsPlane.disconnect` write or pop that
note; :mod:`repro.faults.invariants` audits it.
"""

from __future__ import annotations

import typing

from ..hypervisor.domain import Domain, ShutdownReason
from ..noxs.sysctl import SysctlBackend
from ..trace.tracer import tracer_of
from .config import VMConfig
from .devices import _patient_rm


class XsPlane:
    """Guest control through the XenStore (xl, chaos [XS]).

    ``roots`` hold one store subtree per guest (``<root>/<domid>``): xl
    writes ``/local/domain`` and ``/vm``, chaos only ``/local/domain``.
    """

    def __init__(self, toolstack, roots: typing.Tuple[str, ...]):
        self.sim = toolstack.sim
        self.hypervisor = toolstack.hypervisor
        self.xenstore = toolstack.xenstore
        self.xs = toolstack.xs
        self.devices = toolstack.devices
        self.rng = toolstack.rng
        self.roots = roots

    def connect(self, domain: Domain, weight: float) -> None:
        """The guest's xenbus is live: register its ambient traffic."""
        self.xenstore.register_client(weight)
        domain.notes["xenstore_client"] = weight

    def disconnect(self, domain: Domain) -> typing.Optional[float]:
        """The guest's xenbus went quiet; returns the weight it had."""
        weight = domain.notes.pop("xenstore_client", None)
        if weight:
            self.xenstore.unregister_client(weight)
        return weight

    def detach(self, domain: Domain) -> None:
        """The guest kernel is gone: drop its watches and its xenbus."""
        self.xenstore.watches.remove_for_domain(domain.domid)
        self.disconnect(domain)

    def suspend(self, domain: Domain):
        """Generator: ask the guest to suspend via the XenStore control
        node, then wait for it to acknowledge (the pre-noxs way)."""
        with tracer_of(self.sim).span("migration.suspend",
                                      domid=domain.domid):
            yield from self.xs.write(
                "/local/domain/%d/control/shutdown" % domain.domid,
                "suspend")
            # Guest-side: reads the node, quiesces, saves state.
            yield self.sim.timeout(3.0)
            self.disconnect(domain)
            self.hypervisor.domctl_shutdown(domain, ShutdownReason.SUSPEND)

    def resume(self, domain: Domain, weight: float):
        """Generator: run a restored or migrated guest, which reconnects
        its xenbus."""
        self.hypervisor.domctl_unpause(domain)
        yield self.sim.timeout(1.0)  # guest-side reconnect
        self.connect(domain, weight)

    def destroy_devices(self, domain: Domain):
        """Generator: remove the image's vifs and vbds."""
        image = domain.image
        if image is None:
            return
        for index in range(image.vifs):
            yield from self.devices.destroy_device(domain, "vif", index)
        for index in range(image.vbds):
            yield from self.devices.destroy_device(domain, "vbd", index)

    def release(self, domain: Domain):
        """Generator: free a suspended guest's devices, store subtrees,
        watches and domain once its memory is saved or sent."""
        yield from self.destroy_devices(domain)
        for root in self.roots:
            yield from self.xs.rm("%s/%d" % (root, domain.domid))
        self.detach(domain)
        self.hypervisor.domctl_destroy(domain)

    #: Save waits for the store cleanup, as migration does.
    release_saved = release

    def rollback(self, domain: Domain, config: VMConfig):
        """Generator: best-effort teardown of a failed creation.

        Every step is independent and tolerant of not-yet-created state,
        so however far creation got, nothing it allocated survives: device
        entries (plus their ports/grants/bridge ports), the domain's
        store subtrees, its watches and its hypervisor resources.
        """
        for kind, count in (("vif", len(config.vifs)),
                            ("vbd", len(config.vbds))):
            for index in range(count):
                try:
                    yield from self.devices.destroy_device(domain, kind,
                                                           index)
                except Exception:
                    pass
        for root in self.roots:
            yield from _patient_rm(self.sim, self.xs,
                                   "%s/%d" % (root, domain.domid), self.rng)
        self.detach(domain)
        try:
            self.hypervisor.domctl_destroy(domain)
        except Exception:
            pass


class NoxsPlane:
    """Guest control without a XenStore (chaos [noxs], LightVM).

    Power operations go through the sysctl split device; a guest's
    devices are the noxs back-ends in ``domain.notes["noxs_devices"]``
    plus the sysctl device.  No xenbus, so no ledger.
    """

    def __init__(self, toolstack):
        self.sim = toolstack.sim
        self.hypervisor = toolstack.hypervisor
        self.noxs = toolstack.noxs
        self.sysctl = toolstack.sysctl

    def connect(self, domain: Domain, weight: float) -> None:
        """Nothing to register."""

    def disconnect(self, domain: Domain) -> None:
        """Nothing registered."""

    detach = disconnect

    def suspend(self, domain: Domain):
        """Generator: suspend through the sysctl device."""
        with tracer_of(self.sim).span("migration.suspend",
                                      domid=domain.domid):
            yield from self.sysctl.request_suspend(domain)

    def resume(self, domain: Domain, weight: float):
        """Generator: the guest rebinds its devices and runs."""
        yield from self.sysctl.complete_resume(domain)

    def destroy_devices(self, domain: Domain):
        """Generator: ioctl-destroy the back-ends, then the sysctl
        device."""
        for _index, entry in domain.notes.get("noxs_devices", []):
            yield from self.noxs.ioctl_destroy_device(domain, entry)
        sysctl_entry = domain.notes.get(SysctlBackend.NOTE_KEY)
        if sysctl_entry is not None:
            yield from self.noxs.ioctl_destroy_device(domain, sysctl_entry)

    def release(self, domain: Domain):
        """Generator: destroy the devices, then the domain."""
        yield from self.destroy_devices(domain)
        self.hypervisor.domctl_destroy(domain)

    def release_saved(self, domain: Domain):
        """Generator that returns at once.  The checkpoint is durable, so
        the domain goes now and a background process destroys its
        devices (the unoptimized path) outside the reported save time.
        Migration waits for them instead (:meth:`release`; Fig 13's
        low-N crossover)."""
        self.hypervisor.domctl_destroy(domain)
        self.sim.process(self.destroy_devices(domain))
        yield from ()

    def rollback(self, domain: Domain, config: VMConfig):
        """Generator: best-effort teardown of a failed creation, tolerant
        of devices that were never created."""
        for _index, entry in list(domain.notes.get("noxs_devices", [])):
            try:
                yield from self.noxs.ioctl_destroy_device(domain, entry)
            except Exception:
                pass
        sysctl_entry = domain.notes.pop(SysctlBackend.NOTE_KEY, None)
        if sysctl_entry is not None:
            try:
                yield from self.noxs.ioctl_destroy_device(domain,
                                                          sysctl_entry)
            except Exception:
                pass
        try:
            self.hypervisor.domctl_destroy(domain)
        except Exception:
            pass
