"""The guest control plane: the XenStore or noxs, behind one seam (§5.1).

Each toolstack builds one plane in its constructor, and every step that
differs between the two control planes goes through it: device setup at
creation, suspend and resume (save, restore, migration), releasing a
saved or migrated guest, device teardown, create rollback and the
ambient-client ledger.  Callers never branch on the control plane.  A
plane copies the collaborators it needs from its toolstack and keeps no
reference to the toolstack itself.

The ledger: a XenStore guest with a live xenbus adds its image's
``ambient_weight`` to the daemon's ``ambient_clients`` and records it in
``domain.notes["xenstore_client"]``.  Apart from the registration at the
end of a XenStore boot (:func:`repro.guests.boot.boot_guest`), only
:meth:`XsPlane.connect` and :meth:`XsPlane.disconnect` write or pop that
note; :mod:`repro.faults.invariants` audits it.
"""

from __future__ import annotations

import typing

from ..hypervisor.devicepage import DEV_VBD, DEV_VIF
from ..hypervisor.domain import Domain, ShutdownReason
from ..hypervisor.hypervisor import DOM0_ID
from ..noxs.sysctl import SysctlBackend
from ..trace.tracer import tracer_of
from .config import VMConfig
from .devices import _patient_rm


class XsPlane:
    """Guest control through the XenStore (xl, chaos [XS]).

    Its toolstack's ``roots`` hold one store subtree per guest: xl writes
    ``/local/domain/<domid>`` and ``/vm/<domid>``, chaos only the first.
    """

    def __init__(self, toolstack):
        self.sim = toolstack.sim
        self.hypervisor = toolstack.hypervisor
        self.xenstore = toolstack.xenstore
        self.xs = toolstack.xs
        self.devices = toolstack.devices
        self.hotplug = toolstack.hotplug
        self.costs = toolstack.costs
        self.rng = toolstack.rng
        self.roots = toolstack.roots

    def setup_devices(self, domain: Domain, config: VMConfig, shell):
        """Generator: the config's vifs and vbds through the device
        manager, or, on a pooled shell whose devices the prepare phase
        pre-created, only the VM-specific leaves plus the hotplug attach.
        Returns the store transaction retries it took."""
        if shell is not None:
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
            return 0
        retries = 0
        for index, vif in enumerate(config.vifs):
            retries += yield from self.devices.create_device(
                domain, "vif", index, params=vif)
        for index, _vbd in enumerate(config.vbds):
            retries += yield from self.devices.create_device(domain, "vbd",
                                                             index)
        return retries

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
        self.hotplug = toolstack.hotplug

    def setup_devices(self, domain: Domain, config: VMConfig, shell):
        """Generator: the device page (a pooled shell has one already),
        the devices recorded in it (a shell's prepared ones first), then
        the sysctl device.  Returns 0: no store transactions here."""
        if shell is None:
            self.hypervisor.devpage_create(domain)
            prepared = []
        else:
            prepared = list(shell.prepared_devices)
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
        return 0

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


def _parse_mac(text: typing.Optional[str]) -> bytes:
    """Parse 'aa:bb:cc:dd:ee:ff' into 6 bytes (zeros when absent)."""
    if not text:
        return b"\x00" * 6
    parts = text.split(":")
    if len(parts) != 6:
        raise ValueError("malformed MAC address %r" % text)
    return bytes(int(part, 16) for part in parts)
