"""Virtual device creation — the XenStore path (Figure 7a).

The three-step dance the paper describes:

1. the toolstack writes an entry into the back-end's XenStore directory,
   "essentially announcing the existence of a new VM in need of a network
   device";
2. the back-end — which had a watch on that directory — assigns an event
   channel and grant references and writes them back to the XenStore;
3. the guest, when it boots, reads that information from the XenStore
   (that part lives in :func:`repro.guests.boot.boot_guest`).

The toolstack's entries are written inside a transaction (retried on
conflict with exponential backoff + seeded jitter, so competing clients
de-synchronize); the back-end's response runs as its own simulation
process, so its writes genuinely contend with whatever the toolstack does
next.  Because the announcement watch can be dropped under fault
injection (``xenstore.watch``), the toolstack waits on the response with
a deadline and re-announces; because the back-end's allocation can fail
(``hypervisor.grant_map``), the respond process retries and — if the
request was abandoned meanwhile — rolls its allocations back.
"""

from __future__ import annotations

import typing

from ..faults.plan import (DaemonRestarted, GrantMapFailure, MessageTimeout,
                           Overloaded)
from ..faults.retry import (RetryExhausted, RetryPolicy, ROLLBACK_POLICY,
                            retry_generator)
from ..hypervisor.domain import Domain
from ..hypervisor.hypervisor import DOM0_ID, Hypervisor
from ..trace.tracer import tracer_of
from ..xenstore.client import (MAX_TX_RETRIES, TX_RETRY_POLICY,  # noqa: F401
                               XsClient)
from ..xenstore.daemon import XenStoreDaemon
from ..xenstore.permissions import NodePerms, PERM_BOTH, PERM_READ

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Simulator


class DeviceSetupError(RetryExhausted):
    """Device creation failed permanently (retries exhausted)."""


class XsDeviceManager:
    """Creates and destroys split-driver devices through the XenStore."""

    def __init__(self, sim: "Simulator", hypervisor: Hypervisor,
                 xenstore: XenStoreDaemon, hotplug,
                 frontend_entries: int = 4, backend_entries: int = 5,
                 retry_policy: typing.Optional[RetryPolicy] = None,
                 rng=None,
                 response_timeout_ms: float = 250.0,
                 response_retries: int = 8):
        self.sim = sim
        self.hypervisor = hypervisor
        self.xenstore = xenstore
        #: Dom0 connection handle — all toolstack-side store traffic.
        self.xs = XsClient(xenstore, DOM0_ID)
        self.hotplug = hotplug
        #: How many nodes the toolstack writes per device on each side;
        #: xl writes more than chaos (part of chaos's §5 streamlining).
        self.frontend_entries = frontend_entries
        self.backend_entries = backend_entries
        #: Conflict-retry schedule (exponential backoff + jitter).
        self.retry_policy = retry_policy or TX_RETRY_POLICY
        #: Jitter stream for retry backoff (None = no jitter).
        self.rng = rng
        #: How long to wait for the back-end's response before assuming
        #: the announcement watch was dropped and re-announcing.
        self.response_timeout_ms = response_timeout_ms
        self.response_retries = response_retries
        self.respond_failures = 0
        self._backend_watch_installed = False
        #: (domid, kind, index) -> event fired when back-end has responded.
        self._pending: typing.Dict[tuple, object] = {}
        #: Keys with a respond process currently scheduled (dedupe).
        self._responding: typing.Set[tuple] = set()

    # ------------------------------------------------------------------
    # Back-end side
    # ------------------------------------------------------------------
    def install_backend_watch(self):
        """Generator: netback/blkback place their directory watch (once)."""
        if self._backend_watch_installed:
            return
        self._backend_watch_installed = True
        yield from self.xs.watch(
            "/local/domain/%d/backend" % DOM0_ID, "backend",
            self._on_backend_event)

    def _on_backend_event(self, path: str, _token: str) -> None:
        # Fires for every write under the backend tree; react only to the
        # announcement node ("...///<index>/frontend") that step 1 writes.
        parts = path.strip("/").split("/")
        if len(parts) != 8 or parts[-1] != "frontend":
            return
        kind, domid_text, index_text = parts[4], parts[5], parts[6]
        key = (int(domid_text), kind, int(index_text))
        if key in self._pending and not self._pending[key].triggered \
                and key not in self._responding:
            self._responding.add(key)
            self.sim.process(self._backend_respond(key))

    def _backend_respond(self, key: tuple):
        """Process: step 2 — the back-end allocates and publishes.

        Hardened against faults: grant-map failures are retried with
        backoff; if the toolstack abandons the request mid-flight (the
        key left ``_pending``) the allocations are rolled back; any
        terminal error is swallowed (counted in ``respond_failures``) —
        the toolstack side times out and re-announces or gives up.
        """
        domid, kind, index = key
        port = None
        ref = None
        try:
            port = self.hypervisor.event_channels.alloc_unbound(DOM0_ID,
                                                                domid)
            retry = 0
            frame = 0x800000 + (domid << 8) + index
            while True:
                try:
                    ref = self.hypervisor.grants.grant_access(DOM0_ID, domid,
                                                              frame)
                    break
                except GrantMapFailure:
                    retry += 1
                    if self.retry_policy.give_up(retry, self.sim.now,
                                                 self.sim.now):
                        raise
                    yield self.sim.timeout(
                        self.retry_policy.backoff_ms(retry, self.rng))
            base = "/local/domain/%d/backend/%s/%d/%d" % (DOM0_ID, kind,
                                                          domid, index)
            for leaf, value in (("/event-channel", str(port)),
                                ("/grant-ref", str(ref)),
                                ("/state", "initialised")):
                if key not in self._pending:
                    # The toolstack gave up and tore the entries down;
                    # publishing now would recreate removed nodes.
                    self._rollback_respond(port, ref)
                    return
                # Sequential on purpose (not a batch): the abandonment
                # check between writes is what lets a mid-flight teardown
                # stop the publication.
                yield from self.xs.write(base + leaf, value)
            event = self._pending.get(key)
            if event is not None and not event.triggered:
                event.succeed((port, ref))
            elif event is None:
                self._rollback_respond(port, ref)
        except Exception:
            # A respond process must never crash the simulation: release
            # what it allocated and let the requester's deadline handle it.
            self.respond_failures += 1
            self._rollback_respond(port, ref)
        finally:
            self._responding.discard(key)

    def _rollback_respond(self, port, ref) -> None:
        if ref is not None:
            try:
                entry = self.hypervisor.grants.entry(DOM0_ID, ref)
                entry.mapped_by = None
                self.hypervisor.grants.end_access(DOM0_ID, ref)
            except Exception:
                pass
        if port is not None:
            try:
                self.hypervisor.event_channels.close(DOM0_ID, port)
            except Exception:
                pass

    # ------------------------------------------------------------------
    # Toolstack side
    # ------------------------------------------------------------------
    def create_device(self, domain: Domain, kind: str, index: int,
                      params: typing.Optional[dict] = None):
        """Generator: steps 1-2 plus hotplug; returns the announcement
        transaction's retries."""
        with tracer_of(self.sim).span("device.create", kind=kind,
                                      domid=domain.domid, index=index):
            retries = yield from self._create_device(domain, kind, index,
                                                     params)
        return retries

    def _create_device(self, domain: Domain, kind: str, index: int,
                       params: typing.Optional[dict] = None):
        yield from self.install_backend_watch()
        params = params or {}
        key = (domain.domid, kind, index)
        response = self.sim.event()
        self._pending[key] = response

        front_base = "/local/domain/%d/device/%s/%d" % (domain.domid, kind,
                                                        index)
        back_base = "/local/domain/%d/backend/%s/%d/%d" % (
            DOM0_ID, kind, domain.domid, index)

        def announce(txn):
            # Step 1: announce front+back entries in one transaction.
            yield from txn.write(front_base + "/backend", back_base)
            yield from txn.write(front_base + "/backend-id", str(DOM0_ID))
            yield from txn.write(front_base + "/state", "initialising")
            for extra in range(max(0, self.frontend_entries - 3)):
                yield from txn.write(front_base + "/feature-%d" % extra, "1")
            yield from txn.write(back_base + "/frontend", front_base)
            yield from txn.write(back_base + "/frontend-id",
                                 str(domain.domid))
            yield from txn.write(back_base + "/online", "1")
            if kind == "vif" and "mac" in params:
                yield from txn.write(back_base + "/mac", params["mac"])
            for extra in range(max(0, self.backend_entries - 4)):
                yield from txn.write(back_base + "/param-%d" % extra, "x")

        try:
            retries = yield from self.xs.transaction(
                announce, policy=self.retry_policy, rng=self.rng)
        except RetryExhausted as exc:
            yield from self._cleanup_failed_create(domain, kind, index)
            raise DeviceSetupError(
                "device %s/%d for domain %d: transaction retries "
                "exhausted" % (kind, index, domain.domid)) from exc

        # The front-end domain needs read access to its back-end
        # directory (to fetch the connection details at boot) and full
        # access to its own front-end directory (to drive its state).
        back_perms = NodePerms.owned_by(DOM0_ID).grant(domain.domid,
                                                       PERM_READ)
        yield from self.xs.set_perms(back_base, back_perms)
        front_perms = NodePerms.owned_by(DOM0_ID).grant(domain.domid,
                                                        PERM_BOTH)
        yield from self.xs.set_perms(front_base, front_perms)

        # The commit's watch firing triggered _backend_respond; if that
        # delivery was dropped (or the respond process died), wait with a
        # deadline and re-announce by rewriting the "frontend" node the
        # back-end keys on.
        attempt = 0
        while not response.triggered:
            attempt += 1
            if attempt > self.response_retries:
                yield from self._cleanup_failed_create(domain, kind, index)
                raise DeviceSetupError(
                    "device %s/%d for domain %d: back-end never responded"
                    % (kind, index, domain.domid))
            yield self.sim.any_of(
                [response, self.sim.timeout(self.response_timeout_ms)])
            if response.triggered:
                break
            yield from self.xs.write(back_base + "/frontend", front_base)
        self._pending.pop(key, None)

        # User-space plumbing (bridge attach) via the hotplug mechanism.
        if kind == "vif":
            devname = "vif%d.%d" % (domain.domid, index)
            yield from self.hotplug.attach(domain.domid, devname)
        return retries

    def _cleanup_failed_create(self, domain: Domain, kind: str, index: int):
        """Generator: undo a half-finished :meth:`create_device`.

        Pops the pending request (so a late respond rolls itself back)
        and patiently removes both subtrees — cleanup must outlast a
        fault window, so it uses the rollback policy's larger budget.
        Both callers run it before the back-end has responded, so there
        is no published port or grant to release here.
        """
        self._pending.pop((domain.domid, kind, index), None)
        front_base = "/local/domain/%d/device/%s/%d" % (domain.domid, kind,
                                                        index)
        back_base = "/local/domain/%d/backend/%s/%d/%d" % (
            DOM0_ID, kind, domain.domid, index)
        for path in (front_base, back_base):
            yield from _patient_rm(self.sim, self.xs, path, self.rng)
        yield from _rm_backend_parent(self.sim, self.xs, kind,
                                      domain.domid, self.rng)

    def destroy_device(self, domain: Domain, kind: str, index: int):
        """Generator: release back-end resources, remove front/back
        entries, and detach the user-space plumbing."""
        with tracer_of(self.sim).span("device.destroy", kind=kind,
                                      domid=domain.domid, index=index):
            yield from self._destroy_device(domain, kind, index)

    def _destroy_device(self, domain: Domain, kind: str, index: int):
        front_base = "/local/domain/%d/device/%s/%d" % (domain.domid, kind,
                                                        index)
        back_base = "/local/domain/%d/backend/%s/%d/%d" % (
            DOM0_ID, kind, domain.domid, index)
        # Drop any in-flight request so a late respond backs out instead
        # of recreating the nodes we are about to remove.
        self._pending.pop((domain.domid, kind, index), None)
        # Back-end teardown: close its event channel and revoke the grant
        # it published (force-unmapping if the guest is still attached).
        tree = self.xenstore.tree
        try:
            port = int(tree.read(back_base + "/event-channel"))
            self.hypervisor.event_channels.close(DOM0_ID, port)
        except Exception:
            pass  # never connected, or already closed by the guest side
        try:
            ref = int(tree.read(back_base + "/grant-ref"))
            entry = self.hypervisor.grants.entry(DOM0_ID, ref)
            entry.mapped_by = None
            self.hypervisor.grants.end_access(DOM0_ID, ref)
        except Exception:
            pass
        with self.xs.batch() as batch:
            batch.rm(front_base)
            batch.rm(back_base)
            yield from batch.commit()
        yield from _rm_backend_parent(self.sim, self.xs, kind,
                                      domain.domid, self.rng)
        if kind == "vif":
            devname = "vif%d.%d" % (domain.domid, index)
            yield from self.hotplug.detach(domain.domid, devname)


def _rm_backend_parent(sim, xs: XsClient, kind: str, domid: int, rng=None):
    """Generator: drop ``/local/domain/0/backend/<kind>/<domid>`` once its
    last device directory is gone — empty per-domain backend dirs outlive
    the domain otherwise (the invariant checker flags them as leaks)."""
    parent = "/local/domain/%d/backend/%s/%d" % (DOM0_ID, kind, domid)
    tree = xs.tree
    if tree.exists(parent) and not tree.directory(parent):
        yield from _patient_rm(sim, xs, parent, rng)


#: What patient cleanup retries: daemon restarts and shed requests count
#: as lost acks, since cleanup must survive the very crashes it is
#: cleaning up after.
PATIENT_RETRYABLE = (MessageTimeout, DaemonRestarted, Overloaded)


def _patiently(sim, make_gen, rng=None):
    """Generator: drive ``make_gen()`` with the patient rollback policy;
    returns its result."""
    return (yield from retry_generator(sim, ROLLBACK_POLICY, rng, make_gen,
                                       PATIENT_RETRYABLE))


def _patient_rm(sim, xs: XsClient, path: str, rng=None):
    """Generator: remove ``path`` with the patient rollback policy —
    cleanup that gives up under a fault storm would leak state."""
    try:
        yield from _patiently(sim, lambda: xs.rm(path), rng)
    except PATIENT_RETRYABLE:
        pass  # the invariant checker will report the leak loudly
