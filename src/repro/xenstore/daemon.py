"""The XenStore daemon (oxenstored model, worker-pool capable).

Ties the tree, watches, transactions and access log together behind the
message protocol.  All public operations are **generators** meant to be
driven inside a simulation process — normally via a
:class:`repro.xenstore.client.XsClient` handle (``yield from
client.write(...)``): they serialize on the daemon's worker shards,
charge protocol latency, fire watches and write log lines — reproducing
every §4.2 overhead:

* per-op message/ack round trips (software interrupts + domain crossings);
* watch scans over a registry that grows with the number of VMs;
* the O(N) unique-name admission check;
* transaction conflicts that force clients to retry;
* log rotation spikes;
* queueing inflation as ambient guest traffic loads the daemon.

The default ``workers=1`` is the paper-faithful oxenstored: a single
worker thread all requests serialize on (byte-identical EventTrace
digests vs the frozen pre-redesign daemon are pinned by
``tests/test_xenstore_digest_identity.py``).  ``workers > 1`` models a
sharded store — each ``/local/domain/<id>`` subtree is pinned to one
shard, ops acquire their shard locks in ascending index order
(deterministic, deadlock-free), and global ops (unique-name admission,
transaction commit validation) take every shard.  ``batch_ops=True``
additionally lets clients coalesce N mutations into a single message
round trip (:meth:`XenStoreDaemon.apply_batch`).
"""

from __future__ import annotations

import functools
import math
import typing
import zlib

from ..faults.plan import (NULL_INJECTOR, DaemonRestarted, MessageTimeout,
                           Overloaded)
from ..faults.retry import RetryBudgetExhausted, RetryPolicy
from ..sim.resources import Resource
from ..trace.tracer import tracer_of
from .accesslog import AccessLog
from .protocol import XenStoreCosts
from .store import NoEntError, XenStoreTree, split_path
from .transaction import Transaction, TransactionConflict
from .watches import Watch, WatchManager

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Simulator


def _traced(name: str):
    """Wrap a generator op so it runs inside a ``xenstore.<op>`` span
    (a no-op when no tracer is attached to the simulator)."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if self.sim.tracer is None:
                # Fast path: skip the context manager and the null-span
                # allocation entirely — XenStore ops are the hottest
                # generator stack in a creation storm.
                return (yield from fn(self, *args, **kwargs))
            with tracer_of(self.sim).span(name):
                result = yield from fn(self, *args, **kwargs)
            return result
        return wrapper
    return decorate


class DuplicateNameError(RuntimeError):
    """A guest with this name already exists."""


class QuotaExceededError(RuntimeError):
    """A guest hit its per-domain node quota (E2BIG)."""


class BatchError(ValueError):
    """A malformed batch was submitted (unknown op kind)."""


#: Valid op kinds inside a coalesced batch message.
_BATCH_KINDS = ("write", "mkdir", "rm")


class XenStoreDaemon:
    """oxenstored/cxenstored behind the Xen bus protocol."""

    def __init__(self, sim: "Simulator",
                 costs: typing.Optional[XenStoreCosts] = None,
                 implementation: str = "oxenstored",
                 log_enabled: bool = True,
                 rng: typing.Optional[typing.Any] = None,
                 enforce_permissions: bool = False,
                 faults=None,
                 retry_policy: typing.Optional[RetryPolicy] = None,
                 workers: int = 1,
                 batch_ops: bool = False,
                 queue_cap: typing.Optional[int] = None):
        if implementation not in ("oxenstored", "cxenstored"):
            raise ValueError("unknown implementation %r" % implementation)
        if workers < 1:
            raise ValueError("workers must be >= 1, got %r" % (workers,))
        self.sim = sim
        self.costs = costs or XenStoreCosts()
        #: RNG stream for ambient-conflict draws (None disables them).
        self.rng = rng
        #: Fault injector consulted at ``xenstore.*`` fault points.
        self.faults = faults if faults is not None else NULL_INJECTOR
        #: Resend schedule for lost message acks (``xenstore.message``).
        self.retry_policy = retry_policy or RetryPolicy(
            max_retries=8, base_ms=0.5, multiplier=2.0, cap_ms=8.0,
            jitter=0.25)
        #: When True, reads/writes are checked against node ACLs
        #: (xenstored always enforces; benchmarks leave it off since the
        #: per-op permission arithmetic is already inside process_us).
        self.enforce_permissions = enforce_permissions
        self.implementation = implementation
        #: Worker-pool width.  1 = the paper's single-threaded oxenstored.
        self.workers = workers
        #: When True, :meth:`apply_batch` coalesces N ops into one round
        #: trip; when False it degrades to N canonical round trips.
        self.batch_ops = batch_ops
        self.tree = XenStoreTree()
        self.watches = WatchManager()
        self.log = AccessLog(enabled=log_enabled)
        #: Worker shards; requests serialize per shard.  With one worker
        #: this is exactly the pre-redesign single-threaded daemon.
        self._shards = [
            Resource(sim, capacity=1, name="xenstore.shard[%d]" % index)
            for index in range(workers)
        ]
        self._next_tx_id = 1
        #: Weighted count of connected running guests generating ambient
        #: traffic (see :meth:`register_client`).
        self.ambient_clients = 0.0
        self.stats = {
            "ops": 0,
            "commits": 0,
            "conflicts": 0,
            "watch_events": 0,
            "rotation_stalls": 0,
            "timeouts": 0,
            "watch_drops": 0,
            "batches": 0,
            "batched_ops": 0,
            "crashes": 0,
            "restarts": 0,
            "replayed": 0,
            "shed": 0,
        }
        #: Nodes created per guest domain (quota accounting).
        self._node_counts: typing.Dict[int, int] = {}
        #: Admission control: requests queued per shard beyond this depth
        #: are shed with :class:`~repro.faults.plan.Overloaded` (None =
        #: unbounded, the pre-recovery behaviour).
        self.queue_cap = queue_cap
        #: Write-ahead op journal (attached by the recovery layer via
        #: :meth:`attach_journal`; None = no crash model, zero overhead —
        #: the ``xenstore.daemon_crash`` fault point is never consulted).
        self.journal = None
        self.journal_costs = None
        #: Restart epoch: bumped on every crash.  Transactions stamped
        #: with an older epoch are invalidated with
        #: :class:`~repro.faults.plan.DaemonRestarted`.
        self.epoch = 0
        self._crashed = False
        #: Triggered when the daemon crashes (the watchdog waits on it);
        #: re-armed by :meth:`restart`.  None until a journal is attached.
        self.crash_event = None
        #: Triggered when a restart completes; requests arriving while
        #: the daemon is down park on it (queued, then resumed).
        self._resume_event = None

    @property
    def worker(self) -> Resource:
        """Compat alias: the first shard (with ``workers=1``, *the*
        single oxenstored worker thread of the pre-redesign daemon)."""
        return self._shards[0]

    def _charge_quota(self, domid: int, path: str) -> None:
        """Count a node creation against the writer's quota."""
        if domid == 0 or not self.costs.quota_nodes_per_domain:
            return
        if self.tree.exists(path):
            return  # overwrite, not creation
        count = self._node_counts.get(domid, 0)
        if count >= self.costs.quota_nodes_per_domain:
            raise QuotaExceededError(
                "domain %d exceeded its %d-node XenStore quota"
                % (domid, self.costs.quota_nodes_per_domain))
        self._node_counts[domid] = count + 1
        if self.journal is not None:
            self.journal.record_quota(domid, 1)

    def _release_quota(self, owner: int, removed: int) -> None:
        """Return removed nodes to their owner's quota (xenstored
        decrements on delete)."""
        if removed and owner and owner in self._node_counts:
            count = self._node_counts[owner]
            self._node_counts[owner] = max(0, count - removed)
            if self.journal is not None:
                self.journal.record_quota(
                    owner, self._node_counts[owner] - count)

    # ------------------------------------------------------------------
    # Cost helpers
    # ------------------------------------------------------------------
    def _impl_factor(self) -> float:
        if self.implementation == "cxenstored":
            return self.costs.cxenstored_multiplier
        return 1.0

    def _load_factor(self) -> float:
        """Queueing inflation from ambient guest traffic: 1 / (1 - rho).

        Ambient traffic spreads across the shards (guests hash to shards
        by domid), so per-worker utilisation divides by the pool width;
        with ``workers=1`` this is exactly the pre-redesign formula.
        """
        rho = min(self.costs.ambient_util_cap,
                  self.ambient_clients * self.costs.ambient_util_per_client
                  / self.workers)
        return 1.0 / (1.0 - rho)

    def _op_latency_ms(self, extra_us: float = 0.0) -> float:
        base = self.costs.op_base_ms() + extra_us / 1000.0
        return base * self._impl_factor() * self._load_factor()

    def register_client(self, weight: float = 1.0) -> None:
        """A guest connected its xenbus (it is now running).

        ``weight`` scales how much ambient traffic this client generates:
        a Debian guest with consoles and daemons is several times chattier
        than a single-purpose unikernel.
        """
        self.ambient_clients += weight
        if self.journal is not None:
            self.journal.record_register(weight)

    def unregister_client(self, weight: float = 1.0) -> None:
        """A guest disconnected (destroyed/suspended)."""
        self.ambient_clients = max(0.0, self.ambient_clients - weight)
        if self.journal is not None:
            self.journal.record_unregister(weight)

    # ------------------------------------------------------------------
    # Shard routing
    # ------------------------------------------------------------------
    def _shard_index(self, path: typing.Optional[str]) -> int:
        """Deterministically pin ``path`` to one worker shard.

        Guest subtrees (``/local/domain/<id>``) hash by domid so one
        guest's control traffic stays on one shard; Dom0's per-guest
        backend state (``/local/domain/0/backend/<kind>/<frontend>/…``)
        follows the *frontend* guest so a device handshake never
        straddles shards.  Everything else hashes its first path
        component through crc32 (stable across processes — no salted
        ``hash()``).
        """
        if self.workers == 1 or path is None:
            return 0
        parts = split_path(path)
        if len(parts) >= 3 and parts[0] == "local" and parts[1] == "domain":
            if (len(parts) >= 6 and parts[2] == "0"
                    and parts[3] == "backend" and parts[5].isdigit()):
                return int(parts[5]) % self.workers
            if parts[2].isdigit():
                return int(parts[2]) % self.workers
        if len(parts) >= 2 and parts[0] == "vm" and parts[1].isdigit():
            return int(parts[1]) % self.workers
        head = parts[0] if parts else ""
        return zlib.crc32(head.encode("utf-8")) % self.workers

    def _shards_for(self, paths) -> typing.Tuple[int, ...]:
        """Ascending, de-duplicated shard indices for a path set."""
        if self.workers == 1:
            return (0,)
        return tuple(sorted({self._shard_index(p) for p in paths}))

    #: Sentinel shard set meaning "every shard" (global ops).
    def _all_shards(self) -> typing.Tuple[int, ...]:
        return tuple(range(self.workers))

    # ------------------------------------------------------------------
    # Crash / restart (the journaled-recovery model)
    # ------------------------------------------------------------------
    def attach_journal(self, journal, costs=None) -> None:
        """Attach a write-ahead journal, enabling the crash model.

        From here on every committed effect is journaled, and the
        ``xenstore.daemon_crash`` fault point is consulted on each op.
        Hosts that never call this are byte-identical to pre-recovery
        builds (the point is never consulted, so existing fault plans
        keep their schedules)."""
        from ..recovery.journal import JournalCosts
        self.journal = journal
        self.journal_costs = costs or JournalCosts()
        if self.crash_event is None:
            self.crash_event = self.sim.event()

    @property
    def crashed(self) -> bool:
        """True while the daemon is down awaiting its watchdog restart."""
        return self._crashed

    def _crash(self) -> None:
        """The daemon process dies mid-op.

        Bumps the epoch (invalidating open transactions), marks the
        daemon down and wakes the watchdog.  State reconstruction — the
        journal replay — happens in :meth:`restart`, driven by the
        watchdog process so downtime is on the timeline."""
        self.epoch += 1
        self._crashed = True
        self.stats["crashes"] += 1
        self._resume_event = self.sim.event()
        event, self.crash_event = self.crash_event, None
        if event is not None and not event.triggered:
            event.succeed(self.epoch)

    def restart(self):
        """Generator: replay the journal and bring the daemon back.

        Driven by the watchdog (:class:`repro.recovery.Watchdog`).
        Charges the restart downtime plus per-entry replay and per-watch
        reconciliation latency, rebuilds the tree / quota counts /
        ambient weights from the journal, then resumes every request
        that queued while the daemon was down."""
        costs = self.journal_costs
        with tracer_of(self.sim).span("recovery.restart",
                                      entries=len(self.journal),
                                      epoch=self.epoch):
            yield self.sim.timeout(costs.restart_downtime_ms)
            replay_ms = (len(self.journal) * costs.replay_us_per_entry
                         + len(self.watches) * costs.watch_reconcile_us
                         ) / 1000.0
            if replay_ms:
                yield self.sim.timeout(replay_ms)
            tree, counts, ambient = self.journal.replay()
            self.tree = tree
            self._node_counts = counts
            self.ambient_clients = ambient
            self.stats["restarts"] += 1
            self.stats["replayed"] += len(self.journal)
            self._crashed = False
            self.crash_event = self.sim.event()
            event, self._resume_event = self._resume_event, None
            if event is not None:
                event.succeed()

    def _check_tx_epoch(self, tx: Transaction) -> None:
        """Invalidate transactions opened before the last restart: their
        snapshot (and their ``tx.tree`` reference) predate the replay."""
        if self.journal is not None and \
                getattr(tx, "epoch", self.epoch) != self.epoch:
            raise DaemonRestarted(
                "transaction %d predates the daemon restart (epoch %d)"
                % (tx.tx_id, self.epoch))

    # ------------------------------------------------------------------
    # Internal mutation plumbing
    # ------------------------------------------------------------------
    def _charge(self, extra_us: float = 0.0, path: typing.Optional[str] = None,
                shards: typing.Optional[typing.Tuple[int, ...]] = None):
        """Generator: hold the op's worker shard(s) and charge latency.

        Single-shard ops (the common case, and *every* op at
        ``workers=1``) keep the pre-redesign shape exactly: acquire one
        Resource, charge one timeout.  Multi-shard ops acquire their
        shard locks in ascending index order — the deterministic
        dispatch order that makes ``workers>1`` replayable — and release
        in reverse.

        Under fault injection the ``xenstore.message`` point models a lost
        ack: the client waits out its message timeout (without holding the
        worker), backs off, and resends — each resend pays the full op
        latency again.  Past the retry budget, :class:`MessageTimeout`.
        """
        if shards is None:
            shards = (self._shard_index(path),)
        if self._crashed:
            # The daemon is down: this request parks at the (dead)
            # socket and resumes once the watchdog restarted the daemon.
            yield self._resume_event
        if self.queue_cap is not None:
            depth = max(len(self._shards[i].queue) for i in shards)
            if depth >= self.queue_cap:
                # Deterministic load shedding: queue depth is a pure
                # function of the event timeline, so the same requests
                # shed on every replay.
                self.stats["shed"] += 1
                raise Overloaded(
                    "xenstore admission queue full (depth %d >= cap %d)"
                    % (depth, self.queue_cap))
        attempt = 0
        slept = 0.0
        while True:
            if len(shards) == 1:
                with self._shards[shards[0]].request() as req:
                    yield req
                    yield self.sim.timeout(self._op_latency_ms(extra_us))
            else:
                yield from self._acquire_shards(shards, extra_us)
            self.stats["ops"] += 1
            if self.journal is not None:
                if self.faults.fires("xenstore.daemon_crash") is not None:
                    self._crash()
                    raise DaemonRestarted(
                        "xenstore daemon crashed servicing this request")
                if self._crashed:
                    # Another shard's request crashed the daemon while
                    # this one held its lock: it was in flight, so it
                    # fails typed rather than parking.
                    raise DaemonRestarted(
                        "xenstore daemon crashed while this request "
                        "was in flight")
            rule = self.faults.fires("xenstore.message")
            if rule is None:
                return
            self.stats["timeouts"] += 1
            yield self.sim.timeout(rule.delay_ms
                                   or self.costs.message_timeout_ms)
            attempt += 1
            if attempt >= self.retry_policy.max_retries:
                raise MessageTimeout(
                    "XenStore message unacknowledged after %d resends"
                    % attempt)
            delay = self.retry_policy.backoff_ms(attempt, self.rng)
            if self.retry_policy.over_budget(slept, delay):
                raise RetryBudgetExhausted(
                    "XenStore resend backoff budget (%.1f ms) spent"
                    % self.retry_policy.budget_ms)
            slept += delay
            yield self.sim.timeout(delay)

    def _acquire_shards(self, shards: typing.Tuple[int, ...],
                        extra_us: float):
        """Generator: take several shard locks (ascending order) for one
        charged op, releasing all of them afterwards."""
        tracer = self.sim.tracer
        requests = []
        try:
            if tracer is None:
                for index in shards:
                    request = self._shards[index].request()
                    requests.append(request)
                    yield request
            else:
                with tracer_of(self.sim).span("xenstore.shard_wait",
                                              shards=len(shards)):
                    for index in shards:
                        request = self._shards[index].request()
                        requests.append(request)
                        yield request
            yield self.sim.timeout(self._op_latency_ms(extra_us))
        finally:
            for request in reversed(requests):
                request.resource.release(request)

    def _log_access(self, lines: int = 1):
        """Generator: write log lines, stalling on rotation."""
        rotated = self.log.record(self.costs.log_lines_per_op * lines)
        if rotated:
            self.stats["rotation_stalls"] += 1
            yield self.sim.timeout(self.costs.log_rotation_ms)

    def _fire_watches(self, path: str):
        """Generator: scan the registry and deliver matching events."""
        scan_us = len(self.watches) * self.costs.watch_scan_us
        rule = self.faults.fires("xenstore.watch")
        if rule is not None:
            # The delivery is dropped: the daemon still pays the scan but
            # no waiter is woken — they must time out and re-announce.
            self.stats["watch_drops"] += 1
            delay = (scan_us / 1000.0 * self._impl_factor()
                     * self._load_factor() + rule.delay_ms)
            if delay:
                yield self.sim.timeout(delay)
            return
        fired = self.watches.fire(path)
        deliver_us = len(fired) * self.costs.watch_deliver_us
        self.stats["watch_events"] += len(fired)
        if fired:
            tracer_of(self.sim).instant("xenstore.watch_fire",
                                        delivered=len(fired))
        delay = (scan_us + deliver_us) / 1000.0 * self._impl_factor()
        if delay:
            yield self.sim.timeout(delay * self._load_factor())

    # ------------------------------------------------------------------
    # Simple (non-transactional) operations
    # ------------------------------------------------------------------
    def _check_access(self, domid: int, path: str, write: bool) -> None:
        if not self.enforce_permissions or domid == 0:
            return
        if not self.tree.exists(path):
            return  # creation is governed by the parent in real Xen;
            # we allow it and let the new node inherit the writer
        from .permissions import PermissionError_
        perms = self.tree.get_perms(path)
        allowed = (perms.allows_write(domid) if write
                   else perms.allows_read(domid))
        if not allowed:
            raise PermissionError_(
                "domain %d may not %s %s" % (
                    domid, "write" if write else "read", path))

    @_traced("xenstore.read")
    def read(self, domid: int, path: str):
        """Generator: XS_READ."""
        yield from self._charge(path=path)
        self._check_access(domid, path, write=False)
        yield from self._log_access()
        return self.tree.read(path)

    @_traced("xenstore.write")
    def write(self, domid: int, path: str, value: str):
        """Generator: XS_WRITE (fires watches)."""
        yield from self._charge(path=path)
        self._check_access(domid, path, write=True)
        self._charge_quota(domid, path)
        self.tree.write(path, value, owner_domid=domid)
        if self.journal is not None:
            self.journal.record_write(domid, path, value)
        yield from self._fire_watches(path)
        yield from self._log_access()

    @_traced("xenstore.get_perms")
    def get_perms(self, domid: int, path: str):
        """Generator: XS_GET_PERMS."""
        yield from self._charge(path=path)
        yield from self._log_access()
        return self.tree.get_perms(path)

    @_traced("xenstore.set_perms")
    def set_perms(self, domid: int, path: str, perms):
        """Generator: XS_SET_PERMS (owner or Dom0 only)."""
        yield from self._charge(path=path)
        current = self.tree.get_perms(path)
        if domid != 0 and domid != current.owner_domid:
            from .permissions import PermissionError_
            raise PermissionError_(
                "domain %d does not own %s" % (domid, path))
        self.tree.set_perms(path, perms)
        if self.journal is not None:
            self.journal.record_perms(domid, path, perms)
        yield from self._log_access()

    @_traced("xenstore.mkdir")
    def mkdir(self, domid: int, path: str):
        """Generator: XS_MKDIR."""
        yield from self._charge(path=path)
        self.tree.mkdir(path, owner_domid=domid)
        if self.journal is not None:
            self.journal.record_mkdir(domid, path)
        yield from self._fire_watches(path)
        yield from self._log_access()

    @_traced("xenstore.rm")
    def rm(self, domid: int, path: str):
        """Generator: XS_RM (recursive; fires watches)."""
        yield from self._charge(path=path)
        try:
            owner = self.tree._walk(path).owner_domid
            removed = self.tree.rm(path)
            if self.journal is not None:
                self.journal.record_rm(path)
            self._release_quota(owner, removed)
        except NoEntError:
            removed = 0
        if removed:
            yield from self._fire_watches(path)
        yield from self._log_access()
        return removed

    @_traced("xenstore.directory")
    def directory(self, domid: int, path: str):
        """Generator: XS_DIRECTORY."""
        yield from self._charge(path=path)
        yield from self._log_access()
        return self.tree.directory(path)

    @_traced("xenstore.watch")
    def watch(self, domid: int, path: str, token: str, callback):
        """Generator: XS_WATCH registration."""
        yield from self._charge(path=path)
        watch = self.watches.add(domid, path, token, callback)
        yield from self._log_access()
        return watch

    @_traced("xenstore.unwatch")
    def unwatch(self, domid: int, watch: Watch):
        """Generator: XS_UNWATCH."""
        yield from self._charge(path=watch.path)
        self.watches.remove(watch)
        yield from self._log_access()

    # ------------------------------------------------------------------
    # The O(N) unique-name admission check
    # ------------------------------------------------------------------
    @_traced("xenstore.check_unique_name")
    def check_unique_name(self, domid: int, name: str):
        """Generator: compare ``name`` against every running guest's name.

        §4.2: "writing certain types of information, such as unique guest
        names, incurs overhead linear with the number of machines."
        """
        # The *modeled* cost is the §4.2 linear scan: one probe per
        # registered domain.  The *host* cost is O(1) via the tree's
        # name-admission index — equivalent to the scan as long as no
        # concurrent name mutation lands while this op waits its turn on
        # the worker (creations serialize on it; the dual-kernel digest
        # tests pin the equivalence on the figure workloads).
        scan_us = ((self.tree.child_count("/local/domain") + 1)
                   * self.costs.per_node_scan_us)
        # Name admission is global: it must see every shard's subtree,
        # so it takes the whole pool (at workers=1: the one worker).
        yield from self._charge(extra_us=scan_us, shards=self._all_shards())
        if self.tree.name_in_use(name):
            raise DuplicateNameError(name)
        yield from self._log_access()

    # ------------------------------------------------------------------
    # Batched mutations (one message round trip for N ops)
    # ------------------------------------------------------------------
    @_traced("xenstore.batch")
    def apply_batch(self, domid: int, ops):
        """Generator: apply ``ops`` — ``(kind, path, value)`` tuples with
        kind in ``{"write", "mkdir", "rm"}`` — as one message round trip.

        Semantics match the sequential equivalent except for cost: the
        batch pays one ``op_base_ms`` round trip plus ``batch_op_us`` per
        additional op instead of N full round trips.  The batch is
        atomic: every op is validated (path syntax, ACLs, quota — charged
        per *node created*, not per batch) before anything mutates the
        tree, so a failing op leaves the store untouched.  Watches fire
        once per effective mutation, in op order.

        With ``batch_ops=False`` the batch degrades to the canonical
        per-op round trips — digest-identical to the unbatched call
        sites, which is what keeps ``workers=1`` replays byte-identical.
        Returns the list of modified paths.
        """
        ops = list(ops)
        if not ops:
            return []
        if not self.batch_ops:
            # Even the degraded (sequential) path validates kinds up
            # front: a malformed op must reject the whole batch before
            # any mutation, watch event or quota charge — not fail
            # mid-way with the earlier ops already applied.
            for kind, _path, _value in ops:
                if kind not in _BATCH_KINDS:
                    raise BatchError("unknown batch op kind %r" % (kind,))
            modified = []
            for kind, path, value in ops:
                if kind == "write":
                    yield from self.write(domid, path, value)
                    modified.append(path)
                elif kind == "mkdir":
                    yield from self.mkdir(domid, path)
                    modified.append(path)
                else:
                    if (yield from self.rm(domid, path)):
                        modified.append(path)
            return modified
        # --- one coalesced round trip -------------------------------
        shards = self._shards_for(path for _kind, path, _value in ops)
        extra_us = self.costs.batch_op_us * (len(ops) - 1)
        yield from self._charge(extra_us=extra_us, shards=shards)
        # Validate everything before mutating anything: a batch is
        # atomic, so a quota/permission/path failure must not leak the
        # ops that preceded it.
        new_nodes = 0
        staged_new: typing.Set[str] = set()
        staged_rm: typing.Set[str] = set()
        for kind, path, value in ops:
            if kind not in _BATCH_KINDS:
                raise BatchError("unknown batch op kind %r" % (kind,))
            split_path(path)
            if kind == "rm":
                staged_rm.add(path)
                continue
            self._check_access(domid, path, write=True)
            exists = ((self.tree.exists(path) or path in staged_new)
                      and path not in staged_rm)
            if not exists:
                staged_new.add(path)
                new_nodes += 1
            staged_rm.discard(path)
        if (domid != 0 and self.costs.quota_nodes_per_domain
                and new_nodes):
            count = self._node_counts.get(domid, 0)
            if count + new_nodes > self.costs.quota_nodes_per_domain:
                raise QuotaExceededError(
                    "domain %d exceeded its %d-node XenStore quota"
                    % (domid, self.costs.quota_nodes_per_domain))
            self._node_counts[domid] = count + new_nodes
            if self.journal is not None:
                self.journal.record_quota(domid, new_nodes)
        modified = []
        for kind, path, value in ops:
            if kind == "write":
                self.tree.write(path, value, owner_domid=domid)
                if self.journal is not None:
                    self.journal.record_write(domid, path, value)
                modified.append(path)
            elif kind == "mkdir":
                self.tree.mkdir(path, owner_domid=domid)
                if self.journal is not None:
                    self.journal.record_mkdir(domid, path)
                modified.append(path)
            else:
                try:
                    owner = self.tree._walk(path).owner_domid
                    removed = self.tree.rm(path)
                    if self.journal is not None:
                        self.journal.record_rm(path)
                    self._release_quota(owner, removed)
                except NoEntError:
                    removed = 0
                if removed:
                    modified.append(path)
        self.stats["batches"] += 1
        self.stats["batched_ops"] += len(ops)
        for path in modified:
            yield from self._fire_watches(path)
        yield from self._log_access(lines=len(ops))
        return modified

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    @_traced("xenstore.txn_start")
    def transaction_start(self, domid: int):
        """Generator: XS_TRANSACTION_START; returns a Transaction."""
        yield from self._charge(extra_us=self.costs.txn_overhead_us)
        tx = Transaction(self.tree, self._next_tx_id, domid)
        tx.opened_at = self.sim.now
        tx.epoch = self.epoch
        self._next_tx_id += 1
        return tx

    @_traced("xenstore.tx_read")
    def txn_read(self, tx: Transaction, path: str):
        """Generator: XS_READ inside a transaction."""
        yield from self._charge(path=path)
        self._check_tx_epoch(tx)
        yield from self._log_access()
        return tx.read(path)

    @_traced("xenstore.tx_exists")
    def txn_exists(self, tx: Transaction, path: str):
        """Generator: existence check inside a transaction."""
        yield from self._charge(path=path)
        self._check_tx_epoch(tx)
        yield from self._log_access()
        return tx.exists(path)

    @_traced("xenstore.tx_write")
    def txn_write(self, tx: Transaction, path: str, value: str):
        """Generator: XS_WRITE inside a transaction (staged)."""
        yield from self._charge(path=path)
        self._check_tx_epoch(tx)
        tx.write(path, value)
        yield from self._log_access()

    @_traced("xenstore.tx_rm")
    def txn_rm(self, tx: Transaction, path: str):
        """Generator: XS_RM inside a transaction (staged)."""
        yield from self._charge(path=path)
        self._check_tx_epoch(tx)
        tx.rm(path)
        yield from self._log_access()

    @_traced("xenstore.batch")
    def txn_flush_staged(self, tx: Transaction, staged):
        """Generator: stage ``(kind, path, value)`` ops — kind in
        ``{"write", "rm"}`` — into ``tx`` with one batched round trip.

        The batched counterpart of N ``txn_write``/``txn_rm`` round
        trips; used by :class:`repro.xenstore.client.XsTxn` when the
        daemon was built with ``batch_ops=True``.  Falls back to the
        canonical per-op round trips otherwise.
        """
        staged = list(staged)
        if not staged:
            return
        self._check_tx_epoch(tx)
        if not self.batch_ops:
            for kind, path, value in staged:
                if kind == "write":
                    yield from self.txn_write(tx, path, value)
                elif kind == "rm":
                    yield from self.txn_rm(tx, path)
                else:
                    raise BatchError("unknown txn op kind %r" % (kind,))
            return
        shards = self._shards_for(path for _kind, path, _value in staged)
        extra_us = self.costs.batch_op_us * (len(staged) - 1)
        yield from self._charge(extra_us=extra_us, shards=shards)
        for kind, path, value in staged:
            if kind == "write":
                tx.write(path, value)
            elif kind == "rm":
                tx.rm(path)
            else:
                raise BatchError("unknown txn op kind %r" % (kind,))
        self.stats["batches"] += 1
        self.stats["batched_ops"] += len(staged)
        yield from self._log_access(lines=len(staged))

    @_traced("xenstore.txn_commit")
    def transaction_commit(self, tx: Transaction):
        """Generator: XS_TRANSACTION_END(commit=True).

        Raises :class:`TransactionConflict` on a clash; the caller retries.
        Watches fire for every path the commit modified.
        """
        validate_us = ((len(tx.read_set) + len(tx.write_set))
                       * self.costs.per_node_scan_us)
        # Commit validation checks generations across the whole store,
        # so it serializes against every shard (at workers=1: the one
        # worker, exactly as before).
        yield from self._charge(
            extra_us=self.costs.txn_overhead_us + validate_us,
            shards=self._all_shards())
        self._check_tx_epoch(tx)
        if self.faults.fires("xenstore.commit") is not None:
            tx.abort()
            self.stats["conflicts"] += 1
            yield from self._log_access()
            raise TransactionConflict(
                "transaction %d invalidated (injected conflict)" % tx.tx_id)
        if self._ambient_clash(tx):
            tx.abort()
            self.stats["conflicts"] += 1
            yield from self._log_access()
            raise TransactionConflict(
                "transaction %d invalidated by concurrent guest traffic"
                % tx.tx_id)
        try:
            modified = tx.commit()
        except TransactionConflict:
            self.stats["conflicts"] += 1
            yield from self._log_access()
            raise
        if self.journal is not None:
            # Journal the committed effects in the order tx.commit()
            # applied them: staged writes first (insertion order), then
            # the staged removals (replay tolerates already-gone paths
            # exactly like commit does).
            for path, value in tx.write_set.items():
                self.journal.record_write(tx.domid, path, value)
            for path in tx.rm_set:
                self.journal.record_rm(path)
        self.stats["commits"] += 1
        for path in modified:
            yield from self._fire_watches(path)
        yield from self._log_access()

    def _ambient_clash(self, tx: Transaction) -> bool:
        """Draw whether ambient guest traffic invalidated ``tx``.

        Modeled as a Poisson process over the transaction's open duration
        with intensity proportional to the connected-client count; the
        paper's observed behaviour is that overlap (and thus retries)
        grows with the number of running VMs.
        """
        if self.rng is None or not self.ambient_clients:
            return False
        duration = max(0.0, self.sim.now - getattr(tx, "opened_at",
                                                   self.sim.now))
        rate = (self.costs.ambient_conflict_rate_per_client
                * self.ambient_clients)
        probability = min(self.costs.conflict_probability_cap,
                          1.0 - math.exp(-rate * duration))
        return self.rng.random() < probability

    @_traced("xenstore.txn_abort")
    def transaction_abort(self, tx: Transaction):
        """Generator: XS_TRANSACTION_END(commit=False)."""
        yield from self._charge()
        tx.abort()
        yield from self._log_access()

