"""First-class XenStore client handles: ``XsClient`` / ``XsBatch`` / ``XsTxn``.

Control-plane code never drives raw daemon generators with a ``domid``
threaded through every call, nor hand-rolls transaction retry loops at
each site.  This module is its surface:

* :class:`XsClient` — a per-domain connection handle (``read`` /
  ``write`` / ``mkdir`` / ``rm`` / ``watch`` / ...) that binds the
  domid once, the way a real libxenstore handle binds its connection;
* :meth:`XsClient.batch` — an :class:`XsBatch` context manager that
  coalesces N mutations into **one** message round trip when the daemon
  was built with ``batch_ops=True`` (and degrades to the canonical
  per-op round trips otherwise — digest-identical to unbatched code);
* :meth:`XsClient.transaction` — the retried-transaction runner
  (exponential backoff + jitter on :class:`TransactionConflict`),
  handing the body an :class:`XsTxn` whose writes are batched into the
  transaction with one round trip on capable daemons.

Every method returns the underlying daemon **generator** — drive it
with ``yield from`` inside a simulation process, exactly like the old
surface.  The handle layer is plain-function delegation: it adds no
simulation events, which is what keeps ``workers=1`` EventTrace digests
byte-identical to the pre-redesign daemon
(``tests/test_xenstore_digest_identity.py`` pins this).

The client resolves daemon verbs by name with a legacy fallback
(``read`` → ``op_read``), so it also drives the frozen pre-redesign
daemon used as the digest measuring stick.
"""

from __future__ import annotations

import typing

from ..faults.plan import DaemonRestarted, Overloaded
from ..faults.retry import RetryExhausted, RetryPolicy
from ..trace.tracer import tracer_of
from .transaction import Transaction, TransactionConflict

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .daemon import XenStoreDaemon

#: The control domain (kept local: ``repro.xenstore`` must not depend on
#: ``repro.hypervisor``; the value is pinned by protocol, not config).
DOM0_ID = 0

#: Transaction retry budget; xenstored clients retry EAGAIN indefinitely,
#: but a bound keeps broken models loud instead of livelocked.  With the
#: conflict-probability ceiling of 0.75 the chance of a legitimate run
#: exhausting 50 retries is ~1e-6.
MAX_TX_RETRIES = 50

#: Default conflict-retry schedule for XenStore transactions: exponential
#: from the cost model's ``conflict_backoff_ms`` with 25% jitter, so
#: clients that conflicted with each other don't retry in lock-step.
TX_RETRY_POLICY = RetryPolicy(max_retries=MAX_TX_RETRIES, base_ms=1.0,
                              multiplier=2.0, cap_ms=16.0, jitter=0.25)

#: Crash/overload retry schedule: a request that hit a daemon restart
#: (:class:`DaemonRestarted` — no durable effect, safe to resend) or was
#: shed (:class:`Overloaded`) backs off briefly and resends a few times,
#: then propagates.  Jitter-free so replays keep identical timelines,
#: and deliberately small so *sustained* overload surfaces as real
#: ``Overloaded`` rejections instead of unbounded client-side queueing.
RECOVERY_RETRY_POLICY = RetryPolicy(max_retries=3, base_ms=2.0,
                                    multiplier=2.0, cap_ms=32.0)


def _resolve(daemon, name: str, legacy: str):
    """The daemon verb, falling back to the pre-redesign ``op_*`` name
    (the frozen reference daemon only speaks the legacy surface)."""
    fn = getattr(daemon, name, None)
    return fn if fn is not None else getattr(daemon, legacy)


class BatchNotCommitted(RuntimeError):
    """An ``XsBatch`` left its ``with`` block with staged ops unflushed."""


class XsClient:
    """A per-domain XenStore connection handle.

    Binds ``domid`` once (like a libxenstore connection running inside
    that domain) so call sites read as protocol, not bookkeeping::

        xs = XsClient(daemon)              # Dom0 toolstack handle
        yield from xs.write("/vm/7/name", "vm-7")
        with xs.batch() as batch:          # one round trip for N ops
            batch.write(base + "/state", "connected")
            batch.rm(base + "/stale")
            yield from batch.commit()
    """

    def __init__(self, daemon: "XenStoreDaemon", domid: int = DOM0_ID):
        self.daemon = daemon
        self.domid = domid
        # Resolve verbs once — these are the hottest call paths in a
        # creation storm, and the getattr fallback should not run per op.
        self._read = _resolve(daemon, "read", "op_read")
        self._write = _resolve(daemon, "write", "op_write")
        self._mkdir = _resolve(daemon, "mkdir", "op_mkdir")
        self._rm = _resolve(daemon, "rm", "op_rm")
        self._directory = _resolve(daemon, "directory", "op_directory")
        self._get_perms = _resolve(daemon, "get_perms", "op_get_perms")
        self._set_perms = _resolve(daemon, "set_perms", "op_set_perms")
        self._watch = _resolve(daemon, "watch", "op_watch")
        self._unwatch = _resolve(daemon, "unwatch", "op_unwatch")
        self._check_unique_name = _resolve(daemon, "check_unique_name",
                                           "op_check_unique_name")
        self._txn_read = _resolve(daemon, "txn_read", "tx_read")
        self._txn_exists = _resolve(daemon, "txn_exists", "tx_exists")
        self._txn_write = _resolve(daemon, "txn_write", "tx_write")
        self._txn_rm = _resolve(daemon, "txn_rm", "tx_rm")

    def for_domain(self, domid: int) -> "XsClient":
        """A sibling handle bound to another domain (guest-side ops)."""
        return XsClient(self.daemon, domid)

    @property
    def tree(self):
        """Host-side (uncharged) view of the store tree."""
        return self.daemon.tree

    # -- simple operations (each returns a daemon generator) -----------
    def read(self, path: str):
        """Generator: XS_READ as this client's domain."""
        return self._read(self.domid, path)

    def write(self, path: str, value: str):
        """Generator: XS_WRITE (fires watches)."""
        return self._write(self.domid, path, value)

    def mkdir(self, path: str):
        """Generator: XS_MKDIR."""
        return self._mkdir(self.domid, path)

    def rm(self, path: str):
        """Generator: XS_RM (recursive); returns nodes removed."""
        return self._rm(self.domid, path)

    def directory(self, path: str):
        """Generator: XS_DIRECTORY."""
        return self._directory(self.domid, path)

    def get_perms(self, path: str):
        """Generator: XS_GET_PERMS."""
        return self._get_perms(self.domid, path)

    def set_perms(self, path: str, perms):
        """Generator: XS_SET_PERMS."""
        return self._set_perms(self.domid, path, perms)

    def watch(self, path: str, token: str, callback):
        """Generator: XS_WATCH; returns the Watch handle."""
        return self._watch(self.domid, path, token, callback)

    def unwatch(self, watch):
        """Generator: XS_UNWATCH."""
        return self._unwatch(self.domid, watch)

    def check_unique_name(self, name: str):
        """Generator: the O(N) unique-name admission check."""
        return self._check_unique_name(self.domid, name)

    # -- batching -------------------------------------------------------
    def batch(self) -> "XsBatch":
        """Stage mutations for one coalesced round trip; see
        :class:`XsBatch`."""
        return XsBatch(self)

    # -- transactions ---------------------------------------------------
    def transaction(self, body,
                    policy: typing.Optional[RetryPolicy] = None,
                    rng=None):
        """Generator: run ``body(txn)`` (a generator taking an
        :class:`XsTxn`) inside a transaction, retrying conflicts with
        exponential backoff + jitter.

        Returns the number of retries it took; raises
        :class:`RetryExhausted` past the policy's budget.  The
        ``base_ms`` of the schedule scales with the store's configured
        ``conflict_backoff_ms``.
        """
        return self._retry_transaction(body, policy or TX_RETRY_POLICY, rng)

    def _retry_transaction(self, body, policy: RetryPolicy, rng):
        daemon = self.daemon
        sim = daemon.sim
        retries = 0
        shed = 0
        started = sim.now
        scale = daemon.costs.conflict_backoff_ms / 1.0
        with tracer_of(sim).span("xenstore.txn",
                                 domid=self.domid) as txn_span:
            while True:
                try:
                    tx = yield from daemon.transaction_start(self.domid)
                    txn = XsTxn(self, tx)
                    yield from body(txn)
                    yield from txn._flush()
                    yield from daemon.transaction_commit(tx)
                    if retries:
                        txn_span.set(retries=retries)
                    return retries
                except (TransactionConflict, DaemonRestarted) as exc:
                    # A conflict aborted the transaction, or the daemon
                    # crashed mid-transaction (nothing committed either
                    # way): back off and rerun the whole body.  The next
                    # transaction_start parks until the restart finishes.
                    retries += 1
                    if policy.give_up(retries, started, sim.now):
                        txn_span.set(retries=retries)
                        raise RetryExhausted(
                            "transaction retries exhausted (%d)"
                            % retries) from exc
                    yield sim.timeout(
                        scale * policy.backoff_ms(retries, rng))
                except Overloaded:
                    # Shed at admission: resend a few times, then let the
                    # rejection surface (sustained overload must be
                    # visible, not absorbed by client-side retry).
                    shed += 1
                    if shed > RECOVERY_RETRY_POLICY.max_retries:
                        txn_span.set(shed=shed)
                        raise
                    yield sim.timeout(
                        RECOVERY_RETRY_POLICY.backoff_ms(shed, None))


class XsBatch:
    """Mutations coalesced into one message round trip.

    Use as a context manager; stage with :meth:`write` / :meth:`mkdir` /
    :meth:`rm`, then ``yield from batch.commit()`` **inside** the
    ``with`` block (the exit guard raises :class:`BatchNotCommitted` if
    staged ops were silently dropped).  On a daemon built with
    ``batch_ops=True`` the whole batch costs one round trip plus
    ``batch_op_us`` per extra op and applies atomically; otherwise it
    replays as the canonical per-op round trips — digest-identical to
    the unbatched call sites it replaced.
    """

    def __init__(self, client: XsClient):
        self.client = client
        self.ops: typing.List[typing.Tuple[str, str,
                                           typing.Optional[str]]] = []
        self.modified: typing.Optional[typing.List[str]] = None
        self._committed = False

    def __enter__(self) -> "XsBatch":
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None and self.ops and not self._committed:
            raise BatchNotCommitted(
                "XsBatch left its with-block holding %d staged ops; "
                "drive `yield from batch.commit()` before exiting"
                % len(self.ops))
        return False

    def write(self, path: str, value: str) -> "XsBatch":
        """Stage an XS_WRITE (no round trip yet)."""
        self.ops.append(("write", path, value))
        return self

    def mkdir(self, path: str) -> "XsBatch":
        """Stage an XS_MKDIR."""
        self.ops.append(("mkdir", path, None))
        return self

    def rm(self, path: str) -> "XsBatch":
        """Stage a recursive XS_RM."""
        self.ops.append(("rm", path, None))
        return self

    def commit(self):
        """Generator: flush the staged ops; returns modified paths."""
        self._committed = True
        ops, self.ops = self.ops, []
        apply_batch = getattr(self.client.daemon, "apply_batch", None)
        if apply_batch is not None:
            return self._commit_via_daemon(apply_batch, ops)
        return self._commit_sequential(ops)

    def _commit_via_daemon(self, apply_batch, ops):
        attempt = 0
        while True:
            try:
                modified = yield from apply_batch(self.client.domid, ops)
            except (DaemonRestarted, Overloaded):
                # The batch had no durable effect (the crash point fires
                # before mutation; shedding happens at admission), so
                # resending is safe.  Bounded: persistent failure
                # propagates to the caller's own recovery path.
                attempt += 1
                if attempt > RECOVERY_RETRY_POLICY.max_retries:
                    raise
                yield self.client.daemon.sim.timeout(
                    RECOVERY_RETRY_POLICY.backoff_ms(attempt, None))
                continue
            self.modified = modified
            return modified

    def _commit_sequential(self, ops):
        # Pre-batching daemons (the frozen digest reference): replay the
        # ops as individual round trips through the client verbs.
        client = self.client
        modified = []
        for kind, path, value in ops:
            if kind == "write":
                yield from client.write(path, value)
                modified.append(path)
            elif kind == "mkdir":
                yield from client.mkdir(path)
                modified.append(path)
            elif kind == "rm":
                if (yield from client.rm(path)):
                    modified.append(path)
            else:
                raise ValueError("unknown batch op kind %r" % (kind,))
        self.modified = modified
        return modified


class XsTxn:
    """The handle a transaction body receives from
    :meth:`XsClient.transaction`.

    Reads go to the daemon immediately (they populate the transaction's
    read set for commit-time validation).  On a ``batch_ops`` daemon,
    writes and removes are staged client-side and flushed as one batched
    round trip before commit; reads flush any staged ops first so
    read-your-writes still holds.  On other daemons every op is its own
    canonical round trip — byte-identical to the pre-redesign
    ``tx_write`` call sites.
    """

    def __init__(self, client: XsClient, tx: Transaction):
        self.client = client
        self.tx = tx
        self._staged: typing.List[typing.Tuple[str, str,
                                               typing.Optional[str]]] = []
        self._batched = bool(getattr(client.daemon, "batch_ops", False))

    def read(self, path: str):
        """Generator: XS_READ inside the transaction."""
        if not self._batched or not self._staged:
            return self.client._txn_read(self.tx, path)
        return self._flush_then(self.client._txn_read, path)

    def exists(self, path: str):
        """Generator: existence check inside the transaction."""
        if not self._batched or not self._staged:
            return self.client._txn_exists(self.tx, path)
        return self._flush_then(self.client._txn_exists, path)

    def write(self, path: str, value: str):
        """Generator: XS_WRITE inside the transaction (staged on
        batching daemons — the round trip is paid at flush)."""
        if self._batched:
            self._staged.append(("write", path, value))
            return iter(())
        return self.client._txn_write(self.tx, path, value)

    def rm(self, path: str):
        """Generator: XS_RM inside the transaction."""
        if self._batched:
            self._staged.append(("rm", path, None))
            return iter(())
        return self.client._txn_rm(self.tx, path)

    def _flush_then(self, verb, path):
        yield from self._flush()
        return (yield from verb(self.tx, path))

    def _flush(self):
        """Generator: push staged ops into the transaction (one batched
        round trip)."""
        if not self._staged:
            return
        staged, self._staged = self._staged, []
        yield from self.client.daemon.txn_flush_staged(self.tx, staged)
