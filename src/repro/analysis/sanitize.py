"""Runtime sanitizers and the dual-run replay-digest checker.

Static linting (:mod:`repro.analysis.lint`) catches hazards visible in
the source; this module catches the ones only visible at runtime:

* **Double triggers** — an :class:`~repro.sim.events.Event` succeeded or
  failed twice.  The kernel raises on the spot, but defensive call sites
  often swallow that raise; the sanitizer records every attempt so the
  bug surfaces in the end-of-run report.
* **Stalled processes** — a :class:`~repro.sim.process.Process` still
  alive after the queue drained is deadlocked (waiting on an event
  nobody will trigger) or leaked; this extends the post-run auditing of
  :mod:`repro.faults.invariants` from control-plane state to kernel
  state.
* **Waiters at end of run** — a :class:`~repro.sim.resources.Resource`
  with a non-empty queue or a :class:`~repro.sim.resources.Store` with
  pending getters after the drain means some process parked forever.
* **RNG stream collisions** — two distinct
  :class:`~repro.sim.rng.RngStream` objects derived from the same
  ``(seed, name)`` silently produce *correlated* randomness: two
  components believe they have independent streams but replay each
  other's draws.

All hooks are **opt-in**: a plain :class:`~repro.sim.engine.Simulator`
pays one ``is None`` check per hook site and nothing else.

The **dual-run digest checker** (:func:`verify_replay`) is the
determinism end-game: it runs a scenario twice from the same seed, each
time streaming every processed event — ``(time, event type, ok, canonical
payload)`` — into a SHA-256, and compares the digests.  Equal digests
prove the two timelines are byte-identical without storing either.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing
import weakref

from ..sim.engine import Simulator
from ..sim.events import _Cell
from ..sim.rng import RngStream


class SanitizerViolation(AssertionError):
    """The sanitizer observed a kernel-level hazard; see the message."""


class ReplayDivergence(AssertionError):
    """Two runs of the same (seed, scenario) produced different event
    timelines — the determinism contract is broken."""


# ----------------------------------------------------------------------
# Canonical payload encoding (address-free, replay-stable)
# ----------------------------------------------------------------------

#: Exact types whose ``repr`` is their canonical text.
_REPR_TYPES = frozenset((type(None), bool, int, str, bytes))


def canonical(value: object, depth: int = 0) -> str:
    """Encode ``value`` for digesting, stable across processes.

    ``repr`` is unusable here: default object reprs embed ``id()``
    addresses that differ between runs even when the timeline is
    identical.  Scalars and containers are encoded structurally;
    everything else collapses to its type name, which still pins the
    *shape* of the timeline (what fired, when, in which order) without
    smuggling in address entropy.

    An exact scalar is encoded straight from a type-identity test, and
    so is an exact-scalar item of a list or tuple (a cross-host message
    token is one), in line rather than by a recursive call; every other
    value, subclasses included, takes the ``isinstance`` chain.  Both
    give the same text.
    """
    if depth > 4:
        return "..."
    cls = type(value)
    if cls is float:
        return value.hex()
    if cls in _REPR_TYPES:
        return repr(value)
    if isinstance(value, (list, tuple)):
        if depth < 4:
            parts = []
            for item in value:
                kind = type(item)
                if kind is float:
                    parts.append(item.hex())
                elif kind in _REPR_TYPES:
                    parts.append(repr(item))
                else:
                    parts.append(canonical(item, depth + 1))
        else:
            parts = ["..."] * len(value)  # every item is past the cap
        if isinstance(value, list):
            return "[" + ",".join(parts) + "]"
        return "(" + ",".join(parts) + ")"
    if isinstance(value, (int, str, bytes)):
        return repr(value)
    if isinstance(value, float):
        return value.hex()  # exact bits, not shortest-repr rounding
    if isinstance(value, dict):
        return "{" + ",".join(
            "%s:%s" % (canonical(k, depth + 1), canonical(v, depth + 1))
            for k, v in value.items()) + "}"
    if isinstance(value, BaseException):
        return "%s(%s)" % (type(value).__name__,
                           ",".join(canonical(a, depth + 1)
                                    for a in value.args))
    return "<%s>" % type(value).__name__


class EventTrace:
    """Streaming SHA-256 over a simulator's processed-event timeline.

    Attach with :meth:`attach`; :meth:`Simulator.step` feeds every event
    through :meth:`record`.  The digest is order-, time-, type- and
    payload-sensitive but address-free, so two bit-identical runs in
    different processes produce the same hex digest.
    """

    def __init__(self):
        self._hash = hashlib.sha256()
        self.events = 0
        #: Event class -> encoded ``|<Type>|True|None`` line tail.
        self._tails: typing.Dict[type, bytes] = {}

    def attach(self, sim: Simulator) -> "EventTrace":
        sim.trace = self
        return self

    def record(self, when: float, event: object) -> None:
        ok = getattr(event, "_ok", None)
        value = getattr(event, "_value", None)
        if ok is True and value is None:
            # Most events succeed without a payload: their line is the
            # time plus a tail fixed per class, the same bytes the general
            # path below writes, without formatting or ``canonical``.
            cls = type(event)
            tail = self._tails.get(cls)
            if tail is None:
                tail = ("|%s|True|None\n" % cls.__name__).encode(
                    "utf-8", "backslashreplace")
                self._tails[cls] = tail
            self._hash.update(when.hex().encode() + tail)
            self.events += 1
            return
        line = "%s|%s|%s|%s\n" % (when.hex(), type(event).__name__,
                                  ok, canonical(value))
        self._hash.update(line.encode("utf-8", "backslashreplace"))
        self.events += 1

    def digest(self) -> str:
        """Hex digest of everything recorded so far."""
        return self._hash.hexdigest()


def combine_digests(digests: typing.Sequence[str]) -> str:
    """Fold per-component digests into one canonical cluster digest.

    Position-sensitive: component ``i``'s digest is hashed with its index,
    so the combination is a pure function of the ordered sequence — for a
    cluster, per-host :class:`EventTrace` digests in host-index order.
    Two backends that produce byte-identical per-host timelines therefore
    produce the same combined digest regardless of how hosts were
    partitioned across OS processes.
    """
    rollup = hashlib.sha256()
    for index, digest in enumerate(digests):
        rollup.update(("%d:%s\n" % (index, digest)).encode("ascii"))
    return rollup.hexdigest()


# ----------------------------------------------------------------------
# Sanitizer
# ----------------------------------------------------------------------

class Sanitizer:
    """Opt-in runtime hazard detector for one or more simulators.

    Usage::

        san = Sanitizer()
        sim = Simulator()
        san.attach(sim)
        with san.watch_rng():
            ...  # build hosts, run the scenario
        sim.run()
        san.assert_clean()
    """

    def __init__(self):
        self.double_triggers: typing.List[str] = []
        self.rng_collisions: typing.List[str] = []
        self._processes: "weakref.WeakSet" = weakref.WeakSet()
        self._resources: "weakref.WeakSet" = weakref.WeakSet()
        self._stores: "weakref.WeakSet" = weakref.WeakSet()
        self._streams_seen: typing.Set[typing.Tuple[int, str]] = set()

    # -- hook points (called from the sim kernel when attached) --------
    def attach(self, sim: Simulator) -> "Sanitizer":
        sim.sanitizer = self
        return self

    def event_double_trigger(self, event: object) -> None:
        self.double_triggers.append(
            "%s re-triggered at t=%s (already %s)"
            % (type(event).__name__, event.sim.now,
               "ok" if getattr(event, "_ok", None) else "failed"))

    def track_process(self, process: object) -> None:
        self._processes.add(process)

    def track_resource(self, resource: object) -> None:
        self._resources.add(resource)

    def track_store(self, store: object) -> None:
        self._stores.add(store)

    def stream_created(self, seed: int, name: str) -> None:
        key = (seed, name)
        if key in self._streams_seen:
            self.rng_collisions.append(
                "rng stream (seed=%r, name=%r) derived twice: the two "
                "streams replay identical draws" % (seed, name))
        else:
            self._streams_seen.add(key)

    def watch_rng(self) -> "typing.ContextManager[None]":
        """Context manager: observe every RngStream construction
        process-wide (class-level hook, so scope it tightly)."""
        sanitizer = self

        class _Watch:
            def __enter__(self):
                RngStream.observers.append(sanitizer)

            def __exit__(self, *exc):
                RngStream.observers.remove(sanitizer)

        return _Watch()

    # -- end-of-run audit ----------------------------------------------
    def check(self) -> typing.List[str]:
        """Audit everything tracked; returns violation descriptions.

        Call with the simulator drained — a stalled process mid-run is
        just a process that has not been scheduled yet.
        """
        violations: typing.List[str] = list(self.double_triggers)
        violations.extend(self.rng_collisions)
        stalled = [process for process in self._processes
                   if getattr(process, "is_alive", False)
                   and not getattr(process, "daemon", False)]
        stalled.sort(key=lambda p: getattr(p, "name", ""))
        for process in stalled:
            waiting = process._waiting_on
            # A pooled kernel cell (_Cell) is the bootstrap/kick carrier,
            # not something the guest chose to wait on; a process parked
            # on one with the queue drained simply never got resumed.
            # (Its class __name__ deliberately reads "Event" for digest
            # reasons, so report it by meaning, not by name.)
            if waiting is None or waiting.__class__ is _Cell:
                waited = "nothing (never resumed)"
            else:
                waited = type(waiting).__name__
            violations.append(
                "process %r never finished: waiting on %s (deadlock or "
                "leaked wakeup)" % (process.name, waited))
        for resource in self._resources:
            if getattr(resource, "queue", None):
                violations.append(
                    "resource (capacity %d) drained with %d waiter(s) "
                    "still queued"
                    % (resource.capacity, len(resource.queue)))
        for store in self._stores:
            pending = [getter for getter in getattr(store, "_getters", ())
                       if not getter.triggered]
            if pending:
                violations.append(
                    "store drained with %d blocked getter(s)"
                    % len(pending))
        return violations

    def assert_clean(self) -> None:
        """Raise :class:`SanitizerViolation` if :meth:`check` found any."""
        violations = self.check()
        if violations:
            raise SanitizerViolation(
                "%d sanitizer violation(s):\n  %s"
                % (len(violations), "\n  ".join(violations)))


# ----------------------------------------------------------------------
# Dual-run replay verification
# ----------------------------------------------------------------------

@dataclasses.dataclass
class ReplayReport:
    """Outcome of :func:`verify_replay`."""

    digests: typing.List[str]
    event_counts: typing.List[int]

    @property
    def identical(self) -> bool:
        return len(set(self.digests)) == 1

    def render(self) -> str:
        lines = ["run %d: %d events, digest %s"
                 % (index + 1, count, digest)
                 for index, (digest, count)
                 in enumerate(zip(self.digests, self.event_counts))]
        lines.append("replay: %s" % ("IDENTICAL" if self.identical
                                     else "DIVERGED"))
        return "\n".join(lines)


def verify_replay(scenario: typing.Callable[[Simulator], object],
                  runs: int = 2) -> ReplayReport:
    """Run ``scenario`` ``runs`` times, each on a fresh traced
    :class:`Simulator`, and compare the event-timeline digests.

    ``scenario(sim)`` must build all of its state on the simulator it is
    given (e.g. ``Host(..., sim=sim)``) and drive it to completion; any
    state shared across calls breaks the comparison's premise.  Returns
    a :class:`ReplayReport`; use :func:`assert_replay_identical` to turn
    divergence into an error.
    """
    if runs < 2:
        raise ValueError("need at least 2 runs to compare, got %d" % runs)
    digests: typing.List[str] = []
    counts: typing.List[int] = []
    for _ in range(runs):
        sim = Simulator()
        trace = EventTrace().attach(sim)
        scenario(sim)
        digests.append(trace.digest())
        counts.append(trace.events)
    return ReplayReport(digests=digests, event_counts=counts)


def assert_replay_identical(scenario: typing.Callable[[Simulator], object],
                            runs: int = 2) -> ReplayReport:
    """:func:`verify_replay`, raising :class:`ReplayDivergence` unless
    every run's digest matches."""
    report = verify_replay(scenario, runs=runs)
    if not report.identical:
        raise ReplayDivergence(
            "event timelines diverged across %d runs of the same "
            "scenario:\n%s" % (runs, report.render()))
    return report
