"""Declarative fault plans and the deterministic injector.

A :class:`FaultPlan` is a replayable input to an experiment: an ordered
list of :class:`FaultRule`\\ s, each naming a **fault point** (a place in
the control plane instrumented with ``injector.fires(point)``) and saying
when it should misbehave — with a fixed probability per occurrence, or at
specific occurrence numbers.  All probability draws come from a named
:class:`~repro.sim.rng.RngStream` (one stream per fault point), so a given
``(seed, plan)`` pair produces the exact same fault schedule on every run
and adding a rule for one point never perturbs the draws of another.

The instrumented fault points are:

==========================  =================================================
point                       effect when fired
==========================  =================================================
``xenstore.message``        the daemon's ack is lost; the client waits out
                            its message timeout and resends (bounded)
``xenstore.commit``         the commit is invalidated (conflict storm);
                            the caller's transaction retry loop runs
``xenstore.watch``          the watch event for a mutation is dropped;
                            waiters must time out and re-announce
``hotplug.script``          a bash hotplug script fails; xl relaunches it
``hotplug.xendevd``         a xendevd handler fails; it re-executes
``shellpool.shell``         a pooled VM shell crashes right after prepare;
                            the daemon tears it down and replenishes
``hypervisor.hypercall``    DOMCTL_createdomain fails transiently;
                            the toolstack retries with backoff
``hypervisor.grant_map``    filling a grant-table entry fails transiently;
                            the granting side retries
``migration.link``          the migration TCP connection dies mid-copy;
                            the source resumes, the destination rolls back
==========================  =================================================

The **recovery fault points** below are additionally gated on the
recovery layer being attached (``repro.recovery``): a host built without
it never consults them, so plans with ``points="*"`` keep their exact
pre-recovery schedules and digests.

==========================  =================================================
point                       effect when fired (recovery layer attached)
==========================  =================================================
``xenstore.daemon_crash``   the daemon dies mid-op: the in-flight request
                            aborts with :class:`DaemonRestarted`, open
                            transactions are invalidated, and the watchdog
                            restarts the daemon by replaying its op journal
``toolstack.create``        the toolstack process dies mid-create, leaving
                            a half-built guest for the orphan reaper
``toolstack.destroy``       the toolstack dies mid-destroy; the reaper
                            rolls the teardown forward
``toolstack.migrate``       the migrating toolstack dies mid-memory-copy;
                            the reaper resumes the source and reaps the
                            destination's partial state
==========================  =================================================
"""

from __future__ import annotations

import dataclasses
import fnmatch
import typing

from ..sim.rng import RngRegistry, RngStream


class InjectedFault(RuntimeError):
    """Base class for errors raised because an injected fault persisted."""


class MessageTimeout(InjectedFault):
    """A XenStore message went unacknowledged past the retry budget."""


class TransientHypercallError(InjectedFault):
    """A hypercall failed transiently (caller should retry)."""


class GrantMapFailure(InjectedFault):
    """Filling a grant-table entry failed transiently."""


class LinkInterrupted(InjectedFault):
    """A network link dropped mid-transfer."""


class MigrationAborted(RuntimeError):
    """A migration was aborted; the source domain was left intact."""


class DaemonRestarted(InjectedFault):
    """The XenStore daemon crashed while this request was in flight.

    The op (or open transaction) had no durable effect — the crash fires
    before any mutation — so the caller can retry safely once the
    watchdog has replayed the journal.  ``XsClient.transaction()`` and
    ``XsBatch.commit()`` retry it via their :class:`RetryPolicy`."""


class ToolstackCrashed(InjectedFault):
    """The toolstack process died mid-operation (create/destroy/migrate).

    Unlike an ordinary failure, *no inline rollback runs* — the process
    is gone.  The per-phase intent record stays open; the orphan reaper
    (:class:`repro.recovery.OrphanReaper`) rolls the operation back or
    forward on the next recovery pass."""


class Overloaded(RuntimeError):
    """The daemon shed this request: its admission queue is full.

    Deliberately *not* an :class:`InjectedFault` — load shedding is a
    policy decision (bounded queue depth), not an injected failure, and
    can trigger without any fault plan."""


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One declarative rule: *where*, *when*, and *how hard* to fail."""

    #: Fault point name; ``fnmatch`` patterns are allowed ("xenstore.*").
    point: str
    #: Probability that a matching occurrence fires (drawn per occurrence
    #: from the point's own RNG stream).  Ignored when ``at`` is set.
    probability: float = 0.0
    #: Fire deterministically at these 1-based occurrence numbers of the
    #: point (e.g. ``(1,)`` = the first time the point is reached).
    at: typing.Tuple[int, ...] = ()
    #: Stop firing after this many hits (None = unlimited).  This is what
    #: bounds a "storm": high probability, finite fires.
    max_fires: typing.Optional[int] = None
    #: Informative kind tag ("timeout", "conflict", "drop", "crash"...).
    kind: str = ""
    #: Extra latency (ms) the victim charges when the fault fires, e.g.
    #: how long a hung hotplug script sits before its watchdog kills it.
    delay_ms: float = 0.0


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable set of fault rules — a replayable input."""

    rules: typing.Tuple[FaultRule, ...] = ()
    #: Seed used when an injector is built without an external registry.
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))

    @classmethod
    def uniform(cls, probability: float, points: str = "*",
                seed: int = 0, max_fires: typing.Optional[int] = None
                ) -> "FaultPlan":
        """Every occurrence of every matching point fails with
        ``probability`` — the knob the ablation benchmark sweeps."""
        return cls(rules=(FaultRule(point=points, probability=probability,
                                    max_fires=max_fires),), seed=seed)

    @classmethod
    def once(cls, point: str, occurrence: int = 1, kind: str = "",
             delay_ms: float = 0.0, seed: int = 0) -> "FaultPlan":
        """Fire exactly once, at the Nth occurrence of ``point``."""
        return cls(rules=(FaultRule(point=point, at=(occurrence,),
                                    kind=kind, delay_ms=delay_ms),),
                   seed=seed)

    @classmethod
    def chaos(cls, seed: int) -> "FaultPlan":
        """The chaos schedule drawn from ``seed``: one to three rules,
        each firing once at one of the first 40 occurrences of a point in
        :data:`CHAOS_POINTS`.  Occurrence-based, not probabilistic, so
        the rules *are* the reproducer: replaying them needs no RNG
        state."""
        rng = RngRegistry(seed).stream("chaos/schedule")
        rules = []
        for _ in range(1 + rng.randrange(3)):
            point = CHAOS_POINTS[rng.randrange(len(CHAOS_POINTS))]
            occurrence = 1 + rng.randrange(40)
            rules.append(FaultRule(point=point, at=(occurrence,),
                                   kind="chaos"))
        return cls(rules=tuple(rules), seed=seed)


#: Fault points a chaos schedule draws from.  All of them are live on
#: the XenStore-backed variants; occurrence-based rules on points a run
#: never reaches are simply inert (and get shrunk away).
CHAOS_POINTS = (
    "xenstore.daemon_crash",
    "toolstack.create",
    "toolstack.destroy",
    "xenstore.message",
    "xenstore.commit",
    "hypervisor.hypercall",
)


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at named fault points.

    Components call :meth:`fires` at each instrumented point; the injector
    counts the occurrence, evaluates the plan's rules in order, and returns
    the first rule that fires (or None).  With no plan it is an always-None
    null object, so call sites never branch on injector presence.
    """

    def __init__(self, plan: typing.Optional[FaultPlan] = None,
                 rng: typing.Optional[RngRegistry] = None):
        self.plan = plan
        self._rng = rng
        #: point -> times the point was reached.
        self.occurrences: typing.Dict[str, int] = {}
        #: point -> times a fault actually fired there.
        self.injected: typing.Dict[str, int] = {}
        self._rule_fires: typing.Dict[int, int] = {}
        self._rules = tuple(plan.rules) if plan is not None else ()
        #: point -> the ``(index, rule)`` pairs whose pattern matches it,
        #: in plan order (a point's matches never change).
        self._matches: typing.Dict[
            str, typing.Tuple[typing.Tuple[int, FaultRule], ...]] = {}
        #: point -> its RNG stream, created at the point's first draw.
        self._streams: typing.Dict[str, RngStream] = {}

    @property
    def enabled(self) -> bool:
        """True when the plan contains at least one rule."""
        return bool(self._rules)

    def _stream(self, point: str):
        stream = self._streams.get(point)
        if stream is None:
            if self._rng is None:
                self._rng = RngRegistry(self.plan.seed if self.plan else 0)
            stream = self._streams[point] = self._rng.stream(
                "fault/%s" % point)
        return stream

    def fires(self, point: str) -> typing.Optional[FaultRule]:
        """Count one occurrence of ``point``; return the firing rule."""
        if not self._rules:
            return None
        occurrence = self.occurrences.get(point, 0) + 1
        self.occurrences[point] = occurrence
        matches = self._matches.get(point)
        if matches is None:
            matches = self._matches[point] = tuple(
                (index, rule) for index, rule in enumerate(self._rules)
                if fnmatch.fnmatchcase(point, rule.point))
        for index, rule in matches:
            fired_so_far = self._rule_fires.get(index, 0)
            if rule.max_fires is not None and \
                    fired_so_far >= rule.max_fires:
                continue
            if rule.at:
                hit = occurrence in rule.at
            elif rule.probability > 0.0:
                hit = self._stream(point).random() < rule.probability
            else:
                hit = False
            if hit:
                self._rule_fires[index] = fired_so_far + 1
                self.injected[point] = self.injected.get(point, 0) + 1
                return rule
        return None

    def metrics(self) -> typing.Dict[str, typing.Dict[str, int]]:
        """Per-fault-point counters: occurrences seen, faults injected."""
        points = sorted(set(self.occurrences) | set(self.injected))
        return {point: {"occurrences": self.occurrences.get(point, 0),
                        "injected": self.injected.get(point, 0)}
                for point in points}


#: Shared do-nothing injector for components built without one.
NULL_INJECTOR = FaultInjector()
