"""The ``repro chaos`` campaign runner.

A *campaign* is N independent seeded runs of one scenario (a boot storm
or a create/destroy churn) on a recovery-enabled host, each under a
schedule of injected faults drawn deterministically from the run's seed.
After every run the campaign recovers the host (reaper pass), drains the
simulator, and audits :mod:`repro.faults.invariants` — a run *fails* iff
the audit reports violations (or an exception nobody typed escapes the
scenario).

Failing schedules are **shrunk** with delta debugging (ddmin over the
fault-rule list): the campaign re-runs the same seed with subsets of the
schedule until it finds a 1-minimal set of rules that still violates the
invariants.  The result is a *reproducer* — a small JSON document naming
the scenario, seed and minimal schedule — which :func:`replay` re-runs
bit-for-bit (same violations, same replay digest) on any machine.

Everything here is deterministic: schedules come from a named RNG stream
of the seed, runs are pure functions of ``(seed, schedule, scenario)``,
and the shrinker's re-runs build fresh simulators each time, so the
reproducer's recorded digest doubles as a replay check.

This module is *not* imported by :mod:`repro.recovery`'s ``__init__``:
it needs :class:`~repro.core.host.Host`, which lazily imports the
recovery package, and keeping the campaign out of that cycle keeps
``Host`` importable from either side.  Import it explicitly::

    from repro.recovery import campaign
"""

from __future__ import annotations

import dataclasses
import typing

from ..analysis.sanitize import EventTrace
from ..core.host import Host
from ..faults import ABSORBED, FaultPlan, FaultRule
from ..guests.catalog import lookup
from ..guests.images import GuestImage
from ..sim.engine import Simulator
from ..sim.rng import RngRegistry

#: Reproducer JSON format version (bump on incompatible change).
REPRODUCER_VERSION = 1

#: Fault points a generated schedule draws from.  All of them are live
#: on the XenStore-backed variants; occurrence-based rules on points the
#: run never reaches are simply inert (and get shrunk away).
CAMPAIGN_POINTS = (
    "xenstore.daemon_crash",
    "toolstack.create",
    "toolstack.destroy",
    "xenstore.message",
    "xenstore.commit",
    "hypervisor.hypercall",
)

# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _absorb(outcome, fn):
    """Run ``fn``; fold typed failures into the outcome counters."""
    try:
        return fn()
    except ABSORBED as exc:
        name = type(exc).__name__
        outcome["errors"][name] = outcome["errors"].get(name, 0) + 1
    except Exception as exc:  # untyped escape = a finding, not a crash
        outcome["unhandled"].append("%s: %s" % (type(exc).__name__, exc))
    return None


def _boot_storm(host, image, count, outcome):
    """Create ``count`` guests back to back (Fig 10's regime)."""
    for _ in range(count):
        _absorb(outcome, lambda: host.create_vm(image))


def _churn(host, image, count, outcome):
    """Interleave creates with destroys of the oldest survivor."""
    alive = []
    for index in range(count):
        record = _absorb(outcome, lambda: host.create_vm(image))
        if record is not None:
            alive.append(record.domain)
        if index % 3 == 2 and alive:
            victim = alive.pop(0)
            _absorb(outcome, lambda: host.destroy_vm(victim))


SCENARIOS = {
    "boot-storm": _boot_storm,
    "churn": _churn,
}


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def generate_schedule(seed: int,
                      points: typing.Sequence[str] = CAMPAIGN_POINTS,
                      max_rules: int = 3,
                      max_occurrence: int = 40
                      ) -> typing.Tuple[FaultRule, ...]:
    """Draw a fault schedule from ``seed``: 1..max_rules occurrence-based
    rules over ``points``.  Occurrence-based (not probabilistic) so the
    schedule *is* the reproducer — replaying it needs no RNG state."""
    rng = RngRegistry(seed).stream("chaos/schedule")
    rules = []
    for _ in range(1 + rng.randrange(max_rules)):
        point = points[rng.randrange(len(points))]
        occurrence = 1 + rng.randrange(max_occurrence)
        rules.append(FaultRule(point=point, at=(occurrence,), kind="chaos"))
    return tuple(rules)


def rule_to_dict(rule: FaultRule) -> dict:
    return {"point": rule.point, "probability": rule.probability,
            "at": list(rule.at), "max_fires": rule.max_fires,
            "kind": rule.kind, "delay_ms": rule.delay_ms}


def rule_from_dict(data: dict) -> FaultRule:
    return FaultRule(point=data["point"],
                     probability=data.get("probability", 0.0),
                     at=tuple(data.get("at") or ()),
                     max_fires=data.get("max_fires"),
                     kind=data.get("kind", ""),
                     delay_ms=data.get("delay_ms", 0.0))


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ScheduleResult:
    """Outcome of one seeded run under one fault schedule."""

    seed: int
    schedule: typing.Tuple[FaultRule, ...]
    #: Invariant violations after recovery + drain (empty = pass).
    violations: typing.List[str]
    #: Replay digest of the full event timeline, crashes included.
    digest: str
    #: Guests still running at the end.
    guests: int
    #: Typed errors the scenario absorbed, by exception name.
    errors: typing.Dict[str, int]
    #: Recovery-layer counters (RecoveryManager.metrics()).
    recovery: typing.Dict[str, typing.Any]

    @property
    def ok(self) -> bool:
        return not self.violations


def run_schedule(schedule: typing.Sequence[FaultRule],
                 seed: int = 0,
                 scenario: str = "boot-storm",
                 variant: str = "chaos+xs",
                 image: typing.Union[str, GuestImage] = "daytime",
                 count: int = 8,
                 queue_cap: typing.Optional[int] = None,
                 reap: bool = True) -> ScheduleResult:
    """One chaos run: scenario under ``schedule``, recovery pass, audit.

    ``reap=False`` skips the recovery pass (the reaper) — crashed
    operations then stay half-done, which the invariant audit reports.
    That is the campaign's self-test knob: a schedule that crashes the
    toolstack *must* fail when nobody reaps."""
    try:
        scenario_fn = SCENARIOS[scenario]
    except KeyError:
        raise ValueError("unknown scenario %r; expected one of %s"
                         % (scenario, ", ".join(sorted(SCENARIOS))))
    guest = lookup(image) if isinstance(image, str) else image
    sim = Simulator()
    trace = EventTrace().attach(sim)
    host = Host(variant=variant, seed=seed, sim=sim,
                pool_target=count + 8, shell_memory_kb=guest.memory_kb,
                fault_plan=FaultPlan(rules=tuple(schedule), seed=seed),
                xenstore_queue_cap=queue_cap,
                recovery=True)
    host.warmup(20.0 * (count + 8))
    outcome = {"errors": {}, "unhandled": []}
    scenario_fn(host, guest, count, outcome)
    if reap:
        _absorb(outcome, lambda: host.recover())
    # Drain in-flight teardowns and restarts before auditing.
    sim.run(until=sim.now + 500.0)
    violations = host.check_invariants()
    violations.extend("unhandled error escaped the scenario: %s" % item
                      for item in outcome["unhandled"])
    return ScheduleResult(seed=seed, schedule=tuple(schedule),
                          violations=violations, digest=trace.digest(),
                          guests=host.running_guests,
                          errors=outcome["errors"],
                          recovery=host.recovery.metrics())


# ----------------------------------------------------------------------
# Shrinking (ddmin)
# ----------------------------------------------------------------------
def _split(items: list, n: int) -> typing.List[list]:
    size, rem = divmod(len(items), n)
    chunks, start = [], 0
    for index in range(n):
        end = start + size + (1 if index < rem else 0)
        if end > start:
            chunks.append(items[start:end])
        start = end
    return chunks


def shrink(schedule: typing.Sequence[FaultRule],
           failing: typing.Callable[[typing.Tuple[FaultRule, ...]], bool]
           ) -> typing.Tuple[FaultRule, ...]:
    """Delta-debug ``schedule`` down to a 1-minimal failing subset.

    ``failing(subset)`` re-runs the experiment and returns True when the
    subset still fails; ``failing(schedule)`` must be True on entry.
    Classic ddmin: try each chunk alone, then each complement, doubling
    granularity when neither reduces."""
    rules = list(schedule)
    n = 2
    while len(rules) >= 2:
        chunks = _split(rules, n)
        reduced = False
        for chunk in chunks:
            if failing(tuple(chunk)):
                rules, n, reduced = chunk, 2, True
                break
        if not reduced:
            for index in range(len(chunks)):
                complement = [rule
                              for other in chunks[:index] + chunks[index + 1:]
                              for rule in other]
                if complement and failing(tuple(complement)):
                    rules, n, reduced = complement, max(n - 1, 2), True
                    break
        if not reduced:
            if n >= len(rules):
                break
            n = min(len(rules), n * 2)
    return tuple(rules)


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CampaignReport:
    """Aggregate outcome of a multi-seed campaign."""

    scenario: str
    variant: str
    image: str
    count: int
    runs: typing.List[ScheduleResult] = dataclasses.field(
        default_factory=list)
    #: One reproducer dict per failing seed, schedule already shrunk.
    failures: typing.List[dict] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def make_reproducer(result: ScheduleResult, scenario: str, variant: str,
                    image: str, count: int,
                    queue_cap: typing.Optional[int],
                    reap: bool) -> dict:
    """The replayable JSON document for one failing (shrunk) run."""
    return {
        "version": REPRODUCER_VERSION,
        "scenario": scenario,
        "variant": variant,
        "image": image,
        "count": count,
        "seed": result.seed,
        "queue_cap": queue_cap,
        "reap": reap,
        "schedule": [rule_to_dict(rule) for rule in result.schedule],
        "violations": list(result.violations),
        "digest": result.digest,
    }


def replay(reproducer: dict) -> ScheduleResult:
    """Re-run a reproducer document; deterministic, so the result's
    violations and digest match the recorded ones."""
    version = reproducer.get("version")
    if version != REPRODUCER_VERSION:
        raise ValueError("reproducer version %r not supported (want %d)"
                         % (version, REPRODUCER_VERSION))
    schedule = tuple(rule_from_dict(data)
                     for data in reproducer["schedule"])
    return run_schedule(schedule,
                        seed=reproducer["seed"],
                        scenario=reproducer["scenario"],
                        variant=reproducer["variant"],
                        image=reproducer["image"],
                        count=reproducer["count"],
                        queue_cap=reproducer.get("queue_cap"),
                        reap=reproducer.get("reap", True))


def run_campaign(seeds: int = 16,
                 base_seed: int = 0,
                 scenario: str = "boot-storm",
                 variant: str = "chaos+xs",
                 image: str = "daytime",
                 count: int = 8,
                 queue_cap: typing.Optional[int] = None,
                 reap: bool = True,
                 do_shrink: bool = True,
                 max_rules: int = 3,
                 max_occurrence: int = 40,
                 log: typing.Optional[typing.Callable[[str], None]] = None
                 ) -> CampaignReport:
    """Run ``seeds`` independent seeded fault schedules; shrink and
    record a reproducer for every failing one."""
    report = CampaignReport(scenario=scenario, variant=variant,
                            image=image, count=count)
    say = log or (lambda _line: None)
    for index in range(seeds):
        seed = base_seed + index

        def rerun(subset):
            return run_schedule(subset, seed=seed, scenario=scenario,
                                variant=variant, image=image, count=count,
                                queue_cap=queue_cap, reap=reap)

        schedule = generate_schedule(seed, max_rules=max_rules,
                                     max_occurrence=max_occurrence)
        result = rerun(schedule)
        report.runs.append(result)
        if result.ok:
            say("seed %d: ok (%d rule(s), %d guest(s), digest %s)"
                % (seed, len(schedule), result.guests, result.digest[:12]))
            continue
        say("seed %d: %d violation(s) under %d rule(s); shrinking..."
            % (seed, len(result.violations), len(schedule)))
        final = result
        if do_shrink and len(result.schedule) > 1:
            minimal = shrink(result.schedule,
                             lambda subset: not rerun(subset).ok)
            final = rerun(minimal)
        report.failures.append(make_reproducer(
            final, scenario, variant, image, count, queue_cap, reap))
        say("seed %d: minimal reproducer has %d rule(s): %s"
            % (seed, len(final.schedule),
               ", ".join("%s@%s" % (rule.point, list(rule.at))
                         for rule in final.schedule)))
    return report
