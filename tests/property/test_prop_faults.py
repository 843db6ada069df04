"""Property tests: random seeded fault plans through a boot storm.

Whatever fault schedule Hypothesis draws, two invariants must hold:

* the host leaks nothing — every failed creation rolled back fully; and
* the run is bit-reproducible — the same (seed, plan) pair produces the
  exact same timeline, fault schedule, and outcome sequence.

A third property pins :meth:`FaultInjector.fires` to a reference that
matches every rule's pattern on every call.
"""

import fnmatch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Host
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.guests import DAYTIME_UNIKERNEL
from repro.sim.rng import RngRegistry

VARIANTS = ("xl", "chaos+xs", "lightvm")
CREATES = 5

rates = st.floats(min_value=0.0, max_value=0.3, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2 ** 31)


def storm(variant, rate, seed):
    """One fault-injected boot storm; returns its full observable trace."""
    host = Host(variant=variant, seed=seed, pool_target=CREATES + 2,
                fault_plan=FaultPlan.uniform(rate, seed=seed))
    host.warmup(1500)
    outcomes = []
    for _ in range(CREATES):
        try:
            outcomes.append(host.create_vm(DAYTIME_UNIKERNEL).create_ms)
        except Exception as exc:
            outcomes.append(type(exc).__name__)
    host.sim.run(until=host.sim.now + 500.0)
    return (outcomes, host.sim.now, host.fault_metrics(),
            host.check_invariants())


@given(st.sampled_from(VARIANTS), rates, seeds)
@settings(max_examples=15, deadline=None)
def test_random_fault_plans_never_leak(variant, rate, seed):
    _outcomes, _now, _metrics, violations = storm(variant, rate, seed)
    assert violations == []


@given(st.sampled_from(VARIANTS), rates, seeds)
@settings(max_examples=10, deadline=None)
def test_identical_seeds_identical_timelines(variant, rate, seed):
    assert storm(variant, rate, seed) == storm(variant, rate, seed)


POINTS = ("xenstore.message", "xenstore.commit", "xenstore.watch",
          "hotplug.script", "toolstack.create", "hypervisor.hypercall")

fault_rules = st.builds(
    FaultRule,
    point=st.sampled_from(POINTS + ("xenstore.*", "*", "hotplug.*",
                                    "no.such.point")),
    probability=st.sampled_from((0.0, 0.25, 0.5, 1.0)),
    at=st.lists(st.integers(1, 12), max_size=3).map(tuple),
    max_fires=st.one_of(st.none(), st.integers(0, 3)))


class ReferenceInjector:
    """``FaultInjector.fires`` as a per-call scan: ``fnmatchcase`` on
    every rule, and the point's stream fetched from the registry at each
    draw."""

    def __init__(self, plan, rng):
        self.rules = plan.rules
        self.rng = rng
        self.occurrences = {}
        self.injected = {}
        self.rule_fires = {}

    def fires(self, point):
        occurrence = self.occurrences.get(point, 0) + 1
        self.occurrences[point] = occurrence
        for index, rule in enumerate(self.rules):
            if not fnmatch.fnmatchcase(point, rule.point):
                continue
            fired_so_far = self.rule_fires.get(index, 0)
            if rule.max_fires is not None and \
                    fired_so_far >= rule.max_fires:
                continue
            if rule.at:
                hit = occurrence in rule.at
            elif rule.probability > 0.0:
                hit = (self.rng.stream("fault/%s" % point).random()
                       < rule.probability)
            else:
                hit = False
            if hit:
                self.rule_fires[index] = fired_so_far + 1
                self.injected[point] = self.injected.get(point, 0) + 1
                return rule
        return None


@given(st.lists(fault_rules, min_size=1, max_size=4),
       st.lists(st.sampled_from(POINTS), max_size=60), seeds)
@settings(max_examples=200, deadline=None)
def test_cached_point_matches_equal_a_per_call_scan(rules, points, seed):
    """The injector's per-point match cache returns the same rule, counts
    the same occurrences and injections, and draws the same random
    numbers from the same streams as scanning every rule on every call."""
    plan = FaultPlan(rules=tuple(rules), seed=seed)
    registry, reference_registry = RngRegistry(seed), RngRegistry(seed)
    injector = FaultInjector(plan, rng=registry)
    reference = ReferenceInjector(plan, reference_registry)
    for point in points:
        assert injector.fires(point) is reference.fires(point)
    assert injector.occurrences == reference.occurrences
    assert injector.injected == reference.injected
    assert list(registry._streams) == list(reference_registry._streams)
    for name, stream in registry._streams.items():
        assert stream.getstate() == \
            reference_registry._streams[name].getstate(), name
