"""Property-based tests for the scenario standard library.

Randomizes component combinations — host profile, guest image, traffic
pattern with overrides, fault plan, seed set — and requires the core
stdlib invariants to hold at every sampled point: specs round-trip
through their source payload digest-identically, replayed scenarios
reproduce their digest, and the sweep manifest is a pure function of
(spec, seed set) with the worker count unobservable.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stdlib import ScenarioSpec, run_scenario, run_sweep, storm_spec

hosts = st.sampled_from(["xl@1", "lightvm@1", "chaos+xs@1",
                         "chaos+noxs@1", "lightvm-batched@1"])
vm_images = st.sampled_from(["daytime@1", "noop@1", "tinyx@1"])
faults = st.sampled_from(["none@1", "light@1", "heavy@1", "chaos@1"])

traffics = st.one_of(
    st.just("boot-storm@1"),
    st.fixed_dictionaries({
        "ref": st.just("bursty@1"),
        "burst_size": st.integers(min_value=1, max_value=6),
        "burst_gap_ms": st.floats(min_value=1.0, max_value=200.0,
                                  allow_nan=False, allow_infinity=False),
    }),
    st.fixed_dictionaries({
        "ref": st.just("churn@1"),
        "churn_working_set": st.integers(min_value=1, max_value=4),
    }),
)

specs = st.builds(
    storm_spec,
    name=st.just("prop"),
    host=hosts,
    guest=vm_images,
    guests=st.integers(min_value=1, max_value=6),
    traffic=traffics,
    faults=faults,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


@given(specs)
@settings(max_examples=60, deadline=None)
def test_spec_source_round_trips_digest(spec):
    assert ScenarioSpec.from_dict(spec.source).digest() == spec.digest()


@given(specs, seeds)
@settings(max_examples=30, deadline=None)
def test_scenario_digest_is_replay_stable(spec, seed):
    first = run_scenario(spec, seed=seed)
    second = run_scenario(spec, seed=seed)
    assert first.digest == second.digest
    assert first.stats == second.stats
    assert first.series == second.series


@given(specs,
       st.lists(st.integers(min_value=0, max_value=99), min_size=1,
                max_size=4, unique=True),
       st.integers(min_value=2, max_value=4))
@settings(max_examples=12, deadline=None)
def test_sweep_manifest_worker_invariant(spec, seed_set, workers):
    inline = run_sweep(spec, seed_set, workers=1)
    parallel = run_sweep(spec, seed_set, workers=workers)
    assert inline["manifest_digest"] == parallel["manifest_digest"]
    assert inline["runs"] == parallel["runs"]
    assert inline["stats"] == parallel["stats"]
