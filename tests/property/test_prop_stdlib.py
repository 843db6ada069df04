"""Property-based tests for the scenario standard library.

Randomizes component combinations — host profile, guest image, traffic
pattern with overrides, fault plan, seed set — and requires the core
stdlib invariants to hold at every sampled point: specs round-trip
through their source payload digest-identically, replayed scenarios
reproduce their digest, and the sweep manifest is a pure function of
(spec, seed set) with the worker count unobservable.  The cluster
topology and traffic checks are held to the ones a cluster config used
to make itself.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stdlib import (ComponentOverrideError, ScenarioSpec,
                          run_scenario, run_sweep, storm_spec)
from repro.stdlib.presets import BOOT_STORM

hosts = st.sampled_from(["xl@1", "lightvm@1", "chaos+xs@1",
                         "chaos+noxs@1",
                         {"ref": "chaos+xs@1", "xenstore_workers": 4,
                          "xenstore_batch": True}])
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


# ----------------------------------------------------------------------
# Cluster topology and traffic checks
# ----------------------------------------------------------------------

class ReferenceChecks:
    """The topology and traffic checks of ``ClusterConfig.validate``
    before they moved into ``TopologyProfile.validate`` and
    ``TrafficPattern.validate``, copied verbatim."""

    def __init__(self, **values):
        self.__dict__.update(values)

    def topology(self) -> None:
        # Written "not x > 0" so that NaN fails too.
        if not self.epoch_ms > 0:
            raise ValueError("epoch_ms must be > 0, got %r"
                             % self.epoch_ms)
        if not self.net_latency_ms >= self.epoch_ms:
            raise ValueError(
                "net_latency_ms (%r) must be >= epoch_ms (%r): the epoch "
                "length is the cluster's lookahead"
                % (self.net_latency_ms, self.epoch_ms))
        if not self.net_bandwidth_mbps > 0:
            raise ValueError("net_bandwidth_mbps must be > 0")

    def traffic(self) -> None:
        if not self.create_spacing_ms > 0:
            raise ValueError("create_spacing_ms must be > 0")
        if not self.request_gap_ms > 0:
            raise ValueError("request_gap_ms must be > 0")


def _rejected_field(values):
    """The spec field the reference rejects, or ``None``.  A spec
    resolves ``traffic`` before ``topology``."""
    reference = ReferenceChecks(**values)
    for field, check in (("traffic", reference.traffic),
                         ("topology", reference.topology)):
        try:
            check()
        except ValueError:
            return field
    return None


numbers = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -0.0, -1,
                     -2.5, 1, 5, 5.0, 20.0]),
    st.integers(min_value=-30, max_value=30),
    st.floats())


@st.composite
def cluster_overrides(draw):
    """Topology and traffic overrides; the latency is often just below,
    at or just above the epoch."""
    topology = draw(st.fixed_dictionaries(
        {}, optional={"epoch_ms": numbers, "net_bandwidth_mbps": numbers}))
    epoch = topology.get("epoch_ms", 5.0)
    latency = draw(st.one_of(
        st.none(), numbers,
        st.sampled_from([math.nextafter(epoch, -math.inf), epoch,
                         math.nextafter(epoch, math.inf)])))
    if latency is not None:
        topology["net_latency_ms"] = latency
    traffic = draw(st.fixed_dictionaries(
        {}, optional={"create_spacing_ms": numbers,
                      "request_gap_ms": numbers}))
    return topology, traffic


@given(cluster_overrides())
@settings(max_examples=400, deadline=None)
def test_cluster_checks_match_the_reference(overrides):
    topology, traffic = overrides
    plain = ScenarioSpec.from_dict(BOOT_STORM)
    values = dict(plain.topology.params(), **plain.traffic.params())
    values.update(topology)
    values.update(traffic)
    payload = dict(BOOT_STORM, topology=dict(topology, ref="lan@1"),
                   traffic=dict(traffic, ref="boot-storm@1"))
    field = _rejected_field(values)
    if field is None:
        ScenarioSpec.from_dict(payload)
    else:
        with pytest.raises(ComponentOverrideError) as err:
            ScenarioSpec.from_dict(payload)
        assert err.value.field == field
