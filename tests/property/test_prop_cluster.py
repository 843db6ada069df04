"""Property-based backend-identity for the cluster layer.

Randomizes the epoch length (the lookahead), the latency slack above it,
the topology, and the traffic mix that drives cross-host message
interleavings — and requires the procs backend to reproduce the inline
backend's digest bit-for-bit at every sampled point.  Each draw is a
boot-storm spec with topology and traffic overrides.  Note digests are
*not* expected to be invariant across epoch lengths (barrier instants
are part of the timeline); the property is backend-independence at a
fixed config.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.stdlib import preset

configs = st.fixed_dictionaries({
    "hosts": st.integers(min_value=1, max_value=4),
    "seed": st.integers(min_value=0, max_value=2**31 - 1),
    "guests": st.integers(min_value=1, max_value=6),
    "requests": st.integers(min_value=0, max_value=20),
    "migrations": st.integers(min_value=0, max_value=2),
    "epoch_ms": st.floats(min_value=1.0, max_value=25.0,
                          allow_nan=False, allow_infinity=False),
    "latency_slack_ms": st.floats(min_value=0.0, max_value=10.0,
                                  allow_nan=False, allow_infinity=False),
    "request_gap_ms": st.floats(min_value=0.25, max_value=4.0,
                                allow_nan=False, allow_infinity=False),
})


def _build(params):
    return preset(
        "boot-storm", hosts=params["hosts"], guests=params["guests"],
        requests=params["requests"], migrations=params["migrations"],
        topology={"ref": "lan@1", "epoch_ms": params["epoch_ms"],
                  "net_latency_ms": params["epoch_ms"]
                  + params["latency_slack_ms"]},
        traffic={"ref": "boot-storm@1",
                 "request_gap_ms": params["request_gap_ms"]},
    ).to_cluster_config(params["seed"])


@given(configs, st.integers(min_value=1, max_value=4))
@settings(max_examples=8, deadline=None)
def test_procs_digest_matches_inline_everywhere(params, workers):
    reference = Cluster(_build(params), backend="inline").run()
    result = Cluster(_build(params), backend="procs",
                     workers=workers).run()
    assert result.digest == reference.digest
    assert result.host_digests == reference.host_digests
    assert result.stats == reference.stats


@given(configs)
@settings(max_examples=15, deadline=None)
def test_inline_rerun_is_bit_identical(params):
    first = Cluster(_build(params), backend="inline").run()
    second = Cluster(_build(params), backend="inline").run()
    assert first.digest == second.digest
    assert first.epochs == second.epochs
