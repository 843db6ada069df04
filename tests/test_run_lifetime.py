"""A finished run frees its host.

``run_scenario`` closes the host it built, and the cluster backends close
their nodes' hosts, so dropping a result frees the whole stack by
reference counting.  Without that, reference cycles through the
simulator's queue, its parked processes and the XenStore watch registry
leave every host to the cyclic collector's next full pass, and a sweep
worker carries several dead hosts at once.  A caller's own simulator and
a kept host stay open.
"""

import gc
import tracemalloc

import pytest

from repro.cli import main
from repro.guests import DAYTIME_UNIKERNEL
from repro.sim import AnyOf, Simulator
from repro.stdlib import load_spec, run_scenario
from repro.stdlib.presets import storm_spec

from .test_cli import EXAMPLES, _spec

#: What a dropped run may leave for the cyclic collector.  The budget
#: covers small cycles a run may make along the way, not a host.
BUDGET = 128 * 1024

VARIANTS = ("xl", "chaos+xs", "chaos+xs+split", "chaos+noxs", "lightvm")
STORMS = (("boot-storm@1", "none@1"), ("churn@1", "light@1"))


def _left_for_collector(run) -> int:
    """Bytes that only a full collection frees after ``run()``'s result
    is dropped, with the collector disabled throughout."""
    gc.collect()
    was_enabled = gc.isenabled()
    was_tracing = tracemalloc.is_tracing()
    gc.disable()
    if not was_tracing:
        tracemalloc.start()
    try:
        run()
        dropped = tracemalloc.get_traced_memory()[0]
        gc.collect()
        return dropped - tracemalloc.get_traced_memory()[0]
    finally:
        if not was_tracing:
            tracemalloc.stop()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("traffic,faults", STORMS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_dropped_host_run_needs_no_collector(variant, traffic, faults):
    spec = storm_spec("lifetime", variant + "@1", "daytime@1", 128,
                      traffic=traffic, faults=faults)
    assert _left_for_collector(lambda: run_scenario(spec, seed=1)) < BUDGET


def test_dropped_inline_cluster_run_needs_no_collector():
    spec = load_spec(EXAMPLES / "cluster_storm.yaml")
    assert _left_for_collector(
        lambda: run_scenario(spec, seed=1, workers=1)) < BUDGET


def _live_any_ofs() -> int:
    return sum(1 for obj in gc.get_objects() if obj.__class__ is AnyOf)


@pytest.mark.parametrize("traffic", ("boot-storm@1", "churn@1"))
def test_dropped_lightvm_run_leaves_no_any_of(traffic):
    """The shell pool's idle polls race a signal against a timeout.  An
    ``AnyOf`` the timeout won must not stay subscribed to the signal,
    nor the one the replenisher is parked on when the host closes, or
    each is a cycle left for the collector."""
    spec = storm_spec("polls", "lightvm@1", "daytime@1", 64,
                      traffic=traffic)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = _live_any_ofs()
        run_scenario(spec, seed=1)
        assert _live_any_ofs() == before
    finally:
        if was_enabled:
            gc.enable()


def test_observed_run_leaves_the_callers_simulator_open():
    spec = storm_spec("observed", "lightvm@1", "daytime@1", 4)
    sim = Simulator()
    result = run_scenario(spec, seed=1, sim=sim)
    assert result.digest == run_scenario(spec, seed=1).digest
    # The shell pool's replenisher is still parked, generator intact.
    live = list(sim._live)
    assert [proc.name for proc in live] == ["_replenisher"]
    assert live[0].is_alive and live[0]._generator.gi_frame is not None
    now = sim.now
    sim.run(until=now + 50.0)
    assert sim.now == now + 50.0
    assert list(sim._live) == live


def test_kept_host_stays_usable():
    spec = storm_spec("kept", "chaos+xs@1", "daytime@1", 4,
                      traffic="churn@1")
    result = run_scenario(spec, seed=1, keep_host=True)
    record = result.host.create_vm(DAYTIME_UNIKERNEL)
    assert record.domain.domid > 0
    assert result.host.check_invariants() == []


def test_sanitized_cli_run_matches_a_closed_run(tmp_path, capsys):
    # ``repro run --sanitize`` builds both runs on its own simulators, so
    # nothing is closed under the sanitizers; its digests are those of a
    # plain run, which closes its host.
    path = _spec(tmp_path, host="chaos+xs+split@1", guests=8,
                 faults="light@1", traffic="churn@1")
    assert main(["run", path, "--seed", "1", "--sanitize"]) == 0
    out = capsys.readouterr().out
    digests = [line.split()[-1] for line in out.splitlines()
               if line.startswith("run ")]
    plain = run_scenario(load_spec(path), seed=1).digest
    assert digests == [plain, plain]
    assert "sanitizers: clean" in out and "replay: IDENTICAL" in out
