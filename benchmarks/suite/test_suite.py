"""Tests of the benchmark suite itself: tracing faithfulness, attribution,
how run.py marks failed repetitions, and its output formats.

    PYTHONPATH=src python -m pytest benchmarks/suite
"""

from __future__ import annotations

import collections
import cProfile
import json
import os
import pathlib
import pstats
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from repro.analysis.bench import bench_trend, load_results  # noqa: E402
from repro.cluster.cluster import Cluster  # noqa: E402
from repro.stdlib import ScenarioSpec, load_spec  # noqa: E402
import repro.stdlib as stdlib  # noqa: E402

#: Count-valued per-layer metrics: exact functions of the timeline.
COUNTS = [name for name, unit in layers.METRICS if unit == "count"]


def small(workload: str, **overrides) -> ScenarioSpec:
    spec = load_spec(HERE / "workloads" / ("%s.yaml" % workload))
    return ScenarioSpec.from_dict(dict(spec.source, **overrides))


#: One small storm per entry point: scenario, procs cluster, sweep pool.
SMALL = {
    "scenario": lambda: small("fig10-density", guests=400),
    "cluster": lambda: small("cluster-serve", requests=3000,
                             migrations=10),
    "sweep": lambda: small("sweep-faults", guests=48),
}


def drive(kind: str, spec: ScenarioSpec):
    """(digest, events) of ``spec`` on its entry point, through the names the
    wrappers patch (looked up at call time)."""
    if kind == "scenario":
        result = stdlib.run_scenario(spec, 0)
        return result.digest, result.events
    if kind == "cluster":
        result = Cluster(spec.to_cluster_config(0), backend="procs",
                         workers=2).run()
        return result.digest, result.events
    manifest = stdlib.run_sweep(spec, range(4), workers=2)
    return manifest["manifest_digest"], manifest["events"]


def traced(kind: str) -> dict:
    spec = SMALL[kind]()
    ledger = layers.Ledger()
    with layers.installed(ledger):
        _digest, events = drive(kind, spec)
    return ledger.metrics(events)


# ----------------------------------------------------------------------
# Generator wrappers
# ----------------------------------------------------------------------

def _echo(log):
    """Yields 1, 2, 3; records what it is sent; returns their sum."""
    total = 0
    try:
        for value in (1, 2, 3):
            try:
                received = yield value
            except KeyError as exc:
                log.append(("caught", exc.args[0]))
                received = yield "recovered"
            log.append(("got", received))
            total += received or 0
        return total
    finally:
        log.append("finally")


def _drive_echo(gen):
    out = [next(gen), gen.send(10), gen.throw(KeyError("k")),
           gen.send(20)]
    try:
        gen.send(30)
    except StopIteration as stop:
        out.append(("return", stop.value))
    return out


def test_timed_generator_forwards_send_throw_and_return():
    plain_log, timed_log = [], []
    ledger = layers.Ledger()
    plain = _drive_echo(_echo(plain_log))
    wrapped = _drive_echo(ledger.timed(_echo(timed_log), "core"))
    assert wrapped == plain == [1, 2, "recovered", 3, ("return", 60)]
    assert timed_log == plain_log
    assert ledger.calls["core"] == 5 and not ledger.stack


def test_timed_generator_close_and_uncaught_throw():
    log = []
    ledger = layers.Ledger()
    gen = ledger.timed(_echo(log), "core")
    next(gen)
    gen.close()
    assert log == ["finally"]
    gen = ledger.timed(_echo([]), "core")
    next(gen)
    with pytest.raises(ValueError, match="boom"):
        gen.throw(ValueError("boom"))
    assert not ledger.stack


def test_timed_generator_under_yield_from_keeps_return_value():
    ledger = layers.Ledger()

    def outer():
        result = yield from ledger.timed(_echo([]), "toolstack")
        return result

    assert _drive_echo(outer()) == [1, 2, "recovered", 3, ("return", 60)]


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_wrappers_leave_digests_unchanged(kind):
    spec = SMALL[kind]()
    plain = drive(kind, spec)
    ledger = layers.Ledger()
    with layers.installed(ledger):
        assert drive(kind, spec) == plain
    assert drive(kind, spec) == plain  # and the undo restores every name


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------

def test_self_times_sum_to_traced_wall():
    spec = SMALL["scenario"]()
    ledger = layers.Ledger()
    with layers.installed(ledger):
        ledger.take()
        start = time.perf_counter()
        stdlib.run_scenario(spec, 0)
        wall = time.perf_counter() - start
    total = sum(ledger.self_s.values())
    assert abs(total - wall) <= 0.05 * wall


@pytest.mark.parametrize("kind", ["cluster", "sweep"])
def test_counts_repeat_exactly(kind):
    first, second = traced(kind), traced(kind)
    assert {name: first[name] for name in COUNTS} == \
        {name: second[name] for name in COUNTS}
    assert first["sim.events"] > 0


def test_worker_totals_reach_the_coordinator():
    cluster = traced("cluster")
    assert cluster["cluster.host_compute_s"] > 0
    assert cluster["cluster.host_compute_crit_s"] <= \
        cluster["cluster.host_compute_s"]
    assert cluster["sim.calls"] > 0 and cluster["cluster.epochs"] > 0
    sweep = traced("sweep")
    assert sweep["xenstore.ops"] > 0 and sweep["faults.injected"] > 0
    assert sweep["stdlib.imbalance"] >= 1.0


def test_sim_share_is_not_inflated_by_unwrapped_entry_points():
    """Wrapper attribution bills the DES kernel no more than cProfile's
    ``repro.sim`` self-time share plus 10 points on fig10."""
    spec = small("fig10-density", guests=1500)
    profile = cProfile.Profile()
    profile.enable()
    stdlib.run_scenario(spec, 0)
    profile.disable()
    self_time = collections.Counter()
    for (path, _line, _name), row in pstats.Stats(profile).stats.items():
        key = "sim" if "%srepro%ssim%s" % ((os.sep,) * 3) in path \
            else "other"
        self_time[key] += row[2]
    profiled = self_time["sim"] / sum(self_time.values())
    ledger = layers.Ledger()
    with layers.installed(ledger):
        result = stdlib.run_scenario(spec, 0)
    share = ledger.metrics(result.events)["sim.share"]
    assert share <= profiled + 0.10, (share, profiled)


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------

def fake_child(record: dict, exit_code: int = 0) -> list:
    """A child that prints ``record`` as its result line."""
    code = ("import json, sys, time; r = json.loads(sys.argv[1]); "
            "r['ready'] = time.monotonic(); print(json.dumps(r)); "
            "sys.exit(%d)" % exit_code)
    return [sys.executable, "-c", code, json.dumps(record)]


GOOD = {"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 10.0, "events": 100,
        "digest": "ab" * 32, "problems": [], "layers": {}}


def test_repetition_accepts_a_clean_child():
    record = run.repetition(fake_child(GOOD))
    run.judge([record], "ab" * 32)
    assert "error" not in record and 0 < record["setup_s"] < 30


def test_repetition_marks_digest_mismatch():
    records = [run.repetition(fake_child(GOOD)) for _ in range(2)]
    run.judge(records, "cd" * 32)
    assert all("differs" in record["error"] for record in records)
    other = dict(GOOD, digest="ef" * 32)
    records = [run.repetition(fake_child(GOOD)),
               run.repetition(fake_child(other))]
    run.judge(records, None)
    assert "error" not in records[0] and "differs" in records[1]["error"]


def test_repetition_marks_failed_checks_and_exit_codes():
    failed = run.repetition(fake_child(dict(GOOD,
                                               problems=["booted = 3"])))
    assert failed["error"] == "booted = 3"
    crashed = run.repetition(fake_child(GOOD, exit_code=3))
    assert crashed["error"].startswith("exit 3")


def test_repetition_kills_a_hung_child_and_its_workers(tmp_path):
    pid_file = tmp_path / "grandchild"
    code = ("import subprocess, sys, time; "
            "p = subprocess.Popen([sys.executable, '-c', "
            "'import time; time.sleep(60)']); "
            "open(sys.argv[1], 'w').write(str(p.pid)); time.sleep(60)")
    start = time.monotonic()
    record = run.repetition([sys.executable, "-c", code, str(pid_file)],
                               timeout_s=1.0)
    assert "timed out" in record["error"]
    assert time.monotonic() - start < 4
    grandchild = int(pid_file.read_text())
    try:
        state = pathlib.Path("/proc/%d/stat" % grandchild).read_text()
    except FileNotFoundError:
        return
    assert state.rsplit(")", 1)[1].split()[0] == "Z"  # killed, unreaped


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------

def test_definitions_match_the_code():
    bench, workloads = run.definitions()
    assert [w["name"] for w in bench["workloads"]] == list(workloads)
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert per_layer == list(layers.METRICS) + \
        [("bench.trace_overhead_x", "x")]
    assert [m["name"] for m in bench["end_to_end"]] == \
        list(run.end_to_end([dict(GOOD, setup_s=0.1, probe_s=0.05)]))
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_out_files_feed_bench_trend(tmp_path, capsys):
    bench, _workloads = run.definitions()
    metrics = {name: 1.0 for name, _unit in layers.METRICS}
    untraced = dict(GOOD, setup_s=0.2, traced=False,
                    probe_s=run.REFERENCE_PROBE_S)
    records = {"fig10-density": [dict(untraced), dict(untraced),
                                 dict(untraced, traced=True, wall_s=2.0,
                                      layers=metrics)]}
    for side, wall in (("old", 1.0), ("new", 1.5)):
        records["fig10-density"][0]["wall_s"] = wall
        records["fig10-density"][1]["wall_s"] = wall
        out = tmp_path / side
        out.mkdir()
        result = run.report(["fig10-density"], records, bench, 0, None,
                               out)
        assert result["correct"] and result["attempted"] == 3
    capsys.readouterr()
    old, new = load_results(tmp_path / "old"), load_results(tmp_path / "new")
    assert old["suite-fig10-density"]["wall_clock_s"] == 1.0
    trend = bench_trend(old, new)
    assert "suite-fig10-density" in trend and "+50.0%" in trend
    assert "suite-fig10-density/hypervisor.devpage_s" in trend
    summary = json.loads((tmp_path / "new" / "summary.json").read_text())
    assert summary["workloads"]["fig10-density"]["wall_s"]["n"] == 2
