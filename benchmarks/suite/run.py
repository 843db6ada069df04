"""The host-cost benchmark suite: five workloads, end to end and per layer.

    python benchmarks/suite/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--out DIR]

Every repetition runs in a fresh interpreter (``child.py``), in its own
process group, under a 120 s timeout; workloads take turns round-robin.
Without ``--trace`` each workload gets five untraced repetitions and then
one traced repetition.  ``--trace 0`` runs untraced repetitions only and
``--trace 1`` pairs each untraced repetition with a traced one; either
way ``--seconds`` replaces the fixed count by a time budget.

A repetition fails on a nonzero exit, a timeout, a failed model-output
check, or a digest that differs from the pinned one (seed 0) or from the
workload's first repetition (other seeds).  The run prints every metric
with its unit, median, quartiles and sample count, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  ``--out DIR``
also writes ``BENCH_suite-<workload>.json`` files for ``repro
bench-trend`` and a ``summary.json`` of every metric's quartiles.

The end-to-end timings are in *reference seconds*: a shared machine runs
the same code up to ~20% slower for minutes at a time, so every
repetition also times a fixed pure-Python job (``child.probe``), and
each workload's timings are scaled by ``REFERENCE_PROBE_S`` over the
median probe of its repetitions.  The table also prints that slowdown
and the raw wall time.

The metric names, units and bounds come from ``BENCHMARK.json`` at the
repository root; the workload table and pinned digests from
``workloads.json`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time
import typing

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Untraced repetitions per workload when no time budget is given.
REPS = 5
#: Per-repetition limit; the child's whole process group is killed.
TIMEOUT_S = 120.0
#: The ``child.probe`` time that defines one reference second (its median
#: on the 2-core machine the baseline was measured on).
REFERENCE_PROBE_S = 0.045


def definitions() -> typing.Tuple[dict, dict]:
    """(BENCHMARK.json, workloads.json)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())
    return bench, workloads


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of ``proc``'s process group, reap ``proc`` and
    wait until the rest of the group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def repetition(argv: typing.Sequence[str],
               timeout_s: float = TIMEOUT_S) -> dict:
    """Run one child; returns its record, with ``error`` set on failure.

    ``setup_s`` is the child's ready instant minus the spawn instant,
    both on ``CLOCK_MONOTONIC``.
    """
    spawn = time.monotonic()
    proc = subprocess.Popen(list(argv), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True, cwd=ROOT)
    out = err = None
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        pass
    finally:
        _stop_group(proc)
    if out is None:
        proc.communicate()
        return {"error": "timed out after %gs" % timeout_s}
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no stderr"]
        return {"error": "exit %d: %s" % (proc.returncode, tail[0])}
    try:
        record = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "no result line on stdout"}
    record["setup_s"] = record.pop("ready") - spawn
    if record["problems"]:
        record["error"] = "; ".join(record["problems"])
    return record


def judge(records: typing.Sequence[dict],
          pinned: typing.Optional[str]) -> None:
    """Fail every record whose digest differs from ``pinned`` or, with
    no pin, from the first record that ran clean."""
    reference = pinned
    for record in records:
        if "error" in record:
            continue
        if reference is None:
            reference = record["digest"]
        elif record["digest"] != reference:
            record["error"] = "digest %s… differs from %s…" % (
                record["digest"][:12], reference[:12])


def quartiles(values: typing.Sequence[float]) -> dict:
    """Median, first and third quartile (Python's exclusive method)."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def slowdown(records: typing.Sequence[dict]) -> float:
    """How much slower than reference the machine ran ``records``."""
    return statistics.median(r["probe_s"] for r in records) \
        / REFERENCE_PROBE_S


def end_to_end(records: typing.Sequence[dict]) -> typing.Dict[str, list]:
    """Per-repetition samples of every end-to-end metric, timings in
    reference seconds."""
    slow = slowdown(records)
    return {"wall_s": [r["wall_s"] / slow for r in records],
            "events_per_s": [r["events"] * slow / r["wall_s"]
                             for r in records],
            "cpu_s": [r["cpu_s"] / slow for r in records],
            "setup_s": [r["setup_s"] / slow for r in records],
            "peak_rss_mb": [r["peak_rss_mb"] for r in records]}


def per_layer(traced: typing.Sequence[dict],
              untraced: typing.Sequence[dict]) -> typing.Dict[str, list]:
    """Per-repetition samples of every per-layer metric."""
    samples = {name: [r["layers"][name] for r in traced]
               for name in traced[0]["layers"]} if traced else {}
    if traced and untraced:
        base = statistics.median(r["wall_s"] for r in untraced)
        samples["bench.trace_overhead_x"] = [r["wall_s"] / base
                                             for r in traced]
    return samples


def run(names: typing.Sequence[str], seed: int,
        seconds: typing.Optional[float], trace: typing.Optional[int],
        workloads: dict) -> typing.Dict[str, typing.List[dict]]:
    """Run the repetitions round-robin; returns records per workload."""
    kinds = [0, 1] if trace == 1 else [0]
    records: typing.Dict[str, typing.List[dict]] = {n: [] for n in names}

    def one_round(round_kinds):
        for name in names:
            for kind in round_kinds:
                record = repetition([sys.executable,
                                     str(HERE / "child.py"), name,
                                     str(seed), str(kind)])
                record["traced"] = bool(kind)
                records[name].append(record)

    start = time.monotonic()
    rounds = 0
    while True:
        began = time.monotonic()
        one_round(kinds)
        rounds += 1
        now = time.monotonic()
        if seconds is None:
            if rounds >= REPS:
                break
        elif now - start + (now - began) > seconds:
            break
    if trace is None:
        one_round([1])
    for name in names:
        judge(records[name], workloads[name]["digest"] if seed == 0
              else None)
    return records


def _fmt(value: float) -> str:
    return "%.6g" % value


def report(names, records, bench, seed, trace, out):
    """Print the metric table; write ``--out`` files; return the JSON
    result line, or None when no repetition produced metrics."""
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sections = {0: ["end_to_end"], 1: ["per_layer"],
                None: ["end_to_end", "per_layer"]}[trace]
    wanted = [m["name"] for section in sections for m in bench[section]]
    attempted = failed = 0
    metrics: typing.Dict[str, dict] = {}
    summary = {"seed": seed, "nproc": os.cpu_count(),
               "python": platform.python_version(), "workloads": {}}
    for name in names:
        reps = records[name]
        bad = [r for r in reps if "error" in r]
        attempted += len(reps)
        failed += len(bad)
        untraced = [r for r in reps if "error" not in r and not r["traced"]]
        traced = [r for r in reps if "error" not in r and r["traced"]]
        samples = end_to_end(untraced) if untraced else {}
        samples.update(per_layer(traced, untraced))
        stats = {metric: quartiles(values)
                 for metric, values in samples.items() if values}
        # Context rows: not compared across commits, so not in the result.
        context = {"failed_frac": (len(bad) / len(reps), "fraction")}
        if untraced:
            context["slowdown"] = (slowdown(untraced), "x")
            context["raw_wall_s"] = (statistics.median(
                r["wall_s"] for r in untraced), "s")
        print("== %s (seed %d): %d repetitions, %d failed"
              % (name, seed, len(reps), len(bad)))
        for record in bad:
            print("   FAILED: %s" % record["error"])
        print("   %-30s %-9s %12s %12s %12s %4s %6s"
              % ("metric", "unit", "median", "q1", "q3", "n", "bound"))
        for metric, (value, unit) in context.items():
            print("   %-30s %-9s %12s" % (metric, unit, _fmt(value)))
        for metric in wanted:
            if metric not in stats:
                continue
            s = stats[metric]
            bound = bounds.get(metric)
            print("   %-30s %-9s %12s %12s %12s %4d %6s"
                  % (metric, units[metric], _fmt(s["median"]),
                     _fmt(s["q1"]), _fmt(s["q3"]), s["n"],
                     "%d%%" % round(100 * bound) if bound else ""))
        summary["workloads"][name] = {
            metric: dict(stats[metric], unit=units[metric])
            for metric in wanted if metric in stats}
        summary["workloads"][name].update(
            (metric, {"value": value, "unit": unit})
            for metric, (value, unit) in context.items())
        missing = [metric for metric in wanted if metric not in stats]
        if missing:
            print("   no samples for: %s" % ", ".join(missing))
            continue
        prefix = "" if len(names) == 1 else name + "/"
        for metric in wanted:
            metrics[prefix + metric] = {"value": stats[metric]["median"],
                                        "unit": units[metric]}
        if out is not None:
            data = {metric: stats[metric]["median"] for metric in wanted}
            data.update((metric, value)
                        for metric, (value, _unit) in context.items())
            payload = {"figure": "suite-" + name,
                       "title": "benchmark suite: %s (seed %d)"
                                % (name, seed),
                       "scale": "paper",
                       "wall_clock_s": data.get("wall_s"),
                       "data": data}
            path = out / ("BENCH_suite-%s.json" % name)
            path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                            + "\n")
    if out is not None:
        (out / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if not metrics:
        return None
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", dest="workloads",
                        metavar="NAME", help="run only NAME (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget per run instead of %d rounds"
                        % REPS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)
    # Exit through the ``finally`` that stops the running child's group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "repro").is_dir():
        print("run.py: no src/repro under %s; run from a full checkout"
              % ROOT, file=sys.stderr)
        return 2
    bench, workloads = definitions()
    names = args.workloads or list(workloads)
    unknown = sorted(set(names) - set(workloads))
    if unknown:
        parser.error("unknown workload(s): %s (have: %s)"
                     % (", ".join(unknown), ", ".join(workloads)))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    records = run(names, args.seed, args.seconds, args.trace, workloads)
    result = report(names, records, bench, args.seed, args.trace, args.out)
    if result is None:
        print("run.py: no repetition produced metrics", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
