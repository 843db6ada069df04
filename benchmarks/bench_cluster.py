"""Cluster scaling bench: procs backend vs the inline reference.

Not a paper figure: this measures the epoch-barrier scheduler itself on
the tentpole scenario — an 8-host boot storm with open-loop cross-host
request traffic — once on ``backend="inline"`` (the single-process
semantic reference) and once on ``backend="procs"`` with 4 workers.

Two things are checked here, with very different portability:

* **Digest identity** (asserted in this bench, everywhere): the procs
  run must reproduce the inline run's cluster digest bit-for-bit.  This
  is hardware-independent — a violation is a correctness bug, never
  noise.
* **Scaling** (recorded here, enforced by ``repro bench-gate`` against
  ``benchmarks/baseline_cluster.json`` in CI only): procs with 4 workers
  must be >= 2x inline throughput.  That ratio only exists on a
  multi-core machine, so this bench records
  ``data["cluster_scaling"]`` in the engine-bench shape
  (opt/ref events per second plus their ratio) and leaves the judgment
  to the gate, which CI runs on known hardware.
"""

import time

import pytest

from _support import report, run_once, scaled

from repro.cluster import Cluster  # noqa: E402
from repro.stdlib import preset  # noqa: E402

HOSTS = 8
WORKERS = 4
GUESTS = 64
REQUESTS = scaled(360_000, 120_000)
EPOCH_MS = 10.0
REQUEST_GAP_MS = 0.25


def _config():
    return preset("boot-storm", hosts=HOSTS, guests=GUESTS,
                  requests=REQUESTS,
                  topology={"ref": "lan@1", "epoch_ms": EPOCH_MS,
                            "net_latency_ms": EPOCH_MS},
                  traffic={"ref": "boot-storm@1",
                           "request_gap_ms": REQUEST_GAP_MS}
                  ).to_cluster_config(0)


def _timed_run(backend, workers=None):
    started = time.perf_counter()
    result = Cluster(_config(), backend=backend, workers=workers).run()
    wall_s = time.perf_counter() - started
    return result, wall_s


def _measure() -> dict:
    inline, inline_s = _timed_run("inline")
    procs, procs_s = _timed_run("procs", workers=WORKERS)
    assert procs.digest == inline.digest, (
        "backend divergence: procs digest %s != inline digest %s — this "
        "is a determinism bug, not a perf regression"
        % (procs.digest, inline.digest))
    assert procs.host_digests == inline.host_digests
    assert procs.events == inline.events
    return {
        "events": inline.events,
        "epochs": inline.epochs,
        "digest": inline.digest,
        "inline_wall_s": round(inline_s, 3),
        "procs_wall_s": round(procs_s, 3),
        "cluster_scaling": {
            "opt_events_per_sec": round(procs.events / procs_s),
            "ref_events_per_sec": round(inline.events / inline_s),
            "speedup": round(inline_s / procs_s, 3),
        },
    }


@pytest.mark.benchmark(group="cluster")
def test_cluster_scaling(benchmark):
    results = run_once(benchmark, _measure)
    scaling = results["cluster_scaling"]
    rows = [
        "8-host boot storm, %d guests, %d requests, epoch %.0f ms"
        % (GUESTS, REQUESTS, EPOCH_MS),
        "",
        "%-28s %14s %12s" % ("backend", "events/sec", "wall"),
        "%-28s %11d/s %10.2fs" % ("inline (reference)",
                                  scaling["ref_events_per_sec"],
                                  results["inline_wall_s"]),
        "%-28s %11d/s %10.2fs" % ("procs (%d workers)" % WORKERS,
                                  scaling["opt_events_per_sec"],
                                  results["procs_wall_s"]),
        "",
        "speedup: %.2fx over %d epochs / %d events "
        "(digests byte-identical)"
        % (scaling["speedup"], results["epochs"], results["events"]),
        "",
        "gate: CI requires >= 2.0x on multi-core hardware via "
        "`repro bench-gate --baseline benchmarks/baseline_cluster.json`;"
        " no assertion here — a laptop core count is not a regression",
    ]
    report("CLUSTER epoch-barrier scaling (procs vs inline)",
           "\n".join(rows), data=results)


if __name__ == "__main__":
    import sys

    from _support import bench_main
    sys.exit(bench_main(__file__))
