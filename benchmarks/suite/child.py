"""One benchmark repetition in a fresh interpreter (spawned by run.py).

    python benchmarks/suite/child.py WORKLOAD SEED TRACE

Set-up (imports, spec load and validation, config lowering) ends at the
``ready`` instant, read on ``CLOCK_MONOTONIC`` so the parent can subtract
its spawn instant.  The run phase is then timed from outside: it calls
``repro``'s public entry points and checks their outputs.  :func:`probe`
times a fixed job just before and after the run phase, from this process
and on as many cores as the workload's pool uses, to measure how fast
the machine was meanwhile.  The last line
of standard output is one JSON object::

    {"ready", "probe_s", "wall_s", "cpu_s", "peak_rss_mb", "events",
     "digest", "problems", "layers"}

``problems`` lists failed model-output checks; ``layers`` holds the
per-layer metrics of a traced run (``TRACE`` = 1) and is empty otherwise.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import pathlib
import resource
import statistics
import sys
import time
import typing

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _probe_job() -> None:
    """Fixed work shaped like the simulator's hot loops: generator
    resumptions, a heap of timestamps, dict stores and hashing."""
    digest = hashlib.sha256()
    heap: list = []
    table: dict = {}

    def process():
        while True:
            yield

    for _ in range(40):
        processes = [process() for _ in range(50)]
        for proc in processes:
            next(proc)
        for step in range(19):
            for index, proc in enumerate(processes):
                proc.send(index)
                heapq.heappush(heap, (step * 0.5 + index, index))
                table[index, step] = step
        while heap:
            when, index = heapq.heappop(heap)
            digest.update(("%r|%d\n" % (when, index)).encode())


def _probe_samples() -> typing.List[float]:
    """Five timings of :func:`_probe_job`, with the collector paused so
    the heap a run left behind does not count."""
    samples = []
    gc.disable()
    try:
        for _ in range(5):
            start = time.perf_counter()
            _probe_job()
            samples.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return samples


def probe(cores: int) -> typing.List[float]:
    """Timings of :func:`_probe_job` with ``cores`` copies running at
    once, in this process and in forked helpers: a run phase that keeps
    two cores busy is slowed by contention on either one.

    All samples count, not the best: contention on a shared machine
    comes in bursts, and a run phase sits through them too.
    """
    helpers = []
    for _ in range(cores - 1):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read)
            os.write(write, json.dumps(_probe_samples()).encode())
            os._exit(0)
        os.close(write)
        helpers.append((pid, read))
    samples = _probe_samples()
    for pid, read in helpers:
        with os.fdopen(read) as pipe:
            samples.extend(json.loads(pipe.read()))
        os.waitpid(pid, 0)
    return samples


def _cpu_s() -> float:
    """User+sys CPU of this process and every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Highest RSS of this process or of any child it has reaped."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def main(argv: list) -> int:
    name, seed, trace = argv[1], int(argv[2]), argv[3] == "1"
    workload = json.loads((HERE / "workloads.json").read_text())[name]
    sys.path.insert(0, str(ROOT / "src"))
    ledger = None
    if trace:
        import layers
        ledger = layers.Ledger()
        layers.install(ledger)
    import repro.stdlib as stdlib
    from repro.cluster.cluster import Cluster

    spec = stdlib.load_spec(HERE / "workloads" / workload["spec"])
    entry, workers = workload["entry"], workload["workers"]
    if entry == "cluster":
        cluster = Cluster(spec.to_cluster_config(seed), backend="procs",
                          workers=workers)
    ready = time.monotonic()
    samples = probe(workers)

    cpu = _cpu_s()
    start = time.perf_counter()
    if entry == "scenario":
        result = stdlib.run_scenario(spec, seed)
        digest, events, stats = result.digest, result.events, result.stats
        expect = {"booted": spec.guests, "create_failed": 0}
    elif entry == "cluster":
        result = cluster.run()
        digest, events, stats = result.digest, result.events, result.stats
        expect = {"booted": spec.guests, "unplaced": 0,
                  "responses": spec.requests,
                  "migrations_done": spec.migrations}
    else:
        seeds = range(seed, seed + workload["seeds"])
        manifest = stdlib.run_sweep(spec, seeds, workers=workers)
        digest, events = manifest["manifest_digest"], manifest["events"]
        stats = dict(manifest["stats"], runs=len(manifest["runs"]))
        stats["attempted"] = stats["booted"] + stats["create_failed"]
        expect = {"runs": workload["seeds"],
                  "attempted": spec.guests * workload["seeds"]}
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu
    peak_rss_mb = _peak_rss_mb()
    samples += probe(workers)

    problems = ["%s = %r, expected %r" % (key, stats.get(key), value)
                for key, value in sorted(expect.items())
                if stats.get(key) != value]
    if events <= 0:
        problems.append("no simulated events")
    print(json.dumps({
        "ready": ready, "probe_s": statistics.mean(samples), "wall_s": wall_s,
        "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb, "events": events,
        "digest": digest,
        "problems": problems,
        "layers": ledger.metrics(events) if ledger is not None else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
