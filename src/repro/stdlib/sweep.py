"""The parallel multi-seed sweep runner behind ``repro run``.

Reuses the cluster procs worker-pool machinery (persistent fork-preferred
pipe workers, round-robin partitioning, loud error propagation): seeds
are partitioned ``seed_index % workers``, every worker runs its share of
(spec, seed) scenarios to completion, and the coordinator re-imposes
seed order before building the manifest — so the **sweep manifest is a
pure function of (resolved spec, seed set)**; the worker count is
unobservable, which ``tests/test_stdlib_sweep.py`` holds it to across
``--workers {1,2,4}``.  The one exception to seed fan-out is a
cluster-mode spec under a single seed: there the workers go to the
cluster's hosts instead (:func:`workers_on_hosts`), and the manifest is
still byte-identical, since cluster digests ignore backend and worker
count.

Along with :mod:`repro.cluster.procs`, this is the only module the
RPR010 lint allowlist sanctions to import ``multiprocessing``: workers
host whole scenario runs (each with its own DES engine) and exchange
nothing until their seeds complete, so real concurrency never touches a
timeline mid-flight.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import traceback
import typing

from .runner import run_scenario
from .spec import ScenarioSpec

#: Manifest schema version (mirrors the chaos reproducer contract).
MANIFEST_VERSION = 1


class SweepError(RuntimeError):
    """A sweep that cannot complete (dead worker, failed seed, ...) or a
    malformed manifest, whose offending key ``field`` names."""

    def __init__(self, message: str, field: typing.Optional[str] = None):
        self.field = field
        super().__init__(message)


def _worker_main(conn, payload: dict,
                 seeds: typing.List[int]) -> None:
    """Child entry: run this worker's share of seeds, reply once."""
    try:
        spec = ScenarioSpec.from_dict(payload)
        records = [run_scenario(spec, seed=seed).record()
                   for seed in seeds]
        conn.send(("ok", records))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # coordinator already gone
            pass
    finally:
        conn.close()


def _run_parallel(spec: ScenarioSpec, seeds: typing.List[int],
                  workers: int) -> typing.List[dict]:
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
    partition = [[seed for index, seed in enumerate(seeds)
                  if index % workers == worker]
                 for worker in range(workers)]
    conns = []
    procs = []
    payload = dict(spec.source)
    try:
        for worker in range(workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker_main,
                               args=(child_conn, payload,
                                     partition[worker]),
                               daemon=True)
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)
        records: typing.List[dict] = []
        for conn in conns:
            try:
                reply = conn.recv()
            except EOFError:
                raise SweepError(
                    "sweep worker died without a reply (see stderr for "
                    "the child traceback)")
            if reply[0] == "error":
                raise SweepError("sweep worker failed:\n%s" % reply[1])
            records.extend(reply[1])
        return records
    finally:
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5.0)


def manifest_digest(spec_digest: str,
                    records: typing.Sequence[dict]) -> str:
    """SHA-256 over (spec digest, ordered (seed, run-digest) pairs)."""
    rollup = hashlib.sha256()
    rollup.update(("spec:%s\n" % spec_digest).encode("ascii"))
    for record in records:
        rollup.update(("%d:%s\n" % (record["seed"], record["digest"]))
                      .encode("ascii"))
    return rollup.hexdigest()


def workers_on_hosts(spec: ScenarioSpec, seeds: typing.Sequence[int],
                     workers: int) -> bool:
    """Whether a sweep spends its workers on hosts rather than seeds.

    A cluster-mode spec under exactly one seed has no seeds to spread,
    so ``workers > 1`` runs its hosts on the procs backend instead.
    """
    return spec.mode == "cluster" and len(seeds) == 1 and workers > 1


def run_sweep(spec: ScenarioSpec, seeds: typing.Sequence[int],
              workers: int = 1) -> dict:
    """Run ``spec`` under every seed in ``seeds``; returns the manifest.

    ``workers == 1`` runs inline (no subprocesses); ``workers > 1`` fans
    seeds out over the pool, or hosts over the procs backend when
    :func:`workers_on_hosts` says so.  Either way the manifest —
    including its digest — depends only on the resolved spec and the
    seed set.
    """
    seeds = list(seeds)
    if not seeds:
        raise SweepError("a sweep needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise SweepError("duplicate seeds in sweep: %s"
                         % ", ".join(str(s) for s in seeds))
    if workers_on_hosts(spec, seeds, workers):
        records = [run_scenario(spec, seed=seeds[0],
                                workers=workers).record()]
    elif min(workers, len(seeds)) <= 1:
        records = [run_scenario(spec, seed=seed).record()
                   for seed in seeds]
    else:
        records = _run_parallel(spec, seeds, min(workers, len(seeds)))
    records.sort(key=lambda record: record["seed"])
    spec_digest = spec.digest()
    totals: typing.Dict[str, float] = {}
    events = 0
    sim_ms = 0.0
    for record in records:
        events += record["events"]
        sim_ms = max(sim_ms, record["sim_ms"])
        for key in sorted(record["stats"]):
            value = record["stats"][key]
            # Latencies/quantile-ish keys take the worst seed; counters
            # and _sum keys accumulate across the sweep.
            if (("_ms" in key and not key.endswith("_sum"))
                    or key == "died_at"):
                totals[key] = max(totals.get(key, value), value)
            else:
                totals[key] = totals.get(key, 0.0) + value
    return {"version": MANIFEST_VERSION,
            "tool": "repro run",
            "scenario": spec.name,
            "mode": spec.mode,
            "spec": dict(spec.source),
            "resolved": spec.canonical(),
            "spec_digest": spec_digest,
            "seeds": sorted(seeds),
            "runs": records,
            "events": events,
            "sim_ms": sim_ms,
            "stats": totals,
            "manifest_digest": manifest_digest(spec_digest, records)}


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: The manifest keys a replay reads: (key, what it must be, check).
_REPLAY_FIELDS = (
    ("version", "the integer %d" % MANIFEST_VERSION,
     lambda value: _is_int(value) and value == MANIFEST_VERSION),
    ("spec", "a scenario spec mapping",
     lambda value: isinstance(value, dict)),
    ("seeds", "a non-empty list of integer seeds",
     lambda value: isinstance(value, list) and bool(value)
     and all(_is_int(seed) for seed in value)),
    ("manifest_digest", "a digest string",
     lambda value: isinstance(value, str)),
)


def replay_manifest(payload: dict, workers: int = 1
                    ) -> typing.Tuple[bool, dict]:
    """Re-run a sweep manifest and verify its digest bit-for-bit.

    A malformed manifest raises :class:`SweepError` whose ``field``
    names the missing or ill-typed key.
    """
    if not isinstance(payload, dict):
        raise SweepError("a sweep manifest must be a JSON object, got %s"
                         % type(payload).__name__, field="manifest")
    for key, expected, valid in _REPLAY_FIELDS:
        if key not in payload:
            raise SweepError("sweep manifest has no %r key" % key,
                             field=key)
        if not valid(payload[key]):
            raise SweepError("manifest field %r: expected %s, got %r"
                             % (key, expected, payload[key]), field=key)
    spec = ScenarioSpec.from_dict(payload["spec"])
    result = run_sweep(spec, payload["seeds"], workers=workers)
    same = (result["manifest_digest"] == payload["manifest_digest"]
            and result["spec_digest"] == payload.get("spec_digest"))
    return same, result


def bench_payload(manifest: dict,
                  wall_s: typing.Optional[float] = None) -> dict:
    """A BENCH-style record for ``repro bench-trend`` / ``bench-gate``.

    The figure id is ``sweep-<scenario>``; the data series carries the
    per-seed digests and the aggregate counters, so a trend diff shows
    both wall-clock drift and any behavioral divergence seed by seed.
    """
    runs = manifest["runs"]
    return {
        "figure": "sweep-%s" % manifest["scenario"],
        "title": "SWEEP %s (%d seed(s), mode %s)"
                 % (manifest["scenario"], len(runs), manifest["mode"]),
        "scale": "quick",
        "wall_clock_s": wall_s,
        "data": {
            "seeds": len(runs),
            "spec_digest": manifest["spec_digest"],
            "manifest_digest": manifest["manifest_digest"],
            "events": manifest["events"],
            "sim_ms": manifest["sim_ms"],
            "stats": dict(manifest["stats"]),
            "run_digests": [[record["seed"], record["digest"]]
                            for record in runs],
        },
    }


def write_bench_json(manifest: dict, path,
                     wall_s: typing.Optional[float] = None) -> None:
    """Write the BENCH-style JSON next to the other ``BENCH_*.json``."""
    payload = bench_payload(manifest, wall_s=wall_s)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
