"""Execute one scenario spec for one seed.

``run_scenario(spec, seed)`` is the single entry point every consumer —
the ``repro run`` CLI, the sweep runner, the migrated figure benchmarks
— goes through.  A cluster-mode run with ``workers > 1`` spreads its
hosts over that many OS processes (the procs backend); otherwise it runs
on the inline backend.  The outcome is a :class:`ScenarioResult` whose
``digest`` is the replay digest of the run's event timeline: for host
mode, the host's :class:`~repro.analysis.sanitize.EventTrace`; for
cluster mode, the combined per-host cluster digest.  The digest is a
pure function of (resolved spec, seed) — backends, worker counts, and
attached observers must not move it.

A caller that wants to observe a single-host VM run passes its own
``sim`` with a :class:`~repro.trace.Tracer`, a
:class:`~repro.analysis.sanitize.Sanitizer` or a
:class:`~repro.analysis.witness.RaceWitness` already attached; the run
attaches its :class:`~repro.analysis.sanitize.EventTrace` to that
simulator and builds the host on it.  ``repro run`` runs one seed of
such a spec that way (with ``--sanitize``, ``--trace`` or
``--metrics`` attached, or none), and so does ``races --witness``.

A host-mode run whose fault profile has ``recovery`` on is *audited*:
after the storm the host is reaped, drained for 500 ms and checked for
leaked state, and the invariant violations go into the run's record.
There a typed (``ABSORBED``) failure is counted, and any other error a
create, destroy or recovery pass raises becomes a violation instead of
ending the run.
"""

from __future__ import annotations

import dataclasses
import typing

from ..analysis.sanitize import EventTrace
from ..faults import ABSORBED
from ..sim import RngStream, Simulator
from .spec import ScenarioSpec, SpecTypeError


@dataclasses.dataclass
class ScenarioResult:
    """One (spec, seed) execution, with a picklable summary record."""

    scenario: str
    mode: str
    seed: int
    digest: str
    events: int
    sim_ms: float
    stats: typing.Dict[str, float]
    #: Full measurement series (``create_ms``/``boot_ms``/``total_ms``
    #: for VM storms, ``start_ms`` for container/process storms).  Kept
    #: in-process only — the sweep manifest carries :meth:`record`.
    series: typing.Dict[str, typing.List[float]] = \
        dataclasses.field(default_factory=dict)
    #: The live host, when ``keep_host=True`` (in-process callers only).
    host: typing.Optional[object] = None
    #: The full ClusterResult for cluster-mode runs.
    cluster: typing.Optional[object] = None
    #: Audited runs only: invariant violations after recovery (empty =
    #: clean); ``None`` for runs that were not audited.
    violations: typing.Optional[typing.List[str]] = None

    def record(self) -> typing.Dict[str, object]:
        """The manifest entry: JSON scalars only, no series, no host."""
        record = {"seed": self.seed, "digest": self.digest,
                  "events": self.events, "sim_ms": self.sim_ms,
                  "stats": dict(self.stats)}
        if self.violations is not None:
            record["violations"] = list(self.violations)
        return record


def run_scenario(spec: ScenarioSpec, seed: int = 0,
                 keep_host: bool = False, workers: int = 1,
                 sim: typing.Optional[Simulator] = None) -> ScenarioResult:
    """Run ``spec`` once under ``seed``; returns the result + digest.

    ``sim`` (host-mode VM specs only) is a fresh simulator, observers
    attached, to run on instead of a new one.
    """
    if sim is not None:
        _check_observable(spec, sim)
    if spec.mode == "cluster":
        return _cluster_scenario(spec, seed, workers)
    runtime = spec.guest.runtime
    if runtime == "vm":
        return _vm_storm(spec, seed, keep_host,
                         sim if sim is not None else Simulator())
    if runtime == "container":
        return _container_storm(spec, seed)
    if runtime == "process":
        return _process_storm(spec, seed)
    raise ValueError("guest %s has unknown runtime %r"
                     % (spec.guest.ref(), runtime))


def _check_observable(spec: ScenarioSpec, sim: Simulator) -> None:
    """Reject a caller-supplied ``sim`` the run cannot use."""
    if spec.mode != "host":
        raise SpecTypeError(
            "mode", "field 'mode': an observed run needs a single-host "
            "spec, got mode %r" % spec.mode)
    if spec.guest.runtime != "vm":
        raise SpecTypeError(
            "guest", "field 'guest': an observed run needs a VM guest, "
            "got %s (runtime %r)" % (spec.guest.ref(), spec.guest.runtime))
    if sim.trace is not None:
        # The run's own EventTrace would replace it, and the caller's
        # would digest nothing.
        raise ValueError("the simulator already has an event trace "
                         "attached; pass a fresh one")


# ----------------------------------------------------------------------
# Cluster mode
# ----------------------------------------------------------------------

def _cluster_scenario(spec: ScenarioSpec, seed: int,
                      workers: int) -> ScenarioResult:
    from ..cluster.cluster import Cluster
    backend = "procs" if workers > 1 else "inline"
    result = Cluster(spec.to_cluster_config(seed), backend=backend,
                     workers=workers).run()
    return ScenarioResult(scenario=spec.name, mode="cluster", seed=seed,
                          digest=result.digest, events=result.events,
                          sim_ms=result.sim_ms,
                          stats=dict(result.stats), cluster=result)


# ----------------------------------------------------------------------
# Host mode: VM storms
# ----------------------------------------------------------------------

def _escaped(exc: Exception) -> str:
    """The violation an untyped error escaping an audited storm is."""
    return "unhandled error escaped the scenario: %s: %s" \
        % (type(exc).__name__, exc)


def _audited_call(escaped: typing.List[str], call, *args) -> int:
    """Run ``call`` in an audited storm: returns 1 when it failed with a
    typed ``ABSORBED`` error, and records any other error in
    ``escaped``."""
    try:
        call(*args)
    except ABSORBED:
        return 1
    except Exception as exc:  # an untyped escape is a finding
        escaped.append(_escaped(exc))
    return 0


def _vm_storm(spec: ScenarioSpec, seed: int, keep_host: bool,
              sim: Simulator) -> ScenarioResult:
    trace = EventTrace().attach(sim)
    image = spec.guest.build()
    fault_plan = spec.faults.build(seed)
    audited = spec.faults.recovery
    host = spec.host.build(count=spec.guests, image=image, sim=sim,
                           seed=seed, fault_plan=fault_plan,
                           recovery=audited)

    creates: typing.List[float] = []
    boots: typing.List[float] = []
    totals: typing.List[float] = []
    failures = 0
    destroy_failures = 0
    escaped: typing.List[str] = []
    pattern = spec.traffic.pattern
    live: typing.List[object] = []

    for index in range(spec.guests):
        try:
            record = host.create_vm(image)
        except ABSORBED:
            failures += 1
        except Exception as exc:
            if not audited:
                raise
            escaped.append(_escaped(exc))
        else:
            creates.append(record.create_ms)
            boots.append(record.boot_ms)
            totals.append(record.total_ms)
            if pattern == "churn":
                live.append(record.domain)
        if pattern == "bursty" and (index + 1) % spec.traffic.burst_size == 0:
            sim.run(until=sim.now + spec.traffic.burst_gap_ms)
        elif pattern == "churn" \
                and len(live) > spec.traffic.churn_working_set:
            if audited:
                destroy_failures += _audited_call(
                    escaped, host.destroy_vm, live.pop(0))
            else:
                host.destroy_vm(live.pop(0))

    violations = None
    if audited:
        _audited_call(escaped, host.recover)
        # Drain in-flight teardowns and restarts before auditing.
        sim.run(until=sim.now + 500.0)
        violations = host.check_invariants() + escaped
    elif fault_plan is not None or pattern == "churn":
        # Drain in-flight teardowns/retries before reading the digest
        # (fault-free boot storms end quiescent already, and adding a
        # drain there would move the digest away from the hand-coded
        # benchmark timelines).
        sim.run(until=sim.now + 100.0)

    stats: typing.Dict[str, float] = {
        "booted": float(len(creates)),
        "create_failed": float(failures),
    }
    if audited:
        stats["destroy_failed"] = float(destroy_failures)
    if creates:
        stats["create_ms_first"] = creates[0]
        stats["create_ms_last"] = creates[-1]
        stats["create_ms_max"] = max(creates)
        stats["total_ms_max"] = max(totals)
        stats["boot_ms_sum"] = sum(boots)
    return ScenarioResult(
        scenario=spec.name, mode="host", seed=seed,
        digest=trace.digest(), events=trace.events, sim_ms=sim.now,
        stats=stats,
        series={"create_ms": creates, "boot_ms": boots,
                "total_ms": totals},
        host=host if keep_host else None, violations=violations)


# ----------------------------------------------------------------------
# Host mode: container / process baselines
# ----------------------------------------------------------------------

def _container_storm(spec: ScenarioSpec, seed: int) -> ScenarioResult:
    from ..containers import DockerEngine, DockerOOMError
    sim = Simulator()
    trace = EventTrace().attach(sim)
    memory_mb = spec.host.host_spec().memory_gb * 1024
    engine = DockerEngine(sim, RngStream(seed, "docker"), memory_mb)
    times: typing.List[float] = []
    died_at: typing.Optional[int] = None
    for index in range(spec.guests):
        before = sim.now

        def one():
            yield from engine.start_container()
        try:
            proc = sim.process(one())
            sim.run(until=proc)
        except DockerOOMError:
            died_at = index
            break
        times.append(sim.now - before)
    stats: typing.Dict[str, float] = {
        "started": float(len(times)),
        "died_at": float(-1 if died_at is None else died_at),
    }
    if times:
        stats["start_ms_first"] = times[0]
        stats["start_ms_last"] = times[-1]
    return ScenarioResult(
        scenario=spec.name, mode="host", seed=seed,
        digest=trace.digest(), events=trace.events, sim_ms=sim.now,
        stats=stats, series={"start_ms": times})


def _process_storm(spec: ScenarioSpec, seed: int) -> ScenarioResult:
    from ..containers import ProcessSpawner
    sim = Simulator()
    trace = EventTrace().attach(sim)
    spawner = ProcessSpawner(sim, RngStream(seed, "proc"))
    times: typing.List[float] = []
    for _ in range(spec.guests):
        before = sim.now

        def one():
            yield from spawner.spawn()
        proc = sim.process(one())
        sim.run(until=proc)
        times.append(sim.now - before)
    stats = {"started": float(len(times)),
             "start_ms_first": times[0] if times else 0.0,
             "start_ms_last": times[-1] if times else 0.0}
    return ScenarioResult(
        scenario=spec.name, mode="host", seed=seed,
        digest=trace.digest(), events=trace.events, sim_ms=sim.now,
        stats=stats, series={"start_ms": times})
