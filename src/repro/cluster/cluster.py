"""The cluster orchestrator: epoch barriers over N host engines.

:class:`Cluster` advances every host window by window.  One iteration —
one epoch — is:

1. **deliver**: messages whose arrival instant falls inside the window,
   sorted by the canonical (epoch, src, seq) key, are injected into
   their destination hosts at their exact arrival times;
2. **advance**: every host runs ``sim.run(until=window_end,
   inclusive=False)`` — strictly disjoint windows, so no event leaks
   across a barrier;
3. **exchange**: host outboxes are drained; controller-addressed reports
   are consumed at the barrier and new commands issued; everything else
   goes back into the pending pool for a later window.

The run terminates when the controller has nothing left to issue, no
message is pending, and every host reports zero outstanding work; the
livelock guard (``config.max_epochs``) bounds broken scenarios.

Backends implement ``run_epoch(epoch, window_end, batches)``,
``finish()`` and ``close()``: :class:`InlineBackend` here (single
process, the semantic reference) and ``ProcsBackend`` in
:mod:`repro.cluster.procs` (hosts dealt into ``workers=N`` shares:
share 0 stepped in this process, shares 1..N-1 in the children of a
:class:`~repro.pool.WorkerPool`; a failed child ends the run with a
:class:`ClusterError` naming its hosts).  The merged
timeline is a pure function of the config; the backend and worker count
must not change a single digest byte — ``tests/test_cluster_digest.py``
holds both to that.
"""

from __future__ import annotations

import dataclasses
import typing

from ..analysis.sanitize import combine_digests
from .config import ClusterConfig, ClusterConfigError
from .controller import Controller
from .messages import CONTROLLER, sort_canonical
from .node import HostNode, run_nodes

BACKENDS = ("inline", "procs")


class ClusterError(RuntimeError):
    """A cluster run that cannot proceed (livelock, dead worker, ...)."""


class InlineBackend:
    """All hosts in this process — the semantic reference backend."""

    name = "inline"
    workers = 1

    def __init__(self, config: ClusterConfig):
        self.nodes = [HostNode(config, host)
                      for host in range(config.hosts)]

    def run_epoch(self, epoch: int, window_end: float,
                  batches: typing.Dict[int, list]
                  ) -> typing.Tuple[list, list]:
        return run_nodes(self.nodes, epoch, window_end, batches)

    def finish(self) -> typing.List[dict]:
        return [node.summary() for node in self.nodes]

    def close(self) -> None:
        pass


@dataclasses.dataclass
class ClusterResult:
    """Outcome of one cluster run."""

    config: ClusterConfig
    backend: str
    workers: int
    epochs: int
    sim_ms: float
    events: int
    digest: str
    host_digests: typing.List[str]
    stats: typing.Dict[str, float]


class Cluster:
    """N simulated hosts behind one deterministic epoch-barrier loop."""

    def __init__(self, config: ClusterConfig, backend: str = "inline",
                 workers: typing.Optional[int] = None):
        config.validate()
        if backend not in BACKENDS:
            raise ClusterConfigError(
                "unknown backend %r; expected one of %s"
                % (backend, ", ".join(BACKENDS)))
        self.config = config
        self.backend_name = backend
        self.workers = config.hosts if workers is None else workers

    def _make_backend(self):
        if self.backend_name == "inline":
            return InlineBackend(self.config)
        from .procs import ProcsBackend
        return ProcsBackend(self.config, self.workers)

    def run(self) -> ClusterResult:
        config = self.config
        controller = Controller(config)
        backend = self._make_backend()
        epoch_ms = config.epoch_ms
        try:
            pending = list(controller.barrier(-1, 0.0, []))
            epoch = 0
            while True:
                if epoch >= config.max_epochs:
                    raise ClusterError(
                        "no quiescence after %d epochs (sim time %.1f ms):"
                        " livelocked scenario or lost completion report"
                        % (epoch, epoch * epoch_ms))
                window_end = (epoch + 1) * epoch_ms
                due = [m for m in pending if m.arrive_ms < window_end]
                if due:
                    pending = [m for m in pending
                               if m.arrive_ms >= window_end]
                    due = sort_canonical(due)
                batches: typing.Dict[int, list] = {}
                for msg in due:
                    batches.setdefault(msg.dst, []).append(msg)
                outs, reports = backend.run_epoch(epoch, window_end,
                                                  batches)
                to_controller = sort_canonical(
                    [m for m in outs if m.dst == CONTROLLER])
                pending.extend(m for m in outs if m.dst != CONTROLLER)
                pending.extend(controller.barrier(epoch, window_end,
                                                  to_controller))
                outstanding = 0
                for report in reports:
                    outstanding += report["outstanding"]
                epoch += 1
                if controller.done and not pending and outstanding == 0:
                    break
            summaries = backend.finish()
        finally:
            backend.close()
        summaries.sort(key=lambda summary: summary["host"])
        host_digests = [summary["digest"] for summary in summaries]
        events = 0
        sim_ms = 0.0
        stats: typing.Dict[str, float] = dict(controller.stats)
        stats["guests_running"] = 0
        for summary in summaries:
            events += summary["events"]
            sim_ms = max(sim_ms, summary["sim_ms"])
            stats["guests_running"] += summary["guests"]
            for key in sorted(summary["counters"]):
                value = summary["counters"][key]
                if key in ("latency_ms_max",):
                    stats[key] = max(stats.get(key, 0.0), value)
                else:
                    stats[key] = stats.get(key, 0) + value
        return ClusterResult(config=config, backend=self.backend_name,
                             workers=backend.workers,
                             epochs=epoch, sim_ms=sim_ms, events=events,
                             digest=combine_digests(host_digests),
                             host_digests=host_digests, stats=stats)

