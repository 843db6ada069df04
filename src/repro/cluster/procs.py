"""The process-pool execution backend: hosts spread over worker processes.

Workers host plain :class:`~repro.cluster.node.HostNode` instances on a
:class:`~repro.pool.WorkerPool` (hosts dealt ``h % workers``), rebuilt
in the child from the config, and speak a tiny pickled protocol:

* ``("epoch", k, window_end, {host: [wire messages]})`` ->
  ``("ok", [wire messages], reports)``
* ``("finish",)`` -> ``("done", [host summaries])`` then worker exit
* any worker exception -> ``("error", traceback_text)`` (pool-framed)

Worker scheduling, reply order and the partition are unobservable: at
every barrier the coordinator re-imposes the canonical (epoch, src, seq)
order.  A worker that raises, dies or is killed fails the run at once
with a :class:`~repro.cluster.cluster.ClusterError` naming its hosts and
exit status, and the surviving workers are stopped.
"""

from __future__ import annotations

import typing

from ..pool import WorkerPool
from .config import ClusterConfig
from .messages import ClusterMessage, from_wire
from .node import HostNode, run_nodes


def _worker_main(conn, config: ClusterConfig,
                 host_indices: typing.List[int]) -> None:
    """Child process entry: drive ``host_indices``'s nodes to barriers."""
    nodes = [HostNode(config, host) for host in host_indices]
    while True:
        command = conn.recv()
        op = command[0]
        if op == "finish":
            conn.send(("done", [node.summary() for node in nodes]))
            return
        if op != "epoch":
            raise ValueError("unknown worker op %r" % (op,))
        _op, epoch, window_end, wires = command
        batches = {host: [from_wire(wire) for wire in batch]
                   for host, batch in wires.items()}
        outs, reports = run_nodes(nodes, epoch, window_end, batches)
        conn.send(("ok", [msg.to_wire() for msg in outs], reports))


class ProcsBackend:
    """Hosts partitioned round-robin over persistent worker processes."""

    name = "procs"

    def __init__(self, config: ClusterConfig, workers: int):
        from .cluster import ClusterError
        self._pool = WorkerPool(_worker_main, (config,),
                                range(config.hosts), workers,
                                ClusterError, "cluster worker", "hosts")
        self.workers = self._pool.workers
        #: Worker w's hosts, {h : h % workers == w}: by the canonical-order
        #: contract, unobservable in the merged timeline.
        self._partition = self._pool.partition

    def _recv(self) -> typing.List[tuple]:
        return self._pool.gather()

    def run_epoch(self, epoch: int, window_end: float,
                  batches: typing.Dict[int, list]
                  ) -> typing.Tuple[list, list]:
        for worker, hosts in enumerate(self._partition):
            # Wire-encode on the way out: tuples pickle several times
            # faster than dataclass instances, and this serialization is
            # the coordinator's serial fraction.
            local = {host: [msg.to_wire() for msg in batches[host]]
                     for host in hosts if batches.get(host)}
            self._pool.send(worker, ("epoch", epoch, window_end, local))
        outs: typing.List[ClusterMessage] = []
        reports = []
        # The concatenation order does not matter: the coordinator
        # canonically re-sorts every message and keys reports by host.
        for reply in self._recv():
            outs.extend(from_wire(wire) for wire in reply[1])
            reports.extend(reply[2])
        return outs, reports

    def finish(self) -> typing.List[dict]:
        for worker in range(self.workers):
            self._pool.send(worker, ("finish",))
        return [summary for reply in self._recv() for summary in reply[1]]

    def close(self) -> None:
        self._pool.close()
