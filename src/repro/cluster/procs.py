"""The process-pool execution backend: hosts spread over worker processes.

``workers=N`` deals hosts into N shares (``h % N``).  The coordinator
steps share 0 itself with :func:`~repro.cluster.node.run_nodes`, as the
inline backend steps every host, and a :class:`~repro.pool.WorkerPool`
forks one child for each of shares 1..N-1 (none when N is 1).  A child
rebuilds its plain :class:`~repro.cluster.node.HostNode` instances from
the config and speaks a tiny pickled protocol:

* ``("epoch", k, window_end, {host: [wire messages]})`` ->
  ``("ok", [wire messages], reports)``
* ``("finish",)`` -> ``("done", [host summaries])`` then worker exit
* any worker exception -> ``("error", traceback_text)`` (pool-framed)

Each epoch sends every child its frame first, then steps share 0, then
gathers the children's replies.  Worker scheduling, reply order and the
partition are unobservable: at every barrier the coordinator re-imposes
the canonical (epoch, src, seq) order.  A child that raises, dies or is
killed fails the run with a :class:`~repro.cluster.cluster.ClusterError`
naming its share, hosts and exit status as soon as share 0 has finished
its own epoch (the coordinator gathers only then), and the surviving
children are stopped.  An exception in share 0, or anywhere in the
coordinator before :meth:`ProcsBackend.finish`, propagates as it does
inline, and :meth:`ProcsBackend.close` stops the children mid-epoch
rather than wait for them.
"""

from __future__ import annotations

import typing

from ..pool import WorkerPool
from .config import ClusterConfig
from .messages import from_wire
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
    """Hosts dealt round-robin into shares: share 0 in this process,
    every other share in a persistent child process."""

    name = "procs"

    def __init__(self, config: ClusterConfig, workers: int):
        from .cluster import ClusterError
        # Fork first: the children build their nodes while this process
        # builds its own, and inherit none of them.
        self._pool = WorkerPool(_worker_main, (config,),
                                range(config.spec.hosts), workers,
                                ClusterError, "cluster worker", "hosts",
                                keep_first=True)
        self.workers = self._pool.workers
        #: Share s's hosts, {h : h % workers == s}, share 0 included: by
        #: the canonical-order contract, unobservable in the merged
        #: timeline.
        self._partition = self._pool.partition
        self._finished = False
        try:
            self.nodes = [HostNode(config, host)
                          for host in self._partition[0]]
        except BaseException:
            # Cluster.run builds its backend outside its try, so a failed
            # build must not leave the children behind.
            self._pool.close(abort=True)
            raise

    def _recv(self) -> typing.List[tuple]:
        return self._pool.gather()

    def run_epoch(self, epoch: int, window_end: float,
                  batches: typing.Dict[int, list]
                  ) -> typing.Tuple[list, list]:
        for share in range(1, self.workers):
            # Wire-encode on the way out: tuples pickle several times
            # faster than dataclass instances, and this serialization is
            # the coordinator's serial fraction.
            local = {host: [msg.to_wire() for msg in batches[host]]
                     for host in self._partition[share]
                     if batches.get(host)}
            self._pool.send(share, ("epoch", epoch, window_end, local))
        outs, reports = run_nodes(self.nodes, epoch, window_end, batches)
        # The concatenation order does not matter: the coordinator
        # canonically re-sorts every message and keys reports by host.
        for reply in self._recv():
            outs.extend(from_wire(wire) for wire in reply[1])
            reports.extend(reply[2])
        return outs, reports

    def finish(self) -> typing.List[dict]:
        for share in range(1, self.workers):
            self._pool.send(share, ("finish",))
        summaries = [node.summary() for node in self.nodes]
        summaries.extend(summary for reply in self._recv()
                         for summary in reply[1])
        self._finished = True
        return summaries

    def close(self) -> None:
        # Before finish() the run has failed in this process (share 0,
        # the controller, the livelock guard) while a child may still be
        # in its epoch: stop the children rather than wait for them.
        # A child's own nodes end with its process.
        try:
            self._pool.close(abort=not self._finished)
        finally:
            for node in self.nodes:
                node.host.close()
