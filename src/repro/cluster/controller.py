"""The coordinator-side cluster controller.

The controller is the cluster's control plane: it decides placement,
drives the create ramp, schedules cross-host migrations, and broadcasts
the gid -> host directory.  It runs *at the barriers*, never inside a
host's window: its inputs are the canonical-order report stream
(messages addressed to :data:`CONTROLLER`) and its outputs are commands
stamped with its own (epoch, src=-1, seq) coordinates — so every
decision is a pure function of the barrier history, and both backends
replay it identically.

Command timing honours the lookahead rule by construction: a command
issued at barrier ``B`` arrives no earlier than ``B`` (creates arrive at
their exact scheduled ramp instant inside the next window; migrations
and broadcasts arrive one control latency after the barrier).
"""

from __future__ import annotations

import typing

from .config import ClusterConfig
from .messages import CONTROLLER, ClusterMessage
from .placement import Placement


class Controller:
    """Barrier-driven placement / migration / directory authority."""

    def __init__(self, config: ClusterConfig):
        spec = self.spec = config.spec
        machine = spec.host.host_spec()
        image = spec.guest.build()
        # Memory-derived capacity: what the host can hold beyond dom0 and
        # the pre-provisioned shell pool.
        free_kb = (machine.memory_kb - machine.dom0_memory_kb
                   - config.pool_target() * image.memory_kb)
        capacity = max(1, free_kb // image.memory_kb)
        self.placement = Placement(spec.hosts, capacity,
                                   policy=spec.placement.policy)
        self._create_start = config.create_start()
        self._next_gid = 0
        self._seq = 0
        self._outstanding_creates = 0
        #: gid -> intended host, recorded at issue time.
        self.placed: typing.Dict[int, int] = {}
        #: gid -> owner host, updated on completion reports only.
        self.directory: typing.Dict[int, int] = {}
        #: Booted gids per host, in completion-report order.
        self._by_host: typing.List[typing.List[int]] = [
            [] for _ in range(spec.hosts)]
        self._migrations_left = spec.migrations
        self._migrating: typing.Optional[tuple] = None
        #: Controller-exclusive tallies; per-host boot/request counters
        #: live on the nodes and are merged by :class:`Cluster` (the key
        #: sets are disjoint so the merge never double-counts).
        self.stats: typing.Dict[str, int] = {
            "unplaced": 0, "migrations_done": 0, "migrations_failed": 0,
        }

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """No commands left to issue and none awaiting completion."""
        return (self._next_gid >= self.spec.guests
                and self._outstanding_creates == 0
                and self._migrating is None
                and self._migrations_left == 0)

    def _t(self, gid: int) -> float:
        """The ramp: guest ``gid``'s exact create-arrival instant."""
        return self._create_start + \
            gid * self.spec.traffic.create_spacing_ms

    def _emit(self, epoch: int, barrier_ms: float, dst: int, kind: str,
              payload: tuple, arrive_ms: float) -> ClusterMessage:
        msg = ClusterMessage(kind=kind, src=CONTROLLER, dst=dst,
                             epoch=epoch, seq=self._seq,
                             send_ms=barrier_ms, arrive_ms=arrive_ms,
                             payload=payload)
        self._seq += 1
        return msg

    # ------------------------------------------------------------------
    def barrier(self, epoch: int, barrier_ms: float,
                inbox: typing.List[ClusterMessage]
                ) -> typing.List[ClusterMessage]:
        """Process one barrier: consume reports, issue commands.

        ``inbox`` holds this epoch's controller-addressed messages in
        canonical order.  The first call uses ``epoch=-1`` /
        ``barrier_ms=0.0`` with an empty inbox to seed the ramp.
        """
        out: typing.List[ClusterMessage] = []
        for msg in inbox:
            self._consume(msg, epoch, barrier_ms, out)
        self._issue_creates(epoch, barrier_ms, out)
        self._issue_migration(epoch, barrier_ms, out)
        return out

    # ------------------------------------------------------------------
    def _consume(self, msg: ClusterMessage, epoch: int, barrier_ms: float,
                 out: typing.List[ClusterMessage]) -> None:
        kind = msg.kind
        if kind == "created":
            (gid,) = msg.payload
            self._outstanding_creates -= 1
            self.directory[gid] = msg.src
            self._by_host[msg.src].append(gid)
            self._broadcast_up(gid, msg.src, epoch, barrier_ms, out)
        elif kind == "create_failed":
            (gid,) = msg.payload
            self._outstanding_creates -= 1
            self.placement.release(self.placed[gid])
        elif kind == "migrated":
            (gid,) = msg.payload
            _mgid, src, dst = self._migrating
            self._by_host[src].remove(gid)
            self._by_host[dst].append(gid)
            self.directory[gid] = dst
            self._migrating = None
            self.stats["migrations_done"] += 1
            self._broadcast_up(gid, dst, epoch, barrier_ms, out)
        elif kind == "migrate_failed":
            (gid,) = msg.payload
            _mgid, src, dst = self._migrating
            # The guest is gone (it was torn down for the stream that
            # never completed): drop it from every model.
            self._by_host[src].remove(gid)
            del self.directory[gid]
            self.placement.move(dst, src)  # undo the intended move...
            self.placement.release(src)    # ...then drop the lost guest.
            self._migrating = None
            self.stats["migrations_failed"] += 1
        else:
            raise ValueError("controller cannot consume %r" % (kind,))

    def _broadcast_up(self, gid: int, owner: int, epoch: int,
                      barrier_ms: float,
                      out: typing.List[ClusterMessage]) -> None:
        arrive = barrier_ms + self.spec.topology.net_latency_ms
        for host in range(self.spec.hosts):
            out.append(self._emit(epoch, barrier_ms, host, "up",
                                  (gid, owner), arrive))

    # ------------------------------------------------------------------
    def _issue_creates(self, epoch: int, barrier_ms: float,
                       out: typing.List[ClusterMessage]) -> None:
        # The next window's end, computed as Cluster.run computes it: a
        # float barrier_ms + epoch_ms can round below it and strand a
        # create in a window whose hosts have already passed it.
        cutoff = (epoch + 2) * self.spec.topology.epoch_ms
        while self._next_gid < self.spec.guests and \
                self._t(self._next_gid) < cutoff:
            gid = self._next_gid
            self._next_gid += 1
            host = self.placement.place()
            if host is None:
                self.stats["unplaced"] += 1
                continue
            self.placed[gid] = host
            self._outstanding_creates += 1
            out.append(self._emit(epoch, barrier_ms, host, "create",
                                  (gid,), self._t(gid)))

    def _issue_migration(self, epoch: int, barrier_ms: float,
                         out: typing.List[ClusterMessage]) -> None:
        if (self._migrations_left <= 0 or self._migrating is not None
                or self._next_gid < self.spec.guests
                or self._outstanding_creates > 0):
            return
        src = self._most_loaded()
        if src is None:  # nothing booted anywhere: churn is impossible
            self._migrations_left = 0
            return
        dst = self._least_loaded_except(src)
        if dst is None:
            self._migrations_left = 0
            return
        gid = min(self._by_host[src])
        self._migrations_left -= 1
        self._migrating = (gid, src, dst)
        self.placement.move(src, dst)
        out.append(self._emit(
            epoch, barrier_ms, src, "migrate_out", (gid, dst),
            barrier_ms + self.spec.topology.net_latency_ms))

    def _most_loaded(self) -> typing.Optional[int]:
        best = None
        for host in range(self.spec.hosts):
            count = len(self._by_host[host])
            if count > 0 and (best is None
                              or count > len(self._by_host[best])):
                best = host
        return best

    def _least_loaded_except(self, exclude: int) -> typing.Optional[int]:
        best = None
        for host in range(self.spec.hosts):
            if host == exclude:
                continue
            if best is None or \
                    len(self._by_host[host]) < len(self._by_host[best]):
                best = host
        return best
