"""One cluster host: a full single-host stack plus an epoch-driven shell.

A :class:`HostNode` wraps a :class:`repro.core.host.Host` (its own
:class:`Simulator`, toolstack, XenStore plane, checkpointer, fault
injector) and adds the three things the epoch-barrier scheduler needs:

* **delivery** — cross-host messages are injected at their exact agreed
  arrival instant via :meth:`Simulator.schedule_at`, carrying the message
  token as the event payload so the replay digest pins *what* arrived,
  not just that something did;
* **bounded advance** — :meth:`run_epoch` drives the engine through one
  strict window ``[k·L, (k+1)·L)`` with ``run(until=end,
  inclusive=False)``;
* **outbox batching** — sends buffer during the window and are flushed
  into the epoch's outbox by a kernel drain hook when the bounded run
  completes, closing the batch exactly at the barrier.

Everything in this module runs *inside* the DES timeline; it is ordinary
sim code under the determinism linter (RPR010 included — only
:mod:`repro.pool` may touch real concurrency).
"""

from __future__ import annotations

import typing

from ..analysis.sanitize import EventTrace
from ..core.host import Host
from ..faults import ABSORBED, FaultPlan
from ..net.links import Link
from ..sim.engine import Simulator
from ..toolstack.config import VMConfig
from ..toolstack.migration import SavedImage
from .config import ClusterConfig, host_seed
from .messages import CONTROLLER, ClusterMessage


def run_nodes(nodes: typing.Sequence["HostNode"], epoch: int,
              window_end: float, batches: typing.Dict[int, list]
              ) -> typing.Tuple[typing.List[ClusterMessage], list]:
    """The epoch step of both backends: deliver each node's batch,
    advance it to ``window_end``, drain its outbox."""
    outs: typing.List[ClusterMessage] = []
    reports = []
    for node in nodes:
        batch = batches.get(node.host_index)
        if batch:
            node.deliver(batch)
        reports.append(node.run_epoch(epoch, window_end))
        outs.extend(node.drain_outbox())
    return outs, reports


class HostNode:
    """Host ``host_index`` of the cluster, advanced window by window."""

    def __init__(self, config: ClusterConfig, host_index: int):
        self.config = config
        self.host_index = host_index
        self.sim = Simulator()
        self.trace = EventTrace().attach(self.sim)
        image = config.guest_image()
        self._image = image
        plan = None
        if config.fault_rate > 0.0:
            # Per-host fault plan derived from the cluster seed: host i
            # draws from its own stream, so adding a host never perturbs
            # another host's fault schedule.
            plan = FaultPlan.uniform(probability=config.fault_rate,
                                     points=config.fault_points,
                                     seed=host_seed(config.seed,
                                                    host_index))
        self.host = Host(spec=config.host_spec(), variant=config.variant,
                         seed=host_seed(config.seed, host_index),
                         sim=self.sim, host_id=host_index,
                         pool_target=config.pool_target(),
                         shell_memory_kb=image.memory_kb,
                         fault_plan=plan, recovery=config.recovery)
        self._link = Link(self.sim, latency_ms=config.net_latency_ms,
                          bandwidth_mbps=config.net_bandwidth_mbps)
        #: gid -> owner host, from controller ``up`` broadcasts.  May lag
        #: migrations by the control latency; a stale route is a counted
        #: miss, identically on every backend.
        self.directory: typing.Dict[int, int] = {}
        self._gids: typing.List[int] = []
        self._local: typing.Dict[int, object] = {}
        self._epoch = -1
        self._seq = 0
        self._sends: typing.List[ClusterMessage] = []
        self._outbox: typing.List[ClusterMessage] = []
        self._inflight = 0
        self._traffic_remaining = config.requests_for(host_index)
        self.counters: typing.Dict[str, float] = {
            "booted": 0, "create_failed": 0,
            "migrated_in": 0, "migrated_out": 0, "migrate_failed": 0,
            "requests_sent": 0, "served": 0, "missed": 0, "unrouted": 0,
            "responses": 0, "absorbed_faults": 0, "boot_ms_sum": 0.0,
            "latency_ms_sum": 0.0, "latency_ms_max": 0.0,
        }
        self._handlers = {
            "create": self._h_create,
            "migrate_out": self._h_migrate_out,
            "mig_in": self._h_mig_in,
            "up": self._h_up,
            "req": self._h_req,
            "rsp": self._h_rsp,
        }
        # Outbox batches close at the window boundary, via the kernel's
        # drain hook, not at send time: a send is only *in* epoch k once
        # the bounded run for k has completed.
        self.sim.drain_hooks.append(self._on_drain)
        self.sim.process(self._traffic())

    # ------------------------------------------------------------------
    # Epoch-barrier surface (called by the backends)
    # ------------------------------------------------------------------
    def deliver(self, messages: typing.Iterable[ClusterMessage]) -> None:
        """Inject a window's inbound messages at their arrival instants.

        ``messages`` arrive canonically sorted by (epoch, src, seq); two
        messages with the same arrival instant therefore enqueue in
        canonical order, which both backends reproduce exactly.
        """
        sim = self.sim
        dispatch = self._dispatch
        for msg in messages:
            sim.schedule_at(msg.arrive_ms, dispatch, msg, value=msg.token())

    def run_epoch(self, epoch: int, window_end: float) -> dict:
        """Advance through ``[now, window_end)`` and report liveness."""
        self._epoch = epoch
        while True:
            try:
                self.sim.run(until=window_end, inclusive=False)
                break
            except ABSORBED:
                # A fault escaped a background daemon (e.g. the shell
                # pool's replenisher died to an injected hypercall
                # error).  That daemon is gone — a deterministic model
                # degradation — but the host itself keeps serving; the
                # engine keeps the unprocessed tail queued, so resuming
                # the bounded run is well-defined.
                self.counters["absorbed_faults"] += 1
        return {"host": self.host_index,
                "outstanding": self._traffic_remaining + self._inflight,
                "events": self.sim.processed_events}

    def drain_outbox(self) -> typing.List[ClusterMessage]:
        out = self._outbox
        self._outbox = []
        return out

    def summary(self) -> dict:
        """Final per-host record (picklable) for the cluster result."""
        return {"host": self.host_index,
                "digest": self.trace.digest(),
                "events": self.sim.processed_events,
                "sim_ms": self.sim.now,
                "guests": len(self._local),
                "counters": dict(self.counters)}

    def _on_drain(self, _sim: Simulator) -> None:
        if self._sends:
            self._outbox.extend(self._sends)
            self._sends = []

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _send(self, dst: int, kind: str, payload: tuple,
              latency_ms: typing.Optional[float] = None) -> None:
        now = self.sim.now
        if latency_ms is None:
            latency_ms = self.config.net_latency_ms
        self._sends.append(ClusterMessage(
            kind=kind, src=self.host_index, dst=dst, epoch=self._epoch,
            seq=self._seq, send_ms=now, arrive_ms=now + latency_ms,
            payload=payload))
        self._seq += 1

    def _dispatch(self, msg: ClusterMessage) -> None:
        self._handlers[msg.kind](msg)

    # ------------------------------------------------------------------
    # Placement commands
    # ------------------------------------------------------------------
    def _h_create(self, msg: ClusterMessage) -> None:
        (gid,) = msg.payload
        self.sim.process(self._create(gid))

    def _create(self, gid: int):
        vm_config = VMConfig.for_image(self._image, "g%d" % gid)
        try:
            record = yield from self.host.toolstack.create_vm(vm_config,
                                                              boot=True)
        except ABSORBED:
            self.counters["create_failed"] += 1
            self._send(CONTROLLER, "create_failed", (gid,))
            return
        self._local[gid] = record.domain
        self.counters["booted"] += 1
        self.counters["boot_ms_sum"] += record.create_ms + record.boot_ms
        self._send(CONTROLLER, "created", (gid,))

    # ------------------------------------------------------------------
    # Cross-host migration (the Fig 13 path, generalized)
    # ------------------------------------------------------------------
    def _h_migrate_out(self, msg: ClusterMessage) -> None:
        gid, dst = msg.payload
        self.sim.process(self._migrate_out(gid, dst))

    def _migrate_out(self, gid: int, dst: int):
        domain = self._local.pop(gid, None)
        if domain is None:
            self.counters["migrate_failed"] += 1
            self._send(CONTROLLER, "migrate_failed", (gid,))
            return
        vm_config = VMConfig.for_image(self._image, "g%d" % gid)
        try:
            saved = yield from self.host.checkpointer.save(domain,
                                                           vm_config)
        except ABSORBED:
            self.counters["migrate_failed"] += 1
            self._send(CONTROLLER, "migrate_failed", (gid,))
            return
        self.counters["migrated_out"] += 1
        # Stream the checkpoint to the destination: propagation plus
        # serialization on the cluster link.  transfer_ms >= the link
        # latency >= the epoch length, so the lookahead rule holds.
        self._send(dst, "mig_in", (gid, saved.memory_kb),
                   latency_ms=self._link.transfer_ms(saved.memory_kb))

    def _h_mig_in(self, msg: ClusterMessage) -> None:
        gid, memory_kb = msg.payload
        self.sim.process(self._restore(gid, memory_kb))

    def _restore(self, gid: int, memory_kb: int):
        vm_config = VMConfig.for_image(self._image, "g%d" % gid)
        saved = SavedImage(config=vm_config, memory_kb=memory_kb)
        try:
            domain = yield from self.host.checkpointer.restore(saved)
        except ABSORBED:
            self.counters["migrate_failed"] += 1
            self._send(CONTROLLER, "migrate_failed", (gid,))
            return
        self._local[gid] = domain
        self.counters["migrated_in"] += 1
        self._send(CONTROLLER, "migrated", (gid,))

    # ------------------------------------------------------------------
    # Directory updates
    # ------------------------------------------------------------------
    def _h_up(self, msg: ClusterMessage) -> None:
        gid, owner = msg.payload
        if gid not in self.directory:
            self._gids.append(gid)
        self.directory[gid] = owner

    # ------------------------------------------------------------------
    # Open-loop request traffic
    # ------------------------------------------------------------------
    def _traffic(self):
        if self._traffic_remaining <= 0:
            return
        rng = self.host.rng.stream("cluster/traffic")
        start = self.config.traffic_start()
        if start > 0:
            yield self.sim.timeout(start)
        rate = 1.0 / self.config.request_gap_ms
        while self._traffic_remaining > 0:
            yield self.sim.timeout(rng.expovariate(rate))
            self._traffic_remaining -= 1  # noqa: RPR103 -- single-writer counter: exactly one _traffic process exists per node (spawned once in __init__) and nothing else writes it, so no interleaving can clobber the read
            self._fire_request(rng)

    def _fire_request(self, rng) -> None:
        self.counters["requests_sent"] += 1
        gids = self._gids
        if not gids:
            # No guest is up (or known yet): counted, not retried — the
            # open-loop model never blocks on the control plane.
            self.counters["unrouted"] += 1
            return
        gid = gids[rng.randrange(len(gids))]
        owner = self.directory[gid]
        self._inflight += 1
        if owner == self.host_index:
            served = 1 if gid in self._local else 0
            delay = self.config.service_ms if served else 0.0
            self.sim.call_later(delay, self._request_done, self.sim.now,
                                served)
        else:
            self._send(owner, "req", (gid, self.sim.now))

    def _request_done(self, sent_ms: float, served: int) -> None:
        self._inflight -= 1
        self.counters["responses"] += 1
        self.counters["served" if served else "missed"] += 1
        latency = self.sim.now - sent_ms
        self.counters["latency_ms_sum"] += latency
        if latency > self.counters["latency_ms_max"]:
            self.counters["latency_ms_max"] = latency

    def _h_req(self, msg: ClusterMessage) -> None:
        gid, sent_ms = msg.payload
        served = 1 if gid in self._local else 0
        delay = self.config.service_ms if served else 0.0
        self.sim.call_later(delay, self._reply, msg.src, sent_ms, served)

    def _reply(self, src: int, sent_ms: float, served: int) -> None:
        self._send(src, "rsp", (sent_ms, served))

    def _h_rsp(self, msg: ClusterMessage) -> None:
        sent_ms, served = msg.payload
        self._request_done(sent_ms, served)
