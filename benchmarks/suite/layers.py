"""Per-layer host-cost attribution for the benchmark suite's traced runs.

:func:`install` wraps public functions of every ``repro`` layer, before
any object is built, so that each call (or, for a generator, each
resumption) becomes a span on one :class:`Ledger`.  Nothing under
``src/`` changes: a module-level function is patched under every name a
``repro`` module bound it to (``repro.cluster.cluster.sort_canonical``
as well as ``repro.cluster.messages.sort_canonical``), and a method is
patched on the class that defines it.

A span's *self time* is its duration minus the spans nested in it, so
the layers' self times add up to the traced wall.  Generators driven by
the DES kernel are wrapped at :class:`repro.sim.process.Process`
construction and billed to the layer whose module defined them, so no
process entry point is left billed to the kernel.  The wrappers forward
``send``/``throw``/``close`` and return values unchanged: the replay
digest of a traced run equals the untraced one.

Forked pool workers (the procs cluster backend, the sweep pool) inherit
the wrappers.  Their totals travel back as an extra key of the
``HostNode.summary`` and ``ScenarioResult.record`` dicts they already
send, which no digest covers, and are merged at the coordinator.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import os
import pathlib
import statistics
import sys
import time
import types
import typing

#: The layers time is billed to, one per ``repro`` subpackage.
LAYERS = ("sim", "analysis", "core", "toolstack", "xenstore", "hypervisor",
          "noxs", "guests", "faults", "cluster", "stdlib")

#: Subpackages billed to a neighbouring layer; any other module is core.
_ALIASES = {"recovery": "faults", "trace": "analysis", "net": "cluster",
            "containers": "guests"}

#: Key under which a forked worker returns its ledger snapshot.
SNAPSHOT_KEY = "bench_ledger"

_XS_VERBS = ("read", "write", "get_perms", "set_perms", "mkdir", "rm",
             "directory", "watch", "unwatch", "check_unique_name",
             "apply_batch", "transaction_start", "txn_read", "txn_exists",
             "txn_write", "txn_rm", "txn_flush_staged",
             "transaction_commit", "transaction_abort", "restart")

_HYPERCALLS = ("domctl_create", "domctl_resize_shell", "domctl_claim_shell",
               "domctl_unpause", "domctl_pause", "domctl_shutdown",
               "domctl_destroy", "devpage_create", "devpage_write",
               "devpage_remove", "devpage_map")


class Span(typing.NamedTuple):
    """One wrapped function: ``module:Class.attr`` or ``module:function``.

    ``timer`` accumulates the outermost span's inclusive seconds,
    ``count`` counts calls (generator calls, not resumptions),
    ``count_result`` counts calls that returned something other than
    ``None``, and ``sample`` keeps every call's inclusive seconds.
    """

    target: str
    layer: str
    timer: typing.Optional[str] = None
    count: typing.Optional[str] = None
    count_result: typing.Optional[str] = None
    sample: typing.Optional[str] = None


SPANS: typing.Tuple[Span, ...] = (
    Span("repro.sim.engine:Simulator.run", "sim"),
    Span("repro.analysis.sanitize:EventTrace.record", "analysis",
         timer="analysis.record_s"),
    Span("repro.core.host:Host.__init__", "core"),
    Span("repro.core.host:Host.warmup", "core"),
    Span("repro.core.host:Host.create_vm", "core", count="core.ops",
         sample="core.create_vm"),
    Span("repro.core.host:Host.destroy_vm", "core", count="core.ops",
         sample="core.destroy_vm"),
    Span("repro.toolstack.chaos:ChaosToolstack.create_vm", "toolstack",
         timer="toolstack.create_s"),
    Span("repro.toolstack.chaos:ChaosToolstack.destroy_vm", "toolstack",
         timer="toolstack.destroy_s"),
    Span("repro.toolstack.xl:XlToolstack.create_vm", "toolstack",
         timer="toolstack.create_s"),
    Span("repro.toolstack.xl:XlToolstack.destroy_vm", "toolstack",
         timer="toolstack.destroy_s"),
    Span("repro.toolstack.migration:Checkpointer.save", "toolstack",
         timer="toolstack.migrate_s"),
    Span("repro.toolstack.migration:Checkpointer.restore", "toolstack",
         timer="toolstack.migrate_s"),
    Span("repro.toolstack.shellpool:ChaosDaemon.prepare_shell", "toolstack"),
    Span("repro.toolstack.shellpool:ChaosDaemon.get_shell", "toolstack"),
    Span("repro.toolstack.devices:XsDeviceManager.create_device",
         "toolstack"),
    Span("repro.toolstack.devices:XsDeviceManager.destroy_device",
         "toolstack"),
    Span("repro.toolstack.hotplug:BashHotplug.attach", "toolstack"),
    Span("repro.toolstack.hotplug:BashHotplug.detach", "toolstack"),
    Span("repro.toolstack.hotplug:Xendevd.attach", "toolstack"),
    Span("repro.toolstack.hotplug:Xendevd.detach", "toolstack"),
    *(Span("repro.xenstore.daemon:XenStoreDaemon." + verb, "xenstore",
           count="xenstore.ops") for verb in _XS_VERBS),
    *(Span("repro.hypervisor.hypervisor:Hypervisor." + call, "hypervisor",
           timer="hypervisor.devpage_s" if call.startswith("devpage")
           else None, count="hypervisor.hypercalls")
      for call in _HYPERCALLS),
    Span("repro.hypervisor.devicepage:DevicePage.entries", "hypervisor",
         timer="hypervisor.devpage_s"),
    Span("repro.hypervisor.devicepage:DevicePage.parse", "hypervisor",
         timer="hypervisor.devpage_s"),
    Span("repro.hypervisor.grants:GrantTable.revoke_all_for", "hypervisor",
         timer="hypervisor.teardown_s"),
    Span("repro.hypervisor.events:EventChannelTable.close_all_for",
         "hypervisor", timer="hypervisor.teardown_s"),
    Span("repro.hypervisor.grants:GrantTable.grant_access", "hypervisor"),
    Span("repro.hypervisor.grants:GrantTable.map_ref", "hypervisor"),
    Span("repro.hypervisor.grants:GrantTable.unmap_ref", "hypervisor"),
    Span("repro.hypervisor.grants:GrantTable.end_access", "hypervisor"),
    Span("repro.hypervisor.events:EventChannelTable.alloc_unbound",
         "hypervisor"),
    Span("repro.hypervisor.events:EventChannelTable.bind_interdomain",
         "hypervisor"),
    Span("repro.hypervisor.events:EventChannelTable.close", "hypervisor"),
    Span("repro.noxs.module:NoxsModule.ioctl_create_device", "noxs",
         count="noxs.ioctls"),
    Span("repro.noxs.module:NoxsModule.ioctl_destroy_device", "noxs",
         count="noxs.ioctls"),
    Span("repro.noxs.module:NoxsModule.write_devpage", "noxs"),
    Span("repro.noxs.sysctl:SysctlBackend.attach", "noxs"),
    Span("repro.noxs.sysctl:SysctlBackend.request_suspend", "noxs"),
    Span("repro.noxs.sysctl:SysctlBackend.complete_resume", "noxs"),
    Span("repro.guests.boot:boot_guest", "guests"),
    Span("repro.faults.plan:FaultInjector.fires", "faults",
         count_result="faults.injected"),
    Span("repro.cluster.cluster:Cluster.run", "cluster"),
    Span("repro.cluster.cluster:InlineBackend.__init__", "cluster"),
    Span("repro.cluster.procs:ProcsBackend.__init__", "cluster"),
    Span("repro.cluster.procs:ProcsBackend._recv", "cluster",
         timer="cluster.pipe_wait_s"),
    Span("repro.cluster.controller:Controller.barrier", "cluster",
         timer="cluster.barrier_s"),
    Span("repro.cluster.messages:sort_canonical", "cluster",
         timer="cluster.sort_s"),
    Span("repro.cluster.messages:ClusterMessage.to_wire", "cluster",
         timer="cluster.wire_s"),
    Span("repro.cluster.messages:from_wire", "cluster",
         timer="cluster.wire_s"),
    Span("repro.cluster.node:HostNode.__init__", "cluster"),
    Span("repro.cluster.node:HostNode.deliver", "cluster"),
    Span("repro.stdlib.spec:load_spec", "stdlib", timer="stdlib.spec_s"),
    Span("repro.stdlib.spec:loads", "stdlib", timer="stdlib.spec_s"),
    Span("repro.stdlib.spec:ScenarioSpec.from_dict", "stdlib",
         timer="stdlib.spec_s"),
    Span("repro.stdlib.spec:ScenarioSpec.to_cluster_config", "stdlib",
         timer="stdlib.spec_s"),
    Span("repro.stdlib.library:HostProfile.build", "stdlib",
         timer="stdlib.build_s"),
    Span("repro.stdlib.runner:run_scenario", "stdlib",
         sample="stdlib.seed_s"),
)

#: Every metric :meth:`Ledger.metrics` reports, with its unit.  The
#: benchmark's ``per_layer`` list is this plus ``bench.trace_overhead_x``.
METRICS: typing.Tuple[typing.Tuple[str, str], ...] = (
    *((layer + suffix, unit) for layer in LAYERS
      for suffix, unit in ((".self_s", "s"), (".share", "fraction"),
                           (".calls", "count"))),
    ("sim.events", "count"),
    ("analysis.record_s", "s"),
    ("core.ops", "count"),
    ("core.create_vm_ms_p50", "ms"),
    ("core.create_vm_ms_p99", "ms"),
    ("core.destroy_vm_ms_p50", "ms"),
    ("toolstack.create_s", "s"),
    ("toolstack.destroy_s", "s"),
    ("toolstack.migrate_s", "s"),
    ("xenstore.ops", "count"),
    ("hypervisor.hypercalls", "count"),
    ("hypervisor.devpage_s", "s"),
    ("hypervisor.teardown_s", "s"),
    ("noxs.ioctls", "count"),
    ("faults.injected", "count"),
    ("cluster.epochs", "count"),
    ("cluster.messages", "count"),
    ("cluster.idle_roundtrips", "count"),
    ("cluster.run_epoch_s", "s"),
    ("cluster.wire_s", "s"),
    ("cluster.pipe_wait_s", "s"),
    ("cluster.barrier_s", "s"),
    ("cluster.sort_s", "s"),
    ("cluster.host_compute_s", "s"),
    ("cluster.host_compute_crit_s", "s"),
    ("stdlib.spec_s", "s"),
    ("stdlib.build_s", "s"),
    ("stdlib.seed_s_p50", "s"),
    ("stdlib.seed_s_max", "s"),
    ("stdlib.pool_overhead_s", "s"),
    ("stdlib.imbalance", "ratio"),
)


class Ledger:
    """Span stack and per-layer totals of one traced process tree."""

    def __init__(self):
        #: Child-span seconds accumulated by each open span.
        self.stack: typing.List[float] = []
        #: Open spans per timer, so nested spans of one timer count once.
        self.depth: typing.Counter = collections.Counter()
        #: True inside a forked pool worker.
        self.in_worker = False
        #: Snapshots merged from forked workers.
        self.workers: typing.List[dict] = []
        #: Coordinator view: cumulative events per host at the last epoch.
        self.host_events: typing.Dict[int, int] = {}
        self._layer_of: typing.Dict[types.CodeType, typing.Optional[str]] \
            = {}
        self._clear()

    def _clear(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.timers: typing.DefaultDict[str, float] = \
            collections.defaultdict(float)
        self.counts: typing.Counter = collections.Counter()
        self.samples: typing.DefaultDict[str, typing.List[float]] = \
            collections.defaultdict(list)
        #: This process's host compute per cluster epoch.
        self.epoch_s: typing.DefaultDict[int, float] = \
            collections.defaultdict(float)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def open(self, timer: typing.Optional[str] = None) -> float:
        if timer is not None:
            self.depth[timer] += 1
        self.stack.append(0.0)
        return time.perf_counter()

    def close(self, layer: str, start: float,
              timer: typing.Optional[str] = None,
              sample: typing.Optional[str] = None) -> float:
        elapsed = time.perf_counter() - start
        stack = self.stack
        self.self_s[layer] += elapsed - stack.pop()
        self.calls[layer] += 1
        if stack:
            stack[-1] += elapsed
        if timer is not None:
            self.depth[timer] -= 1
            if not self.depth[timer]:
                self.timers[timer] += elapsed
        if sample is not None:
            self.samples[sample].append(elapsed)
        return elapsed

    def timed(self, gen: types.GeneratorType, layer: str,
              timer: typing.Optional[str] = None) -> types.GeneratorType:
        """Wrap ``gen`` so that each resumption is a span."""
        wrapped = self._timed(gen, layer, timer)
        wrapped.__name__ = gen.__name__
        wrapped.__qualname__ = gen.__qualname__
        return wrapped

    def _timed(self, gen, layer, timer):
        value = None
        error: typing.Optional[BaseException] = None
        while True:
            start = self.open(timer)
            try:
                if error is None:
                    target = gen.send(value)
                else:
                    target = gen.throw(error)
            except StopIteration as stop:
                self.close(layer, start, timer)
                return stop.value
            except BaseException:
                self.close(layer, start, timer)
                raise
            self.close(layer, start, timer)
            try:
                value = yield target
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                value, error = None, exc

    def layer_of(self, code: types.CodeType) -> typing.Optional[str]:
        """The layer a ``repro`` code object belongs to (None outside)."""
        try:
            return self._layer_of[code]
        except KeyError:
            pass
        parts = pathlib.PurePath(code.co_filename).parts
        layer = None
        if "repro" in parts:
            rest = parts[len(parts) - parts[::-1].index("repro"):]
            package = rest[0] if len(rest) > 1 else "core"
            layer = _ALIASES.get(package,
                                 package if package in LAYERS else "core")
        self._layer_of[code] = layer
        return layer

    # ------------------------------------------------------------------
    # Worker transfer
    # ------------------------------------------------------------------
    def enter_worker(self) -> None:
        """Start a forked worker's ledger empty: the parent's open spans
        and totals were copied by the fork and are not the worker's."""
        self.stack.clear()
        self.depth.clear()
        self.workers = []
        self.in_worker = True
        self._clear()

    def snapshot(self) -> dict:
        return {"pid": os.getpid(),
                "self_s": dict(self.self_s), "calls": dict(self.calls),
                "timers": dict(self.timers), "counts": dict(self.counts),
                "samples": {key: list(values)
                            for key, values in self.samples.items()},
                "epoch_s": dict(self.epoch_s)}

    def take(self) -> dict:
        """Snapshot and reset: what this process did since the last take."""
        snap = self.snapshot()
        self._clear()
        return snap

    def absorb(self, records: typing.Iterable[dict]) -> None:
        """Move worker snapshots out of ``records`` into this ledger."""
        for record in records:
            snap = record.pop(SNAPSHOT_KEY, None)
            if snap is not None:
                self.workers.append(snap)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def metrics(self, events: int) -> typing.Dict[str, float]:
        """Every metric in :data:`METRICS`, over this process and every
        worker merged so far; ``events`` is the run's simulated events."""
        snaps = [self.snapshot()] + self.workers
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        timers: typing.Counter = collections.Counter()
        counts: typing.Counter = collections.Counter()
        samples: typing.DefaultDict[str, typing.List[float]] = \
            collections.defaultdict(list)
        for snap in snaps:
            for layer in LAYERS:
                self_s[layer] += snap["self_s"][layer]
                calls[layer] += snap["calls"][layer]
            timers.update(snap["timers"])
            counts.update(snap["counts"])
            for key, values in snap["samples"].items():
                samples[key].extend(values)
        total = sum(self_s.values()) or 1.0
        out: typing.Dict[str, float] = {}
        for layer in LAYERS:
            out[layer + ".self_s"] = self_s[layer]
            out[layer + ".share"] = self_s[layer] / total
            out[layer + ".calls"] = calls[layer]
        out["sim.events"] = events
        for name in ("core.ops", "xenstore.ops", "hypervisor.hypercalls",
                     "noxs.ioctls", "faults.injected", "cluster.epochs",
                     "cluster.messages", "cluster.idle_roundtrips"):
            out[name] = counts[name]
        for name in _TIMERS:
            out[name] = timers[name]
        out["core.create_vm_ms_p50"] = 1e3 * _percentile(
            samples["core.create_vm"], 0.50)
        out["core.create_vm_ms_p99"] = 1e3 * _percentile(
            samples["core.create_vm"], 0.99)
        out["core.destroy_vm_ms_p50"] = 1e3 * _percentile(
            samples["core.destroy_vm"], 0.50)
        # A worker may send several snapshots; the critical path and the
        # pool balance are per process.
        epoch_s: typing.DefaultDict[int, typing.Counter] = \
            collections.defaultdict(collections.Counter)
        busy_by_pid: typing.Counter = collections.Counter()
        for snap in snaps:
            epoch_s[snap["pid"]].update(snap["epoch_s"])
            busy_by_pid[snap["pid"]] += sum(
                snap["samples"].get("stdlib.seed_s", ()))
        epochs = set().union(*epoch_s.values())
        out["cluster.host_compute_crit_s"] = sum(
            max(per_epoch[epoch] for per_epoch in epoch_s.values())
            for epoch in epochs)
        seeds = samples["stdlib.seed_s"]
        out["stdlib.seed_s_p50"] = _percentile(seeds, 0.50)
        out["stdlib.seed_s_max"] = max(seeds, default=0.0)
        busy = [seconds for seconds in busy_by_pid.values() if seconds > 0]
        sweep_s = timers["stdlib.sweep_s"]
        out["stdlib.pool_overhead_s"] = \
            sweep_s - max(busy) if sweep_s and busy else 0.0
        out["stdlib.imbalance"] = \
            max(busy) / statistics.mean(busy) if sweep_s and busy else 0.0
        return out


#: Inclusive-time metrics read straight from :attr:`Ledger.timers`
#: (``stdlib.sweep_s`` only feeds ``stdlib.pool_overhead_s``).
_TIMERS = frozenset(span.timer for span in SPANS if span.timer) | {
    "cluster.run_epoch_s", "cluster.host_compute_s"}


def _percentile(values: typing.Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` of ``values`` (0.0 if empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------

def _span_wrapper(ledger: Ledger, fn, span: Span):
    layer, timer, count = span.layer, span.timer, span.count
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                ledger.counts[count] += 1
            return ledger.timed(fn(*args, **kwargs), layer, timer)
    else:
        count_result, sample = span.count_result, span.sample

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                ledger.counts[count] += 1
            start = ledger.open(timer)
            try:
                result = fn(*args, **kwargs)
            finally:
                ledger.close(layer, start, timer, sample)
            if count_result is not None and result is not None:
                ledger.counts[count_result] += 1
            return result
    return wrapper


def _process_init(ledger: Ledger, init):
    """Bill every kernel-driven generator to the layer that defined it."""
    timed_code = Ledger._timed.__code__

    @functools.wraps(init)
    def wrapper(self, sim, generator, name=None):
        if generator.__class__ is types.GeneratorType \
                and generator.gi_code is not timed_code:
            layer = ledger.layer_of(generator.gi_code)
            if layer is not None and layer != "sim":
                generator = ledger.timed(generator, layer)
        init(self, sim, generator, name)
    return wrapper


def _backend_epoch(ledger: Ledger, run_epoch):
    """A backend's run_epoch as a span, plus coordinator-side counts."""
    run_epoch = _span_wrapper(
        ledger, run_epoch, Span("", "cluster", timer="cluster.run_epoch_s"))

    @functools.wraps(run_epoch)
    def wrapper(backend, epoch, window_end, batches):
        outs, reports = run_epoch(backend, epoch, window_end, batches)
        counts = ledger.counts
        counts["cluster.epochs"] += 1
        counts["cluster.messages"] += sum(len(batch)
                                          for batch in batches.values())
        groups = getattr(backend, "_partition", None) or \
            [[node.host_index for node in backend.nodes]]
        seen = ledger.host_events
        now = {report["host"]: report["events"] for report in reports}
        for hosts in groups:
            if not any(batches.get(host) for host in hosts) and all(
                    now[host] == seen.get(host, 0) for host in hosts):
                counts["cluster.idle_roundtrips"] += 1
        seen.update(now)
        return outs, reports
    return wrapper


def _node_epoch(ledger: Ledger, run_epoch):
    @functools.wraps(run_epoch)
    def wrapper(node, epoch, window_end):
        start = ledger.open("cluster.host_compute_s")
        try:
            return run_epoch(node, epoch, window_end)
        finally:
            ledger.epoch_s[epoch] += ledger.close(
                "cluster", start, "cluster.host_compute_s")
    return wrapper


def _worker_entry(ledger: Ledger, main):
    @functools.wraps(main)
    def wrapper(*args, **kwargs):
        ledger.enter_worker()
        return main(*args, **kwargs)
    return wrapper


def _attach_snapshot(ledger: Ledger, method):
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        record = method(self, *args, **kwargs)
        if ledger.in_worker:
            record[SNAPSHOT_KEY] = ledger.take()
        return record
    return wrapper


def _absorb_summaries(ledger: Ledger, finish):
    @functools.wraps(finish)
    def wrapper(self):
        summaries = finish(self)
        ledger.absorb(summaries)
        return summaries
    return wrapper


def _absorb_sweep(ledger: Ledger, run_sweep):
    @functools.wraps(run_sweep)
    def absorbing(*args, **kwargs):
        manifest = run_sweep(*args, **kwargs)
        ledger.absorb(manifest["runs"])
        return manifest
    return _span_wrapper(ledger, absorbing,
                         Span("", "stdlib", timer="stdlib.sweep_s"))


#: (target, wrapper factory) pairs beyond the plain spans.
_HOOKS = (
    ("repro.sim.process:Process.__init__", _process_init),
    ("repro.cluster.cluster:InlineBackend.run_epoch", _backend_epoch),
    ("repro.cluster.procs:ProcsBackend.run_epoch", _backend_epoch),
    ("repro.cluster.node:HostNode.run_epoch", _node_epoch),
    ("repro.cluster.procs:_worker_main", _worker_entry),
    ("repro.stdlib.sweep:_worker_main", _worker_entry),
    ("repro.cluster.node:HostNode.summary", _attach_snapshot),
    ("repro.stdlib.runner:ScenarioResult.record", _attach_snapshot),
    ("repro.cluster.procs:ProcsBackend.finish", _absorb_summaries),
    ("repro.stdlib.sweep:run_sweep", _absorb_sweep),
)


def _patch(target: str, make, undo: list) -> None:
    """Replace ``target`` with ``make(original)`` wherever it is bound."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        undo.append((owner, attr, raw))
        return
    original = getattr(module, attr)
    new = make(original)
    for name, other in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) \
                and getattr(other, attr, None) is original:
            setattr(other, attr, new)
            undo.append((other, attr, original))


def install(ledger: Ledger) -> typing.Callable[[], None]:
    """Wrap every :data:`SPANS` target and hook; returns the undo."""
    # Import every module that binds a wrapped name before patching, so
    # no later import copies an unwrapped function.
    for module in ("repro.stdlib", "repro.cluster", "repro.cluster.procs",
                   "repro.core", "repro.recovery", "repro.toolstack"):
        importlib.import_module(module)
    undo: list = []
    for span in SPANS:
        _patch(span.target,
               lambda fn, span=span: _span_wrapper(ledger, fn, span), undo)
    for target, factory in _HOOKS:
        _patch(target, lambda fn, factory=factory: factory(ledger, fn), undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


@contextlib.contextmanager
def installed(ledger: Ledger):
    """Context manager form of :func:`install` (tests)."""
    uninstall = install(ledger)
    try:
        yield ledger
    finally:
        uninstall()
