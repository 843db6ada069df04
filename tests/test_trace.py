"""Tests for the observability layer (``repro.trace``).

Covers the four contracts the layer makes:

* zero cost when disabled — call sites reach the shared null tracer and
  allocate nothing;
* correct span structure — sim-time stamps, per-process parenting,
  attributes, error capture;
* exact agreement with the benchmarks — per-phase attribution derived
  from spans equals the PhaseRecorder series bit for bit (Fig 5);
* replay determinism — attaching a tracer never perturbs the event
  timeline (EventTrace digests are byte-identical tracing on or off) and
  the tracer's own digest is replay-stable.
"""

import json

import pytest

from repro.analysis import EventTrace
from repro.core import Host
from repro.guests import lookup
from repro.sim import Simulator
from repro.toolstack import PHASES
from repro.trace import (NULL_TRACER, MetricsRegistry, Tracer,
                         collect_host_metrics, phase_attribution,
                         render_attribution, render_span_summary,
                         span_summary, trace_events, tracer_of,
                         write_chrome_trace)

DAYTIME = lookup("daytime")


# ---------------------------------------------------------------------------
# Null tracer (the disabled path)
# ---------------------------------------------------------------------------
class TestNullTracer:
    def test_tracer_of_none_is_null(self):
        assert tracer_of(None) is NULL_TRACER

    def test_fresh_simulator_has_no_tracer(self):
        assert tracer_of(Simulator()) is NULL_TRACER

    def test_attach_makes_tracer_reachable(self):
        sim = Simulator()
        tracer = Tracer().attach(sim)
        assert tracer_of(sim) is tracer

    def test_disabled_span_is_shared_and_inert(self):
        # Zero allocation on the hot path: every call returns the same
        # object, and the full with/set protocol is a no-op.
        first = NULL_TRACER.span("a", x=1)
        second = NULL_TRACER.span("b")
        assert first is second
        with NULL_TRACER.span("op") as span:
            span.set(domid=3).set(more=True)
        assert NULL_TRACER.instant("evt", n=2) is None
        assert not NULL_TRACER.enabled


# ---------------------------------------------------------------------------
# Span recording
# ---------------------------------------------------------------------------
class TestSpans:
    def test_span_records_sim_time_interval(self):
        sim = Simulator()
        tracer = Tracer().attach(sim)

        def proc():
            yield sim.timeout(3.0)
            with tracer.span("work"):
                yield sim.timeout(7.5)

        sim.process(proc())
        sim.run()
        (span,) = tracer.by_name("work")
        assert span.begin_ms == 3.0
        assert span.end_ms == 10.5
        assert span.duration_ms == 7.5

    def test_nested_spans_parent_within_a_process(self):
        sim = Simulator()
        tracer = Tracer().attach(sim)

        def proc():
            with tracer.span("outer"):
                yield sim.timeout(1.0)
                with tracer.span("inner"):
                    yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        (outer,) = tracer.by_name("outer")
        (inner,) = tracer.by_name("inner")
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == 0
        # Completion order: children land before their parents.
        assert tracer.spans.index(inner) < tracer.spans.index(outer)

    def test_interleaved_processes_do_not_cross_parent(self):
        """Two coroutines with overlapping open spans must keep separate
        stacks — a span opened by B while A's span is open is NOT A's
        child."""
        sim = Simulator()
        tracer = Tracer().attach(sim)

        def worker(start_delay):
            yield sim.timeout(start_delay)
            with tracer.span("outer", who=start_delay):
                yield sim.timeout(10.0)
                with tracer.span("inner", who=start_delay):
                    yield sim.timeout(10.0)

        sim.process(worker(0.0))
        sim.process(worker(1.0))  # overlaps the first entirely
        sim.run()
        outers = {s.attrs["who"]: s for s in tracer.by_name("outer")}
        inners = {s.attrs["who"]: s for s in tracer.by_name("inner")}
        for who in (0.0, 1.0):
            assert inners[who].parent_id == outers[who].span_id
            assert outers[who].parent_id == 0

    def test_each_process_gets_its_own_track(self):
        sim = Simulator()
        tracer = Tracer().attach(sim)

        def named():
            with tracer.span("x"):
                yield sim.timeout(1.0)

        sim.process(named())
        sim.process(named())
        tracer.instant("from-main")
        sim.run()
        tracks = {s.track for s in tracer.spans}
        assert len(tracks) == 3
        assert "main" in tracer.track_names

    def test_exception_is_recorded_and_span_closed(self):
        sim = Simulator()
        tracer = Tracer().attach(sim)
        with pytest.raises(ValueError):
            with tracer.span("op", domid=7):
                raise ValueError("boom")
        (span,) = tracer.by_name("op")
        assert span.attrs["error"] == "ValueError"
        assert span.attrs["domid"] == 7
        assert tracer.open_spans() == []

    def test_set_is_chainable_and_merges(self):
        sim = Simulator()
        tracer = Tracer().attach(sim)
        with tracer.span("op", a=1) as span:
            span.set(b=2).set(a=3)
        assert tracer.spans[-1].attrs == {"a": 3, "b": 2}

    def test_instant_has_zero_duration(self):
        sim = Simulator()
        tracer = Tracer().attach(sim)
        span = tracer.instant("tick", n=1)
        assert span.duration_ms == 0.0
        assert span in tracer.spans

    def test_open_spans_visible_until_closed(self):
        sim = Simulator()
        tracer = Tracer().attach(sim)
        span = tracer.span("long")
        tracer._begin(span)
        assert tracer.open_spans() == [span]
        assert span.duration_ms == 0.0  # still open
        tracer._end(span)
        assert tracer.open_spans() == []

    def test_digest_is_content_sensitive(self):
        def run(extra):
            sim = Simulator()
            tracer = Tracer().attach(sim)
            with tracer.span("op", n=extra):
                pass
            return tracer.digest()

        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_finished_spans_feed_the_metrics_registry(self):
        sim = Simulator()
        registry = MetricsRegistry(sim=sim)
        tracer = Tracer(metrics=registry).attach(sim)

        def proc():
            with tracer.span("op"):
                yield sim.timeout(4.0)

        sim.process(proc())
        sim.run()
        histogram = registry.get("span/op")
        assert histogram is not None
        assert histogram.count == 1
        assert histogram.mean() == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_time_weighted_mean(self):
        sim = Simulator()
        registry = MetricsRegistry(sim=sim)
        gauge = registry.gauge("g")

        def proc():
            gauge.set(1.0)
            yield sim.timeout(10.0)
            gauge.set(3.0)
            yield sim.timeout(10.0)
            gauge.set(0.0)

        sim.process(proc())
        sim.run()
        assert gauge.value == 0.0
        assert gauge.time_weighted_mean(0.0) == pytest.approx(2.0)

    def test_histogram_quantiles_and_mean(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in [1.0, 2.0, 3.0, 4.0, 100.0]:
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.mean() == pytest.approx(22.0)
        assert histogram.min == 1.0
        assert histogram.max == 100.0
        assert 1.0 <= histogram.quantile(0.5) <= 100.0
        assert histogram.quantile(1.0) == 100.0

    def test_get_or_create_is_idempotent_but_kind_strict(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        assert registry.get("missing") is None

    def test_as_dict_and_render(self):
        registry = MetricsRegistry()
        registry.counter("a/ops").inc(3)
        registry.gauge("b/level").set(1.5)
        registry.histogram("c/lat").observe(2.0)
        snapshot_dict = registry.as_dict()
        assert snapshot_dict["a/ops"]["value"] == 3
        assert snapshot_dict["c/lat"]["count"] == 1
        table = registry.render()
        for name in ("a/ops", "b/level", "c/lat"):
            assert name in table
        assert len(registry) == 3
        assert registry.names() == ["a/ops", "b/level", "c/lat"]


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
class TestExport:
    def _traced_run(self):
        sim = Simulator()
        tracer = Tracer().attach(sim)

        def proc():
            with tracer.span("phase.alpha"):
                yield sim.timeout(2.0)
            tracer.instant("marker", n=1)
            with tracer.span("phase.beta"):
                yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        return tracer

    def test_trace_events_shape(self):
        tracer = self._traced_run()
        events = trace_events(tracer)
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert metadata and complete and instants
        # Metadata first, then events sorted by timestamp.
        assert events[:len(metadata)] == metadata
        timestamps = [(e["ts"], e["tid"]) for e in events[len(metadata):]]
        assert timestamps == sorted(timestamps)
        (alpha,) = [e for e in complete if e["name"] == "phase.alpha"]
        assert alpha["ts"] == 0.0          # µs
        assert alpha["dur"] == 2000.0      # 2 ms
        assert alpha["cat"] == "phase"
        assert alpha["pid"] == 1

    def test_write_chrome_trace(self, tmp_path):
        tracer = self._traced_run()
        out = tmp_path / "trace.json"
        count = write_chrome_trace(tracer, out)
        document = json.loads(out.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert len(document["traceEvents"]) == count

    def test_phase_attribution_sums_phase_spans(self):
        tracer = self._traced_run()
        totals = phase_attribution(tracer)
        assert totals == {"alpha": 2.0, "beta": 1.0}
        table = render_attribution(totals, count=1)
        assert "alpha" in table and "beta" in table and "total" in table

    def test_span_summary(self):
        tracer = self._traced_run()
        summary = span_summary(tracer)
        assert list(summary) == sorted(summary)
        assert summary["phase.alpha"]["count"] == 1
        assert summary["phase.alpha"]["total_ms"] == 2.0
        assert summary["marker"]["max_ms"] == 0.0
        assert "marker" in render_span_summary(tracer)


# ---------------------------------------------------------------------------
# Host integration + determinism acceptance
# ---------------------------------------------------------------------------
def _boot_storm(variant, tracing, count=3, registry=None):
    sim = Simulator()
    trace = EventTrace().attach(sim)
    tracer = Tracer(metrics=registry).attach(sim) if tracing else None
    host = Host(variant=variant, seed=0, sim=sim, pool_target=count + 8,
                shell_memory_kb=DAYTIME.memory_kb)
    host.warmup(20.0 * (count + 8))
    records = [host.create_vm(DAYTIME) for _ in range(count)]
    return host, records, trace, tracer


#: ``(spans, Tracer.digest())`` of a traced :func:`_boot_storm`, per
#: variant: where every XenStore op span opens, closes and nests.
SPAN_DIGEST_PINS = {
    "xl": (379, "5b7ea6393592981b8a6340f0f3848788"
                "6f09e95bf07f2d792123fb33efb5afbd"),
    "chaos+xs": (142, "7e65d5d18d34417f334bf805eb881ef0"
                      "55262fa77242adc613f237121ec10604"),
    "chaos+xs+split": (196, "1952df6aee7082a513109e1e265cf590"
                            "17d434df4ececd36046a6ba4eae9e45c"),
}


class TestHostIntegration:
    @pytest.mark.parametrize("variant", sorted(SPAN_DIGEST_PINS))
    def test_span_digest_pinned(self, variant):
        _host, _records, _trace, tracer = _boot_storm(variant, tracing=True)
        assert (len(tracer.spans), tracer.digest()) == \
            SPAN_DIGEST_PINS[variant]

    def test_fig05_attribution_matches_recorder_exactly(self):
        """The acceptance criterion: span-derived per-phase totals equal
        the PhaseRecorder's accumulated series with exact float
        equality (same sim.now samples, same summation order)."""
        _host, records, _trace, tracer = _boot_storm("xl", tracing=True)
        expected = {phase: sum(r.phases[phase] for r in records)
                    for phase in PHASES}
        assert phase_attribution(tracer) == expected

    @pytest.mark.parametrize("variant", ["xl", "chaos+xs", "lightvm"])
    def test_tracing_never_perturbs_the_timeline(self, variant):
        """EventTrace replay digests must be byte-identical whether or
        not a tracer is attached: the tracer is timeline-read-only."""
        _h1, _r1, off, _ = _boot_storm(variant, tracing=False)
        _h2, _r2, on, _ = _boot_storm(variant, tracing=True)
        assert off.digest() == on.digest()

    def test_tracer_digest_is_replay_stable(self):
        _h1, _r1, _t1, first = _boot_storm("lightvm", tracing=True)
        _h2, _r2, _t2, second = _boot_storm("lightvm", tracing=True)
        assert first.digest() == second.digest()
        assert first.spans  # non-trivial timeline

    def test_no_spans_leak_open_after_a_storm(self):
        _host, _records, _trace, tracer = _boot_storm("xl", tracing=True)
        assert tracer.open_spans() == []

    def test_hypercall_instants_match_hypervisor_counters(self):
        host, _records, _trace, tracer = _boot_storm("chaos+noxs",
                                                     tracing=True)
        recorded = sum(1 for s in tracer.spans
                       if s.name.startswith("hypercall."))
        assert recorded == sum(host.hypervisor.hypercall_counts.values())

    def test_xenstore_ops_produce_spans(self):
        host, _records, _trace, tracer = _boot_storm("xl", tracing=True)
        assert tracer.by_name("xenstore.txn_commit")
        assert tracer.by_name("xl.create_vm")
        assert host.xenstore.stats["ops"] > 0

    def test_span_histograms_populated_during_storm(self):
        registry = MetricsRegistry()
        _host, _records, _trace, _tracer = _boot_storm(
            "lightvm", tracing=True, registry=registry)
        claim = registry.get("span/shellpool.claim")
        assert claim is not None and claim.count >= 3
