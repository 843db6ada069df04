"""run_scenario: digests, series, and identity with the hand-coded paths."""

import pathlib

import pytest

from repro.stdlib import (ScenarioSpec, SpecTypeError, load_spec, preset,
                          run_scenario, storm_spec)

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestVmStorm:
    def test_storm_counts_and_series(self):
        result = run_scenario(storm_spec("s", "lightvm@1", "daytime@1", 6))
        assert result.mode == "host"
        assert result.stats["booted"] == 6.0
        assert len(result.series["create_ms"]) == 6
        assert len(result.series["boot_ms"]) == 6
        assert result.events > 0
        assert result.host is None

    def test_returns_per_vm_timings(self):
        result = run_scenario(storm_spec("s", "lightvm@1", "daytime@1", 20),
                              keep_host=True)
        assert len(result.series["create_ms"]) == 20
        assert len(result.series["boot_ms"]) == 20
        assert result.host.running_guests == 20
        assert all(t > 0 for t in result.series["total_ms"])

    def test_cold_start_slower_for_split(self):
        warm = run_scenario(storm_spec("s", "lightvm@1", "daytime@1", 5))
        cold = run_scenario(storm_spec(
            "s", {"ref": "lightvm@1", "warmup_ms_per_shell": 0},
            "daytime@1", 5))
        assert cold.series["create_ms"][0] > warm.series["create_ms"][0]

    def test_hotplug_retry_exhaustion_is_absorbed(self):
        # Every xendevd run fails, so each create runs out of hotplug
        # retries: a typed RetryExhausted the storm counts, not a crash.
        spec = storm_spec("s", "chaos+xs@1", "daytime@1", 2,
                          faults={"ref": "light@1", "rate": 1.0,
                                  "points": "hotplug.*"})
        result = run_scenario(spec, seed=1)
        assert result.stats["create_failed"] == 2.0
        assert result.stats["booted"] == 0.0

    def test_keep_host_returns_live_host(self):
        result = run_scenario(storm_spec("s", "lightvm@1", "daytime@1", 4),
                              keep_host=True)
        assert result.host is not None
        assert result.host.running_guests == 4

    def test_digest_is_replay_stable(self):
        spec = storm_spec("s", "chaos+xs@1", "daytime@1", 5)
        assert run_scenario(spec, seed=3).digest == \
            run_scenario(spec, seed=3).digest

    def test_faulted_storm_absorbs_failures(self):
        spec = storm_spec("s", "lightvm@1", "daytime@1", 12,
                          faults={"ref": "heavy@1"})
        result = run_scenario(spec, seed=1)
        assert result.stats["booted"] + result.stats["create_failed"] \
            == 12.0

    def test_recovery_profile_attaches_recovery_and_audits(self):
        audited = run_scenario(
            storm_spec("s", "chaos+xs@1", "daytime@1", 4,
                       faults="heavy@1"), keep_host=True)
        assert audited.host.recovery is not None
        assert audited.record()["violations"] == audited.violations == []
        plain = run_scenario(storm_spec("s", "chaos+xs@1", "daytime@1", 4,
                                        faults="light@1"), keep_host=True)
        assert plain.host.recovery is None
        assert plain.violations is None

    def test_untyped_escape_is_a_violation_only_when_audited(
            self, monkeypatch):
        from repro.core.host import Host

        def boom(self, image):
            raise RuntimeError("boom")
        monkeypatch.setattr(Host, "create_vm", boom)
        audited = run_scenario(storm_spec(
            "s", "chaos+xs@1", "daytime@1", 2,
            faults={"ref": "none@1", "recovery": True}))
        assert audited.violations == [
            "unhandled error escaped the scenario: RuntimeError: boom"] * 2
        with pytest.raises(RuntimeError):
            run_scenario(storm_spec("s", "chaos+xs@1", "daytime@1", 2))

    def test_churn_keeps_working_set_resident(self):
        spec = storm_spec("s", "lightvm@1", "daytime@1", 12,
                          traffic={"ref": "churn@1",
                                   "churn_working_set": 4})
        result = run_scenario(spec, keep_host=True)
        assert result.stats["booted"] == 12.0
        assert result.host.running_guests <= 5

    def test_bursty_pattern_advances_between_bursts(self):
        base = storm_spec("s", "lightvm@1", "daytime@1", 8)
        bursty = storm_spec("s", "lightvm@1", "daytime@1", 8,
                            traffic={"ref": "bursty@1", "burst_size": 4,
                                     "burst_gap_ms": 100.0})
        assert run_scenario(bursty).sim_ms > run_scenario(base).sim_ms


def _tracer(sim):
    from repro.trace import MetricsRegistry, Tracer
    return Tracer(metrics=MetricsRegistry(sim=sim)).attach(sim)


def _sanitizer(sim):
    from repro.analysis import Sanitizer
    return Sanitizer().attach(sim)


def _witness(sim):
    from repro.analysis import RaceWitness
    return RaceWitness().attach(sim)


class TestObservedRuns:
    """A caller-supplied ``sim`` carries observers; none moves the
    digest."""

    @pytest.mark.parametrize("host", ["xl@1", "chaos+xs@1", "lightvm@1"])
    @pytest.mark.parametrize("attach", [_tracer, _sanitizer, _witness],
                             ids=["tracer", "sanitizer", "witness"])
    def test_observers_leave_the_digest_unchanged(self, host, attach):
        from repro.sim import Simulator
        spec = storm_spec("s", host, "daytime@1", 12)
        sim = Simulator()
        attach(sim)
        observed = run_scenario(spec, 0, sim=sim)
        assert sim.trace.digest() == observed.digest  # ran on ``sim``
        plain = run_scenario(spec, 0)
        assert observed.digest == plain.digest
        assert observed.events == plain.events
        assert observed.series == plain.series

    @pytest.mark.parametrize("spec, field", [
        (preset("boot-storm", hosts=2, guests=2), "mode"),
        (storm_spec("s", "xl@1", "docker@1", 2), "guest"),
    ], ids=["cluster", "docker"])
    def test_observed_run_needs_a_single_host_vm_spec(self, spec, field):
        from repro.sim import Simulator
        with pytest.raises(SpecTypeError) as err:
            run_scenario(spec, 0, sim=Simulator())
        assert err.value.field == field

    def test_sim_with_an_event_trace_is_rejected(self):
        from repro.analysis import EventTrace
        from repro.sim import Simulator
        sim = Simulator()
        EventTrace().attach(sim)
        with pytest.raises(ValueError, match="event trace"):
            run_scenario(storm_spec("s", "xl@1", "daytime@1", 2), 0,
                         sim=sim)


class TestBaselineStorms:
    def test_container_storm_series(self):
        result = run_scenario(storm_spec("d", "xl@1", "docker@1", 10))
        assert result.stats["started"] == 10.0
        assert result.stats["died_at"] == -1.0
        assert len(result.series["start_ms"]) == 10

    def test_process_storm_series(self):
        result = run_scenario(storm_spec("p", "xl@1", "process@1", 10))
        assert result.stats["started"] == 10.0
        assert len(result.series["start_ms"]) == 10


class TestClusterMode:
    def test_cluster_preset_runs_and_digests(self):
        result = run_scenario(preset("boot-storm", hosts=2, guests=8),
                              seed=0)
        assert result.mode == "cluster"
        assert result.stats["booted"] == 8
        assert result.cluster is not None
        assert result.digest == result.cluster.digest

    def test_cluster_digest_matches_hand_coded_path(self):
        from repro.cluster import Cluster
        spec = preset("boot-storm", hosts=2, guests=8)
        direct = Cluster(spec.to_cluster_config(5), backend="inline").run()
        assert run_scenario(spec, seed=5).digest == direct.digest

    def test_workers_put_hosts_on_the_procs_backend(self):
        spec = preset("boot-storm", hosts=2, guests=8)
        inline = run_scenario(spec, seed=5)
        procs = run_scenario(spec, seed=5, workers=2)
        assert (inline.cluster.backend, procs.cluster.backend) == \
            ("inline", "procs")
        assert procs.cluster.workers == 2
        assert procs.record() == inline.record()

    def test_spec_accepts_every_host_spec_in_the_table(self):
        spec = preset("boot-storm", hosts=2, guests=2,
                      host={"ref": "lightvm@1", "spec": "xeon-e5-2690"})
        assert run_scenario(spec).stats["booted"] == 2


class TestHandCodedIdentity:
    """The acceptance pin: the committed fig10 scenario file reproduces
    the hand-coded benchmark storm digest byte-identically at the full
    n=8000 paper scale."""

    def test_fig10_yaml_matches_hand_coded_storm_at_n8000(self):
        from repro.analysis.sanitize import EventTrace
        from repro.core import AMD_OPTERON_64, Host
        from repro.guests import NOOP_UNIKERNEL
        from repro.sim import Simulator

        spec = load_spec(ROOT / "examples" / "fig10_density.yaml")
        assert spec.guests == 8000
        via_spec = run_scenario(spec, seed=0)

        # The benchmark's storm, verbatim (bench_fig10_density.py before
        # the stdlib migration), with a digest-neutral trace attached.
        sim = Simulator()
        trace = EventTrace().attach(sim)
        host = Host(spec=AMD_OPTERON_64, variant="lightvm", sim=sim,
                    pool_target=spec.guests + 64,
                    shell_memory_kb=NOOP_UNIKERNEL.memory_kb)
        host.warmup(12.0 * (spec.guests + 64))
        totals = [host.create_vm(NOOP_UNIKERNEL).total_ms
                  for _ in range(spec.guests)]

        assert via_spec.digest == trace.digest()
        assert via_spec.events == trace.events
        assert via_spec.series["total_ms"] == totals

    def test_fig09_spec_matches_hand_coded_storm(self):
        from repro.analysis.sanitize import EventTrace
        from repro.core import Host
        from repro.guests import DAYTIME_UNIKERNEL
        from repro.sim import Simulator

        count = 40
        via_spec = run_scenario(
            storm_spec("fig09-xl", "xl@1", "daytime@1", count))

        sim = Simulator()
        trace = EventTrace().attach(sim)
        host = Host(variant="xl", sim=sim, pool_target=count + 64,
                    shell_memory_kb=DAYTIME_UNIKERNEL.memory_kb)
        host.warmup(20.0 * (count + 64))
        creates = [host.create_vm(DAYTIME_UNIKERNEL).create_ms
                   for _ in range(count)]

        assert via_spec.digest == trace.digest()
        assert via_spec.series["create_ms"] == creates

    def test_fig04_unpooled_spec_matches_bare_host(self):
        from repro.analysis.sanitize import EventTrace
        from repro.core import Host
        from repro.guests import DAYTIME_UNIKERNEL
        from repro.sim import Simulator

        via_spec = run_scenario(
            storm_spec("fig04", {"ref": "xl@1", "pooled": False},
                       "daytime@1", 20))

        sim = Simulator()
        trace = EventTrace().attach(sim)
        host = Host(variant="xl", sim=sim)
        boots = [host.create_vm(DAYTIME_UNIKERNEL).boot_ms
                 for _ in range(20)]

        assert via_spec.digest == trace.digest()
        assert via_spec.series["boot_ms"] == boots


class TestRunnerErrors:
    def test_unknown_runtime_is_an_error(self):
        import dataclasses

        spec = storm_spec("s", "xl@1", "docker@1", 2)
        weird = dataclasses.replace(
            spec, guest=dataclasses.replace(spec.guest, runtime="jar"))
        with pytest.raises(ValueError):
            run_scenario(weird)

    def test_record_is_json_scalars_only(self):
        import json
        record = run_scenario(
            storm_spec("s", "lightvm@1", "daytime@1", 3)).record()
        json.dumps(record)  # must not raise
        assert set(record) == {"seed", "digest", "events", "sim_ms",
                               "stats"}

    def test_spec_source_survives_into_scenario_spec(self):
        spec = storm_spec("s", "lightvm@1", "daytime@1", 3)
        assert ScenarioSpec.from_dict(spec.source).digest() == \
            spec.digest()
