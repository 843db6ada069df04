"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly-to-moon"])

    def test_create_defaults(self):
        args = build_parser().parse_args(["create"])
        assert args.variant == "lightvm"
        assert args.image == "daytime"
        assert args.count == 10

    def test_invalid_variant_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["create", "--variant", "kvm"])

    def test_faults_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.variant == "lightvm"
        assert args.rate == 0.02
        assert args.points == "*"

    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == []

    def test_sanitize_defaults(self):
        args = build_parser().parse_args(["sanitize"])
        assert args.variant == "lightvm"
        assert args.rate == 0.0
        assert args.runs == 2

    def test_sanitize_rejects_single_run(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sanitize", "--runs", "0"])

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.variant == "lightvm"
        assert args.count == 10
        assert args.out is None

    def test_metrics_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.variant == "lightvm"
        assert args.json is False


class TestCommands:
    def test_images_lists_catalogue(self, capsys):
        assert main(["images"]) == 0
        out = capsys.readouterr().out
        assert "daytime" in out
        assert "debian" in out

    def test_create_prints_summary(self, capsys):
        assert main(["create", "--count", "3", "--variant",
                     "chaos+noxs"]) == 0
        out = capsys.readouterr().out
        assert "booted 3 x daytime" in out
        assert "mean=" in out

    def test_faults_storm_reports_clean_invariants(self, capsys):
        assert main(["faults", "--count", "3", "--variant", "xl",
                     "--rate", "0.1", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "fault storm: 3 x daytime under xl" in out
        assert "fault point" in out
        assert "invariants: clean" in out

    def test_faults_scoped_to_one_point(self, capsys):
        assert main(["faults", "--count", "2", "--variant", "chaos+xs",
                     "--rate", "1.0", "--points", "hotplug.*",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "hotplug.xendevd" in out
        # Occurrences are counted everywhere, but only the scoped point
        # actually injects faults.
        for line in out.splitlines():
            if line.startswith("xenstore."):
                assert line.split()[-1] == "0"
            if line.startswith("hotplug.xendevd"):
                assert line.split()[-1] != "0"

    def test_checkpoint_round_trips(self, capsys):
        assert main(["checkpoint", "--cycles", "2"]) == 0
        out = capsys.readouterr().out
        assert "save:" in out and "restore:" in out

    def test_tinyx_build(self, capsys):
        assert main(["tinyx-build", "micropython", "--no-trim"]) == 0
        out = capsys.readouterr().out
        assert "packages:" in out
        assert "image:" in out

    def test_usecase_tls(self, capsys):
        assert main(["usecase", "tls"]) == 0
        out = capsys.readouterr().out
        assert "tinyx" in out
        assert "unikernel" in out

    def test_usecase_jit_small(self, capsys):
        assert main(["usecase", "jit", "--scale", "30"]) == 0
        assert "median" in capsys.readouterr().out

    def test_usecase_compute_small(self, capsys):
        assert main(["usecase", "compute", "--scale", "20"]) == 0
        assert "create mean" in capsys.readouterr().out

    def test_usecase_firewalls_small(self, capsys):
        assert main(["usecase", "firewalls", "--scale", "20"]) == 0
        assert "users" in capsys.readouterr().out

    def test_syscalls_dataset(self, capsys):
        assert main(["syscalls"]) == 0
        out = capsys.readouterr().out
        assert "2002" in out

    def test_deterministic_output(self, capsys):
        main(["create", "--count", "3", "--seed", "5"])
        first = capsys.readouterr().out
        main(["create", "--count", "3", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_trace_reports_attribution(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        assert main(["trace", "--count", "3", "--variant", "xl",
                     "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "traced 3 x daytime under xl" in out
        assert "phase attribution" in out
        assert "xenstore" in out
        assert "wrote" in out
        document = json.loads(out_file.read_text())
        assert document["traceEvents"]

    def test_metrics_renders_registry(self, capsys):
        assert main(["metrics", "--count", "3",
                     "--variant", "chaos+noxs"]) == 0
        out = capsys.readouterr().out
        assert "hypervisor/hypercalls/domctl_create" in out
        assert "span/noxs.ioctl_create" in out

    def test_metrics_json_mode(self, capsys):
        assert main(["metrics", "--count", "3", "--variant", "lightvm",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["memory/guest_kb"]["kind"] == "gauge"
        assert payload["shellpool/target"]["value"] >= 3

    def test_trace_deterministic_output(self, capsys):
        main(["trace", "--count", "3", "--seed", "5"])
        first = capsys.readouterr().out
        main(["trace", "--count", "3", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second


class TestLintCommand:
    def test_installed_package_lints_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_fail_the_run(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nfor x in {1, 2}:\n    pass\n")
        assert main(["lint", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out
        assert "RPR003" in out
        assert "2 finding(s)" in out

    def test_justified_suppression_passes(self, tmp_path, capsys):
        clean = tmp_path / "suppressed.py"
        clean.write_text(
            "import random  # noqa: RPR001 -- fixture randomness\n")
        assert main(["lint", str(clean)]) == 0

    def test_unjustified_suppression_fails(self, tmp_path, capsys):
        bad = tmp_path / "bare.py"
        bad.write_text("import random  # noqa: RPR001\n")
        assert main(["lint", str(bad)]) == 1
        assert "RPR000" in capsys.readouterr().out

    def test_missing_path_is_a_clean_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "gone.py")]) == 2
        err = capsys.readouterr().err
        assert "no such file" in err
        assert "Traceback" not in err


class TestSanitizeCommand:
    def test_fault_free_storm_is_replay_identical(self, capsys):
        assert main(["sanitize", "--count", "3", "--variant",
                     "chaos+noxs"]) == 0
        out = capsys.readouterr().out
        assert "replay: IDENTICAL" in out
        assert "sanitizers: clean" in out
        digests = [line.split()[-1] for line in out.splitlines()
                   if line.startswith("run ")]
        assert len(digests) == 2 and len(set(digests)) == 1

    def test_faulted_storm_is_replay_identical(self, capsys):
        assert main(["sanitize", "--count", "3", "--variant", "xl",
                     "--rate", "0.1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "replay: IDENTICAL" in out

    def test_three_way_replay(self, capsys):
        assert main(["sanitize", "--count", "2", "--runs", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("digest") == 3


class TestUnikernelBuildCommand:
    def test_single_app_with_link_map(self, capsys):
        assert main(["unikernel-build", "daytime"]) == 0
        out = capsys.readouterr().out
        assert "unikernel-daytime" in out
        assert "link map:" in out
        assert "lwip" in out

    def test_all_apps(self, capsys):
        assert main(["unikernel-build"]) == 0
        out = capsys.readouterr().out
        assert "unikernel-noop" in out
        assert "unikernel-clickos-firewall" in out


class TestBenchCommands:
    @staticmethod
    def _write(directory, figure, wall_clock_s):
        (directory / ("BENCH_%s.json" % figure)).write_text(json.dumps(
            {"figure": figure, "title": figure, "scale": "quick",
             "wall_clock_s": wall_clock_s, "data": {}}))

    def test_bench_trend_prints_deltas(self, tmp_path, capsys):
        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        old_dir.mkdir()
        new_dir.mkdir()
        self._write(old_dir, "fig10", 4.0)
        self._write(new_dir, "fig10", 2.0)
        assert main(["bench-trend", str(old_dir), str(new_dir)]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out
        assert "-50.0%" in out

    def test_bench_trend_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["bench-trend", str(tmp_path / "a"),
                     str(tmp_path / "b")]) == 2
        assert "no such" in capsys.readouterr().err.lower()

    def test_bench_gate_pass_and_fail(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            {"metric": "timer_wheel", "required_speedup": 2.0,
             "events_per_sec": 100, "tolerance": 0.5}))

        def result_file(speedup):
            path = tmp_path / "BENCH_engine.json"
            path.write_text(json.dumps(
                {"figure": "engine", "data": {"timer_wheel": {
                    "opt_events_per_sec": int(100 * speedup),
                    "ref_events_per_sec": 100, "speedup": speedup}}}))
            return path

        good = result_file(2.5)
        assert main(["bench-gate", "--result", str(good),
                     "--baseline", str(baseline)]) == 0
        assert "PASS" in capsys.readouterr().out

        bad = result_file(1.2)
        assert main(["bench-gate", "--result", str(bad),
                     "--baseline", str(baseline)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bench_gate_missing_result_exits_2(self, tmp_path, capsys):
        assert main(["bench-gate", "--result",
                     str(tmp_path / "missing.json")]) == 2
        assert capsys.readouterr().err

    def test_bench_gate_figures_only(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            {"figures": {"fig10": {"scale": "quick", "require": {
                "lightvm_count": {"min": 8000}}}}}))
        figures = tmp_path / "results"
        figures.mkdir()

        def fig10(count):
            (figures / "BENCH_fig10.json").write_text(json.dumps(
                {"figure": "fig10", "scale": "quick",
                 "data": {"lightvm_count": count}}))

        # No --result file: the engine check is skipped, figures gate.
        fig10(8000)
        assert main(["bench-gate", "--result",
                     str(tmp_path / "missing.json"),
                     "--baseline", str(baseline),
                     "--figures", str(figures)]) == 0
        out = capsys.readouterr().out
        assert "skipping the engine check" in out
        assert "PASS" in out

        fig10(2000)
        assert main(["bench-gate", "--result",
                     str(tmp_path / "missing.json"),
                     "--baseline", str(baseline),
                     "--figures", str(figures)]) == 1
        assert "below the required minimum" in capsys.readouterr().out


class TestRunCommand:
    STORM = str(pathlib.Path(__file__).resolve().parent.parent
                / "examples" / "cluster_storm.yaml")

    def test_cluster_storm_workers_pick_the_backend(self, tmp_path,
                                                    monkeypatch, capsys):
        from repro.cluster.cluster import Cluster
        backends = []
        run = Cluster.run

        def spy(cluster):
            backends.append(cluster.backend_name)
            return run(cluster)
        monkeypatch.setattr(Cluster, "run", spy)
        digests = []
        for workers in ("1", "4"):
            out = tmp_path / ("storm-%s.json" % workers)
            assert main(["run", self.STORM, "--seed", "1", "--workers",
                         workers, "--out", str(out)]) == 0
            digests.append(json.loads(out.read_text())["manifest_digest"])
        assert backends == ["inline", "procs"]
        assert digests[0] == digests[1]
        assert main(["run", "--replay", str(out)]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_malformed_manifest_replay_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"version": 1}')
        assert main(["run", "--replay", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert "'spec'" in err
        assert "Traceback" not in err
