"""Tests for the command-line interface."""

import argparse
import json
import pathlib
import re

import pytest

from repro.cli import build_parser, main

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _spec(tmp_path, host="lightvm@1", guests=3, faults="none@1",
          guest="daytime@1", traffic="boot-storm@1"):
    """A single-host storm spec file under ``tmp_path``."""
    path = tmp_path / "storm.json"
    path.write_text(json.dumps({
        "name": "cli-storm", "mode": "host", "host": host, "guest": guest,
        "traffic": traffic, "faults": faults, "guests": guests}))
    return str(path)


def _without_wall_time(out):
    """``run`` output minus the one wall-clock figure in its summary."""
    return re.sub(r"\d+\.\d+ s wall", "wall", out)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly-to-moon"])

    def test_subcommands(self):
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert sorted(subparsers.choices) == [
            "bench-gate", "bench-trend", "chaos", "components", "images",
            "lint", "races", "run", "syscalls", "tinyx-build",
            "unikernel-build", "usecase"]

    def test_create_defaults(self):
        args = build_parser().parse_args(["run", "storm.yaml"])
        assert args.spec == "storm.yaml"
        assert args.seed == 0
        assert (args.sanitize, args.trace, args.metrics) == (False, None,
                                                             False)

    def test_invalid_variant_rejected(self, tmp_path, capsys):
        spec = _spec(tmp_path, host={"ref": "lightvm@1", "variant": "kvm"})
        assert main(["run", spec]) == 2
        err = capsys.readouterr().err
        assert "'variant'" in err
        assert "Traceback" not in err

    def test_faults_is_an_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["faults"])
        assert exit_.value.code == 2
        assert "invalid choice: 'faults'" in capsys.readouterr().err

    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == []

    def test_sanitize_defaults(self):
        args = build_parser().parse_args(["run", "storm.yaml",
                                          "--sanitize"])
        assert args.seed == 0
        assert args.sanitize is True

    def test_trace_defaults(self):
        args = build_parser().parse_args(["run", "storm.yaml", "--trace",
                                          "t.json"])
        assert args.seed == 0
        assert args.trace == "t.json"
        assert args.out is None

    def test_metrics_defaults(self):
        args = build_parser().parse_args(["run", "storm.yaml",
                                          "--metrics"])
        assert args.seed == 0
        assert args.metrics is True
        assert args.json is False


class TestCommands:
    def test_images_lists_catalogue(self, capsys):
        assert main(["images"]) == 0
        out = capsys.readouterr().out
        assert "daytime" in out
        assert "debian" in out

    def test_create_prints_summary(self, tmp_path, capsys):
        assert main(["run", _spec(tmp_path, host="chaos+noxs@1")]) == 0
        out = capsys.readouterr().out
        assert re.search(r"booted +3\.00", out)
        assert re.search(r"create_failed +0\.00", out)
        # The per-guest table follows the summary.
        assert out.index("manifest digest") < out.index("create(ms)")
        assert "mean=" in out

    def test_create_with_nothing_booted_exits_0(self, tmp_path, capsys):
        spec = _spec(tmp_path, host="chaos+xs@1", guests=2,
                     faults={"ref": "light@1", "rate": 1.0,
                             "points": "hotplug.*"})
        assert main(["run", spec, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"booted +0\.00", out)
        assert re.search(r"create_failed +2\.00", out)
        assert "mean=" not in out

    def test_faults_storm_reports_clean_invariants(self, tmp_path, capsys):
        spec = _spec(tmp_path, host="xl@1",
                     faults={"ref": "light@1", "rate": 0.1})
        assert main(["run", spec, "--seed", "2", "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "sanitizers: clean" in out
        assert "replay: IDENTICAL" in out

    def test_faults_scoped_to_one_point(self, tmp_path, capsys):
        spec = _spec(tmp_path, host="chaos+xs@1", guests=2,
                     faults={"ref": "light@1", "rate": 1.0,
                             "points": "hotplug.*"})
        assert main(["run", spec, "--seed", "1", "--metrics",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["metrics"]
        # Occurrences are counted everywhere, but only the scoped point
        # actually injects faults.
        assert payload["faults/hotplug.xendevd/injected"]["value"] > 0
        xenstore = [name for name in payload
                    if name.startswith("faults/xenstore.")
                    and name.endswith("/injected")]
        assert xenstore
        assert all(payload[name]["value"] == 0 for name in xenstore)

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

    def test_deterministic_output(self, tmp_path, capsys):
        spec = _spec(tmp_path)
        assert main(["run", spec, "--seed", "5"]) == 0
        first = capsys.readouterr().out
        main(["run", spec, "--seed", "5"])
        second = capsys.readouterr().out
        assert _without_wall_time(first) == _without_wall_time(second)
        assert "create: mean=" in first

    def test_trace_reports_attribution(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        assert main(["run", _spec(tmp_path, host="xl@1"),
                     "--trace", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "traced 3 x daytime under xl" in out
        assert "phase attribution" in out
        assert "xenstore" in out
        assert "wrote" in out
        document = json.loads(out_file.read_text())
        assert document["traceEvents"]

    def test_metrics_renders_registry(self, tmp_path, capsys):
        assert main(["run", _spec(tmp_path, host="chaos+noxs@1"),
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "hypervisor/hypercalls/domctl_create" in out
        assert "span/noxs.ioctl_create" in out

    def test_metrics_json_mode(self, tmp_path, capsys):
        assert main(["run", _spec(tmp_path), "--metrics", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["metrics"]
        assert payload["memory/guest_kb"]["kind"] == "gauge"
        assert payload["shellpool/target"]["value"] >= 3

    def test_trace_deterministic_output(self, tmp_path, capsys):
        spec = _spec(tmp_path)
        trace = str(tmp_path / "trace.json")
        main(["run", spec, "--seed", "5", "--trace", trace])
        first = capsys.readouterr().out
        main(["run", spec, "--seed", "5", "--trace", trace])
        second = capsys.readouterr().out
        assert _without_wall_time(first) == _without_wall_time(second)

    @pytest.mark.parametrize("command", ["sanitize", "trace", "metrics"])
    @pytest.mark.parametrize("kind, field", [("cluster", "mode"),
                                             ("docker", "guest")])
    def test_non_vm_host_specs_exit_2(self, tmp_path, capsys, command,
                                      kind, field):
        spec = (str(EXAMPLES / "cluster_storm.yaml") if kind == "cluster"
                else _spec(tmp_path, guest="docker@1"))
        flags = (["--trace", str(tmp_path / "t.json")]
                 if command == "trace" else ["--" + command])
        assert main(["run", spec] + flags) == 2
        err = capsys.readouterr().err
        assert "field %r" % field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag", [
        ("run", "--out"), ("run", "--bench-out"), ("run", "--trace"),
        ("chaos", "--out")])
    def test_missing_output_directory_exits_2_before_running(
            self, tmp_path, capsys, command, flag):
        spec = (str(EXAMPLES / "chaos_storm.yaml") if command == "chaos"
                else _spec(tmp_path))
        missing = str(tmp_path / "missing" / "out.json")
        with pytest.raises(SystemExit) as exit_:
            main([command, spec, "--seeds", "0..0", flag, missing])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert "argument %s" % flag in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""  # nothing ran

    def test_container_spec_runs_without_guest_table(self, tmp_path,
                                                     capsys):
        # Without an observer flag a container storm is an ordinary
        # one-seed sweep; only a VM storm has a per-guest table.
        assert main(["run", _spec(tmp_path, guest="docker@1")]) == 0
        out = capsys.readouterr().out
        assert re.search(r"started +3\.00", out)
        assert "create(ms)" not in out


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
    def test_fault_free_storm_is_replay_identical(self, tmp_path, capsys):
        assert main(["run", _spec(tmp_path, host="chaos+noxs@1"),
                     "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "replay: IDENTICAL" in out
        assert "sanitizers: clean" in out
        digests = [line.split()[-1] for line in out.splitlines()
                   if line.startswith("run ")]
        assert len(digests) == 2 and len(set(digests)) == 1

    def test_faulted_storm_is_replay_identical(self, tmp_path, capsys):
        spec = _spec(tmp_path, host="xl@1",
                     faults={"ref": "light@1", "rate": 0.1})
        assert main(["run", spec, "--seed", "3", "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "replay: IDENTICAL" in out

    def test_leaking_storm_exits_1(self, tmp_path, capsys):
        # A noop guest churned on chaos's noxs path leaks one prepared
        # vif per guest (tests/test_faults.py's strict xfail).
        spec = _spec(tmp_path, host="lightvm-64core@1", guest="noop@1",
                     guests=16, traffic="churn@1")
        assert main(["run", spec, "--sanitize"]) == 1
        out = capsys.readouterr().out
        assert "  violation: " in out
        assert "replay: IDENTICAL" in out

    def test_json_mode_reports_on_stderr(self, tmp_path, capsys):
        assert main(["run", _spec(tmp_path), "--sanitize", "--json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["runs"]
        assert "replay: IDENTICAL" in captured.err


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

    def test_one_seed_runs_in_process_with_the_sweep_manifest(
            self, tmp_path):
        from repro.stdlib import load_spec, replay_manifest, run_sweep
        spec = _spec(tmp_path, host="chaos+xs@1",
                     faults={"ref": "light@1", "rate": 0.1})
        out = tmp_path / "manifest.json"
        assert main(["run", spec, "--seed", "3", "--sanitize", "--metrics",
                     "--trace", str(tmp_path / "t.json"),
                     "--out", str(out)]) == 0
        manifest = json.loads(out.read_text())
        assert manifest.pop("metrics")["memory/guest_kb"]["kind"] == "gauge"
        assert manifest == run_sweep(load_spec(spec), [3])
        assert replay_manifest(dict(manifest, metrics={}))[0]

    def test_observers_take_one_seed(self, tmp_path, capsys):
        assert main(["run", _spec(tmp_path), "--seeds", "0..1",
                     "--metrics"]) == 2
        err = capsys.readouterr().err
        assert "field 'seeds'" in err
        assert "Traceback" not in err

    def test_replay_takes_no_observer(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--replay", str(tmp_path / "m.json"),
                  "--sanitize"])
        assert exit_.value.code == 2
        assert "--sanitize" in capsys.readouterr().err

    def test_malformed_manifest_replay_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"version": 1}')
        assert main(["run", "--replay", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert "'spec'" in err
        assert "Traceback" not in err
