"""The sweep runner: worker-count invariance, manifest purity, replay."""

import json

import pytest

from repro.stdlib import (SweepError, bench_payload, preset,
                          replay_manifest, run_sweep, storm_spec)


def _spec():
    # A faulted storm so per-seed digests actually differ.
    return storm_spec("sweep-smoke", "lightvm@1", "daytime@1", 6,
                      faults={"ref": "light@1"})


class TestWorkerInvariance:
    def test_manifest_identical_across_workers_1_2_4(self):
        spec = _spec()
        seeds = list(range(8))
        manifests = [run_sweep(spec, seeds, workers=workers)
                     for workers in (1, 2, 4)]
        reference = manifests[0]
        for manifest in manifests[1:]:
            assert manifest["manifest_digest"] == \
                reference["manifest_digest"]
            assert manifest["runs"] == reference["runs"]
            assert manifest["stats"] == reference["stats"]

    def test_seed_order_does_not_matter(self):
        spec = _spec()
        forward = run_sweep(spec, [0, 1, 2, 3], workers=1)
        backward = run_sweep(spec, [3, 2, 1, 0], workers=2)
        assert forward["manifest_digest"] == backward["manifest_digest"]

    def test_runs_are_seed_sorted(self):
        manifest = run_sweep(_spec(), [5, 1, 3], workers=2)
        assert [run["seed"] for run in manifest["runs"]] == [1, 3, 5]


class TestManifestShape:
    def test_manifest_is_json_serializable(self):
        manifest = run_sweep(_spec(), [0, 1], workers=1)
        json.dumps(manifest)  # must not raise

    def test_manifest_embeds_round_trippable_spec(self):
        from repro.stdlib import ScenarioSpec
        manifest = run_sweep(_spec(), [0], workers=1)
        again = ScenarioSpec.from_dict(manifest["spec"])
        assert again.digest() == manifest["spec_digest"]

    def test_digest_moves_with_the_seed_set(self):
        spec = _spec()
        assert run_sweep(spec, [0, 1])["manifest_digest"] != \
            run_sweep(spec, [0, 2])["manifest_digest"]

    def test_digest_moves_with_the_spec(self):
        seeds = [0, 1]
        other = storm_spec("sweep-smoke", "lightvm@1", "daytime@1", 7,
                           faults={"ref": "light@1"})
        assert run_sweep(_spec(), seeds)["manifest_digest"] != \
            run_sweep(other, seeds)["manifest_digest"]

    def test_digest_covers_audited_violations_only(self):
        from repro.stdlib import manifest_digest
        record = {"seed": 0, "digest": "ab" * 32}
        clean = manifest_digest("spec", [dict(record, violations=[])])
        # A clean audited run digests as a non-audited one does...
        assert clean == manifest_digest("spec", [record])
        # ...and a violation moves the digest, so a replay that no
        # longer finds it diverges.
        assert manifest_digest(
            "spec", [dict(record, violations=["leak"])]) != clean

    def test_latency_stats_take_worst_seed_counters_accumulate(self):
        manifest = run_sweep(_spec(), [0, 1, 2], workers=1)
        runs = manifest["runs"]
        assert manifest["stats"]["booted"] == \
            sum(run["stats"]["booted"] for run in runs)
        assert manifest["stats"]["create_ms_max"] == \
            max(run["stats"]["create_ms_max"] for run in runs)

    def test_cluster_mode_sweeps_too(self):
        manifest = run_sweep(preset("boot-storm", hosts=2, guests=8),
                             [0, 1], workers=2)
        assert manifest["mode"] == "cluster"
        assert manifest["stats"]["booted"] == 16


class TestSweepErrors:
    def test_empty_seed_set_is_an_error(self):
        with pytest.raises(SweepError):
            run_sweep(_spec(), [])

    def test_duplicate_seeds_are_an_error(self):
        with pytest.raises(SweepError) as err:
            run_sweep(_spec(), [1, 1])
        assert "duplicate" in str(err.value)

    def test_inline_failure_propagates_raw(self):
        import dataclasses
        spec = _spec()
        # Poison the guest component so build() raises: inline sweeps
        # surface the original exception.
        poisoned = dataclasses.replace(
            spec, guest=dataclasses.replace(spec.guest, image="gone"))
        with pytest.raises(KeyError):
            run_sweep(poisoned, [0], workers=1)

    def test_parallel_worker_failure_wraps_in_sweep_error(self):
        import dataclasses
        # Workers rebuild the spec from its source payload; a broken
        # payload makes the child die, and the coordinator must turn
        # that into a loud SweepError carrying the child traceback.
        broken = dataclasses.replace(_spec(), source={"mode": "host"})
        with pytest.raises(SweepError) as err:
            run_sweep(broken, [0, 1], workers=2)
        assert "sweep worker failed" in str(err.value)


class TestReplay:
    def test_replay_reproduces_manifest(self):
        manifest = run_sweep(_spec(), [0, 1, 2], workers=1)
        same, again = replay_manifest(manifest, workers=2)
        assert same
        assert again["manifest_digest"] == manifest["manifest_digest"]

    def test_replay_detects_divergence(self):
        manifest = run_sweep(_spec(), [0, 1], workers=1)
        manifest["manifest_digest"] = "0" * 64
        same, _ = replay_manifest(manifest)
        assert not same

    def test_replay_rejects_unknown_version(self):
        manifest = run_sweep(_spec(), [0], workers=1)
        manifest["version"] = 99
        with pytest.raises(SweepError):
            replay_manifest(manifest)

    @pytest.mark.parametrize("field, value", [
        ("version", None), ("version", "1"), ("version", True),
        ("spec", None), ("spec", "boot-storm"),
        ("seeds", None), ("seeds", "0..3"), ("seeds", []),
        ("seeds", [0, "1"]), ("seeds", [1, 1]),
        ("manifest_digest", None), ("manifest_digest", 7),
    ])
    def test_malformed_manifest_names_the_field(self, field, value):
        manifest = {"version": 1, "spec": dict(_spec().source),
                    "seeds": [0], "manifest_digest": "0" * 64}
        if value is None:
            del manifest[field]
        else:
            manifest[field] = value
        with pytest.raises(SweepError) as err:
            replay_manifest(manifest)
        assert err.value.field == field


class TestBenchPayload:
    def test_payload_has_bench_schema(self):
        manifest = run_sweep(_spec(), [0, 1], workers=1)
        payload = bench_payload(manifest, wall_s=1.5)
        assert payload["figure"] == "sweep-sweep-smoke"
        assert payload["wall_clock_s"] == 1.5
        assert payload["data"]["seeds"] == 2
        assert len(payload["data"]["run_digests"]) == 2

    def test_payload_loads_through_bench_results(self, tmp_path):
        from repro.analysis import load_results
        from repro.stdlib import write_bench_json
        manifest = run_sweep(_spec(), [0], workers=1)
        out = tmp_path / "BENCH_sweep-sweep-smoke.json"
        write_bench_json(manifest, out, wall_s=0.5)
        results = load_results(tmp_path)
        assert "sweep-sweep-smoke" in results

    def test_committed_baseline_matches_the_example_scenario(self):
        # The CI sweep-smoke contract, pinned in-repo as well: the
        # committed baseline digest is exactly what the committed
        # example produces for seeds 0..7 (worker count irrelevant).
        import pathlib

        from repro.stdlib import load_spec
        root = pathlib.Path(__file__).resolve().parent.parent
        baseline = json.loads(
            (root / "benchmarks" / "baseline_sweep.json").read_text())
        spec = load_spec(root / "examples" / "boot_storm.yaml")
        manifest = run_sweep(spec, baseline["seeds"], workers=1)
        assert manifest["spec_digest"] == baseline["spec_digest"]
        assert manifest["manifest_digest"] == \
            baseline["manifest_digest"]
