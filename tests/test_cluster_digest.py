"""Backend digest-identity: the tentpole determinism guarantee.

The merged cluster timeline must be a pure function of
(scenario, seed, n_hosts) — independent of the execution backend and of
the worker count.  These tests pin ``backend="procs"`` byte-identical to
``backend="inline"`` across scenarios × seeds × worker counts, including
fault-injected and recovery-enabled runs.
"""

import pathlib

import pytest

from repro.cluster import Cluster
from repro.stdlib import load_spec, preset, run_scenario, run_sweep

SEEDS = (0, 1, 2)
WORKER_COUNTS = (1, 2, 4)


def _config(name, seed, **workload):
    return preset(name, **workload).to_cluster_config(seed)


def _boot_storm(seed):
    return _config("boot-storm", seed, hosts=4, guests=8, requests=24)


def _churn(seed):
    return _config("migration-churn", seed, hosts=4, guests=8,
                   migrations=2, requests=24)


SCENARIOS = {"boot-storm": _boot_storm, "migration-churn": _churn}


def _inline(config):
    return Cluster(config, backend="inline").run()


def _procs(config, workers):
    return Cluster(config, backend="procs", workers=workers).run()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_procs_matches_inline(scenario, seed):
    config = SCENARIOS[scenario](seed)
    reference = _inline(config)
    for workers in WORKER_COUNTS:
        result = _procs(SCENARIOS[scenario](seed), workers)
        assert result.digest == reference.digest, \
            "%s seed=%d workers=%d diverged" % (scenario, seed, workers)
        assert result.host_digests == reference.host_digests
        assert result.stats == reference.stats
        assert result.epochs == reference.epochs


def test_worker_count_does_not_leak_into_result():
    """Only the declared workers field may differ between worker counts."""
    runs = [_procs(_boot_storm(0), w) for w in WORKER_COUNTS]
    digests = {r.digest for r in runs}
    assert len(digests) == 1
    assert [r.workers for r in runs] == list(WORKER_COUNTS)


def test_faulty_run_matches_inline():
    def config():
        return _config("migration-churn", 1, hosts=3, guests=6,
                       migrations=2, requests=18,
                       faults={"ref": "none@1", "rate": 0.2},
                       host={"ref": "lightvm-64core@1",
                             "variant": "chaos+xs"})
    reference = _inline(config())
    result = _procs(config(), 2)
    assert result.digest == reference.digest
    assert result.stats == reference.stats


def test_recovery_run_matches_inline():
    def config():
        return _config("boot-storm", 2, hosts=3, guests=6, requests=18,
                       faults={"ref": "none@1", "rate": 0.2,
                               "recovery": True})
    reference = _inline(config())
    result = _procs(config(), 3)
    assert result.digest == reference.digest
    assert result.stats == reference.stats


def test_workers_clamped_to_host_count():
    def config():
        return _config("boot-storm", 0, hosts=2, guests=4)
    result = _procs(config(), 16)
    assert result.workers == 2
    assert result.digest == _inline(config()).digest


def test_first_fit_placement_matches_inline():
    def config():
        return _config("boot-storm", 0, hosts=3, guests=6, requests=12,
                       placement="first-fit@1")
    assert _procs(config(), 2).digest == _inline(config()).digest


# ----------------------------------------------------------------------
# Literal pins: inline == procs cannot catch a drift that moves both
# backends the same way, so these cluster digests are held to the values
# they had before the cluster hosts were built through HostProfile.build.
# ----------------------------------------------------------------------

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def test_cluster_storm_example_pins():
    spec = load_spec(EXAMPLES / "cluster_storm.yaml")
    manifest = run_sweep(spec, [1])
    assert manifest["runs"][0]["digest"] == (
        "a5abd973b2b50c4413b58bbaf16cd0e93ef0229fc074a5efcdecdd59bc43492b")
    assert manifest["manifest_digest"] == (
        "4aae9ebd8004755a1b8cbd52a0f7827803f4ea132525ff40039a02c5a240ec69")


def test_migration_churn_example_manifest_pin():
    spec = load_spec(EXAMPLES / "migration_churn.yaml")
    assert run_sweep(spec, range(4))["manifest_digest"] == (
        "ae7e8487089dc4d066b868f6b3472d6b22a6ee8d7b4d9f4c45ec08e820beb737")


@pytest.mark.parametrize("name,seed,workload,digest", [
    # Heavy faults: failed creates, failed migrations, recovery on.
    ("migration-churn", 0,
     dict(hosts=3, guests=12, requests=300, migrations=6,
          faults="heavy@1"),
     "9258818cb3b5593245959ba019b06c058a40cabda2455af6c701db9ede6e55c7"),
    ("boot-storm", 4,
     dict(hosts=3, guests=9, requests=200, faults="light@1",
          placement="first-fit@1", topology="wan@1"),
     "3e7f981da9f2f4c9747a059455e331f8ace5f2bbcfed3089e6440c9005e2f460"),
], ids=["churn-heavy-faults", "storm-first-fit-wan"])
def test_preset_run_pins(name, seed, workload, digest):
    assert run_scenario(preset(name, **workload), seed).digest == digest
