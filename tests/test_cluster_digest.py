"""Backend digest-identity: the tentpole determinism guarantee.

The merged cluster timeline must be a pure function of
(scenario, seed, n_hosts) — independent of the execution backend and of
the worker count.  These tests pin ``backend="procs"`` byte-identical to
``backend="inline"`` across scenarios × seeds × worker counts, including
fault-injected and recovery-enabled runs.
"""

import pytest

from repro.cluster import Cluster
from repro.stdlib import preset

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
