"""Unit tests for the repro.cluster layer (config, placement,
controller, messages, node wiring, manifest round-trip)."""

import dataclasses
import json

import pytest

from repro.cluster import (CONTROLLER, Cluster, ClusterConfig,
                           ClusterConfigError, ClusterError,
                           ClusterMessage, Controller, Placement,
                           PlacementError, host_seed, sort_canonical)
from repro.cluster import cluster as cluster_module
from repro.stdlib import (ComponentOverrideError, ScenarioSpec,
                          SpecTypeError, SweepError, UnknownComponentError,
                          UnknownSpecKeyError, preset, replay_manifest,
                          run_sweep)


def _config(name, seed=0, **workload):
    return preset(name, **workload).to_cluster_config(seed)


def _run(name, seed=0, **workload):
    return Cluster(_config(name, seed, **workload)).run()


def _ramp(config):
    """A controller stepped through empty barriers, as Cluster.run
    steps it, until it has issued every create.  Returns the controller,
    its messages, and the next barrier's epoch and instant."""
    controller = Controller(config)
    epoch_ms = config.spec.topology.epoch_ms
    out = []
    epoch = -1
    while controller._next_gid < config.spec.guests:
        out.extend(controller.barrier(epoch, (epoch + 1) * epoch_ms, []))
        epoch += 1
    return controller, out, epoch, (epoch + 1) * epoch_ms


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------

class TestClusterConfig:
    def test_defaults_validate(self):
        # A config is the resolved spec plus a seed, nothing else.
        spec = preset("boot-storm")
        assert spec.to_cluster_config(3) == ClusterConfig(spec=spec, seed=3)
        assert [field.name for field in
                dataclasses.fields(ClusterConfig)] == ["spec", "seed"]

    def test_lookahead_rule_enforced(self):
        with pytest.raises(ComponentOverrideError, match="lookahead") as err:
            preset("boot-storm", topology={"ref": "lan@1", "epoch_ms": 10.0,
                                           "net_latency_ms": 5.0})
        assert err.value.field == "topology"

    def test_epoch_equal_to_latency_is_legal(self):
        spec = preset("boot-storm", topology={"ref": "lan@1",
                                              "epoch_ms": 7.0,
                                              "net_latency_ms": 7.0})
        assert spec.topology.epoch_ms == spec.topology.net_latency_ms

    def test_zero_hosts_rejected(self):
        with pytest.raises(SpecTypeError) as err:
            preset("boot-storm", hosts=0)
        assert err.value.field == "hosts"

    def test_unknown_spec_rejected(self):
        with pytest.raises(ComponentOverrideError) as err:
            preset("boot-storm", host={"ref": "lightvm-64core@1",
                                       "spec": "cray-1"})
        assert err.value.field == "host"

    def test_unknown_image_rejected(self):
        with pytest.raises(UnknownComponentError) as err:
            preset("boot-storm", guest="no-such-image@1")
        assert err.value.field == "guest"

    def test_round_trips_through_json(self):
        spec = preset("migration-churn", hosts=3, guests=9, requests=12)
        again = ScenarioSpec.from_dict(json.loads(json.dumps(spec.source)))
        assert again.to_cluster_config(7) == spec.to_cluster_config(7)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(UnknownSpecKeyError, match="warp_factor"):
            preset("boot-storm", hosts=2, warp_factor=9)

    def test_requests_split_covers_budget(self):
        config = _config("boot-storm", hosts=3, requests=10)
        shares = [config.requests_for(h) for h in range(3)]
        assert sum(shares) == 10
        assert max(shares) - min(shares) <= 1

    def test_host_seed_is_injective_nearby(self):
        seen = {host_seed(s, h) for s in range(4) for h in range(16)}
        assert len(seen) == 4 * 16

    def test_first_fit_pool_target_covers_full_storm(self):
        packed = _config("boot-storm", hosts=4, guests=32,
                         placement="first-fit@1")
        spread = _config("boot-storm", hosts=4, guests=32)
        assert packed.pool_target() >= 32
        assert spread.pool_target() < packed.pool_target()


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------

class TestMessages:
    @staticmethod
    def _msg(epoch, src, seq):
        return ClusterMessage(kind="up", src=src, dst=0, epoch=epoch,
                              seq=seq, send_ms=0.0, arrive_ms=5.0,
                              payload=())

    def test_canonical_order_is_epoch_src_seq(self):
        messages = [self._msg(1, 0, 0), self._msg(0, 2, 1),
                    self._msg(0, 2, 0), self._msg(0, CONTROLLER, 5)]
        ordered = sort_canonical(messages)
        assert [m.key() for m in ordered] == [
            (0, CONTROLLER, 5), (0, 2, 0), (0, 2, 1), (1, 0, 0)]

    def test_controller_sorts_before_every_host(self):
        assert self._msg(0, CONTROLLER, 9).key() < \
            self._msg(0, 0, 0).key()


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------

class TestPlacement:
    def test_first_fit_packs_lowest_index(self):
        p = Placement(3, capacity=2, policy="first-fit")
        assert [p.place() for _ in range(4)] == [0, 0, 1, 1]

    def test_least_loaded_spreads(self):
        p = Placement(3, capacity=4, policy="least-loaded")
        assert [p.place() for _ in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_tie_breaks_to_lowest_host_index(self):
        p = Placement(4, capacity=4, policy="least-loaded")
        assert p.place() == 0

    def test_full_cluster_returns_none(self):
        p = Placement(2, capacity=1, policy="least-loaded")
        assert p.place() == 0 and p.place() == 1
        assert p.place() is None

    def test_release_frees_a_slot(self):
        p = Placement(1, capacity=1, policy="first-fit")
        assert p.place() == 0 and p.place() is None
        p.release(0)
        assert p.place() == 0

    def test_release_empty_host_raises(self):
        p = Placement(2, capacity=1, policy="first-fit")
        with pytest.raises(PlacementError):
            p.release(1)

    def test_move_transfers_load(self):
        p = Placement(2, capacity=2, policy="first-fit")
        p.place()
        p.move(0, 1)
        assert p.load == [0, 1]

    def test_unknown_policy_rejected(self):
        with pytest.raises(PlacementError):
            Placement(2, capacity=1, policy="random")


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------

def _created(gid, src, epoch=0, seq=0):
    return ClusterMessage(kind="created", src=src, dst=CONTROLLER,
                          epoch=epoch, seq=seq, send_ms=0.0,
                          arrive_ms=0.0, payload=(gid,))


class TestController:
    def test_seed_barrier_issues_nothing_before_ramp(self):
        config = _config("boot-storm", hosts=2, guests=4)
        controller = Controller(config)
        assert controller.barrier(-1, 0.0, []) == []
        assert not controller.done

    def test_creates_arrive_at_exact_ramp_instants(self):
        config = _config("boot-storm", hosts=2, guests=4)
        _controller, out, _epoch, _barrier = _ramp(config)
        creates = [m for m in out if m.kind == "create"]
        start = config.create_start()
        assert [m.arrive_ms for m in creates] == [
            start, start + 3.0, start + 6.0, start + 9.0]
        # least-loaded with the lowest-index tie-break alternates hosts
        assert [m.dst for m in creates] == [0, 1, 0, 1]
        # every create lands strictly inside the window after its barrier
        epoch_ms = config.spec.topology.epoch_ms
        for m in creates:
            assert m.send_ms <= m.arrive_ms < m.send_ms + epoch_ms

    def test_completion_report_triggers_directory_broadcast(self):
        config = _config("boot-storm", hosts=3, guests=1)
        controller, _out, epoch, barrier = _ramp(config)
        out = controller.barrier(epoch, barrier, [_created(0, src=0)])
        ups = [m for m in out if m.kind == "up"]
        assert [m.dst for m in ups] == [0, 1, 2]
        assert all(m.payload == (0, 0) for m in ups)
        latency_ms = config.spec.topology.net_latency_ms
        assert all(m.arrive_ms == barrier + latency_ms for m in ups)
        assert controller.done

    def test_failed_create_releases_placement(self):
        config = _config("boot-storm", hosts=1, guests=1)
        controller, _out, epoch, barrier = _ramp(config)
        fail = ClusterMessage(kind="create_failed", src=0,
                              dst=CONTROLLER, epoch=epoch, seq=0,
                              send_ms=0.0, arrive_ms=0.0, payload=(0,))
        controller.barrier(epoch, barrier, [fail])
        assert controller.placement.load == [0]
        assert controller.done

    def test_migration_waits_for_storm_to_settle(self):
        config = _config("migration-churn", hosts=2, guests=2,
                         migrations=1)
        controller, out, epoch, barrier = _ramp(config)
        assert not any(m.kind == "migrate_out" for m in out)
        out = controller.barrier(epoch, barrier,
                                 [_created(0, src=0, epoch=epoch),
                                  _created(1, src=1, epoch=epoch, seq=1)])
        # churn starts only once every create resolved; the lowest-index
        # candidate host and its lowest gid are chosen deterministically
        migs = [m for m in out if m.kind == "migrate_out"]
        assert len(migs) == 1
        assert migs[0].dst == 0 and migs[0].payload == (0, 1)

    def test_migration_moves_from_most_to_least_loaded(self):
        config = _config("migration-churn", hosts=2, guests=2,
                         migrations=1, placement="first-fit@1")
        controller, _out, epoch, barrier = _ramp(config)
        out = controller.barrier(epoch, barrier,
                                 [_created(0, src=0, epoch=epoch),
                                  _created(1, src=0, epoch=epoch, seq=1)])
        migs = [m for m in out if m.kind == "migrate_out"]
        assert len(migs) == 1
        assert migs[0].dst == 0 and migs[0].payload == (0, 1)
        epoch_ms = config.spec.topology.epoch_ms
        done = ClusterMessage(kind="migrated", src=1, dst=CONTROLLER,
                              epoch=epoch + 1, seq=0, send_ms=0.0,
                              arrive_ms=0.0, payload=(0,))
        controller.barrier(epoch + 1, barrier + epoch_ms, [done])
        assert controller.directory[0] == 1
        assert controller.stats["migrations_done"] == 1
        assert controller.done


# ----------------------------------------------------------------------
# Whole-cluster runs (inline backend)
# ----------------------------------------------------------------------

class TestClusterRuns:
    def test_boot_storm_boots_every_guest(self):
        result = _run("boot-storm", hosts=3, guests=6)
        assert result.stats["booted"] == 6
        assert result.stats["create_failed"] == 0
        assert result.stats["guests_running"] == 6
        assert len(result.host_digests) == 3

    def test_requests_all_resolve(self):
        result = _run("boot-storm", hosts=2, guests=4, requests=30)
        stats = result.stats
        assert stats["requests_sent"] == 30
        assert stats["responses"] + stats["unrouted"] == 30

    def test_churn_completes_requested_migrations(self):
        result = _run("migration-churn", hosts=3, guests=6, migrations=2)
        assert result.stats["migrations_done"] + \
            result.stats["migrations_failed"] == 2

    def test_result_is_reproducible(self):
        first = _run("boot-storm", hosts=2, guests=4, seed=3)
        second = _run("boot-storm", hosts=2, guests=4, seed=3)
        assert first.digest == second.digest
        assert first.host_digests == second.host_digests

    def test_seed_changes_digest(self):
        # The seed enters through the RNG streams, so the scenario needs
        # stochastic traffic for seeds to produce distinct timelines.
        a = _run("boot-storm", hosts=2, guests=4, requests=20, seed=0)
        b = _run("boot-storm", hosts=2, guests=4, requests=20, seed=1)
        assert a.digest != b.digest

    def test_digest_combines_host_digests(self):
        from repro.analysis import combine_digests
        result = _run("boot-storm", hosts=2, guests=4)
        assert result.digest == combine_digests(result.host_digests)

    def test_unknown_backend_rejected(self):
        config = _config("boot-storm", hosts=2, guests=2)
        with pytest.raises(ClusterConfigError, match="backend"):
            Cluster(config, backend="gpu")

    def test_inexact_epoch_length_keeps_creates_in_their_window(self):
        # 95 * 2.2 rounds above 209.0, the second ramp instant.
        config = _config("boot-storm", hosts=1, guests=5,
                         topology={"ref": "lan@1", "epoch_ms": 2.2,
                                   "net_latency_ms": 2.2})
        assert config.create_start() + 3.0 == 209.0
        assert Cluster(config).run().stats["booted"] == 5

    def test_livelock_guard_raises(self, monkeypatch):
        monkeypatch.setattr(cluster_module, "MAX_EPOCHS", 3)
        config = _config("boot-storm", hosts=2, guests=4)
        with pytest.raises(ClusterError, match="no quiescence"):
            Cluster(config).run()


# ----------------------------------------------------------------------
# Reproducer round-trip: a cluster run's reproducer is its sweep manifest
# ----------------------------------------------------------------------

class TestReproducer:
    def test_replay_reproduces_recorded_digest(self):
        manifest = run_sweep(preset("boot-storm", hosts=2, guests=4,
                                    requests=10), [5])
        same, replayed = replay_manifest(manifest)
        assert same
        assert replayed["runs"] == manifest["runs"]

    def test_replay_detects_divergence(self):
        manifest = run_sweep(preset("boot-storm", hosts=2, guests=4), [0])
        manifest["manifest_digest"] = "0" * 64
        same, _replayed = replay_manifest(manifest)
        assert not same

    def test_replay_rejects_unknown_version(self):
        manifest = run_sweep(preset("boot-storm", hosts=2, guests=4), [0])
        manifest["version"] = 999
        with pytest.raises(SweepError, match="version"):
            replay_manifest(manifest)

    def test_reproducer_is_json_clean(self):
        workload = dict(hosts=2, guests=4, migrations=1, requests=8)
        manifest = run_sweep(preset("migration-churn", **workload), [0])
        payload = json.loads(json.dumps(manifest))
        assert payload["tool"] == "repro run"
        assert payload["runs"][0]["digest"] == \
            _run("migration-churn", **workload).digest
