"""Batch abort semantics: a failing batch has *zero* observable effects.

Regression tests pinning the contract from the issue: when a batch fails
atomic pre-validation — malformed op kind, quota overrun, bad path — no
watch event fires, no quota is charged and the tree is untouched.  Both
daemon modes are covered: coalesced (``batch_ops=True``) and the
degraded sequential path, which must reject malformed batches *up
front* rather than failing mid-way with earlier ops already applied.
"""

import pytest

from repro.sim import Simulator
from repro.xenstore import (InvalidPathError, XenStoreCosts, XenStoreDaemon,
                            XsClient)
from repro.xenstore.daemon import BatchError, QuotaExceededError


def drive(sim, gen):
    result = []

    def runner():
        result.append((yield from gen))
    sim.run(until=sim.process(runner()))
    return result[0]


def make_daemon(batch_ops, **kwargs):
    sim = Simulator()
    daemon = XenStoreDaemon(sim, rng=None, batch_ops=batch_ops, **kwargs)
    return sim, daemon


def snapshot(daemon):
    """Observable state a failed batch must not perturb."""
    return {
        "watch_events": daemon.stats["watch_events"],
        "quota": dict(daemon._node_counts),
        "exists": daemon.tree.exists("/local/domain/1/a"),
    }


def watch_root(sim, daemon, fired):
    drive(sim, XsClient(daemon).watch(
        "/local/domain/1", "tok", lambda path, token: fired.append(path)))


class TestMalformedBatch:
    @pytest.mark.parametrize("batch_ops", [False, True],
                             ids=["sequential", "coalesced"])
    def test_unknown_kind_rejects_everything(self, batch_ops):
        sim, daemon = make_daemon(batch_ops)
        fired = []
        watch_root(sim, daemon, fired)
        before = snapshot(daemon)
        ops = [("write", "/local/domain/1/a", "1"),
               ("write", "/local/domain/1/b", "2"),
               ("chmod", "/local/domain/1/a", "0755")]
        with pytest.raises(BatchError):
            drive(sim, daemon.apply_batch(1, ops))
        assert snapshot(daemon) == before
        assert fired == []

    @pytest.mark.parametrize("batch_ops", [False, True],
                             ids=["sequential", "coalesced"])
    def test_malformed_op_first_changes_nothing_either(self, batch_ops):
        sim, daemon = make_daemon(batch_ops)
        with pytest.raises(BatchError):
            drive(sim, daemon.apply_batch(
                1, [("chmod", "/x", None),
                    ("write", "/local/domain/1/a", "1")]))
        assert not daemon.tree.exists("/local/domain/1/a")


    @pytest.mark.parametrize("batch_ops", [False, True],
                             ids=["sequential", "coalesced"])
    def test_bad_path_rejects_everything(self, batch_ops):
        sim, daemon = make_daemon(batch_ops)
        fired = []
        drive(sim, XsClient(daemon).watch(
            "/a", "tok", lambda path, token: fired.append(path)))
        ops_before = daemon.stats["ops"]
        with pytest.raises(InvalidPathError):
            drive(sim, daemon.apply_batch(
                0, [("write", "/a/ok", "1"), ("write", "relative/bad", "2")]))
        assert not daemon.tree.exists("/a/ok")
        assert fired == []
        assert daemon.stats["watch_events"] == 0
        # The sequential path rejects before its first round trip; the
        # coalesced one after the single round trip that carried it.
        assert daemon.stats["ops"] - ops_before == int(batch_ops)


class TestQuotaAbort:
    def test_coalesced_overrun_fires_no_watch_charges_no_quota(self):
        sim, daemon = make_daemon(
            True, costs=XenStoreCosts(quota_nodes_per_domain=2))
        fired = []
        watch_root(sim, daemon, fired)
        before = snapshot(daemon)
        ops = [("write", "/local/domain/1/a", "1"),
               ("write", "/local/domain/1/b", "2"),
               ("write", "/local/domain/1/c", "3")]
        with pytest.raises(QuotaExceededError):
            drive(sim, daemon.apply_batch(1, ops))
        assert snapshot(daemon) == before
        assert fired == []
        assert daemon._node_counts.get(1, 0) == 0

    def test_batch_under_quota_charges_per_node_created(self):
        sim, daemon = make_daemon(
            True, costs=XenStoreCosts(quota_nodes_per_domain=10))
        drive(sim, daemon.apply_batch(
            1, [("write", "/local/domain/1/a", "1"),
                ("write", "/local/domain/1/a", "again"),  # no new node
                ("write", "/local/domain/1/b", "2")]))
        # a + b = 2 new leaf nodes; the overwrite is free.
        assert daemon._node_counts[1] == 2


class TestSuccessfulBatchStillObservable:
    @pytest.mark.parametrize("batch_ops", [False, True],
                             ids=["sequential", "coalesced"])
    def test_watches_fire_once_per_mutation_on_success(self, batch_ops):
        sim, daemon = make_daemon(batch_ops)
        fired = []
        watch_root(sim, daemon, fired)
        client = XsClient(daemon).for_domain(1)
        with client.batch() as batch:
            batch.write("/local/domain/1/a", "1")
            batch.write("/local/domain/1/b", "2")
            drive(sim, batch.commit())
        sim.run(until=sim.now + 10.0)
        assert sorted(fired) == ["/local/domain/1/a", "/local/domain/1/b"]
