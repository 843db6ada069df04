"""Client API semantics: XsClient handles, XsBatch, XsTxn.

Covers batch partial-failure atomicity, watch events firing once per
batched write, quota charged per node (not per batch), and the
ambient-client invariant (register/unregister pairing, including the
migration-destination fix).
"""

import pytest

from repro.faults.invariants import check_host
from repro.sim import Simulator
from repro.xenstore import (BatchNotCommitted, QuotaExceededError,
                            XenStoreCosts, XenStoreDaemon, XsClient)


def drive(sim, gen):
    """Run one generator to completion; return its value."""
    result = []

    def runner():
        result.append((yield from gen))
    sim.run(until=sim.process(runner()))
    return result[0]


def make_daemon(**kwargs):
    sim = Simulator()
    kwargs.setdefault("rng", None)
    return sim, XenStoreDaemon(sim, **kwargs)


# ----------------------------------------------------------------------
# Batch cost model
# ----------------------------------------------------------------------

class TestBatchCoalescing:
    def test_batch_is_one_charged_op(self):
        sim, xs = make_daemon(batch_ops=True)
        client = XsClient(xs)
        with client.batch() as batch:
            for index in range(8):
                batch.write("/local/domain/1/d/%d" % index, "x")
            drive(sim, batch.commit())
        assert xs.stats["ops"] == 1
        assert xs.stats["batches"] == 1
        assert xs.stats["batched_ops"] == 8

    def test_batch_cheaper_than_sequential(self):
        elapsed = {}
        for batch_ops in (False, True):
            sim, xs = make_daemon(batch_ops=batch_ops)
            client = XsClient(xs)

            def run():
                with client.batch() as batch:
                    for index in range(10):
                        batch.write("/local/domain/1/d/%d" % index, "x")
                    yield from batch.commit()
            drive(sim, run())
            elapsed[batch_ops] = sim.now
        assert elapsed[True] < elapsed[False]
        # One round trip + 9 * batch_op_us, vs 10 round trips.
        costs = XenStoreCosts()
        assert elapsed[True] == pytest.approx(costs.batch_ms(10),
                                              rel=0.01)

    def test_batch_off_daemon_replays_sequentially(self):
        sim, xs = make_daemon(batch_ops=False)
        client = XsClient(xs)
        with client.batch() as batch:
            batch.write("/a", "1").mkdir("/b").rm("/a")
            modified = drive(sim, batch.commit())
        assert xs.stats["ops"] == 3
        assert xs.stats["batches"] == 0
        assert modified == ["/a", "/b", "/a"]
        assert not xs.tree.exists("/a") and xs.tree.exists("/b")

    def test_uncommitted_batch_raises(self):
        _sim, xs = make_daemon(batch_ops=True)
        client = XsClient(xs)
        with pytest.raises(BatchNotCommitted):
            with client.batch() as batch:
                batch.write("/a", "1")
        # ...but an empty batch exits quietly.
        with client.batch():
            pass

    def test_batch_exception_in_block_wins_over_guard(self):
        _sim, xs = make_daemon(batch_ops=True)
        client = XsClient(xs)
        with pytest.raises(RuntimeError, match="boom"):
            with client.batch() as batch:
                batch.write("/a", "1")
                raise RuntimeError("boom")


# ----------------------------------------------------------------------
# Batch atomicity + quota
# ----------------------------------------------------------------------

class TestBatchAtomicity:
    def test_partial_failure_applies_nothing(self):
        costs = XenStoreCosts(quota_nodes_per_domain=3)
        sim, xs = make_daemon(batch_ops=True, costs=costs)
        guest = XsClient(xs, domid=5)

        def run():
            with guest.batch() as batch:
                batch.write("/local/domain/5/a", "1")
                batch.write("/local/domain/5/b", "2")
                batch.write("/local/domain/5/c", "3")
                batch.write("/local/domain/5/d", "4")  # 4th node: over quota
                yield from batch.commit()
        with pytest.raises(QuotaExceededError):
            drive(sim, run())
        # Atomic: not even the in-quota prefix landed.
        for leaf in "abcd":
            assert not xs.tree.exists("/local/domain/5/%s" % leaf)
        assert xs._node_counts.get(5, 0) == 0

    def test_malformed_op_rejected_before_mutation(self):
        sim, xs = make_daemon(batch_ops=True)
        client = XsClient(xs)
        batch = client.batch()
        batch.write("/x", "1")
        batch.ops.append(("chmod", "/x", None))  # forged kind
        with pytest.raises(ValueError):
            drive(sim, batch.commit())
        assert not xs.tree.exists("/x")

    def test_quota_charged_per_node_not_per_batch(self):
        costs = XenStoreCosts(quota_nodes_per_domain=100)
        sim, xs = make_daemon(batch_ops=True, costs=costs)
        guest = XsClient(xs, domid=7)

        def run():
            with guest.batch() as batch:
                for index in range(6):
                    batch.write("/local/domain/7/n%d" % index, "x")
                # Overwrites are not creations: stage one twice.
                batch.write("/local/domain/7/n0", "y")
                yield from batch.commit()
        drive(sim, run())
        assert xs._node_counts[7] == 6

    def test_quota_batch_matches_sequential_accounting(self):
        for batch_ops in (False, True):
            sim, xs = make_daemon(batch_ops=batch_ops)
            guest = XsClient(xs, domid=3)

            def run():
                with guest.batch() as batch:
                    batch.write("/local/domain/3/a", "1")
                    batch.write("/local/domain/3/a", "2")
                    batch.write("/local/domain/3/b", "3")
                    batch.rm("/local/domain/3/a")
                    yield from batch.commit()
            drive(sim, run())
            # a created then removed, b created: net one node either way.
            assert xs._node_counts[3] == 1, batch_ops
            assert not xs.tree.exists("/local/domain/3/a")
            assert xs.tree.exists("/local/domain/3/b")


# ----------------------------------------------------------------------
# Batched watches
# ----------------------------------------------------------------------

class TestBatchWatches:
    def fire_log(self, xs, path):
        fired = []

        def on_fire(event_path, token):
            fired.append(event_path)
        sim = xs.sim
        client = XsClient(xs)
        drive(sim, client.watch(path, "t", on_fire))
        return fired

    def test_watch_fires_once_per_batched_write(self):
        sim, xs = make_daemon(batch_ops=True)
        client = XsClient(xs)
        fired = self.fire_log(xs, "/local/domain/9")

        def run():
            with client.batch() as batch:
                batch.write("/local/domain/9/a", "1")
                batch.write("/local/domain/9/b", "2")
                batch.write("/local/domain/9/a", "3")  # same node again
                yield from batch.commit()
        drive(sim, run())
        assert fired == ["/local/domain/9/a", "/local/domain/9/b",
                         "/local/domain/9/a"]

    def test_ineffective_rm_fires_no_watch(self):
        sim, xs = make_daemon(batch_ops=True)
        client = XsClient(xs)
        fired = self.fire_log(xs, "/local/domain/9")

        def run():
            with client.batch() as batch:
                batch.rm("/local/domain/9/ghost")
                batch.write("/local/domain/9/real", "1")
                yield from batch.commit()
        drive(sim, run())
        assert fired == ["/local/domain/9/real"]


# ----------------------------------------------------------------------
# Transactions through the client
# ----------------------------------------------------------------------

class TestClientTransactions:
    @pytest.mark.parametrize("batch_ops", (False, True))
    def test_read_your_writes(self, batch_ops):
        """Staged writes are read-through; staged removals are invisible
        until commit (writes apply first, removals last) — oxenstored's
        modelled semantics, identical whether or not the client stages
        the ops for a batched flush."""
        sim, xs = make_daemon(batch_ops=batch_ops)
        client = XsClient(xs)
        seen = {}

        def body(txn):
            yield from txn.write("/vm/1/name", "alpha")
            seen["value"] = yield from txn.read("/vm/1/name")
            yield from txn.rm("/vm/1/name")
            seen["exists"] = yield from txn.exists("/vm/1/name")
            yield from txn.write("/vm/1/name", "beta")
        drive(sim, client.transaction(body))
        assert seen == {"value": "alpha", "exists": True}
        # Removals apply after writes at commit: the node is gone.
        assert not xs.tree.exists("/vm/1/name")

    def test_batched_txn_flush_is_one_round_trip(self):
        sim, xs = make_daemon(batch_ops=True)
        client = XsClient(xs)

        def body(txn):
            for index in range(5):
                yield from txn.write("/vm/2/e%d" % index, "x")
        drive(sim, client.transaction(body))
        # txn_start + one flushed batch + commit.
        assert xs.stats["ops"] == 3
        assert xs.stats["batches"] == 1
        assert xs.stats["commits"] == 1


# ----------------------------------------------------------------------
# Worker-pool parameter surface
# ----------------------------------------------------------------------

class TestWorkerPool:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            XenStoreDaemon(Simulator(), workers=0)

    def test_worker_alias_is_first_shard(self):
        _sim, xs = make_daemon(workers=3)
        assert xs.worker is xs._shards[0]
        assert len(xs._shards) == 3

    def test_load_factor_divides_by_workers(self):
        _sim, one = make_daemon(workers=1)
        _sim2, four = make_daemon(workers=4)
        one.register_client(400.0)
        four.register_client(400.0)
        assert four._load_factor() < one._load_factor()

    def test_parallel_shards_overlap_in_time(self):
        """Two guests on different shards proceed concurrently; on one
        worker they serialize (the paper's bottleneck)."""
        elapsed = {}
        for workers in (1, 4):
            sim, xs = make_daemon(workers=workers)
            client = XsClient(xs)

            def guest(domid):
                for index in range(20):
                    yield from client.write(
                        "/local/domain/%d/k%d" % (domid, index), "x")
            for domid in (1, 2, 3, 4):
                sim.process(guest(domid))
            sim.run()
            elapsed[workers] = sim.now
        assert elapsed[4] < elapsed[1]
        assert elapsed[4] == pytest.approx(elapsed[1] / 4.0, rel=0.05)


# ----------------------------------------------------------------------
# Ambient-client invariant (register/unregister pairing)
# ----------------------------------------------------------------------

class TestAmbientInvariant:
    def test_create_destroy_cycle_balances(self):
        from repro.core import Host
        from repro.guests import DAYTIME_UNIKERNEL

        host = Host(variant="chaos+xs", seed=3)
        record = host.create_vm(DAYTIME_UNIKERNEL)
        assert host.xenstore.ambient_clients == pytest.approx(
            DAYTIME_UNIKERNEL.ambient_weight)
        assert check_host(host) == []
        host.destroy_vm(record.domain)
        assert host.xenstore.ambient_clients == 0.0
        assert check_host(host) == []

    def test_invariant_catches_unbalanced_register(self):
        from repro.core import Host
        from repro.guests import DAYTIME_UNIKERNEL

        host = Host(variant="chaos+xs", seed=3)
        host.create_vm(DAYTIME_UNIKERNEL)
        host.xenstore.register_client(2.5)  # a leak
        violations = check_host(host)
        assert any("ambient_clients" in violation
                   for violation in violations)

    def test_migration_destination_registers_ambient_weight(self):
        """The PR-5 bugfix: a migrated-in guest must contribute ambient
        load on the destination daemon (it was silently weightless)."""
        from repro.core import Host
        from repro.guests import DAYTIME_UNIKERNEL
        from repro.net import Link
        from repro.sim import Simulator as Sim
        from repro.toolstack import migrate

        sim = Sim()
        source = Host(variant="chaos+xs", seed=1, sim=sim)
        destination = Host(variant="chaos+xs", seed=2, sim=sim)
        config = source.config_for(DAYTIME_UNIKERNEL)
        record = source.create_vm(config)
        link = Link(sim)
        proc = sim.process(migrate(source.checkpointer,
                                   destination.checkpointer,
                                   record.domain, config, link))
        sim.run(until=proc)
        weight = DAYTIME_UNIKERNEL.ambient_weight
        assert destination.xenstore.ambient_clients == pytest.approx(weight)
        assert source.xenstore.ambient_clients == 0.0
        assert check_host(source) == []
        assert check_host(destination) == []
