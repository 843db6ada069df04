"""Tests for the XenStore daemon: protocol costs, queueing, transactions."""

import gc
import inspect
import tracemalloc

import pytest

from repro.core import Host
from repro.guests import DAYTIME_UNIKERNEL
from repro.sim import Simulator
from repro.xenstore import (DuplicateNameError, TransactionConflict,
                            XenStoreCosts, XenStoreDaemon)


def run_op(sim, gen):
    """Drive a daemon operation generator inside a process."""
    def wrapper():
        result = yield from gen
        return result
    proc = sim.process(wrapper())
    return sim.run(until=proc)


def make_daemon(**kwargs):
    sim = Simulator()
    return sim, XenStoreDaemon(sim, **kwargs)


def test_write_then_read():
    sim, xs = make_daemon()
    run_op(sim, xs.write(0, "/local/domain/1/name", "vm1"))
    value = run_op(sim, xs.read(0, "/local/domain/1/name"))
    assert value == "vm1"


def test_ops_take_simulated_time():
    sim, xs = make_daemon()
    run_op(sim, xs.write(0, "/a", "1"))
    assert sim.now > 0
    assert sim.now == pytest.approx(xs.costs.op_base_ms(), rel=0.5)


def test_ops_counted():
    sim, xs = make_daemon()
    run_op(sim, xs.write(0, "/a", "1"))
    run_op(sim, xs.read(0, "/a"))
    assert xs.stats["ops"] == 2


def test_cxenstored_slower_than_oxenstored():
    sim_o, xs_o = make_daemon(implementation="oxenstored")
    run_op(sim_o, xs_o.write(0, "/a", "1"))
    sim_c, xs_c = make_daemon(implementation="cxenstored")
    run_op(sim_c, xs_c.write(0, "/a", "1"))
    assert sim_c.now > sim_o.now


def test_unknown_implementation_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        XenStoreDaemon(sim, implementation="rustystore")


def test_ambient_clients_inflate_latency():
    sim_idle, xs_idle = make_daemon()
    run_op(sim_idle, xs_idle.write(0, "/a", "1"))
    sim_busy, xs_busy = make_daemon()
    for _ in range(1000):
        xs_busy.register_client()
    run_op(sim_busy, xs_busy.write(0, "/a", "1"))
    assert sim_busy.now > sim_idle.now * 1.5


def test_load_factor_capped():
    _sim, xs = make_daemon()
    for _ in range(10 ** 6):
        xs.register_client()
    assert xs._load_factor() <= 1.0 / (1.0 - xs.costs.ambient_util_cap) + 1e-9
    assert xs._load_factor() < float("inf")


def test_unregister_client_floor_at_zero():
    _sim, xs = make_daemon()
    xs.unregister_client()
    assert xs.ambient_clients == 0


def test_watch_registration_and_delivery():
    sim, xs = make_daemon()
    hits = []
    run_op(sim, xs.watch(0, "/backend/vif", "tok",
                            lambda p, t: hits.append(p)))
    run_op(sim, xs.write(0, "/backend/vif/1/0", "new"))
    assert hits == ["/backend/vif/1/0"]
    assert xs.stats["watch_events"] == 1


def test_more_watches_cost_more_time():
    def timed_write(n_watches):
        sim, xs = make_daemon()
        for i in range(n_watches):
            run_op(sim, xs.watch(0, "/w/%d" % i, "t", lambda p, t: None))
        start = sim.now
        run_op(sim, xs.write(0, "/target", "v"))
        return sim.now - start

    assert timed_write(2000) > timed_write(0)


def test_unique_name_check_passes_and_fails():
    sim, xs = make_daemon()
    run_op(sim, xs.write(0, "/local/domain/1/name", "alpha"))
    run_op(sim, xs.check_unique_name(0, "beta"))  # ok
    with pytest.raises(DuplicateNameError):
        run_op(sim, xs.check_unique_name(0, "alpha"))


def test_unique_name_check_cost_scales_with_domains():
    def timed_check(n_domains):
        sim, xs = make_daemon()
        for i in range(n_domains):
            xs.tree.write("/local/domain/%d/name" % i, "vm%d" % i)
        start = sim.now
        run_op(sim, xs.check_unique_name(0, "fresh"))
        return sim.now - start

    assert timed_check(1000) > timed_check(1)


def test_transaction_through_daemon():
    sim, xs = make_daemon()

    def flow():
        tx = yield from xs.transaction_start(0)
        yield from xs.txn_write(tx, "/device/a", "1")
        yield from xs.txn_write(tx, "/device/b", "2")
        yield from xs.transaction_commit(tx)

    proc = sim.process(flow())
    sim.run(until=proc)
    assert xs.tree.read("/device/a") == "1"
    assert xs.stats["commits"] == 1


def test_transaction_conflict_counted_and_raised():
    sim, xs = make_daemon()
    xs.tree.write("/shared", "orig")

    def flow():
        tx = yield from xs.transaction_start(0)
        yield from xs.txn_read(tx, "/shared")
        # Interference arrives while the transaction is open.
        xs.tree.write("/shared", "other")
        yield from xs.txn_write(tx, "/out", "v")
        try:
            yield from xs.transaction_commit(tx)
        except TransactionConflict:
            return "conflicted"
        return "committed"

    proc = sim.process(flow())
    assert sim.run(until=proc) == "conflicted"
    assert xs.stats["conflicts"] == 1


def test_log_rotation_stalls_request():
    costs = XenStoreCosts(log_rotation_ms=50.0)
    sim, xs = make_daemon(costs=costs)
    xs.log.rotate_lines = 5
    durations = []
    for i in range(6):
        start = sim.now
        run_op(sim, xs.read(0, "/"))  # reads of root are fine
        durations.append(sim.now - start)
    # One of the six requests hit the rotation and took >= 50 ms extra.
    assert max(durations) >= 50.0
    assert xs.stats["rotation_stalls"] >= 1


def test_log_disabled_no_stalls():
    sim, xs = make_daemon(log_enabled=False)
    xs.log.rotate_lines = 2
    for _ in range(10):
        run_op(sim, xs.read(0, "/"))
    assert xs.stats["rotation_stalls"] == 0


def test_rm_returns_removed_count():
    sim, xs = make_daemon()
    run_op(sim, xs.write(0, "/d/a", "1"))
    run_op(sim, xs.write(0, "/d/b", "2"))
    removed = run_op(sim, xs.rm(0, "/d"))
    assert removed == 3
    assert run_op(sim, xs.rm(0, "/d")) == 0


def test_requests_serialize_on_single_worker():
    sim, xs = make_daemon()
    finish_times = []

    def client(i):
        yield from xs.write(0, "/c%d" % i, "v")
        finish_times.append(sim.now)

    for i in range(3):
        sim.process(client(i))
    sim.run()
    # Strictly increasing completion times: no two ops overlap.
    assert finish_times == sorted(finish_times)
    assert len(set(finish_times)) == 3


def test_traced_verbs_stay_generator_functions():
    """The benchmark suite bills a verb's resumptions to the XenStore
    layer only while ``inspect.isgeneratorfunction`` holds for it; a
    ``_traced`` wrapper that returned the op's own generator would move
    all XenStore time to its caller's layer."""
    traced = {name: fn for name, fn in vars(XenStoreDaemon).items()
              if hasattr(fn, "__wrapped__")}
    assert {"read", "write", "watch", "apply_batch", "txn_write",
            "transaction_commit"} <= set(traced)
    for name, fn in traced.items():
        assert inspect.isgeneratorfunction(fn), name


def test_dropped_host_leaves_no_xenstore_allocations():
    """Nothing the XenStore allocates outlives its host: no process-wide
    memo keeps paths of guests long gone."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        host = Host(variant="xl")
        for _ in range(50):
            host.create_vm(DAYTIME_UNIKERNEL)
        del host
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    xenstore = snapshot.filter_traces(
        [tracemalloc.Filter(True, "*/repro/xenstore/*.py")])
    kept = sum(stat.size for stat in xenstore.statistics("filename"))
    assert kept < 64 * 1024
