"""Digest-identity proofs for the XenStore client/daemon redesign.

The PR-5 redesign replaced the single-worker daemon's ``op_*`` surface
with a client handle API (:class:`repro.xenstore.client.XsClient`), a
batching layer, and a configurable worker pool.  The contract is that
``workers=1`` (the paper-faithful default) is **byte-identical** to the
pre-redesign daemon: every figure workload here runs once on the current
stack and once with the daemon swapped for the frozen seed-semantics
copy (``tests/reference_xenstore.py``), and the
:class:`~repro.analysis.sanitize.EventTrace` digests must match — the
same way ``tests/test_reference_kernel.py`` pins the DES-kernel fast
path.

Also pinned here:

* the client handle layer is digest-neutral over both daemons;
* ``workers>1`` dispatch is deterministic: identical replays for any
  seed, including under concurrent multi-process interleavings
  (property-tested with hypothesis);
* literal digests of the paths the frozen daemon cannot drive: sharded
  and batched storms, an xl storm on cxenstored, and a client storm on
  a daemon that sheds load.
"""

import warnings

import pytest

from repro.analysis.sanitize import EventTrace
from repro.core import Host
from repro.faults.plan import Overloaded
from repro.guests import DAYTIME_UNIKERNEL
from repro.sim import Simulator
from repro.xenstore import XenStoreDaemon, XsClient

import repro.core.host as host_module
from tests.reference_xenstore import XenStoreDaemon as FrozenDaemon
from tests.test_reference_kernel import (SCENARIOS, SEEDS, run_traced)


def _frozen_for_host(sim, *args, **kwargs):
    """Build the frozen daemon from Host's call; the frozen class
    predates the pool knobs, which must be at their defaults anyway for
    an identity comparison to make sense."""
    assert kwargs.pop("workers", 1) == 1
    assert kwargs.pop("batch_ops", False) is False
    assert kwargs.pop("queue_cap", None) is None
    return FrozenDaemon(sim, *args, **kwargs)


@pytest.fixture
def frozen_xenstore():
    """Swap the Host's daemon class for the frozen pre-redesign copy."""
    original = host_module.XenStoreDaemon
    host_module.XenStoreDaemon = _frozen_for_host
    try:
        yield
    finally:
        host_module.XenStoreDaemon = original


# ----------------------------------------------------------------------
# Figure workloads: redesigned stack vs frozen pre-redesign daemon
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_workers1_digest_identical_to_frozen_daemon(name, seed,
                                                    frozen_xenstore):
    scenario = SCENARIOS[name]
    # Order matters only for clarity: the frozen run happens inside the
    # fixture's patch window, the redesigned run after restoring it.
    reference = run_traced(Simulator, scenario, seed)
    host_module.XenStoreDaemon = XenStoreDaemon
    redesigned = run_traced(Simulator, scenario, seed)
    assert redesigned.events == reference.events
    assert redesigned.events > 0
    assert redesigned.digest() == reference.digest()


# ----------------------------------------------------------------------
# The client layer is digest-neutral on one daemon
# ----------------------------------------------------------------------

def _storm_via_canonical_verbs(sim, seed):
    """The same storm on the canonical daemon verbs."""
    xs = XenStoreDaemon(sim, rng=None)

    def drive():
        for index in range(seed % 3 + 4):
            base = "/local/domain/%d" % index
            yield from xs.mkdir(0, base)
            yield from xs.write(0, base + "/name", "g%d" % index)
            yield from xs.check_unique_name(0, "h%d" % index)
            watch = yield from xs.watch(0, base, "t", lambda p, t: 0)
            yield from xs.write(0, base + "/state", "up")
            value = yield from xs.read(0, base + "/name")
            assert value == "g%d" % index
            yield from xs.directory(0, base)
            tx = yield from xs.transaction_start(0)
            yield from xs.txn_write(tx, base + "/memory/target", "64")
            yield from xs.txn_read(tx, base + "/name")
            yield from xs.transaction_commit(tx)
            yield from xs.unwatch(0, watch)
            yield from xs.rm(0, base)
    sim.run(until=sim.process(drive()))


def _storm_via_client(daemon_cls):
    def scenario(sim, seed):
        xs = daemon_cls(sim, rng=None)
        client = XsClient(xs)

        def drive():
            for index in range(seed % 3 + 4):
                base = "/local/domain/%d" % index
                yield from client.mkdir(base)
                yield from client.write(base + "/name", "g%d" % index)
                yield from client.check_unique_name("h%d" % index)
                watch = yield from client.watch(base, "t", lambda p, t: 0)
                yield from client.write(base + "/state", "up")
                value = yield from client.read(base + "/name")
                assert value == "g%d" % index
                yield from client.directory(base)

                def body(txn, base=base):
                    yield from txn.write(base + "/memory/target", "64")
                    yield from txn.read(base + "/name")
                yield from client.transaction(body)
                yield from client.unwatch(watch)
                yield from client.rm(base)
        sim.run(until=sim.process(drive()))
    return scenario


@pytest.mark.parametrize("seed", SEEDS)
def test_client_layer_is_digest_neutral(seed):
    direct = run_traced(Simulator, _storm_via_canonical_verbs, seed)
    via_client = run_traced(Simulator, _storm_via_client(XenStoreDaemon),
                            seed)
    assert via_client.digest() == direct.digest()


@pytest.mark.parametrize("seed", SEEDS)
def test_client_over_frozen_daemon_matches_redesigned(seed):
    """The client's legacy-name fallback drives the frozen daemon to the
    exact same timeline as the redesigned one (with one transaction
    caveat: the frozen daemon predates XsTxn, so the client resolves its
    ``tx_*`` verbs — still byte-identical)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        over_frozen = run_traced(Simulator, _storm_via_client(FrozenDaemon),
                                 seed)
    over_new = run_traced(Simulator, _storm_via_client(XenStoreDaemon),
                          seed)
    assert over_frozen.digest() == over_new.digest()


# ----------------------------------------------------------------------
# workers>1: deterministic shard-ordered dispatch
# ----------------------------------------------------------------------

def _sharded_storm(workers, batch_ops, writers):
    """Concurrent writer processes hammering several guest subtrees."""
    def scenario(sim, seed):
        xs = XenStoreDaemon(sim, rng=None, workers=workers,
                            batch_ops=batch_ops)
        client = XsClient(xs)

        def writer(domid, offset):
            guest = client.for_domain(0)
            base = "/local/domain/%d" % domid
            yield sim.timeout(offset)
            yield from guest.write(base + "/name", "g%d" % domid)
            yield from guest.check_unique_name("n-%d-%d" % (domid, seed))
            with guest.batch() as batch:
                for leaf in range(3):
                    batch.write("%s/data/%d" % (base, leaf), str(leaf))
                yield from batch.commit()

            def body(txn, base=base):
                yield from txn.write(base + "/memory/target", "64")
                yield from txn.rm(base + "/data/0")
            yield from guest.transaction(body)

        for domid, offset in writers:
            sim.process(writer(domid, float(offset)))
        sim.run()
        return xs
    return scenario


@pytest.mark.parametrize("workers", (1, 2, 4))
@pytest.mark.parametrize("batch_ops", (False, True))
@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_dispatch_replays_identically(workers, batch_ops, seed):
    writers = tuple((domid, (domid * seed) % 5) for domid in range(1, 9))
    scenario = _sharded_storm(workers, batch_ops, writers)
    first = run_traced(Simulator, scenario, seed)
    second = run_traced(Simulator, scenario, seed)
    assert first.events == second.events > 0
    assert first.digest() == second.digest()


def test_multi_shard_ops_acquire_in_ascending_order():
    """The deadlock-freedom/determinism invariant: whatever path set a
    batch or global op touches, the shard list is ascending and
    de-duplicated."""
    xs = XenStoreDaemon(Simulator(), workers=4)
    paths = ["/local/domain/%d/x" % index for index in range(16)]
    paths += ["/vm/%d" % index for index in range(16)]
    paths += ["/tool/pools", "/libxl/x"]
    for start in range(0, len(paths), 5):
        subset = paths[start:start + 7]
        shards = xs._shards_for(subset)
        assert list(shards) == sorted(set(shards))
    assert xs._all_shards() == (0, 1, 2, 3)


def test_backend_paths_follow_frontend_shard():
    """Dom0's per-guest backend state shards with the *frontend* guest,
    so a device handshake never straddles two shards."""
    xs = XenStoreDaemon(Simulator(), workers=4)
    for domid in range(1, 20):
        guest = xs._shard_index("/local/domain/%d/device/vif/0" % domid)
        backend = xs._shard_index(
            "/local/domain/0/backend/vif/%d/0/state" % domid)
        assert guest == backend == domid % 4


# ----------------------------------------------------------------------
# Golden digests: literal (events, digest) pairs for the request paths
# the frozen daemon cannot speak to (shards, batches, cxenstored, load
# shedding).  A host-cost change to the request path must hold them.
# ----------------------------------------------------------------------

#: :func:`_sharded_storm` at seed 7, per ``(workers, batch_ops)``.
SHARDED_STORM_PINS = {
    (2, False): (184, "923149d3c61587d903b539e7d9dc05dd"
                      "19a5b61db2ff5d1af14c0336d1b7509b"),
    (2, True): (136, "4b570db414d2059b920f2dd05cf216e1"
                     "89da3600b928165affb7f8d21a68a74a"),
    (4, False): (216, "4198f0aceac0ca7b1ece0364b9ea1e6a"
                      "9a23ca575046d2abd0cd36d10431f60c"),
    (4, True): (168, "91f01acb509ac75ade4e5602e97c1837"
                     "d6f5e8d170e089a221cb1348561313e5"),
}


@pytest.mark.parametrize("workers,batch_ops", sorted(SHARDED_STORM_PINS))
def test_sharded_storm_digest_pinned(workers, batch_ops):
    seed = 7
    writers = tuple((domid, (domid * seed) % 5) for domid in range(1, 9))
    trace = run_traced(Simulator, _sharded_storm(workers, batch_ops,
                                                 writers), seed)
    assert (trace.events, trace.digest()) == \
        SHARDED_STORM_PINS[workers, batch_ops]


def _cxenstored_xl_storm(sim, seed):
    """An xl creation storm on the C daemon (its latency multiplier
    applies to every op and every watch delivery)."""
    host = Host(variant="xl", seed=seed, sim=sim,
                xenstore_impl="cxenstored")
    for _ in range(8):
        host.create_vm(DAYTIME_UNIKERNEL)


def test_cxenstored_xl_storm_digest_pinned():
    trace = run_traced(Simulator, _cxenstored_xl_storm, 7)
    assert (trace.events, trace.digest()) == (
        2431,
        "f1e482ec7913b1459a95df48125b746ed9b8570ce3579be95f7994d5e5404a38")


def _shedding_storm(sim, seed):
    """Twelve clients on a daemon whose admission queue holds one
    request: transactions, plain writes and batches are shed, and the
    client's bounded resends absorb part of it."""
    xs = XenStoreDaemon(sim, rng=None, queue_cap=1)
    client = XsClient(xs)

    def writer(domid):
        base = "/local/domain/%d" % domid
        yield sim.timeout(float((domid * seed) % 3))
        outcomes = []

        def body(txn):
            yield from txn.write(base + "/memory/target", "64")
            yield from txn.exists(base + "/name")
        try:
            retries = yield from client.transaction(body)
            outcomes.append("txn%d" % retries)
        except Overloaded:
            outcomes.append("txn-shed")
        try:
            yield from client.write(base + "/name", "g%d" % domid)
            outcomes.append("write")
        except Overloaded:
            outcomes.append("write-shed")
        try:
            with client.batch() as batch:
                for leaf in range(3):
                    batch.write("%s/data/%d" % (base, leaf), str(leaf))
                yield from batch.commit()
            outcomes.append("batch")
        except Overloaded:
            outcomes.append("batch-shed")
        return outcomes

    for domid in range(1, 13):
        sim.process(writer(domid))
    sim.run()
    return xs


def test_shedding_client_storm_digest_pinned():
    shed = []

    def scenario(sim, seed):
        shed.append(_shedding_storm(sim, seed).stats["shed"])

    trace = run_traced(Simulator, scenario, 0)
    assert shed[0] > 0
    assert (shed[0], trace.events, trace.digest()) == (
        38, 218,
        "7fd2217907e9309470281191ba00e4edaedd716151307f23bdd062ba1c867edb")


# ----------------------------------------------------------------------
# Property: dispatch determinism under arbitrary interleavings
# ----------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=40, deadline=None)
@given(
    workers=st.integers(min_value=1, max_value=4),
    batch_ops=st.booleans(),
    writers=st.lists(
        st.tuples(st.integers(min_value=1, max_value=12),
                  st.integers(min_value=0, max_value=9)),
        min_size=1, max_size=8, unique_by=lambda pair: pair[0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_prop_shard_dispatch_deterministic(workers, batch_ops, writers,
                                           seed):
    scenario = _sharded_storm(workers, batch_ops, tuple(writers))
    first = run_traced(Simulator, scenario, seed)
    second = run_traced(Simulator, scenario, seed)
    assert first.digest() == second.digest()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(
    ["/local/domain/%d/a" % index for index in range(10)]
    + ["/vm/%d" % index for index in range(10)]
    + ["/tool/x", "/libxl/y", "/"]), min_size=1, max_size=12),
    st.integers(min_value=1, max_value=6))
def test_prop_shards_for_sorted_and_stable(paths, workers):
    xs = XenStoreDaemon(Simulator(), workers=workers)
    shards = xs._shards_for(paths)
    assert list(shards) == sorted(set(shards))
    assert shards == xs._shards_for(list(reversed(paths)))
    assert all(0 <= index < workers for index in shards)
