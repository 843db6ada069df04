"""Property-based tests for the XenStore tree, watches and transactions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xenstore import (NoEntError, Transaction, TransactionConflict,
                            Watch, WatchManager, XenStoreTree)

path_segments = st.lists(
    st.text(alphabet="abcd", min_size=1, max_size=3),
    min_size=1, max_size=4)
paths = path_segments.map(lambda parts: "/" + "/".join(parts))


@given(st.dictionaries(paths, st.text(max_size=8), min_size=1,
                       max_size=20))
@settings(max_examples=150, deadline=None)
def test_last_write_wins_roundtrip(writes):
    tree = XenStoreTree()
    for path, value in writes.items():
        tree.write(path, value)
    for path, value in writes.items():
        # A later write may have re-created an ancestor as an inner node,
        # but the leaf value itself must match unless overwritten.
        assert tree.read(path) == writes[path]


@given(st.lists(paths, min_size=1, max_size=15))
@settings(max_examples=150, deadline=None)
def test_rm_removes_exactly_the_subtree(path_list):
    tree = XenStoreTree()
    for index, path in enumerate(path_list):
        tree.write(path, str(index))
    victim = path_list[0]
    tree.rm(victim)
    assert not tree.exists(victim)
    for path in path_list:
        inside = path == victim or path.startswith(victim + "/")
        assert tree.exists(path) == (not inside)


@given(st.lists(paths, min_size=1, max_size=10), paths)
@settings(max_examples=150, deadline=None)
def test_watch_matches_iff_naive_prefix_match(watch_paths, fired):
    """The indexed watch manager must agree with the naive definition."""
    manager = WatchManager()
    hits = []
    for index, path in enumerate(watch_paths):
        manager.add(0, path, str(index),
                    lambda _p, token: hits.append(token))
    manager.fire(fired)

    def naive_match(watch_path):
        watch_path = watch_path.rstrip("/") or "/"
        if watch_path == "/":
            return True
        return fired == watch_path or fired.startswith(watch_path + "/")

    expected = {str(i) for i, p in enumerate(watch_paths)
                if naive_match(p)}
    assert set(hits) == expected


@given(st.lists(paths, min_size=1, max_size=12),
       st.lists(paths, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_watch_fire_order_matches_linear_scan(watch_paths, fired_paths):
    """The prefix index must deliver the *same watches in the same
    order* as a naive daemon that linearly scans its registration list:
    matches sorted shallowest-prefix-first, registration order within a
    prefix.  The delivery order feeds the event heap, so this is part of
    the determinism contract, not a cosmetic detail."""
    manager = WatchManager()
    registered = []
    for index, path in enumerate(watch_paths):
        registered.append(manager.add(index % 3, path, "t%d" % index,
                                      lambda _p, token: None))

    for fired in fired_paths:
        normalized = fired.rstrip("/") or "/"

        def matches(watch):
            return (watch.path == "/" or normalized == watch.path
                    or normalized.startswith(watch.path + "/"))

        expected = sorted(
            (w for w in registered if matches(w)),
            key=lambda w: 0 if w.path == "/" else w.path.count("/"))
        assert manager.fire(fired) == expected


watch_paths = st.one_of(paths, st.just("/"), paths.map(lambda p: p + "/"))
watch_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(0, 2), watch_paths,
              st.sampled_from("xy")),
    st.tuples(st.just("remove"), st.integers(0, 63)),
    st.tuples(st.just("remove-missing"), watch_paths),
    st.tuples(st.just("remove-domain"), st.integers(0, 2)),
    st.tuples(st.just("fire"), watch_paths)), max_size=40)


@given(watch_ops)
@settings(max_examples=200, deadline=None)
def test_watch_registry_matches_linear_scan_reference(operations):
    """Any interleaving of add, remove, remove_for_domain and fire must
    agree with a daemon that keeps one registration list and scans it:
    the same watches fire in the same order (shallowest watch path
    first, registration order within a path), the same removal counts,
    the same ``len()``.  Removing everything leaves no trie level."""
    manager = WatchManager()
    reference = []  # registration order
    delivered = []

    def callback(path, token):
        delivered.append((path, token))

    def scan(fired):
        def matches(watch):
            return (watch.path == "/" or fired == watch.path
                    or fired.startswith(watch.path + "/"))
        return sorted((w for w in reference if matches(w)),
                      key=lambda w: 0 if w.path == "/"
                      else w.path.count("/"))

    for op in operations:
        if op[0] == "add":
            _kind, domid, path, token = op
            reference.append(manager.add(domid, path, token, callback))
        elif op[0] == "remove":
            if reference:
                # Equal watches are interchangeable: both sides drop the
                # first registered one.
                watch = reference[op[1] % len(reference)]
                manager.remove(watch)
                reference.remove(watch)
        elif op[0] == "remove-missing":
            stray = Watch(9, op[1].rstrip("/") or "/", "x", callback)
            with pytest.raises(ValueError):
                manager.remove(stray)
        elif op[0] == "remove-domain":
            kept = [w for w in reference if w.domid != op[1]]
            assert manager.remove_for_domain(op[1]) == \
                len(reference) - len(kept)
            reference = kept
        else:
            fired = op[1].rstrip("/") or "/"
            expected = scan(fired)
            delivered.clear()
            scans = manager.scans_total
            assert manager.fire(op[1]) == expected
            assert delivered == [(fired, w.token) for w in expected]
            assert manager.scans_total - scans == len(reference)
        assert len(manager) == len(reference)

    for watch in list(reference):
        manager.remove(watch)
        reference.remove(watch)
    assert len(manager) == 0
    assert manager._root.watches == []
    assert manager._root.children == {}
    assert manager._levels == {}


@given(st.dictionaries(paths, st.text(max_size=5), min_size=1,
                       max_size=8),
       st.dictionaries(paths, st.text(max_size=5), min_size=0,
                       max_size=8))
@settings(max_examples=150, deadline=None)
def test_transaction_is_atomic(tx_writes, interference):
    """Either every staged write lands, or none do."""
    tree = XenStoreTree()
    tx = Transaction(tree, 1, 0)
    for path, value in tx_writes.items():
        tx.read_set.setdefault(path, None if not tree.exists(path)
                               else tree.generation_of(path))
        tx.write(path, value)
    for path, value in interference.items():
        tree.write(path, value + "!")
    try:
        tx.commit()
        committed = True
    except TransactionConflict:
        committed = False
    if committed:
        for path, value in tx_writes.items():
            assert tree.read(path) == value
    else:
        # None of the transaction's private values leaked.
        for path, value in tx_writes.items():
            if value == "":
                continue  # parent auto-creation writes empty values
            try:
                assert tree.read(path) != value or \
                    interference.get(path, "") + "!" == value
            except NoEntError:
                pass


@given(st.dictionaries(paths, st.text(max_size=5), min_size=1,
                       max_size=10))
@settings(max_examples=100, deadline=None)
def test_interference_on_read_set_always_conflicts(writes):
    tree = XenStoreTree()
    for path, value in writes.items():
        tree.write(path, value)
    tx = Transaction(tree, 1, 0)
    target = sorted(writes)[0]
    tx.read(target)
    tree.write(target, "changed")
    try:
        tx.commit()
        conflicted = False
    except TransactionConflict:
        conflicted = True
    assert conflicted


def full_scan_validate(tx):
    """Commit validation as a check of every read and staged write."""
    for path, seen_generation in tx.read_set.items():
        try:
            current = tx.tree.generation_of(path)
        except NoEntError:
            current = None
        if current != seen_generation:
            return False
    for path in tx.write_set:
        try:
            current = tx.tree.generation_of(path)
        except NoEntError:
            continue
        if current > tx.start_generation:
            return False
    return True


@given(st.dictionaries(paths, st.text(max_size=3), max_size=6),
       st.lists(st.tuples(st.sampled_from(("tx-read", "tx-exists",
                                           "tx-write", "write", "rm")),
                          paths), max_size=20))
@settings(max_examples=150, deadline=None)
def test_validate_matches_full_scan(initial, operations):
    """``validate`` answers like a check of every read and staged write,
    with and without store mutations since the transaction began."""
    tree = XenStoreTree()
    for path, value in initial.items():
        tree.write(path, value)
    tx = Transaction(tree, 1, 0)
    for op, path in operations:
        if op == "tx-read":
            try:
                tx.read(path)
            except NoEntError:
                pass
        elif op == "tx-exists":
            tx.exists(path)
        elif op == "tx-write":
            tx.write(path, "staged")
        elif op == "write":
            tree.write(path, "other")
        else:
            try:
                tree.rm(path)
            except NoEntError:
                pass
        assert tx.validate() == full_scan_validate(tx)


name_ops = st.lists(st.tuples(
    st.sampled_from(("set-name", "deep-write", "rm-name", "rm-domain",
                     "rm-all")),
    st.integers(min_value=1, max_value=5),       # domid
    st.text(alphabet="xyz", min_size=0, max_size=2)),  # name value
    min_size=1, max_size=25)


@given(name_ops)
@settings(max_examples=150, deadline=None)
def test_name_index_matches_linear_scan(operations):
    """``name_in_use`` (the O(1) admission index) must agree with the
    naive scan of ``/local/domain/*/name`` after any interleaving of
    name writes, implicit name-node creation, and subtree removals."""
    tree = XenStoreTree()
    for op, domid, value in operations:
        base = "/local/domain/%d" % domid
        try:
            if op == "set-name":
                tree.write(base + "/name", value)
            elif op == "deep-write":
                # Implicitly creates the name node with value "".
                tree.write(base + "/name/sub", value)
            elif op == "rm-name":
                tree.rm(base + "/name")
            elif op == "rm-domain":
                tree.rm(base)
            else:
                tree.rm("/local/domain")
        except NoEntError:
            pass

    def naive_names():
        try:
            domains = tree.directory("/local/domain")
        except NoEntError:
            return []
        out = []
        for domid in domains:
            path = "/local/domain/%s/name" % domid
            if tree.exists(path):
                out.append(tree.read(path))
        return out

    in_use = naive_names()
    for name in set(in_use) | {"", "x", "y", "zz", "other"}:
        assert tree.name_in_use(name) == (name in in_use), name
