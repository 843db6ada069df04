"""Tests for the XenStore tree."""

import pytest

from repro.xenstore import (InvalidPathError, NoEntError, XenStoreTree,
                            split_path)


class TestPathSplitting:
    def test_root(self):
        assert split_path("/") == ()

    def test_simple(self):
        assert split_path("/local/domain/1") == ("local", "domain", "1")

    def test_trailing_slash_stripped(self):
        assert split_path("/a/b/") == ("a", "b")

    def test_memo_returns_equal_parse(self):
        # split_path keeps no memo, so every call parses afresh; two
        # calls must still give equal, immutable components.
        first = split_path("/memo/check/path")
        assert split_path("/memo/check/path") == first
        assert isinstance(first, tuple)

    def test_relative_rejected(self):
        with pytest.raises(InvalidPathError):
            split_path("local/domain")

    def test_empty_component_rejected(self):
        with pytest.raises(InvalidPathError):
            split_path("/a//b")


class TestTree:
    def test_write_read_roundtrip(self):
        tree = XenStoreTree()
        tree.write("/local/domain/1/name", "vm1")
        assert tree.read("/local/domain/1/name") == "vm1"

    def test_write_creates_parents(self):
        tree = XenStoreTree()
        tree.write("/a/b/c", "v")
        assert tree.exists("/a")
        assert tree.exists("/a/b")
        assert tree.read("/a/b") == ""

    def test_read_missing_raises(self):
        tree = XenStoreTree()
        with pytest.raises(NoEntError):
            tree.read("/nope")

    def test_write_to_root_rejected(self):
        tree = XenStoreTree()
        with pytest.raises(InvalidPathError):
            tree.write("/", "v")

    def test_directory_sorted(self):
        tree = XenStoreTree()
        tree.write("/d/b", "1")
        tree.write("/d/a", "2")
        tree.write("/d/c", "3")
        assert tree.directory("/d") == ["a", "b", "c"]

    def test_directory_of_leaf_empty(self):
        tree = XenStoreTree()
        tree.write("/x", "v")
        assert tree.directory("/x") == []

    def test_mkdir_idempotent(self):
        tree = XenStoreTree()
        tree.write("/d/child", "v")
        tree.mkdir("/d")
        assert tree.read("/d/child") == "v"

    def test_rm_removes_subtree(self):
        tree = XenStoreTree()
        tree.write("/d/a", "1")
        tree.write("/d/b/c", "2")
        removed = tree.rm("/d")
        assert removed == 4  # d, a, b, c
        assert not tree.exists("/d")

    def test_rm_missing_raises(self):
        tree = XenStoreTree()
        with pytest.raises(NoEntError):
            tree.rm("/nope")

    def test_rm_root_rejected(self):
        tree = XenStoreTree()
        with pytest.raises(InvalidPathError):
            tree.rm("/")

    def test_generation_bumps_on_write(self):
        tree = XenStoreTree()
        tree.write("/a", "1")
        g1 = tree.generation_of("/a")
        tree.write("/a", "2")
        assert tree.generation_of("/a") > g1

    def test_generation_untouched_for_other_nodes(self):
        tree = XenStoreTree()
        tree.write("/a", "1")
        tree.write("/b", "2")
        g_a = tree.generation_of("/a")
        tree.write("/b", "3")
        assert tree.generation_of("/a") == g_a

    def test_owner_recorded(self):
        tree = XenStoreTree()
        tree.write("/a", "1", owner_domid=7)
        # walk to check node attribute
        assert tree._walk("/a").owner_domid == 7

    def test_count_nodes(self):
        tree = XenStoreTree()
        tree.write("/a/b", "1")
        tree.write("/a/c", "2")
        assert tree.count_nodes() == 3


class TestNameIndex:
    """Coherence of the O(1) name-admission index against the tree."""

    def test_write_registers_name(self):
        tree = XenStoreTree()
        tree.write("/local/domain/1/name", "vm-a")
        assert tree.name_in_use("vm-a")
        assert not tree.name_in_use("vm-b")

    def test_overwrite_moves_name(self):
        tree = XenStoreTree()
        tree.write("/local/domain/1/name", "old")
        tree.write("/local/domain/1/name", "new")
        assert not tree.name_in_use("old")
        assert tree.name_in_use("new")

    def test_same_name_on_two_domains_counted(self):
        tree = XenStoreTree()
        tree.write("/local/domain/1/name", "dup")
        tree.write("/local/domain/2/name", "dup")
        tree.rm("/local/domain/1")
        assert tree.name_in_use("dup")
        tree.rm("/local/domain/2")
        assert not tree.name_in_use("dup")

    def test_implicit_name_node_indexed_as_empty(self):
        # A deeper write creates /local/domain/3/name with value "".
        tree = XenStoreTree()
        tree.write("/local/domain/3/name/sub", "x")
        assert tree.name_in_use("")
        tree.write("/local/domain/3/name", "real")
        assert tree.name_in_use("real")
        assert not tree.name_in_use("")

    def test_rm_name_node_unregisters(self):
        tree = XenStoreTree()
        tree.write("/local/domain/1/name", "vm-a")
        tree.rm("/local/domain/1/name")
        assert not tree.name_in_use("vm-a")

    def test_rm_domain_subtree_unregisters(self):
        tree = XenStoreTree()
        tree.write("/local/domain/1/name", "vm-a")
        tree.write("/local/domain/1/memory", "65536")
        tree.rm("/local/domain/1")
        assert not tree.name_in_use("vm-a")

    def test_rm_whole_domain_dir_unregisters_all(self):
        tree = XenStoreTree()
        tree.write("/local/domain/1/name", "vm-a")
        tree.write("/local/domain/2/name", "vm-b")
        tree.rm("/local/domain")
        assert not tree.name_in_use("vm-a")
        assert not tree.name_in_use("vm-b")

    def test_unrelated_paths_never_indexed(self):
        tree = XenStoreTree()
        tree.write("/tool/xenstored/name", "ghost")
        tree.write("/local/domain/1/device/name", "ghost")
        assert not tree.name_in_use("ghost")

    def test_transactional_write_lands_in_index(self):
        from repro.xenstore import Transaction
        tree = XenStoreTree()
        tx = Transaction(tree, 1, 0)
        tx.write("/local/domain/4/name", "tx-vm")
        assert not tree.name_in_use("tx-vm")  # staged, not committed
        tx.commit()
        assert tree.name_in_use("tx-vm")

    def test_child_count(self):
        tree = XenStoreTree()
        assert tree.child_count("/local/domain") == 0
        tree.write("/local/domain/1/name", "a")
        tree.write("/local/domain/2/name", "b")
        assert tree.child_count("/local/domain") == 2
