"""Property tests: the compact XenStore tree against a one-dict-per-node
reference.

:class:`XenStoreTree` shares one read-only child map among its leaves and
keys every node through a per-tree component table.  ``_ReferenceTree``
below is the tree as it was before: every node carries its own name and
its own child dict.  Random scripts of every tree operation must give
the same answers, raise the same exception types and leave every node
with the same value, owner, ACL and generation.
"""

import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xenstore import (InvalidPathError, NodePerms, NoEntError,
                            XenStoreTree, split_path)
from repro.xenstore.store import _NO_CHILDREN


class _RefNode:
    __slots__ = ("name", "value", "owner_domid", "children", "generation",
                 "perms")

    def __init__(self, name, value="", owner_domid=0, generation=0):
        self.name = name
        self.value = value
        self.owner_domid = owner_domid
        self.children: typing.Dict[str, "_RefNode"] = {}
        self.generation = generation
        self.perms = None


class _ReferenceTree:
    """The tree with one child dict per node (no shared leaf map, no
    component table), name-admission index included."""

    def __init__(self):
        self.root = _RefNode("")
        self.generation = 0
        self.write_count = 0
        self._names: typing.Dict[str, int] = {}

    def _find(self, path):
        node = self.root
        for part in split_path(path):
            node = node.children.get(part)
            if node is None:
                return None
        return node

    def _walk(self, path):
        node = self._find(path)
        if node is None:
            raise NoEntError(path)
        return node

    def exists(self, path):
        return self._find(path) is not None

    def read(self, path):
        return self._walk(path).value

    def directory(self, path):
        return sorted(self._walk(path).children)

    def child_count(self, path):
        node = self._find(path)
        return 0 if node is None else len(node.children)

    def name_in_use(self, name):
        return self._names.get(name, 0) > 0

    def get_perms(self, path):
        node = self.root
        inherited = None
        for part in split_path(path):
            try:
                node = node.children[part]
            except KeyError:
                raise NoEntError(path) from None
            if node.perms is not None:
                inherited = node.perms
        return inherited or NodePerms.owned_by(node.owner_domid)

    def set_perms(self, path, perms):
        node = self._walk(path)
        node.perms = perms
        node.owner_domid = perms.owner_domid
        self.generation += 1
        node.generation = self.generation

    def count_nodes(self):
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            total += len(node.children)
            stack.extend(node.children.values())
        return total

    def write(self, path, value, owner_domid=0):
        parts = split_path(path)
        if not parts:
            raise InvalidPathError("cannot write to /")
        touches_name = (len(parts) >= 4 and parts[0] == "local"
                        and parts[1] == "domain" and parts[3] == "name")
        old_name = None
        if touches_name:
            probe = self.root
            for part in parts[:4]:
                probe = probe.children.get(part)
                if probe is None:
                    break
            else:
                old_name = probe.value
        self.generation += 1
        node = self.root
        for part in parts:
            if part not in node.children:
                child = _RefNode(part, owner_domid=owner_domid,
                                 generation=self.generation)
                child.perms = node.perms
                node.children[part] = child
            node = node.children[part]
        node.value = value
        node.generation = self.generation
        node.owner_domid = owner_domid
        self.write_count += 1
        if touches_name:
            new_name = value if len(parts) == 4 else (
                old_name if old_name is not None else "")
            if old_name is None or old_name != new_name:
                if old_name is not None:
                    self._name_discard(old_name)
                self._names[new_name] = self._names.get(new_name, 0) + 1

    def mkdir(self, path, owner_domid=0):
        if not self.exists(path):
            self.write(path, "", owner_domid=owner_domid)

    def rm(self, path):
        parts = split_path(path)
        if not parts:
            raise InvalidPathError("cannot remove /")
        parent = self.root
        for part in parts[:-1]:
            try:
                parent = parent.children[part]
            except KeyError:
                raise NoEntError(path) from None
        leaf = parts[-1]
        if leaf not in parent.children:
            raise NoEntError(path)
        doomed = parent.children[leaf]
        removed = self._subtree_size(doomed)
        for name in self._doomed_names(parts, doomed):
            self._name_discard(name)
        del parent.children[leaf]
        self.generation += 1
        parent.generation = self.generation
        return removed

    @staticmethod
    def _subtree_size(node):
        total = 1
        stack = [node]
        while stack:
            current = stack.pop()
            total += len(current.children)
            stack.extend(current.children.values())
        return total

    def _name_discard(self, name):
        count = self._names.get(name, 0)
        if count <= 1:
            self._names.pop(name, None)
        else:
            self._names[name] = count - 1

    @staticmethod
    def _doomed_names(parts, doomed):
        pattern = ("local", "domain", None, "name")
        depth = len(parts)
        if depth > 4:
            return
        for i, part in enumerate(parts):
            want = pattern[i]
            if want is not None and part != want:
                return
        frontier = [doomed]
        for want in pattern[depth:]:
            if want is None:
                frontier = [child for node in frontier
                            for child in node.children.values()]
            else:
                frontier = [node.children[want] for node in frontier
                            if want in node.children]
            if not frontier:
                return
        for node in frontier:
            yield node.value


def _dump(root) -> typing.Dict[str, tuple]:
    """Every node below ``root``: path -> (value, owner, generation,
    perms)."""
    nodes = {}
    stack = [("", root)]
    while stack:
        prefix, node = stack.pop()
        for name, child in node.children.items():
            path = prefix + "/" + name
            nodes[path] = (child.value, child.owner_domid, child.generation,
                           child.perms)
            stack.append((path, child))
    return nodes


def _check_components(tree: XenStoreTree) -> None:
    """The component table holds exactly the keys of live nodes, each
    counted once per node and stored as the very string the nodes use;
    every leaf holds the shared empty map."""
    uses: typing.Dict[str, int] = {}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if not node.children:
            assert node.children is _NO_CHILDREN
        for key, child in node.children.items():
            assert tree._keys[key] is key
            uses[key] = uses.get(key, 0) + 1
            stack.append(child)
    assert tree._key_uses == uses
    assert tree._keys.keys() == uses.keys()


_COMPONENTS = ("local", "domain", "1", "2", "name", "device", "a", "b")
_paths = st.one_of(
    st.lists(st.sampled_from(_COMPONENTS), min_size=1, max_size=5).map(
        lambda parts: "/" + "/".join(parts)),
    st.sampled_from(["/local/domain/1/name", "/local/domain/2/name",
                     "/local/domain/1/name/x", "/local/domain",
                     "/", "relative/a", "/a//b", "/a/b/"]))
_values = st.sampled_from(["", "x", "y", "a"])
_perms = st.sampled_from([NodePerms.owned_by(0),
                          NodePerms.owned_by(1).grant(2, "r"),
                          NodePerms.owned_by(2, "b")])
_ops = st.lists(st.one_of(
    st.tuples(st.just("write"), _paths, _values, st.integers(0, 2)),
    st.tuples(st.just("mkdir"), _paths, st.integers(0, 2)),
    st.tuples(st.just("rm"), _paths),
    st.tuples(st.just("set_perms"), _paths, _perms),
    st.tuples(st.sampled_from(["read", "exists", "directory",
                               "child_count", "get_perms"]), _paths),
    st.tuples(st.just("name_in_use"), _values),
    st.tuples(st.just("count_nodes"))), max_size=40)


def _apply(tree, op):
    """``op`` on ``tree``: ("ok", result) or ("raised", exception type)."""
    kind, *args = op
    try:
        return ("ok", getattr(tree, kind)(*args))
    except Exception as exc:  # compared by type across the two trees
        return ("raised", type(exc))


@given(_ops)
@settings(max_examples=300, deadline=None)
def test_compact_tree_matches_one_dict_per_node_reference(script):
    tree, reference = XenStoreTree(), _ReferenceTree()
    for op in script:
        got, want = _apply(tree, op), _apply(reference, op)
        if op[0] == "write" and got[0] == "ok":
            # The compact tree's write returns the components it parsed;
            # the reference's returned nothing.
            assert got[1] == split_path(op[1])
            got = ("ok", None)
        assert got == want, op
        assert tree.generation == reference.generation
        assert tree.write_count == reference.write_count
        assert tree._names == reference._names
        assert _dump(tree.root) == _dump(reference.root)
        _check_components(tree)
    for name in list(tree.root.children):
        assert tree.rm("/" + name) == reference.rm("/" + name)
    assert tree.root.children is _NO_CHILDREN
    assert tree._keys == {} and tree._key_uses == {}
    assert tree._names == reference._names == {}


def test_leaf_grows_a_child_map_and_gives_it_back():
    """A write below a leaf gives it a child map of its own; removing
    that directory's last child returns it to the shared empty map."""
    tree = XenStoreTree()
    tree.write("/vm/1", "leaf")
    leaf = tree._find("/vm/1")
    assert leaf.children is _NO_CHILDREN
    tree.write("/vm/1/uuid", "u")
    assert leaf.children is not _NO_CHILDREN
    assert tree.directory("/vm/1") == ["uuid"]
    assert tree.rm("/vm/1/uuid") == 1
    assert leaf.children is _NO_CHILDREN
    assert tree.directory("/vm/1") == [] and tree.child_count("/vm/1") == 0
    assert tree.read("/vm/1") == "leaf"
    _check_components(tree)


def test_shared_leaf_map_rejects_inserts():
    """An insert that bypasses ``write`` fails loudly instead of giving
    every leaf the same child."""
    tree = XenStoreTree()
    tree.write("/a", "")
    leaf = tree._find("/a")
    with pytest.raises(TypeError):
        leaf.children["b"] = leaf
    assert tree.count_nodes() == 1 and _NO_CHILDREN == {}


def test_each_component_is_one_string_per_tree():
    """Two guests' subtrees key their common components by the same
    string objects, and the table forgets a component with the last
    node using it."""
    tree = XenStoreTree()
    for domid in ("17", "18"):
        tree.write("/local/domain/%s/device/vif/0/state" % domid, "1")
    first = tree._find("/local/domain/17").children
    second = tree._find("/local/domain/18").children
    assert next(iter(first)) is next(iter(second))  # "device"
    assert tree._key_uses["device"] == 2
    tree.rm("/local/domain/17")
    assert "17" not in tree._keys and tree._key_uses["device"] == 1
    tree.rm("/local/domain")
    assert tree._key_uses == {"local": 1}
