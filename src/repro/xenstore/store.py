"""The XenStore tree: a hierarchical key-value store.

Xen's central registry is a filesystem-like tree (``/local/domain/<id>/...``,
``/vm/...``, backend directories, ...).  Every node carries a value, an owner
domain, and a **generation counter** bumped on each modification — the
generation counters are what transactions validate against at commit time,
so they are the root cause of the retry storms §4.2 blames for superlinear
creation times.
"""

from __future__ import annotations

import types
import typing


class StoreError(RuntimeError):
    """Base class for store access errors."""


class NoEntError(StoreError):
    """Path does not exist (ENOENT)."""


class InvalidPathError(StoreError):
    """Malformed path."""


def split_path(path: str) -> typing.Tuple[str, ...]:
    """Validate and split an absolute store path into components."""
    if path[:1] != "/":
        raise InvalidPathError("path must be absolute: %r" % path)
    if "//" in path:
        raise InvalidPathError("empty component in path: %r" % path)
    if path == "/":
        return ()
    return tuple(path[1:].rstrip("/").split("/"))


#: The child map every leaf shares until :meth:`XenStoreTree.write` gives
#: it its first child.  Read-only, so an insert anywhere else raises
#: ``TypeError`` instead of growing every leaf at once.
_NO_CHILDREN: typing.Mapping[str, "Node"] = types.MappingProxyType({})


class Node:
    """One tree node.  Its name is its key in the parent's child map."""

    __slots__ = ("value", "owner_domid", "children", "generation", "perms")

    def __init__(self, value: str = "", owner_domid: int = 0,
                 generation: int = 0, perms=None):
        self.value = value
        self.owner_domid = owner_domid
        #: Child name -> node; :data:`_NO_CHILDREN` while a leaf.
        self.children: typing.Mapping[str, "Node"] = _NO_CHILDREN
        self.generation = generation
        #: Explicit ACL (NodePerms) or None for the implicit owner-only
        #: default.
        self.perms = perms


#: Path shape of guest-name nodes (``/local/domain/<id>/name``); ``None``
#: is the domain-id wildcard.  The name-admission index below tracks the
#: values of exactly these nodes.
_NAME_PATTERN = ("local", "domain", None, "name")


class XenStoreTree:
    """The mutable tree plus a global generation counter.

    Alongside the tree proper, a **name-admission index** (``_names``)
    counts how many ``/local/domain/<id>/name`` nodes currently hold each
    value.  It makes the daemon's unique-name check O(1) *host* time; the
    modeled O(N) scan latency from §4.2 is still charged by the daemon
    (see DESIGN.md, "Modeled cost vs host cost").  All mutations funnel
    through :meth:`write` and :meth:`rm` — transactions commit through
    them too — so the index cannot drift from the tree.

    The same two methods keep a **component table**: every node key
    spelled ``part`` is the one string ``_keys[part]``, and
    ``_key_uses[part]`` counts the live nodes keyed by it.  A guest's
    ~100 nodes repeat components (``device``, ``vif``, its domid) that
    thousands of other guests use too; without the table each node
    would keep its own copy, as :func:`split_path` made it.  An entry
    goes with the last node that uses it, so a dropped guest leaves
    nothing behind (which ``sys.intern``, whose table outlives the
    tree, would not guarantee).
    """

    def __init__(self):
        self.root = Node()
        #: Bumped on every mutation; transactions snapshot this.
        self.generation = 0
        #: Total nodes ever written (for accounting/benchmarks).
        self.write_count = 0
        #: Name-admission index: guest name -> number of domains holding
        #: it (normally 0 or 1; transient overlaps are possible while a
        #: rename is in flight).
        self._names: typing.Dict[str, int] = {}
        #: Component table: component -> its one string, and -> the
        #: number of live nodes keyed by it.
        self._keys: typing.Dict[str, str] = {}
        self._key_uses: typing.Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _find(self, path: str) -> typing.Optional[Node]:
        """The node at ``path``, or None if it does not exist.

        Raises only :class:`InvalidPathError`: a missing node is an
        ordinary answer here (existence checks, commit validation), not
        an exception to raise and catch.
        """
        node = self.root
        for part in split_path(path):
            node = node.children.get(part)
            if node is None:
                return None
        return node

    def _walk(self, path: str) -> Node:
        node = self._find(path)
        if node is None:
            raise NoEntError(path)
        return node

    def exists(self, path: str) -> bool:
        """True if ``path`` names a node."""
        return self._find(path) is not None

    def read(self, path: str) -> str:
        """Return the value at ``path``; raises NoEntError."""
        return self._walk(path).value

    def generation_of(self, path: str) -> int:
        """Generation counter of the node at ``path``."""
        return self._walk(path).generation

    def directory(self, path: str) -> typing.List[str]:
        """Child names under ``path`` (sorted, as xenstored returns them)."""
        return sorted(self._walk(path).children)

    def child_count(self, path: str) -> int:
        """Number of children under ``path`` (0 if the path is missing).

        Cheaper than ``len(directory(path))`` — no sort, no list — for
        callers that only size a modeled scan charge.
        """
        node = self._find(path)
        return 0 if node is None else len(node.children)

    def name_in_use(self, name: str) -> bool:
        """True if any ``/local/domain/<id>/name`` node holds ``name``.

        O(1) host time via the name-admission index; equivalent to
        scanning every domain's name node.
        """
        return self._names.get(name, 0) > 0

    def get_perms(self, path: str):
        """The node's effective ACL.

        A node without an explicit ACL inherits the nearest ancestor's
        (covering children that raced with the XS_SET_PERMS on their
        directory); with no ACL anywhere on the path, the implicit
        owner-only ACL applies.
        """
        from .permissions import NodePerms
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

    def set_perms(self, path: str, perms) -> None:
        """Replace the node's ACL (XS_SET_PERMS)."""
        node = self._walk(path)
        node.perms = perms
        node.owner_domid = perms.owner_domid
        self.generation += 1
        node.generation = self.generation

    def count_nodes(self) -> int:
        """Total nodes in the tree (excluding the root)."""
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            total += len(node.children)
            stack.extend(node.children.values())
        return total

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def write(self, path: str, value: str,
              owner_domid: int = 0) -> typing.Tuple[str, ...]:
        """Write ``value`` at ``path``, creating intermediate nodes.

        Mirrors xenstored: a write implicitly mkdir-s missing parents.
        Returns the path's components, so that firing the write's
        watches need not parse the path again.
        """
        parts = split_path(path)
        if not parts:
            raise InvalidPathError("cannot write to /")
        # Writes at or under /local/domain/<id>/name touch the
        # name-admission index: capture the name node's prior value (None
        # if absent) so the index can be diffed after the write.  A write
        # *below* the name node may create it implicitly (value "").
        touches_name = (len(parts) >= 4 and parts[0] == "local"
                        and parts[1] == "domain" and parts[3] == "name")
        old_name: typing.Optional[str] = None
        if touches_name:
            probe: typing.Optional[Node] = self.root
            for part in parts[:4]:
                probe = probe.children.get(part)
                if probe is None:
                    break
            else:
                old_name = probe.value
        self.generation += 1
        node = self.root
        for part in parts:
            child = node.children.get(part)
            if child is None:
                # New nodes inherit the parent's ACL (xenstored
                # semantics) so a directory grant covers later children.
                child = Node("", owner_domid, self.generation, node.perms)
                if node.children is _NO_CHILDREN:
                    node.children = {}
                key = self._keys.get(part)
                if key is None:
                    key = self._keys[part] = part
                    self._key_uses[key] = 1
                else:
                    self._key_uses[key] += 1
                node.children[key] = child
            node = child
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
        return parts

    def mkdir(self, path: str, owner_domid: int = 0) -> None:
        """Create an (empty-valued) directory node."""
        if not self.exists(path):
            self.write(path, "", owner_domid=owner_domid)

    def rm(self, path: str) -> int:
        """Remove the subtree at ``path``; returns nodes removed."""
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
        doomed = parent.children.get(leaf)
        if doomed is None:
            raise NoEntError(path)
        removed = self._release_subtree(leaf, doomed)
        for name in self._doomed_names(parts, doomed):
            self._name_discard(name)
        del parent.children[leaf]
        if not parent.children:
            parent.children = _NO_CHILDREN
        self.generation += 1
        parent.generation = self.generation
        return removed

    def _release_subtree(self, key: str, node: Node) -> int:
        """Release the component of every node in the subtree of
        ``node`` (keyed ``key``); returns the subtree's size."""
        keys, uses = self._keys, self._key_uses
        total = 0
        stack = [(key, node)]
        while stack:
            key, node = stack.pop()
            total += 1
            count = uses[key] - 1
            if count:
                uses[key] = count
            else:
                del uses[key], keys[key]
            stack.extend(node.children.items())
        return total

    # ------------------------------------------------------------------
    # Name-admission index maintenance
    # ------------------------------------------------------------------
    def _name_discard(self, name: str) -> None:
        count = self._names.get(name, 0)
        if count <= 1:
            self._names.pop(name, None)
        else:
            self._names[name] = count - 1

    @staticmethod
    def _doomed_names(parts: typing.Sequence[str],
                      doomed: Node) -> typing.Iterator[str]:
        """Values of every name node inside the subtree being removed.

        ``doomed`` sits at depth ``len(parts)``; name nodes sit at depth
        4 on the ``/local/domain/<id>/name`` pattern, so only removals
        rooted at depth <= 4 on a matching prefix can contain any.
        """
        depth = len(parts)
        if depth > 4:
            return
        for i, part in enumerate(parts):
            want = _NAME_PATTERN[i]
            if want is not None and part != want:
                return
        # Descend the remaining pattern components below the doomed root.
        frontier = [doomed]
        for want in _NAME_PATTERN[depth:]:
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
