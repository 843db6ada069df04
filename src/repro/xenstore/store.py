"""The XenStore tree: a hierarchical key-value store.

Xen's central registry is a filesystem-like tree (``/local/domain/<id>/...``,
``/vm/...``, backend directories, ...).  Every node carries a value, an owner
domain, and a **generation counter** bumped on each modification — the
generation counters are what transactions validate against at commit time,
so they are the root cause of the retry storms §4.2 blames for superlinear
creation times.
"""

from __future__ import annotations

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


class Node:
    """One tree node."""

    __slots__ = ("name", "value", "owner_domid", "children", "generation",
                 "perms")

    def __init__(self, name: str, value: str = "", owner_domid: int = 0,
                 generation: int = 0):
        self.name = name
        self.value = value
        self.owner_domid = owner_domid
        self.children: typing.Dict[str, "Node"] = {}
        self.generation = generation
        #: Explicit ACL (NodePerms) or None for the implicit owner-only
        #: default.
        self.perms = None


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
    """

    def __init__(self):
        self.root = Node("")
        #: Bumped on every mutation; transactions snapshot this.
        self.generation = 0
        #: Total nodes ever written (for accounting/benchmarks).
        self.write_count = 0
        #: Name-admission index: guest name -> number of domains holding
        #: it (normally 0 or 1; transient overlaps are possible while a
        #: rename is in flight).
        self._names: typing.Dict[str, int] = {}

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
    def write(self, path: str, value: str, owner_domid: int = 0) -> None:
        """Write ``value`` at ``path``, creating intermediate nodes.

        Mirrors xenstored: a write implicitly mkdir-s missing parents.
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
            if part not in node.children:
                child = Node(part, owner_domid=owner_domid,
                             generation=self.generation)
                # New nodes inherit the parent's ACL (xenstored
                # semantics) so a directory grant covers later children.
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
    def _subtree_size(node: Node) -> int:
        total = 1
        stack = [node]
        while stack:
            current = stack.pop()
            total += len(current.children)
            stack.extend(current.children.values())
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
