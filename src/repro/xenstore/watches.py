"""XenStore watches.

A watch associates a path with a client; any write at or below that path
fires the watch (delivering the modified path and the client's token).  The
split-driver protocol is built entirely on watches: back-ends watch their
backend directories, and every running guest's xenbus holds watches on its
device and control nodes.  Because oxenstored scans its watch list on each
mutation, the per-write cost grows with the number of running VMs — one of
the §4.2 overheads (the daemon charges ``len(manager)`` comparisons of
simulated time per mutation).

Implementation note: to keep the *simulator* fast at thousands of guests,
watches live in a trie keyed by path component.  A fire walks the fired
path's components from the root, collecting each level's watches, and
stops at the first component no watch lies at or under, so it costs
O(path depth + deliveries) of real time and builds no prefix strings,
while still reporting the linear-scan cost the real daemon would pay in
*simulated* time.  Delivery order equals that of the linear scan:
shallowest watch path first, registration order within a path.
"""

from __future__ import annotations

import typing

from .store import split_path


class Watch(typing.NamedTuple):
    """One registered watch."""

    domid: int
    path: str
    token: str
    callback: typing.Callable[[str, str], None]  # (fired_path, token)


class _Level:
    """One trie level: the watches registered exactly at its path, and
    the next level per child component."""

    __slots__ = ("watches", "children")

    def __init__(self):
        self.watches: typing.List[Watch] = []
        self.children: typing.Dict[str, "_Level"] = {}


class WatchManager:
    """Registry of watches with subtree-fire semantics."""

    def __init__(self):
        #: The level of ``/``; never pruned.
        self._root = _Level()
        #: Watch path -> the level holding its watches, for every path
        #: with at least one watch (removal looks levels up here).
        self._levels: typing.Dict[str, _Level] = {}
        self._count = 0
        #: Total watch events delivered (for the cost accounting).
        self.fired_total = 0
        #: Simulated linear-scan comparisons (what oxenstored would do).
        self.scans_total = 0

    def __len__(self) -> int:
        return self._count

    def add(self, domid: int, path: str, token: str,
            callback: typing.Callable[[str, str], None]) -> Watch:
        """Register a watch on ``path`` (and its subtree).

        Raises :class:`~repro.xenstore.store.InvalidPathError` for a
        relative path or one with an empty component.
        """
        parts = split_path(path)
        watch = Watch(domid, path.rstrip("/") or "/", token, callback)
        level = self._levels.get(watch.path)
        if level is None:
            level = self._root
            for part in parts:
                child = level.children.get(part)
                if child is None:
                    child = level.children[part] = _Level()
                level = child
            self._levels[watch.path] = level
        level.watches.append(watch)
        self._count += 1
        return watch

    def remove(self, watch: Watch) -> None:
        """Unregister a watch."""
        level = self._levels.get(watch.path)
        if level is None or watch not in level.watches:
            raise ValueError("watch not registered: %r" % (watch,))
        level.watches.remove(watch)
        if not level.watches:
            self._drop(watch.path)
        self._count -= 1

    def remove_for_domain(self, domid: int) -> int:
        """Drop all watches held by ``domid``; returns the count."""
        removed = 0
        for path, level in list(self._levels.items()):
            kept = [w for w in level.watches if w.domid != domid]
            removed += len(level.watches) - len(kept)
            level.watches = kept
            if not kept:
                self._drop(path)
        self._count -= removed
        return removed

    def clear(self) -> None:
        """Unregister every watch.  A watch's callback is typically a
        bound method of a component that holds a client of this daemon,
        so a live registry ties the daemon into a reference cycle with
        everyone watching it; a closing host clears it."""
        self._root = _Level()
        self._levels = {}
        self._count = 0

    def _drop(self, path: str) -> None:
        """Forget the now watch-less level of ``path`` and prune every
        level on its chain left with neither watches nor children."""
        del self._levels[path]
        parts = split_path(path)
        chain = [self._root]
        for part in parts:
            chain.append(chain[-1].children[part])
        for depth in range(len(parts), 0, -1):
            level = chain[depth]
            if level.watches or level.children:
                break
            del chain[depth - 1].children[parts[depth - 1]]

    def fire(self, path: str,
             parts: typing.Optional[typing.Tuple[str, ...]] = None
             ) -> typing.List[Watch]:
        """Deliver the watch events for a modification at ``path``.

        ``parts`` is ``split_path(path)`` when the caller has it already
        (:meth:`XenStoreTree.write` returns it).  Returns the watches
        that fired.  Callbacks run synchronously (the daemon charges
        delivery latency separately).
        """
        path = path.rstrip("/") or "/"
        if parts is None:
            parts = split_path(path)
        self.scans_total += self._count  # the daemon's linear scan
        level = self._root
        fired = level.watches[:]
        for part in parts:
            level = level.children.get(part)
            if level is None:
                break
            if level.watches:
                fired += level.watches
        for watch in fired:
            self.fired_total += 1
            watch.callback(path, watch.token)
        return fired
