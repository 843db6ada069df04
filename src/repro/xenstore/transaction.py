"""XenStore transactions with optimistic concurrency control.

oxenstored implements transactions by validating, at commit, that nothing
the transaction read or wrote changed since the transaction started; on a
clash the commit fails with EAGAIN and the client must retry the whole
transaction.  §4.2: "As the load increases, XenStore interactions belonging
to different transactions frequently overlap, resulting in failed
transactions that need to be retried."  That retry loop is reproduced here
faithfully: device setup really does re-run when a backend's asynchronous
writes invalidate the toolstack's transaction.
"""

from __future__ import annotations

import typing

from .store import NoEntError, XenStoreTree


class TransactionConflict(RuntimeError):
    """Commit-time validation failed (EAGAIN): retry the transaction."""


class Transaction:
    """A single optimistic transaction against the tree."""

    def __init__(self, tree: XenStoreTree, tx_id: int, domid: int):
        self.tree = tree
        self.tx_id = tx_id
        self.domid = domid
        self.start_generation = tree.generation
        #: path -> generation at first read (None when it did not exist).
        self.read_set: typing.Dict[str, typing.Optional[int]] = {}
        #: path -> value staged for write.
        self.write_set: typing.Dict[str, str] = {}
        #: paths staged for removal.
        self.rm_set: typing.List[str] = []
        self.finished = False
        #: Simulated time the daemon opened this transaction (set by the
        #: daemon; used for the ambient-conflict model).
        self.opened_at = 0.0

    # ------------------------------------------------------------------
    # Operations inside the transaction
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self.finished:
            raise RuntimeError("transaction %d already finished" % self.tx_id)

    def read(self, path: str) -> str:
        """Read through the transaction (sees own staged writes)."""
        self._check_open()
        if path in self.write_set:
            return self.write_set[path]
        node = self.tree._find(path)
        if node is None:
            self.read_set.setdefault(path, None)
            raise NoEntError(path)
        self.read_set.setdefault(path, node.generation)
        return node.value

    def exists(self, path: str) -> bool:
        """Existence check, recorded in the read set."""
        self._check_open()
        if path in self.write_set:
            return True
        node = self.tree._find(path)
        self.read_set.setdefault(
            path, None if node is None else node.generation)
        return node is not None

    def write(self, path: str, value: str) -> None:
        """Stage a write."""
        self._check_open()
        self.write_set[path] = value

    def rm(self, path: str) -> None:
        """Stage a removal."""
        self._check_open()
        self.rm_set.append(path)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def validate(self) -> bool:
        """True if the read/write sets are still consistent with the tree."""
        if self.tree.generation == self.start_generation:
            # Every mutation bumps the tree's generation, so nothing
            # changed since this transaction began: every read still
            # holds and no node is newer than the start.
            return True
        find = self.tree._find
        for path, seen_generation in self.read_set.items():
            node = find(path)
            current = None if node is None else node.generation
            if current != seen_generation:
                return False
        # Writes also conflict if someone else touched the same node after
        # the transaction started.
        for path in self.write_set:
            node = find(path)
            if node is not None and node.generation > self.start_generation:
                return False
        return True

    def commit(self) -> typing.List[str]:
        """Apply the staged mutations atomically.

        Returns the list of modified paths (so the daemon can fire watches).
        Raises :class:`TransactionConflict` if validation fails.
        """
        self._check_open()
        if not self.validate():
            self.finished = True
            raise TransactionConflict(
                "transaction %d clashed; retry" % self.tx_id)
        modified = []
        for path, value in self.write_set.items():
            self.tree.write(path, value, owner_domid=self.domid)
            modified.append(path)
        for path in self.rm_set:
            try:
                self.tree.rm(path)
                modified.append(path)
            except NoEntError:
                pass  # removing a non-existent node inside a tx is a no-op
        self.finished = True
        return modified

    def abort(self) -> None:
        """Discard the transaction."""
        self._check_open()
        self.finished = True
