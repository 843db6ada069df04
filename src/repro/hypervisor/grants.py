"""Grant tables — Xen's page-sharing mechanism.

A domain grants a peer access to one of its frames by filling a grant-table
entry; the peer maps the frame by grant reference.  The split-driver model
moves all device data through granted pages, and noxs's device control
pages are communicated as grant references, so this table is exercised on
every device setup in both toolstacks.
"""

from __future__ import annotations

import typing

from ..faults.plan import NULL_INJECTOR, GrantMapFailure
from ..trace.tracer import tracer_of


class GrantError(RuntimeError):
    """Invalid grant operation (bad ref, busy entry, wrong peer...)."""


class GrantEntry:
    """One grant-table slot."""

    __slots__ = ("ref", "granter_domid", "grantee_domid", "frame",
                 "readonly", "mapped_by")

    def __init__(self, ref: int, granter_domid: int, grantee_domid: int,
                 frame: int, readonly: bool):
        self.ref = ref
        self.granter_domid = granter_domid
        self.grantee_domid = grantee_domid
        self.frame = frame
        self.readonly = readonly
        self.mapped_by: typing.Optional[int] = None


class GrantTable:
    """All grant entries on the host, one table per granting domain.

    As in Xen, each domain owns its grant table (granter domid → ref →
    entry), so tearing a domain down touches only the entries it issued.
    Other modules read the tables through :meth:`entry` and :meth:`items`.
    """

    def __init__(self, faults=None, sim=None):
        self._entries: typing.Dict[int, typing.Dict[int, GrantEntry]] = {}
        self._next_ref: typing.Dict[int, int] = {}
        #: Injector for the ``hypervisor.grant_map`` fault point.
        self.faults = faults if faults is not None else NULL_INJECTOR
        #: Simulator handle for span instants (optional; the table is
        #: time-free otherwise).
        self.sim = sim

    def entry(self, granter_domid: int, ref: int) -> GrantEntry:
        """Look up an entry; raises on a dangling reference."""
        try:
            return self._entries[granter_domid][ref]
        except KeyError:
            raise GrantError("no grant (domid=%d, ref=%d)"
                             % (granter_domid, ref)) from None

    def grant_access(self, granter_domid: int, grantee_domid: int,
                     frame: int, readonly: bool = False) -> int:
        """Create a grant; returns the grant reference.

        Raises :class:`GrantMapFailure` (before touching the table) when
        the ``hypervisor.grant_map`` fault point fires: filling the entry
        failed transiently and the granting side should retry.
        """
        if self.faults.fires("hypervisor.grant_map") is not None:
            raise GrantMapFailure(
                "transient failure filling grant entry for dom%d"
                % granter_domid)
        ref = self._next_ref.get(granter_domid, 1)
        self._next_ref[granter_domid] = ref + 1
        self._entries.setdefault(granter_domid, {})[ref] = GrantEntry(
            ref, granter_domid, grantee_domid, frame, readonly)
        tracer_of(self.sim).instant("grant.access", granter=granter_domid,
                                    grantee=grantee_domid)
        return ref

    def map_ref(self, mapper_domid: int, granter_domid: int,
                ref: int) -> int:
        """Map a granted frame into ``mapper_domid``; returns the frame."""
        entry = self.entry(granter_domid, ref)
        if entry.grantee_domid != mapper_domid:
            raise GrantError(
                "grant %d is for domain %d, not %d"
                % (ref, entry.grantee_domid, mapper_domid))
        if entry.mapped_by is not None:
            raise GrantError("grant %d already mapped" % ref)
        entry.mapped_by = mapper_domid
        tracer_of(self.sim).instant("grant.map", granter=granter_domid,
                                    mapper=mapper_domid)
        return entry.frame

    def unmap_ref(self, mapper_domid: int, granter_domid: int,
                  ref: int) -> None:
        """Release a mapping created by :meth:`map_ref`."""
        entry = self.entry(granter_domid, ref)
        if entry.mapped_by != mapper_domid:
            raise GrantError("grant %d not mapped by domain %d"
                             % (ref, mapper_domid))
        entry.mapped_by = None

    def end_access(self, granter_domid: int, ref: int) -> None:
        """Revoke a grant.  Fails while the peer still has it mapped."""
        entry = self.entry(granter_domid, ref)
        if entry.mapped_by is not None:
            raise GrantError("grant %d still mapped by domain %d"
                             % (ref, entry.mapped_by))
        del self._entries[granter_domid][ref]

    def revoke_all_for(self, domid: int, force: bool = False) -> int:
        """Drop every grant issued by ``domid`` (domain teardown).

        With ``force`` the entries are removed even if mapped, mirroring
        how Xen handles a dying domain.  Without it, entries go in issue
        order until a mapped one raises, leaving it and the rest in place.
        Returns the number revoked.
        """
        entries = self._entries.get(domid, {})
        count = len(entries)
        if not force:
            for ref, entry in list(entries.items()):
                if entry.mapped_by is not None:
                    raise GrantError("grant %d still mapped" % ref)
                del entries[ref]
        self._entries.pop(domid, None)
        return count

    def count_for(self, domid: int) -> int:
        """Number of active grants issued by ``domid``."""
        return len(self._entries.get(domid, ()))

    def items(self) -> typing.List[typing.Tuple[typing.Tuple[int, int],
                                                GrantEntry]]:
        """Every entry as ``((granter domid, ref), entry)``, in key order."""
        result = []
        for granter in sorted(self._entries):
            entries = self._entries[granter]
            for ref in sorted(entries):
                result.append(((granter, ref), entries[ref]))
        return result
