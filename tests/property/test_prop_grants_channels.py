"""Property tests: the per-domain grant and event-channel tables behave
exactly like flat ``(owner, id)``-keyed tables.

The reference models below are the flat tables the hypervisor used before
it kept one table per domain (fault injection and tracing left out).
Hypothesis drives both through random operation sequences over a few
domids and compares every outcome and the full table state after each
step.
"""

import typing

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypervisor import (EventChannelError, EventChannelTable,
                              GrantError, GrantTable)

DOMIDS = (0, 1, 2)
IDS = st.integers(min_value=0, max_value=3)
DOMS = st.sampled_from(DOMIDS)


class FlatGrantTable:
    """Reference: every grant on the host keyed by (granter, ref)."""

    class Entry:
        def __init__(self, ref, granter_domid, grantee_domid, frame,
                     readonly):
            self.ref = ref
            self.granter_domid = granter_domid
            self.grantee_domid = grantee_domid
            self.frame = frame
            self.readonly = readonly
            self.mapped_by = None

    def __init__(self):
        self.by_key: typing.Dict[typing.Tuple[int, int], object] = {}
        self._next_ref: typing.Dict[int, int] = {}

    def entry(self, granter_domid, ref):
        try:
            return self.by_key[(granter_domid, ref)]
        except KeyError:
            raise GrantError("no grant (domid=%d, ref=%d)"
                             % (granter_domid, ref)) from None

    def grant_access(self, granter_domid, grantee_domid, frame,
                     readonly=False):
        ref = self._next_ref.get(granter_domid, 1)
        self._next_ref[granter_domid] = ref + 1
        self.by_key[(granter_domid, ref)] = self.Entry(
            ref, granter_domid, grantee_domid, frame, readonly)
        return ref

    def map_ref(self, mapper_domid, granter_domid, ref):
        entry = self.entry(granter_domid, ref)
        if entry.grantee_domid != mapper_domid:
            raise GrantError(
                "grant %d is for domain %d, not %d"
                % (ref, entry.grantee_domid, mapper_domid))
        if entry.mapped_by is not None:
            raise GrantError("grant %d already mapped" % ref)
        entry.mapped_by = mapper_domid
        return entry.frame

    def unmap_ref(self, mapper_domid, granter_domid, ref):
        entry = self.entry(granter_domid, ref)
        if entry.mapped_by != mapper_domid:
            raise GrantError("grant %d not mapped by domain %d"
                             % (ref, mapper_domid))
        entry.mapped_by = None

    def end_access(self, granter_domid, ref):
        entry = self.entry(granter_domid, ref)
        if entry.mapped_by is not None:
            raise GrantError("grant %d still mapped by domain %d"
                             % (ref, entry.mapped_by))
        del self.by_key[(granter_domid, ref)]

    def revoke_all_for(self, domid, force=False):
        refs = [(granter, ref) for (granter, ref), entry
                in self.by_key.items() if granter == domid]
        for granter, ref in refs:
            entry = self.by_key[(granter, ref)]
            if entry.mapped_by is not None and not force:
                raise GrantError("grant %d still mapped" % ref)
            del self.by_key[(granter, ref)]
        return len(refs)

    def count_for(self, domid):
        return sum(1 for (granter, _r) in self.by_key if granter == domid)

    def items(self):
        return sorted(self.by_key.items())


class FlatEventChannelTable:
    """Reference: every event channel on the host keyed by (owner, port)."""

    class Channel:
        def __init__(self, port, owner_domid):
            self.port = port
            self.owner_domid = owner_domid
            self.remote_domid = None
            self.remote_port = None
            self.state = "unbound"
            self.notifications = 0

    def __init__(self):
        self.by_key: typing.Dict[typing.Tuple[int, int], object] = {}
        self._next_port: typing.Dict[int, int] = {}
        self.total_notifications = 0

    def _alloc_port(self, domid):
        port = self._next_port.get(domid, 1)
        self._next_port[domid] = port + 1
        return port

    def channel(self, domid, port):
        try:
            return self.by_key[(domid, port)]
        except KeyError:
            raise EventChannelError(
                "no channel (domid=%d, port=%d)" % (domid, port)) from None

    def alloc_unbound(self, owner_domid, remote_domid):
        port = self._alloc_port(owner_domid)
        channel = self.Channel(port, owner_domid)
        channel.remote_domid = remote_domid
        self.by_key[(owner_domid, port)] = channel
        return port

    def bind_interdomain(self, domid, remote_domid, remote_port):
        remote = self.channel(remote_domid, remote_port)
        if remote.state != "unbound":
            raise EventChannelError("remote port %d not unbound"
                                    % remote_port)
        if remote.remote_domid != domid:
            raise EventChannelError(
                "port %d reserved for domain %s, not %d"
                % (remote_port, remote.remote_domid, domid))
        port = self._alloc_port(domid)
        local = self.Channel(port, domid)
        local.state = remote.state = "interdomain"
        local.remote_domid, local.remote_port = remote_domid, remote_port
        remote.remote_domid, remote.remote_port = domid, port
        self.by_key[(domid, port)] = local
        return port

    def notify(self, domid, port):
        channel = self.channel(domid, port)
        if channel.state != "interdomain":
            raise EventChannelError("port %d not connected" % port)
        peer = self.channel(channel.remote_domid, channel.remote_port)
        peer.notifications += 1
        self.total_notifications += 1

    def close(self, domid, port):
        channel = self.channel(domid, port)
        if channel.state == "interdomain":
            peer_key = (channel.remote_domid, channel.remote_port)
            peer = self.by_key.get(peer_key)
            if peer is not None:
                peer.state = "closed"
        channel.state = "closed"
        del self.by_key[(domid, port)]

    def close_all_for(self, domid):
        ports = [port for (owner, port) in self.by_key
                 if owner == domid]
        for port in ports:
            self.close(domid, port)
        return len(ports)

    def count_for(self, domid):
        return sum(1 for (owner, _p) in self.by_key if owner == domid)

    def items(self):
        return sorted(self.by_key.items())


def _outcome(call, *args):
    """A call's return value, or the type and message of what it raised."""
    try:
        return ("ok", call(*args))
    except Exception as exc:  # any divergence, typed or not, must show
        return ("raised", type(exc), str(exc))


def _grant_state(table):
    return [(key, (e.ref, e.granter_domid, e.grantee_domid, e.frame,
                   e.readonly, e.mapped_by))
            for key, e in table.items()]


def _channel_state(table):
    return [(key, (c.port, c.owner_domid, c.remote_domid, c.remote_port,
                   c.state, c.notifications))
            for key, c in table.items()]


def _key(data, keys):
    """An existing ``(owner, id)`` most of the time, else any pair (which
    is often dangling)."""
    if keys and data.draw(st.integers(min_value=0, max_value=3)):
        return data.draw(st.sampled_from(keys))
    return data.draw(st.tuples(DOMS, IDS))


def _grant_step(data, reference):
    keys = [key for key, _e in reference.items()]
    # Grants and maps weigh double so that a domain often holds several
    # grants, some mapped, when a revoke comes.
    name = data.draw(st.sampled_from(
        ["grant_access", "grant_access", "map_ref", "map_ref", "unmap_ref",
         "end_access", "revoke_all_for"]))
    if name == "grant_access":
        return name, (data.draw(DOMS), data.draw(DOMS), data.draw(IDS),
                      data.draw(st.booleans()))
    if name in ("map_ref", "unmap_ref"):
        granter, ref = _key(data, keys)
        entry = reference.by_key.get((granter, ref))
        # Mostly the grantee, so that maps (and then unmaps) succeed.
        mappers = list(DOMIDS) + ([entry.grantee_domid] * 3 if entry
                                  else [])
        return name, (data.draw(st.sampled_from(mappers)), granter, ref)
    if name == "end_access":
        return name, _key(data, keys)
    granters = list(DOMIDS) + [granter for granter, _r in keys]
    return name, (data.draw(st.sampled_from(granters)),
                  data.draw(st.booleans()))


def _channel_step(data, reference):
    keys = [key for key, _c in reference.items()]
    name = data.draw(st.sampled_from(
        ["alloc_unbound", "bind_interdomain", "notify", "close",
         "close_all_for"]))
    if name == "alloc_unbound":
        return name, (data.draw(DOMS), data.draw(DOMS))
    if name == "bind_interdomain":
        owner, port = _key(data, keys)
        channel = reference.by_key.get((owner, port))
        # Mostly the domain the port is reserved for, so binds succeed.
        binders = list(DOMIDS) + ([channel.remote_domid] * 3 if channel
                                  else [])
        return name, (data.draw(st.sampled_from(binders)), owner, port)
    if name in ("notify", "close"):
        return name, _key(data, keys)
    owners = list(DOMIDS) + [owner for owner, _p in keys]
    return name, (data.draw(st.sampled_from(owners)),)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_grant_table_matches_flat_reference(data):
    table, reference = GrantTable(), FlatGrantTable()
    for _step in range(data.draw(st.integers(min_value=1, max_value=40))):
        name, args = _grant_step(data, reference)
        assert _outcome(getattr(table, name), *args) \
            == _outcome(getattr(reference, name), *args), (name, args)
        for domid in DOMIDS:
            assert table.count_for(domid) == reference.count_for(domid)
        assert _grant_state(table) == _grant_state(reference)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_event_channel_table_matches_flat_reference(data):
    table, reference = EventChannelTable(), FlatEventChannelTable()
    for _step in range(data.draw(st.integers(min_value=1, max_value=40))):
        name, args = _channel_step(data, reference)
        assert _outcome(getattr(table, name), *args) \
            == _outcome(getattr(reference, name), *args), (name, args)
        for domid in DOMIDS:
            assert table.count_for(domid) == reference.count_for(domid)
        assert _channel_state(table) == _channel_state(reference)
        assert table.total_notifications == reference.total_notifications
