"""Tests for event channels and grant tables."""

import statistics
import time

import pytest

from repro.hypervisor import (EventChannelError, EventChannelTable,
                              GrantError, GrantTable)


class TestEventChannels:
    def test_alloc_unbound_then_bind(self):
        table = EventChannelTable()
        back_port = table.alloc_unbound(0, remote_domid=5)
        front_port = table.bind_interdomain(5, 0, back_port)
        assert table.channel(0, back_port).state == "interdomain"
        assert table.channel(5, front_port).remote_port == back_port

    def test_bind_wrong_domain_rejected(self):
        table = EventChannelTable()
        port = table.alloc_unbound(0, remote_domid=5)
        with pytest.raises(EventChannelError):
            table.bind_interdomain(6, 0, port)

    def test_bind_twice_rejected(self):
        table = EventChannelTable()
        port = table.alloc_unbound(0, remote_domid=5)
        table.bind_interdomain(5, 0, port)
        with pytest.raises(EventChannelError):
            table.bind_interdomain(5, 0, port)

    def test_notify_delivers_to_peer_handler(self):
        table = EventChannelTable()
        back = table.alloc_unbound(0, remote_domid=5)
        front = table.bind_interdomain(5, 0, back)
        hits = []
        table.on_notify(5, front, lambda: hits.append("front"))
        table.notify(0, back)
        assert hits == ["front"]
        assert table.total_notifications == 1

    def test_notify_unbound_rejected(self):
        table = EventChannelTable()
        port = table.alloc_unbound(0, remote_domid=5)
        with pytest.raises(EventChannelError):
            table.notify(0, port)

    def test_close_marks_peer_closed(self):
        table = EventChannelTable()
        back = table.alloc_unbound(0, remote_domid=5)
        front = table.bind_interdomain(5, 0, back)
        table.close(0, back)
        assert table.channel(5, front).state == "closed"
        with pytest.raises(EventChannelError):
            table.channel(0, back)

    def test_close_all_for_domain(self):
        table = EventChannelTable()
        for _ in range(3):
            table.alloc_unbound(7, remote_domid=0)
        assert table.count_for(7) == 3
        assert table.close_all_for(7) == 3
        assert table.count_for(7) == 0

    def test_unknown_channel_lookup(self):
        table = EventChannelTable()
        with pytest.raises(EventChannelError):
            table.channel(1, 99)


class TestGrantTable:
    def test_grant_and_map(self):
        grants = GrantTable()
        ref = grants.grant_access(5, grantee_domid=0, frame=0x1000)
        frame = grants.map_ref(0, 5, ref)
        assert frame == 0x1000

    def test_map_by_wrong_domain_rejected(self):
        grants = GrantTable()
        ref = grants.grant_access(5, grantee_domid=0, frame=1)
        with pytest.raises(GrantError):
            grants.map_ref(3, 5, ref)

    def test_double_map_rejected(self):
        grants = GrantTable()
        ref = grants.grant_access(5, grantee_domid=0, frame=1)
        grants.map_ref(0, 5, ref)
        with pytest.raises(GrantError):
            grants.map_ref(0, 5, ref)

    def test_unmap_then_remap(self):
        grants = GrantTable()
        ref = grants.grant_access(5, grantee_domid=0, frame=1)
        grants.map_ref(0, 5, ref)
        grants.unmap_ref(0, 5, ref)
        assert grants.map_ref(0, 5, ref) == 1

    def test_end_access_while_mapped_rejected(self):
        grants = GrantTable()
        ref = grants.grant_access(5, grantee_domid=0, frame=1)
        grants.map_ref(0, 5, ref)
        with pytest.raises(GrantError):
            grants.end_access(5, ref)

    def test_end_access_removes_entry(self):
        grants = GrantTable()
        ref = grants.grant_access(5, grantee_domid=0, frame=1)
        grants.end_access(5, ref)
        with pytest.raises(GrantError):
            grants.entry(5, ref)

    def test_revoke_all_force_ignores_mappings(self):
        grants = GrantTable()
        r1 = grants.grant_access(5, grantee_domid=0, frame=1)
        grants.grant_access(5, grantee_domid=0, frame=2)
        grants.map_ref(0, 5, r1)
        assert grants.revoke_all_for(5, force=True) == 2
        assert grants.count_for(5) == 0

    def test_revoke_all_unforced_fails_when_mapped(self):
        grants = GrantTable()
        refs = [grants.grant_access(5, grantee_domid=0, frame=frame)
                for frame in range(4)]
        grants.map_ref(0, 5, refs[2])
        with pytest.raises(GrantError):
            grants.revoke_all_for(5)
        # Grants issued before the mapped one are gone; it and later stay.
        assert [ref for (_granter, ref), _entry in grants.items()] \
            == refs[2:]


def _teardown_s(channels, grants, domids):
    """Seconds to tear down ``domids``, each owning one channel and one
    grant, the way ``Hypervisor.domctl_destroy`` does."""
    for domid in domids:
        channels.alloc_unbound(domid, 0)
        grants.grant_access(domid, 0, frame=domid)
    start = time.perf_counter()
    for domid in domids:
        channels.close_all_for(domid)
        grants.revoke_all_for(domid, force=True)
    return time.perf_counter() - start


class TestTeardownScope:
    def test_teardown_cost_ignores_other_domains_entries(self):
        """A destroy walks only the dying domain's entries: beside 20,000
        foreign channels and grants (dom0's, as a shell pool leaves them)
        it costs what it costs beside 20.  Medians of interleaved
        repetitions, compared within one run."""
        tables = {}
        for foreign in (20, 20000):
            channels, grants = EventChannelTable(), GrantTable()
            for index in range(foreign):
                shell = 1000 + index
                channels.alloc_unbound(0, shell)
                grants.grant_access(0, shell, frame=index)
            tables[foreign] = channels, grants
        samples = {20: [], 20000: []}
        domids = range(100, 150)
        for rep in range(21):
            for foreign in ((20, 20000) if rep % 2 else (20000, 20)):
                samples[foreign].append(
                    _teardown_s(*tables[foreign], domids))
        ratio = (statistics.median(samples[20000])
                 / statistics.median(samples[20]))
        assert ratio <= 3.0, "teardown beside 20,000 entries is %.1fx " \
            "slower than beside 20" % ratio
