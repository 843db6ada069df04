"""Tests for the noxs device memory page (packed binary format)."""

import tracemalloc

import pytest

from repro.core import Host
from repro.guests import NOOP_UNIKERNEL
from repro.hypervisor import (DEV_VBD, DEV_VIF, MAX_ENTRIES, PAGE_SIZE,
                              STATE_CONNECTED, STATE_INITIALISING,
                              DeviceEntry, DevicePage, DevicePageError)


def vif_entry(port=7, ref=42, mac=b"\x00\x16\x3e\x01\x02\x03"):
    return DeviceEntry(DEV_VIF, STATE_INITIALISING, 0, port, ref, mac)


def test_fresh_page_is_empty():
    page = DevicePage()
    assert page.count == 0
    assert page.entries() == []
    assert len(page.readonly_view()) == PAGE_SIZE


def test_add_and_read_roundtrip():
    page = DevicePage()
    index = page.add(vif_entry())
    entry = page.read(index)
    assert entry.dev_type == DEV_VIF
    assert entry.evtchn_port == 7
    assert entry.grant_ref == 42
    assert entry.mac == b"\x00\x16\x3e\x01\x02\x03"
    assert page.count == 1


def test_entry_pack_unpack_roundtrip():
    entry = vif_entry()
    assert DeviceEntry.unpack(entry.pack()) == entry


def test_bad_mac_length_rejected():
    entry = DeviceEntry(DEV_VIF, 1, 0, 1, 1, b"\x00")
    with pytest.raises(DevicePageError):
        entry.pack()


def test_read_empty_slot_rejected():
    page = DevicePage()
    with pytest.raises(DevicePageError):
        page.read(0)


def test_index_out_of_range_rejected():
    page = DevicePage()
    with pytest.raises(DevicePageError):
        page.read(MAX_ENTRIES)


def test_update_state():
    page = DevicePage()
    index = page.add(vif_entry())
    page.update_state(index, STATE_CONNECTED)
    assert page.read(index).state == STATE_CONNECTED


def test_remove_clears_slot_and_count():
    page = DevicePage()
    index = page.add(vif_entry())
    page.remove(index)
    assert page.count == 0
    with pytest.raises(DevicePageError):
        page.read(index)


def test_removed_slot_is_reused():
    page = DevicePage()
    i0 = page.add(vif_entry(port=1))
    page.add(vif_entry(port=2))
    page.remove(i0)
    i2 = page.add(vif_entry(port=3))
    assert i2 == i0


def test_page_capacity_limit():
    page = DevicePage()
    for _ in range(MAX_ENTRIES):
        page.add(vif_entry())
    with pytest.raises(DevicePageError):
        page.add(vif_entry())


def test_guest_side_parse_sees_all_entries():
    page = DevicePage()
    page.add(vif_entry(port=1))
    page.add(DeviceEntry(DEV_VBD, STATE_INITIALISING, 0, 9, 10, b"\0" * 6))
    entries = DevicePage.parse(page.readonly_view())
    assert len(entries) == 2
    assert {e.dev_type for e in entries} == {DEV_VIF, DEV_VBD}


def test_parse_rejects_bad_magic():
    with pytest.raises(DevicePageError):
        DevicePage.parse(bytes(PAGE_SIZE))


def test_parse_rejects_wrong_size():
    with pytest.raises(DevicePageError):
        DevicePage.parse(b"\0" * 100)


def test_readonly_view_is_snapshot():
    page = DevicePage()
    view = page.readonly_view()
    page.add(vif_entry())
    assert DevicePage.parse(view) == []  # old snapshot unchanged
    assert len(DevicePage.parse(page.readonly_view())) == 1


def test_write_counter_tracks_hypercalls():
    page = DevicePage()
    index = page.add(vif_entry())
    page.update_state(index, STATE_CONNECTED)
    page.remove(index)
    assert page.writes == 3


def test_device_page_and_rings_cost_under_1_kib_per_live_domain():
    """A budget, not a goal: the device page and ring pairs of a live
    lightvm guest hold under 1 KiB of the simulator's heap.  Storing the
    full 4 KiB page and 32 empty slots per ring direction held ~4.9 KiB,
    and Fig 10 keeps 8,000 such guests alive at once."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        host = Host(variant="lightvm")
        for _ in range(100):
            host.create_vm(NOOP_UNIKERNEL)
        snapshot = tracemalloc.take_snapshot()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    live = len(host.hypervisor.domains)
    assert live > 100
    held = snapshot.filter_traces([
        tracemalloc.Filter(True, "*/repro/hypervisor/devicepage.py"),
        tracemalloc.Filter(True, "*/repro/hypervisor/rings.py")])
    assert sum(stat.size for stat in held.statistics("filename")) \
        < 1024 * live
