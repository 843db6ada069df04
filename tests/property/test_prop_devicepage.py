"""Property-based tests for noxs device pages and control blocks.

``SlotWalkingPage`` is the reference for :class:`DevicePage`: the page as
it was before decoding went through the slots' type bytes, walking all
127 slots one offset at a time in ``add``, ``entries`` and ``parse``.
Hypothesis drives both through the same operations, and feeds ``parse``
arbitrary guest pages; every outcome must match, errors included.
"""

import struct
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypervisor import (DEV_SYSCTL, DEV_VBD, DEV_VIF, MAX_ENTRIES,
                              PAGE_SIZE, STATE_CLOSED, STATE_CONNECTED,
                              STATE_INITIALISING, DeviceEntry, DevicePage,
                              DevicePageError)
from repro.noxs import DeviceControlPage

entries = st.builds(
    DeviceEntry,
    dev_type=st.sampled_from([DEV_VIF, DEV_VBD, DEV_SYSCTL]),
    state=st.sampled_from([STATE_INITIALISING, STATE_CONNECTED,
                           STATE_CLOSED]),
    backend_domid=st.integers(min_value=0, max_value=0xFFFF),
    evtchn_port=st.integers(min_value=0, max_value=0xFFFFFFFF),
    grant_ref=st.integers(min_value=0, max_value=0xFFFFFFFF),
    mac=st.binary(min_size=6, max_size=6),
)


@given(entries)
@settings(max_examples=200, deadline=None)
def test_entry_pack_unpack_roundtrip(entry):
    assert DeviceEntry.unpack(entry.pack()) == entry


@given(st.lists(entries, min_size=1, max_size=MAX_ENTRIES))
@settings(max_examples=100, deadline=None)
def test_guest_parse_sees_exactly_what_dom0_wrote(entry_list):
    page = DevicePage()
    for entry in entry_list:
        page.add(entry)
    parsed = DevicePage.parse(page.readonly_view())
    assert parsed == entry_list
    assert page.count == len(entry_list)


@given(st.lists(entries, min_size=2, max_size=20),
       st.data())
@settings(max_examples=100, deadline=None)
def test_remove_then_parse_consistent(entry_list, data):
    page = DevicePage()
    indices = [page.add(entry) for entry in entry_list]
    victim = data.draw(st.sampled_from(range(len(indices))))
    page.remove(indices[victim])
    parsed = DevicePage.parse(page.readonly_view())
    expected = [e for i, e in enumerate(entry_list) if i != victim]
    assert sorted(parsed) == sorted(expected)


@given(st.binary(min_size=6, max_size=6),
       st.integers(min_value=0, max_value=0xFFFFFFFF),
       st.integers(min_value=0, max_value=0xFFFFFFFF))
@settings(max_examples=200, deadline=None)
def test_control_page_fields_are_independent(mac, ring, features):
    page = DeviceControlPage(0x1000, DEV_VIF, mac=mac)
    page.ring_ref = ring
    page.feature_bits = features
    page.state = STATE_CONNECTED
    assert page.mac == mac
    assert page.ring_ref == ring
    assert page.feature_bits == features
    assert page.state == STATE_CONNECTED


# ----------------------------------------------------------------------
# Reference: the slot-walking page
# ----------------------------------------------------------------------

MAGIC = 0x4E4F5853  # "NOXS"
VERSION = 1
_HEADER_FMT = "<IHH8x"
_HEADER_SIZE = 16
_ENTRY_FMT = "<BBHII6s14x"
_ENTRY_SIZE = 32
DEV_NONE = 0


def _unpack(raw) -> DeviceEntry:
    return DeviceEntry(*struct.unpack(_ENTRY_FMT, raw))


class SlotWalkingPage:
    """Reference device page: every lookup walks the slots by offset."""

    def __init__(self):
        self._buf = bytearray(PAGE_SIZE)
        struct.pack_into(_HEADER_FMT, self._buf, 0, MAGIC, VERSION, 0)

    @property
    def count(self) -> int:
        return struct.unpack_from(_HEADER_FMT, self._buf, 0)[2]

    def _set_count(self, count: int) -> None:
        struct.pack_into(_HEADER_FMT, self._buf, 0, MAGIC, VERSION, count)

    def _offset(self, index: int) -> int:
        if not 0 <= index < MAX_ENTRIES:
            raise DevicePageError("entry index %d out of range" % index)
        return _HEADER_SIZE + index * _ENTRY_SIZE

    def add(self, entry: DeviceEntry) -> int:
        for index in range(MAX_ENTRIES):
            offset = self._offset(index)
            if self._buf[offset] == DEV_NONE:
                self._buf[offset:offset + _ENTRY_SIZE] = struct.pack(
                    _ENTRY_FMT, *entry)
                self._set_count(self.count + 1)
                return index
        raise DevicePageError("device page full (%d entries)" % MAX_ENTRIES)

    def read(self, index: int) -> DeviceEntry:
        offset = self._offset(index)
        entry = _unpack(bytes(self._buf[offset:offset + _ENTRY_SIZE]))
        if entry.dev_type == DEV_NONE:
            raise DevicePageError("entry %d is empty" % index)
        return entry

    def update_state(self, index: int, state: int) -> None:
        self.read(index)
        self._buf[self._offset(index) + 1] = state

    def remove(self, index: int) -> None:
        self.read(index)
        offset = self._offset(index)
        self._buf[offset:offset + _ENTRY_SIZE] = bytes(_ENTRY_SIZE)
        self._set_count(self.count - 1)

    def entries(self) -> typing.List[typing.Tuple[int, DeviceEntry]]:
        found = []
        for index in range(MAX_ENTRIES):
            offset = self._offset(index)
            if self._buf[offset] != DEV_NONE:
                found.append((index, _unpack(
                    bytes(self._buf[offset:offset + _ENTRY_SIZE]))))
        return found

    def readonly_view(self) -> bytes:
        return bytes(self._buf)

    @staticmethod
    def parse(view) -> typing.List[DeviceEntry]:
        if len(view) != PAGE_SIZE:
            raise DevicePageError("device page must be %d bytes" % PAGE_SIZE)
        magic, version, count = struct.unpack_from(_HEADER_FMT, view, 0)
        if magic != MAGIC:
            raise DevicePageError("bad magic %#x" % magic)
        if version != VERSION:
            raise DevicePageError("unsupported version %d" % version)
        entries = []
        for index in range(MAX_ENTRIES):
            offset = _HEADER_SIZE + index * _ENTRY_SIZE
            if view[offset] != DEV_NONE:
                entries.append(_unpack(view[offset:offset + _ENTRY_SIZE]))
        if len(entries) != count:
            raise DevicePageError(
                "header count %d does not match %d live entries"
                % (count, len(entries)))
        return entries


def _outcome(call, *args):
    """``("ok", result)`` or ``("error", message)``."""
    try:
        return "ok", call(*args)
    except DevicePageError as exc:
        return "error", str(exc)


# Any type byte, so that some adds store an entry whose slot still reads
# as free (type 0), and some pages fail the header-count check.
any_entries = st.builds(
    DeviceEntry,
    dev_type=st.one_of(st.sampled_from([DEV_VIF, DEV_VBD, DEV_SYSCTL]),
                       st.integers(min_value=0, max_value=0xFF)),
    state=st.integers(min_value=0, max_value=0xFF),
    backend_domid=st.integers(min_value=0, max_value=0xFFFF),
    evtchn_port=st.integers(min_value=0, max_value=0xFFFFFFFF),
    grant_ref=st.integers(min_value=0, max_value=0xFFFFFFFF),
    mac=st.binary(min_size=6, max_size=6),
)
# Mostly a slot in range, sometimes just outside it.
slot_indices = st.one_of(st.integers(min_value=0, max_value=MAX_ENTRIES - 1),
                         st.integers(min_value=-2, max_value=MAX_ENTRIES + 2))


@given(st.integers(min_value=0, max_value=MAX_ENTRIES + 1), st.data())
@settings(max_examples=100, deadline=None)
def test_page_matches_slot_walking_reference(prefill, data):
    page, reference = DevicePage(), SlotWalkingPage()
    # Fill the first slots (past capacity at the top of the range), so
    # that the free-slot search also runs on crowded and full pages.
    for i in range(prefill):
        entry = DeviceEntry(DEV_VIF, STATE_INITIALISING, 0, i, i, bytes(6))
        assert _outcome(page.add, entry) == _outcome(reference.add, entry)
    assert page.readonly_view() == reference.readonly_view()
    for _step in range(data.draw(st.integers(min_value=1, max_value=30))):
        live = [index for index, _e in reference.entries()]
        name = data.draw(st.sampled_from(
            ["add", "add", "remove", "update_state", "read"]))
        if name == "add":
            args = (data.draw(any_entries),)
        else:
            index = data.draw(st.sampled_from(live) if live
                              and data.draw(st.booleans()) else slot_indices)
            args = (index,) if name != "update_state" else (
                index, data.draw(st.integers(min_value=0, max_value=0xFF)))
        assert _outcome(getattr(page, name), *args) \
            == _outcome(getattr(reference, name), *args), (name, args)
        assert page.count == reference.count
        assert page.entries() == reference.entries()
        assert page.readonly_view() == reference.readonly_view()
        assert _outcome(DevicePage.parse, page.readonly_view()) \
            == _outcome(SlotWalkingPage.parse, page.readonly_view())


@st.composite
def guest_pages(draw) -> bytes:
    """Arbitrary guest-supplied pages: any type byte in any slot (slot
    126 often), junk in the entries and in the 16 pad bytes after slot
    126, any header, and sometimes a length other than 4096."""
    buf = bytearray(PAGE_SIZE)
    slots = draw(st.dictionaries(
        st.one_of(st.just(MAX_ENTRIES - 1),
                  st.integers(min_value=0, max_value=MAX_ENTRIES - 1)),
        st.binary(min_size=_ENTRY_SIZE, max_size=_ENTRY_SIZE), max_size=8))
    for index, raw in slots.items():
        offset = _HEADER_SIZE + index * _ENTRY_SIZE
        buf[offset:offset + _ENTRY_SIZE] = raw
    end = _HEADER_SIZE + MAX_ENTRIES * _ENTRY_SIZE
    buf[end:] = draw(st.binary(min_size=PAGE_SIZE - end,
                               max_size=PAGE_SIZE - end))
    live = sum(1 for index in range(MAX_ENTRIES)
               if buf[_HEADER_SIZE + index * _ENTRY_SIZE])
    magic = draw(st.one_of(st.just(MAGIC),
                           st.integers(min_value=0, max_value=0xFFFFFFFF)))
    version = draw(st.one_of(st.just(VERSION),
                             st.integers(min_value=0, max_value=0xFFFF)))
    count = draw(st.one_of(st.just(live),
                           st.integers(min_value=0, max_value=0xFFFF)))
    struct.pack_into(_HEADER_FMT, buf, 0, magic, version, count)
    length = draw(st.one_of(st.just(PAGE_SIZE),
                            st.integers(min_value=0,
                                        max_value=PAGE_SIZE + 64)))
    return bytes(buf[:length]) + bytes(max(0, length - PAGE_SIZE))


@pytest.mark.parametrize("form", [bytes, bytearray, memoryview],
                         ids=["bytes", "bytearray", "memoryview"])
@given(guest_pages())
@settings(max_examples=150, deadline=None)
def test_parse_matches_slot_walking_reference(form, raw):
    assert _outcome(DevicePage.parse, form(raw)) \
        == _outcome(SlotWalkingPage.parse, form(raw))
