"""noxs device memory pages.

The core noxs mechanism (§5.1): the hypervisor keeps, for each VM, one
special 4 KiB memory page recording the VM's devices — backend domain,
event channel, grant reference — so the guest can bootstrap its front-end
drivers *without* talking to the XenStore.  The page is shared read-only
with the guest; only Dom0 may request modifications (via hypercall).

We implement the page as a real packed binary structure so that the
reproduction exercises the same serialize/deserialize path a C guest would:

* header: ``magic u32 | version u16 | count u16`` + 8 bytes reserved;
* entries: 32-byte records,
  ``type u8 | state u8 | backend_domid u16 | evtchn_port u32 |
  grant_ref u32 | mac 6s`` + 14 bytes reserved.

The hypervisor stores only the page's live prefix: the header and the
slots up to the highest one ever used.  The rest of a real page is zeros,
so storing it would cost 4 KiB per VM for nothing (Fig 10 runs 8,000 of
them).  The guest still maps the full 4,096-byte page: ``readonly_view``
pads the prefix with zeros, and ``parse`` checks what a guest receives.
"""

from __future__ import annotations

import struct
import typing

PAGE_SIZE = 4096
MAGIC = 0x4E4F5853  # "NOXS"
VERSION = 1

_HEADER_FMT = "<IHH8x"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_ENTRY_FMT = "<BBHII6s14x"
_ENTRY = struct.Struct(_ENTRY_FMT)
_ENTRY_SIZE = _ENTRY.size
MAX_ENTRIES = (PAGE_SIZE - _HEADER_SIZE) // _ENTRY_SIZE
#: End of the slot area; the page's last 16 bytes are padding, not a slot.
_SLOTS_END = _HEADER_SIZE + MAX_ENTRIES * _ENTRY_SIZE

#: Device type codes stored in the page.
DEV_NONE = 0
DEV_VIF = 1
DEV_VBD = 2
DEV_SYSCTL = 3
DEV_CONSOLE = 4

#: Device states (mirrors XenbusState, collapsed).
STATE_INITIALISING = 1
STATE_CONNECTED = 4
STATE_CLOSED = 6


class DevicePageError(RuntimeError):
    """Malformed page access (bad index, full page, bad magic...)."""


def _slot_types(page: typing.Union[bytes, bytearray, memoryview]) -> bytes:
    """The slots' type bytes, one per slot, trailing empty slots stripped.

    One strided slice reads the first byte of every 32-byte slot, so a
    page's live slots are found without a Python loop over all of them.
    ``bytes()`` first: a strided ``memoryview`` slice has no ``rstrip``.
    """
    return bytes(page[_HEADER_SIZE:_SLOTS_END:_ENTRY_SIZE]).rstrip(b"\0")


class DeviceEntry(typing.NamedTuple):
    """One decoded device record."""

    dev_type: int
    state: int
    backend_domid: int
    evtchn_port: int
    grant_ref: int
    mac: bytes  # 6 bytes; zeros for non-network devices

    def pack(self) -> bytes:
        """Encode to the 32-byte on-page format."""
        if len(self.mac) != 6:
            raise DevicePageError("mac must be exactly 6 bytes")
        return _ENTRY.pack(self.dev_type, self.state, self.backend_domid,
                           self.evtchn_port, self.grant_ref, self.mac)

    @classmethod
    def unpack(cls, raw: bytes) -> "DeviceEntry":
        """Decode from the 32-byte on-page format."""
        return cls._make(_ENTRY.unpack(raw))


class DevicePage:
    """A 4 KiB packed device page owned by the hypervisor.

    ``_buf`` holds the page's live prefix: the 16-byte header and the
    slots up to the highest one ever used, 32 bytes each.  A slot past
    the prefix reads as empty, like a slot inside it whose type byte is
    zero.  The prefix grows by one slot when ``add`` finds no free slot
    in it and never shrinks; ``readonly_view`` gives the guest the full
    page.
    """

    __slots__ = ("_buf", "writes")

    def __init__(self):
        self._buf = bytearray(_HEADER_SIZE)
        struct.pack_into(_HEADER_FMT, self._buf, 0, MAGIC, VERSION, 0)
        #: Hypervisor-side write counter (hypercalls issued against page).
        self.writes = 0

    # ------------------------------------------------------------------
    # Header
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of live entries."""
        _magic, _version, count = struct.unpack_from(_HEADER_FMT, self._buf, 0)
        return count

    def _set_count(self, count: int) -> None:
        struct.pack_into(_HEADER_FMT, self._buf, 0, MAGIC, VERSION, count)

    # ------------------------------------------------------------------
    # Entry access
    # ------------------------------------------------------------------
    def _occupied(self, index: int) -> int:
        """The offset of occupied slot ``index``; raises for a slot out of
        range or empty, in or past the stored prefix."""
        if not 0 <= index < MAX_ENTRIES:
            raise DevicePageError("entry index %d out of range" % index)
        offset = _HEADER_SIZE + index * _ENTRY_SIZE
        if offset >= len(self._buf) or self._buf[offset] == DEV_NONE:
            raise DevicePageError("entry %d is empty" % index)
        return offset

    def add(self, entry: DeviceEntry) -> int:
        """Store a device entry in the first free slot; returns its index."""
        buf = self._buf
        index = buf[_HEADER_SIZE::_ENTRY_SIZE].find(DEV_NONE)
        if index >= 0:
            offset = _HEADER_SIZE + index * _ENTRY_SIZE
            buf[offset:offset + _ENTRY_SIZE] = entry.pack()
        else:
            # Every stored slot is in use: the new one extends the prefix.
            index = (len(buf) - _HEADER_SIZE) // _ENTRY_SIZE
            if index == MAX_ENTRIES:
                raise DevicePageError(
                    "device page full (%d entries)" % MAX_ENTRIES)
            buf += entry.pack()
        self._set_count(self.count + 1)
        self.writes += 1
        return index

    def read(self, index: int) -> DeviceEntry:
        """Decode the entry at ``index``."""
        return DeviceEntry._make(
            _ENTRY.unpack_from(self._buf, self._occupied(index)))

    def update_state(self, index: int, state: int) -> None:
        """Rewrite just the state byte of an entry."""
        self._buf[self._occupied(index) + 1] = state
        self.writes += 1

    def remove(self, index: int) -> None:
        """Clear an entry (device destruction)."""
        offset = self._occupied(index)
        self._buf[offset:offset + _ENTRY_SIZE] = bytes(_ENTRY_SIZE)
        self._set_count(self.count - 1)
        self.writes += 1

    def entries(self) -> typing.List[typing.Tuple[int, DeviceEntry]]:
        """All live entries as ``(index, entry)`` pairs."""
        found = []
        for index, dev_type in enumerate(_slot_types(self._buf)):
            if dev_type != DEV_NONE:
                found.append((index, DeviceEntry._make(_ENTRY.unpack_from(
                    self._buf, _HEADER_SIZE + index * _ENTRY_SIZE))))
        return found

    def readonly_view(self) -> bytes:
        """The guest-visible mapping: an immutable snapshot of the full
        4 KiB page, the stored prefix padded with zeros."""
        return bytes(self._buf).ljust(PAGE_SIZE, b"\0")

    @staticmethod
    def parse(view: bytes) -> typing.List[DeviceEntry]:
        """Guest-side parser: decode all live entries from a mapped page.

        The page is guest input, so its length, magic, version and header
        count are checked, in that order.  ``view`` may be ``bytes``,
        ``bytearray`` or a ``memoryview``.
        """
        if len(view) != PAGE_SIZE:
            raise DevicePageError("device page must be %d bytes" % PAGE_SIZE)
        magic, version, count = struct.unpack_from(_HEADER_FMT, view, 0)
        if magic != MAGIC:
            raise DevicePageError("bad magic %#x" % magic)
        if version != VERSION:
            raise DevicePageError("unsupported version %d" % version)
        entries = []
        for index, dev_type in enumerate(_slot_types(view)):
            if dev_type != DEV_NONE:
                entries.append(DeviceEntry._make(_ENTRY.unpack_from(
                    view, _HEADER_SIZE + index * _ENTRY_SIZE)))
        if len(entries) != count:
            raise DevicePageError(
                "header count %d does not match %d live entries"
                % (count, len(entries)))
        return entries
