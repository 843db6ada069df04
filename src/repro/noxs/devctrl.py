"""Device control pages.

Under noxs the per-device state that used to live in XenStore records
(state machine, MAC address, ring reference) moves into a small shared
memory page "pointed to by the grant reference" (§5.1).  Front- and
back-end read and write this page directly and signal each other over the
event channel — no message protocol, no daemon.

The control block is a real packed structure (64 bytes):
``state u8 | dev_type u8 | mtu u16 | mac 6s | ring_ref u32 | feature_bits
u32 | 46 bytes reserved``.
"""

from __future__ import annotations

import struct

from ..hypervisor.devicepage import (STATE_CLOSED, STATE_CONNECTED,
                                     STATE_INITIALISING)

_CTRL_FMT = "<BBH6sII46x"
CTRL_SIZE = struct.calcsize(_CTRL_FMT)


class ControlPageError(RuntimeError):
    """Malformed control-page access."""


class DeviceControlPage:
    """One device's shared control block, identified by a frame number."""

    __slots__ = ("frame", "_buf")

    def __init__(self, frame: int, dev_type: int,
                 mac: bytes = b"\x00" * 6, mtu: int = 1500):
        if len(mac) != 6:
            raise ControlPageError("mac must be 6 bytes")
        self.frame = frame
        self._buf = bytearray(CTRL_SIZE)
        struct.pack_into(_CTRL_FMT, self._buf, 0, STATE_INITIALISING,
                         dev_type, mtu, mac, 0, 0)

    # ------------------------------------------------------------------
    # Field accessors (front and back ends share these)
    # ------------------------------------------------------------------
    def _unpack(self):
        return struct.unpack_from(_CTRL_FMT, self._buf, 0)

    @property
    def state(self) -> int:
        return self._unpack()[0]

    @state.setter
    def state(self, value: int) -> None:
        if value not in (STATE_INITIALISING, STATE_CONNECTED, STATE_CLOSED):
            raise ControlPageError("invalid device state %r" % value)
        self._buf[0] = value

    @property
    def dev_type(self) -> int:
        return self._unpack()[1]

    @property
    def mtu(self) -> int:
        return self._unpack()[2]

    @property
    def mac(self) -> bytes:
        return self._unpack()[3]

    @property
    def ring_ref(self) -> int:
        return self._unpack()[4]

    @ring_ref.setter
    def ring_ref(self, value: int) -> None:
        state, dev_type, mtu, mac, _ring, features = self._unpack()
        struct.pack_into(_CTRL_FMT, self._buf, 0, state, dev_type, mtu, mac,
                         value, features)

    @property
    def feature_bits(self) -> int:
        return self._unpack()[5]

    @feature_bits.setter
    def feature_bits(self, value: int) -> None:
        state, dev_type, mtu, mac, ring, _feat = self._unpack()
        struct.pack_into(_CTRL_FMT, self._buf, 0, state, dev_type, mtu, mac,
                         ring, value)

    def raw(self) -> bytes:
        """The packed 64-byte block."""
        return bytes(self._buf)
