"""Shared I/O rings — the split-driver data path (Xen's ``ring.h``).

Front- and back-end exchange requests and responses through a
single-producer/single-consumer ring in a granted page, with event-channel
notifications only when the peer might be asleep.  The classic protocol:

* the producer bumps ``req_prod`` (or ``rsp_prod``) after filling slots;
* the consumer advances its private ``cons`` index;
* notifications are suppressed while the peer is known to be awake, via
  the ``event`` indices (``RING_FINAL_CHECK_FOR_*`` semantics) — this is
  what keeps per-packet costs low on busy rings.

The implementation is a faithful little state machine, property-tested
for losslessness and FIFO order; the noxs device control page's
``ring_ref`` points at one of these.  A ring stores only its occupied
slots, keyed by slot position, not ``2**order`` empty ones: every noxs
device owns a ring pair, and the simulated control plane never pushes
to it, so a density run holds thousands of rings that stay empty.
"""

from __future__ import annotations

import typing


class RingFullError(RuntimeError):
    """Producer tried to push into a full ring."""


class SharedRing:
    """One direction of a Xen-style shared ring."""

    __slots__ = ("size", "_slots", "prod", "cons", "prod_event",
                 "notifications_sent", "notifications_suppressed")

    def __init__(self, order: int = 5):
        """``order``: ring holds ``2**order`` entries (32 for a standard
        4 KiB ring of 128-byte requests)."""
        if order < 0 or order > 12:
            raise ValueError("unreasonable ring order %r" % order)
        self.size = 1 << order
        #: Slot position -> entry, for the occupied slots only.
        self._slots: typing.Dict[int, object] = {}
        #: Producer's published index (shared).
        self.prod = 0
        #: Consumer's private index (published for space accounting).
        self.cons = 0
        #: Producer event index: consumer requests a notification when
        #: prod reaches this value.
        self.prod_event = 1
        #: Statistics.
        self.notifications_sent = 0
        self.notifications_suppressed = 0

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------
    @property
    def unconsumed(self) -> int:
        """Entries produced but not yet consumed."""
        return self.prod - self.cons

    @property
    def free(self) -> int:
        return self.size - self.unconsumed

    @property
    def is_full(self) -> bool:
        return self.free == 0

    @property
    def is_empty(self) -> bool:
        return self.unconsumed == 0

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def push(self, item: object) -> bool:
        """Publish one entry; returns True if the peer needs a kick.

        RING_PUSH_REQUESTS_AND_CHECK_NOTIFY: notify only if the consumer
        armed its event index at or before the new prod.
        """
        if self.is_full:
            raise RingFullError("ring full (%d entries)" % self.size)
        self._slots[self.prod % self.size] = item
        old_prod = self.prod
        self.prod += 1
        # The canonical check: notify iff this push crossed the event
        # index the consumer armed before sleeping.
        need_notify = old_prod < self.prod_event <= self.prod
        if need_notify:
            self.notifications_sent += 1
        else:
            self.notifications_suppressed += 1
        return need_notify

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def pop(self) -> object:
        """Consume one entry (caller checked :attr:`is_empty`)."""
        if self.is_empty:
            raise IndexError("ring empty")
        item = self._slots.pop(self.cons % self.size)
        self.cons += 1
        return item

    def final_check(self) -> bool:
        """RING_FINAL_CHECK_FOR_REQUESTS: arm the event index one past
        everything consumed, then report whether more work raced in.

        Returns True when the consumer must loop again instead of
        sleeping.
        """
        self.prod_event = self.cons + 1
        return not self.is_empty

    def drain(self) -> typing.List[object]:
        """Consume everything currently published."""
        items = []
        while not self.is_empty:
            items.append(self.pop())
        return items


class RingPair:
    """Request + response rings, as a connected device uses them."""

    __slots__ = ("requests", "responses")

    def __init__(self, order: int = 5):
        self.requests = SharedRing(order)
        self.responses = SharedRing(order)

    def round_trip_ready(self) -> bool:
        """True when a response can be produced for a pending request."""
        return not self.requests.is_empty and not self.responses.is_full
