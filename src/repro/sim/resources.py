"""Shared-resource primitives: counted resources and FIFO stores.

These model contended control-plane entities — e.g. the single oxenstored
worker thread, Dom0's udev queue, or the chaos daemon's pool of pre-created
VM shells.
"""

from __future__ import annotations

import collections
import typing

from .events import PENDING, Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Simulator


class Request(Event):
    """A pending claim on a :class:`Resource`; usable as a context manager."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Flattened Event.__init__, as in Timeout: one request per
        # XenStore op makes this a hot allocation.
        self.sim = resource.sim
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self.defused = False
        self._cont = None
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource with a FIFO wait queue.

    Usage from a process::

        with resource.request() as req:
            yield req
            ...  # holding one slot
    """

    def __init__(self, sim: "Simulator", capacity: int = 1,
                 name: typing.Optional[str] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        #: Optional lock label for the race tooling: the static pass
        #: (`repro races`) and the runtime :class:`RaceWitness` key the
        #: lock-order graph on it.  Indexed families use ``base[%d]``
        #: concrete names, which normalize to one ``base[*]`` label.
        self.name = name
        self.users: typing.List[Request] = []
        self.queue: typing.Deque[Request] = collections.deque()
        if sim.sanitizer is not None:
            sim.sanitizer.track_resource(self)

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted."""
        req = Request(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            sim = self.sim
            if sim.witness is None:
                # Granted in place: ``succeed()`` on a fresh request
                # does exactly this once its double-trigger check and
                # witness hook have nothing to do.
                req._ok = True
                req._value = None
                sim._push(req)
            else:
                req.succeed()
        else:
            self.queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a slot.  Releasing an unheld request is a no-op for
        queued requests (they are simply cancelled)."""
        if request in self.users:
            witness = self.sim.witness
            if witness is not None:
                witness.on_release(self, request)
            self.users.remove(request)
            while self.queue and len(self.users) < self.capacity:
                nxt = self.queue.popleft()
                self.users.append(nxt)
                nxt.succeed()
        elif request in self.queue:
            self.queue.remove(request)


class Store:
    """An unbounded FIFO store of items with blocking ``get``.

    The chaos daemon's shell pool and the compute service's request queue
    are Stores.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.items: typing.Deque[object] = collections.deque()
        self._getters: typing.Deque[Event] = collections.deque()
        if sim.sanitizer is not None:
            sim.sanitizer.track_store(self)

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: object) -> None:
        """Add ``item``; wakes the oldest waiting getter, if any."""
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        self.items.append(item)

    def get(self) -> Event:
        """Event yielding the next item (immediately if one is available)."""
        event = Event(self.sim)
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> typing.Optional[object]:
        """Non-blocking get; returns None when empty."""
        return self.items.popleft() if self.items else None
