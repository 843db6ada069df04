"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence with an optional value.  Other
entities (processes, resources) register callbacks on an event; when the
event is *triggered* (via :meth:`Event.succeed` or :meth:`Event.fail`) it is
placed on the simulator queue and its callbacks run when the simulator
reaches it.  The design intentionally mirrors the well-known SimPy kernel so
that toolstack code reads like straight-line prose with ``yield`` points.

Fast-path notes (the invariants are spelled out in DESIGN.md under
"Modeled cost vs host cost" and "The continuation-table resume model"):

* Every kernel event type uses ``__slots__``.  ``Event`` keeps a
  ``__weakref__`` slot because the runtime sanitizer tracks processes
  (and anything else built on ``Event``) through ``WeakSet``\\ s.
* ``Event.callbacks`` entries are either a plain callable invoked as
  ``callback(event)`` or a ``(callback, args)`` pair invoked as
  ``callback(*args)`` — the closure-free form used by
  :meth:`repro.sim.engine.Simulator.schedule`, which avoids allocating a
  lambda per scheduled call.  ``callbacks`` may also *be* a single bare
  ``(callback, args)`` pair (no list at all) on fire-and-forget
  ``call_later`` events.  The dispatch lives in the simulator loop;
  :meth:`Event.add_callback` promotes a bare pair to a list if a
  subscriber ever shows up.
* ``Event._cont`` is the **continuation slot**: when exactly one
  :class:`~repro.sim.process.Process` waits on the event and no other
  subscriber got there first, the process is parked in the slot instead
  of appending a bound ``_resume`` method to ``callbacks``.  The run
  loop resumes the slot *before* any listed callbacks, which is exactly
  the subscription order the callback list would have preserved, so the
  timeline is unchanged — a blocked process just costs one pointer
  store instead of a bound-method allocation plus a list append.
  ``interrupt()`` detaches by clearing the slot, so an abandoned wait
  leaves nothing behind (no dead-callback accumulation).
* ``Timeout`` carries a ``recycle`` flag so the simulator can pool
  fire-and-forget timeouts created by ``call_later`` (never ones handed
  to user code).  :class:`_Cell` is the same idea for the kernel's own
  bootstrap/kick events: a pooled, never-user-visible event whose class
  ``__name__`` deliberately reads "Event" so replay digests hash the
  same type name the seed kernel's plain bootstrap ``Event`` produced.
"""

from __future__ import annotations

import typing
from heapq import heappush

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Simulator

#: Sentinel for "this event has not been triggered yet".
PENDING = object()


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The interrupt ``cause`` is available as ``exc.cause``.
    """

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause


class PendingInterrupt(SimulationError):
    """A second ``interrupt()`` raced an undelivered first one.

    An interrupt is delivered as a kick event on the simulator queue; until
    that kick is processed the target has not yet observed the first
    :class:`Interrupt`.  The seed kernel silently *replaced* the pending
    kick in this window, dropping the first interrupt's cause on the floor.
    The defined semantics are now: the first interrupt wins, and a second
    call before delivery raises this error so the caller knows its cause
    was not (and will never be) delivered.
    """


class Event:
    """A one-shot occurrence in simulated time.

    Events start *pending*; calling :meth:`succeed` or :meth:`fail` triggers
    them, after which ``value`` holds the result (or the exception).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "defused", "_cont",
                 "__weakref__")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: typing.Optional[list] = []
        self._value: object = PENDING
        self._ok: typing.Optional[bool] = None
        #: Set to True by a handler to mark a failure as dealt with, which
        #: stops the simulator from escalating it to the caller of ``run``.
        self.defused = False
        #: Continuation slot: the single Process parked on this event, or
        #: None.  Filled only when the process would have been the first
        #: (and so far only) subscriber; the run loop resumes it before the
        #: ``callbacks`` list, preserving subscription order exactly.
        self._cont = None

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled for processing."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event is not yet triggered")
        return self._ok

    @property
    def value(self) -> object:
        """The event's value (or failure exception) once triggered."""
        if self._value is PENDING:
            raise SimulationError("event is not yet triggered")
        return self._value

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            if self.sim.sanitizer is not None:
                self.sim.sanitizer.event_double_trigger(self)
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        witness = self.sim.witness
        if witness is not None:
            witness.on_trigger(self)
        self.sim._push(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not PENDING:
            if self.sim.sanitizer is not None:
                self.sim.sanitizer.event_double_trigger(self)
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        witness = self.sim.witness
        if witness is not None:
            witness.on_trigger(self)
        self.sim._push(self)
        return self

    def add_callback(self, callback) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event was already processed the callback runs immediately;
        this keeps late subscribers (e.g. joining a finished process) safe.
        """
        cbs = self.callbacks
        if cbs is None:
            callback(self)
        elif cbs.__class__ is tuple:
            # A bare (callback, args) pair from the fire-and-forget fast
            # path; promote it to a regular list to take the subscriber.
            # (An empty tuple — a fresh pooled _Cell — holds no pair.)
            self.callbacks = [cbs, callback] if cbs else [callback]
        else:
            cbs.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending" if self._value is PENDING else (
            "ok" if self._ok else "failed")
        return "<{} {} at {:#x}>".format(type(self).__name__, state, id(self))


class Timeout(Event):
    """An event that succeeds automatically after a fixed delay."""

    __slots__ = ("delay", "recycle")

    def __init__(self, sim: "Simulator", delay: float, value: object = None):
        # Flattened constructor (no super() chain): a timeout per blocked
        # process is the single hottest allocation in process-shaped
        # workloads, and the one-dict-lookup super() dispatch plus the
        # second function frame are measurable there.
        if delay < 0:
            raise ValueError("timeout delay must be >= 0, got %r" % delay)
        self.sim = sim
        self.callbacks = []
        self.defused = False
        self._cont = None
        self.delay = delay
        #: Pool eligibility: only ``Simulator.call_later`` timeouts — which
        #: are never visible to user code — are recycled by the run loop.
        self.recycle = False
        self._ok = True
        self._value = value
        # Inlined ``sim._push(self, delay=delay)``: one dict probe plus a
        # list append, without the extra method frame (see the engine
        # module docstring, "Queue representation").
        when = sim._now + delay
        buckets = sim._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = [self]
            heappush(sim._times, when)
        else:
            bucket.append(self)


class _Cell(Event):
    """A pooled kernel-internal event: process bootstrap and interrupt kicks.

    The seed kernel allocated a fresh pre-triggered ``Event`` for every
    process start ("bootstrap") and every ``interrupt()`` ("kick").  Cells
    replace both: they live on ``Simulator._cell_pool``, are recognized by
    the run loop (``event.__class__ is _Cell``) and recycled after
    dispatch, and are *never* visible to user code — a process's
    ``_waiting_on`` points at one only until the first resume delivers it.

    Cells never go through ``succeed``/``fail``; their ``_ok``/``_value``
    fields are assigned directly, exactly as the seed kernel assigned its
    bootstrap events, so neither the sanitizer's double-trigger check nor
    the RaceWitness ``on_trigger`` hook ever observes one.

    The class ``__name__`` is reassigned to ``"Event"`` below so that
    replay digests — which hash ``type(event).__name__`` per processed
    event — stay byte-identical to the frozen reference kernel's plain
    bootstrap/kick ``Event`` records.  The reference kernel uses the same
    documented shadowing trick for its own subclasses.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        # Empty tuple, not a list: cells normally take no subscribers, and
        # the immutable singleton lets pool reuse skip reallocating it.
        # add_callback() promotes to a list if user code ever joins one
        # mid-flight (it cannot today; belt and braces).
        self.callbacks = ()
        self._value = None
        self._ok = True
        self.defused = False
        self._cont = None


_Cell.__name__ = "Event"
_Cell.__qualname__ = "Event"


class Condition(Event):
    """Base for composite events over a list of child events."""

    __slots__ = ("events", "_remaining", "_values")

    #: Subclasses that can build their result dict one child at a time
    #: (see AllOf) set this; the dict is then prefilled in child order so
    #: its insertion order — which the replay digest canonicalizes —
    #: matches what a full `_collect()` walk would produce.
    _incremental = False

    def __init__(self, sim: "Simulator", events: typing.Sequence[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._values: typing.Optional[dict] = None
        if not self.events:
            self.succeed({})
            return
        if self._incremental:
            self._values = dict.fromkeys(self.events, PENDING)
        self._remaining = len(self.events)
        # Inlined add_callback with the bound method hoisted: subscribing
        # to N children otherwise allocates N bound ``_check`` methods and
        # pays N method-call frames.  Semantics are identical — already
        # processed children run immediately, bare pairs are promoted.
        check = self._check
        for event in self.events:
            cbs = event.callbacks
            if cbs is None:
                check(event)
            elif cbs.__class__ is list:
                cbs.append(check)
            else:
                event.callbacks = [cbs, check] if cbs else [check]

    def _collect(self) -> dict:
        """Map each finished child event to its value."""
        return {
            event: event._value
            for event in self.events
            if event.processed and event._ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _unsubscribe(self) -> None:
        """Drop ``_check`` from every child not yet processed."""
        check = self._check
        for event in self.events:
            cbs = event.callbacks
            if cbs.__class__ is list:
                try:
                    cbs.remove(check)
                except ValueError:
                    pass


class AllOf(Condition):
    """Succeeds when every child event has succeeded.

    Collection is *incremental*: each ``_check`` drops the child's value
    into the prefilled dict in O(1), so an ``AllOf`` over N children costs
    O(N) total instead of the O(N) re-walk per trigger (O(N^2) total) the
    naive ``_collect`` path pays.  By the time ``_remaining`` hits zero
    every child has been processed successfully, so the prefilled dict is
    exactly ``_collect()``'s output — same keys, same insertion order.
    """

    __slots__ = ()

    _incremental = True

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event.defused = True
            self.fail(typing.cast(BaseException, event._value))
            return
        self._values[event] = event._value
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._values)


class AnyOf(Condition):
    """Succeeds as soon as one child event succeeds.

    Unlike :class:`AllOf` this keeps the collect-at-trigger walk: when
    several children are already processed at construction time (or fire
    at the same instant), the result must include *all* of them, not just
    the one whose ``_check`` ran first — incremental collection would
    change the payload, and with it the replay digest.

    Once triggered it unsubscribes from every child not yet processed.
    A child that never fires (the signal a timeout beat) would otherwise
    keep ``_check`` on its callback list, and with it this event, its
    children and its payload, in a cycle only the collector frees.  A
    stale ``_check`` returns at its first line, so dropping it changes
    no timeline.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: typing.Sequence[Event]):
        super().__init__(sim, events)
        if self._value is not PENDING:
            # A child processed before construction triggered it.
            self._unsubscribe()

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event.defused = True
            self.fail(typing.cast(BaseException, event._value))
        else:
            self.succeed(self._collect())
        self._unsubscribe()
