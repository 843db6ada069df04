"""Generator-based simulation processes.

A process is a Python generator that yields *wait targets*:

* an :class:`~repro.sim.events.Event` — the process resumes when the event
  triggers, receiving its value (or having its exception thrown in);
* another :class:`Process` — the process joins it;
* a number — shorthand for ``sim.timeout(number)``.

A process is itself an event: it triggers when the generator returns (the
return value becomes the event value) or raises.

Resume model (see DESIGN.md, "The continuation-table resume model"): a
blocked process parks itself in the waited event's ``_cont`` continuation
slot whenever it would have been the event's first subscriber; the run
loop's trampoline resumes it inline.  Bootstrap and interrupt kicks are
pooled :class:`~repro.sim.events._Cell` events rather than fresh ``Event``
allocations.  Both are pure host-cost changes — the event timeline (and so
the replay digest) is identical to the seed kernel's.
"""

from __future__ import annotations

import typing

from heapq import heappush

from .events import Event, Interrupt, PendingInterrupt, PENDING, _Cell

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Simulator


class Process(Event):
    """Drives a generator through the simulation, acting as its own event."""

    __slots__ = ("_generator", "name", "_waiting_on", "daemon")

    def __init__(self, sim: "Simulator", generator: typing.Generator,
                 name: typing.Optional[str] = None):
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator, got %r"
                            % (generator,))
        # Flattened Event.__init__ (spawn is hot in fan-out workloads).
        self.sim = sim
        self.callbacks: typing.Optional[list] = []
        self._value: object = PENDING
        self._ok: typing.Optional[bool] = None
        self.defused = False
        self._cont = None
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: Perpetual background services (pool replenishers, pollers) set
        #: this so the end-of-run deadlock sanitizer does not flag them.
        self.daemon = False
        sim._live[self] = None
        if sim.sanitizer is not None:
            sim.sanitizer.track_process(self)
        if sim.witness is not None:
            sim.witness.on_spawn(self)
        # Kick off on the next queue step so creation order is respected.
        # The bootstrap is a pooled cell carried in our own continuation
        # slot; ``_waiting_on`` points at it so that an interrupt arriving
        # before the first resume can detach it like any abandoned wait.
        pool = sim._cell_pool
        if pool:
            cell = pool.pop()
            cell.callbacks = ()
            cell._value = None
            cell._ok = True
            cell.defused = False
        else:
            cell = _Cell(sim)
        cell._cont = self
        self._waiting_on: typing.Optional[Event] = cell
        # Inlined ``sim._push(cell)``: spawn cost shows directly in
        # fan-out throughput, and the bootstrap always lands at ``now``.
        now = sim._now
        buckets = sim._buckets
        bucket = buckets.get(now)
        if bucket is None:
            buckets[now] = [cell]
            heappush(sim._times, now)
        else:
            bucket.append(cell)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Raises :class:`~repro.sim.events.PendingInterrupt` if a previous
        interrupt has not been delivered yet: the first interrupt wins,
        and silently replacing its cause (what the seed kernel did) would
        drop it on the floor.
        """
        if self._value is not PENDING:
            raise RuntimeError("cannot interrupt a finished process")
        waiting = self._waiting_on
        if waiting is not None:
            if waiting.__class__ is _Cell and waiting._ok is False:
                raise PendingInterrupt(
                    "process %r already has an undelivered interrupt; the "
                    "first interrupt's cause wins" % self.name)
            self._detach()
        pool = self.sim._cell_pool
        if pool:
            kick = pool.pop()
            kick.callbacks = ()
        else:
            kick = _Cell(self.sim)
        kick._ok = False
        kick._value = Interrupt(cause)
        kick.defused = True
        kick._cont = self
        self._waiting_on = kick
        self.sim._push(kick)

    def _detach(self) -> None:
        """Stop waiting on ``_waiting_on``, so a long-lived shared event
        does not accumulate dead resume hooks (and the stale event, if it
        ever fires, finds nothing to wake)."""
        waiting = self._waiting_on
        if waiting is None:
            return
        self._waiting_on = None
        if waiting._cont is self:
            waiting._cont = None
        else:
            cbs = waiting.callbacks
            if cbs.__class__ is list:
                try:
                    cbs.remove(self._resume)
                except ValueError:
                    pass

    def _resume(self, event: Event) -> None:
        # The run loop's trampoline inlines the hot path of this method
        # (continuation dispatch with no witness attached); this full
        # version remains the single place that defines the semantics —
        # staleness, witness hooks, nested-resume bookkeeping — and is
        # used for callback-list wakeups and every non-fast case.
        if not self.is_alive:
            return
        if self._waiting_on is not None and event is not self._waiting_on:
            return  # stale wakeup from an event we stopped waiting on
        self._waiting_on = None
        # Expose this process as the running one while its generator
        # executes (restored on exit so nested resumptions — a process
        # succeeding and synchronously waking its joiner — stay correct).
        # The span tracer keys parent/child nesting on it.
        prev = self.sim.active_process
        self.sim.active_process = self
        witness = self.sim.witness
        if witness is not None:
            witness.on_wake(self, event)
        try:
            try:
                if event._ok:
                    target = self._generator.send(event._value)
                else:
                    event.defused = True
                    target = self._generator.throw(
                        typing.cast(BaseException, event._value))
            except StopIteration as stop:
                del self.sim._live[self]
                self.succeed(stop.value)
                return
            except BaseException as exc:
                del self.sim._live[self]
                self.fail(exc)
                return
        finally:
            self.sim.active_process = prev
        self._wait_for(target)

    def _end(self, exc: BaseException) -> None:
        """Close the generator, so ``finally`` blocks in the guest body
        run, and fail the process with ``exc``."""
        del self.sim._live[self]
        self._generator.close()
        self.fail(exc)

    def _wait_for(self, target: object) -> None:
        if isinstance(target, Event):
            if target.sim is not self.sim:
                self._end(ValueError("yielded event belongs to another "
                                     "simulator"))
                return
            self._waiting_on = target
            cbs = target.callbacks
            if target._cont is None and cbs.__class__ is list and not cbs:
                # First subscriber: park in the continuation slot instead
                # of allocating a bound method onto the callback list.
                target._cont = self
            else:
                target.add_callback(self._resume)
            return
        if isinstance(target, (int, float)):
            try:
                target = self.sim.timeout(target)
            except ValueError as exc:
                # A negative delay is the *process's* bug: fail it rather
                # than crashing the whole simulation run loop.
                self._end(exc)
                return
            # A fresh timeout has no subscribers yet; intern directly.
            self._waiting_on = target
            target._cont = self
            return
        self._end(TypeError(
            "process %r yielded %r; expected an Event, Process or a "
            "numeric delay" % (self.name, target)))
