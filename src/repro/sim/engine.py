"""The discrete-event simulation core.

:class:`Simulator` owns the event queue and the simulated clock.  All times
in the library are **milliseconds of simulated time** expressed as floats;
this matches the units the LightVM paper reports (boot times of 2.3 ms,
migration times of 60 ms, and so on).

The kernel is a compact SimPy-style design: events are processed in
(time, insertion order); :meth:`Simulator.run` pops them in order and
invokes their callbacks.  Processes (see :mod:`repro.sim.process`) are
generators that yield events and are resumed by the run loop's trampoline.

**Determinism contract.**  Events are ordered by ``(time, insertion
order)`` and nothing else: events scheduled for the same simulated
instant are processed in exactly the order they were pushed, every run.
Nothing in the kernel may break ties by hash order, object identity
(``id()``), or any other per-process value — that contract is what makes
a ``(seed, config)`` pair replay bit-identically, and it is
machine-checked by :mod:`repro.analysis` (the ``repro lint`` rules and
the dual-run digest checker).  Two opt-in hooks support that checking:
``sanitizer`` (runtime hazard detection) and ``trace`` (streaming
timeline digest); both default to ``None`` and cost one identity check
per event when unused.

**Queue representation.**  The queue is *time-bucketed*: ``_buckets``
maps each pending simulated time to the FIFO list of events scheduled at
that instant, and ``_times`` is a heap of the distinct pending times.
Appending to a bucket preserves insertion order within an instant and the
times heap orders instants, so the representation realizes exactly the
``(time, insertion order)`` contract the seed kernel's per-event
``(time, counter, event)`` heap tuples did — while a push costs one dict
probe plus a list append instead of an O(log n) sift with tuple
allocation, and popping a same-instant batch costs list indexing instead
of n heap pops.  A bucket stays registered while it drains so callbacks
pushing at the current instant append to it in order; the heap may
transiently hold a time whose bucket is already gone, and every consumer
skips such stale entries.

**Fast-path invariants.**  The run loop is tuned (hot attributes bound to
locals, same-instant events drained in a batch, ``call_later`` timeouts
and process bootstrap/kick cells pooled, continuation-slot process
resumes trampolined inline) under invariants that
``tests/test_reference_kernel.py`` proves against the naive seed kernel
via byte-identical replay digests:

* delays are never negative, so a callback can only push events at the
  current instant or later — draining everything at the head timestamp
  before re-checking ``until`` cannot skip a stop point, and same-instant
  pushes join the live bucket in insertion order exactly as the
  one-at-a-time loop would process them;
* the ``trace``/``sanitizer``/``tracer``/``witness`` hooks are attached
  before ``run()`` is entered, never swapped mid-run (they are rebound
  once per timestamp batch, not per event);
* pooled timeouts are only ever created by :meth:`call_later`, which
  returns ``None``, and pooled cells only by the process machinery,
  which never exposes them — user code cannot hold a reference to a
  recycled event, so reuse is unobservable;
* the inline trampoline resume is a transcription of
  :meth:`repro.sim.process.Process._resume`'s hot path, taken only when
  its staleness/liveness checks pass and no witness is attached; every
  other wakeup routes through ``_resume`` itself, which remains the
  definition of the semantics.
"""

from __future__ import annotations

import heapq
import itertools
import typing

from .events import (AllOf, AnyOf, Condition, Event, PENDING,
                     SimulationError, Timeout, _Cell)
from .process import Process

#: Upper bound on pooled ``call_later`` timeouts kept for reuse; beyond
#: this the extras are dropped to the garbage collector.
_TIMEOUT_POOL_CAP = 256

#: Upper bound on pooled bootstrap/kick cells (see ``events._Cell``).
#: Fan-out workloads spawn thousands of processes at one instant; the
#: pool only ever fills from the run loop's recycle path, so the cap just
#: bounds retained garbage, not correctness.
_CELL_POOL_CAP = 1024


class _StopFlag:
    """Callback object marking the ``until`` event as processed.

    A tiny class instead of a closure: the run loop registers exactly one
    per ``run(until=event)`` call, and the kernel keeps itself free of
    per-event closure allocation (lint rule RPR008).
    """

    __slots__ = ("hit",)

    def __init__(self):
        self.hit = False

    def __call__(self, _event) -> None:
        self.hit = True


class Simulator:
    """A discrete-event simulator with a millisecond float clock."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        #: Bucketed event queue; see the module docstring.
        self._buckets: dict = {}
        self._times: list = []
        #: Legacy heap fields.  The optimized queue no longer touches
        #: them, but the frozen naive reference kernel
        #: (``tests/reference_kernel.py``) subclasses this class and keeps
        #: its seed-state ``(time, counter, event)`` heap here.
        self._queue: list = []
        self._order = itertools.count()
        self._timeout_pool: list = []
        self._cell_pool: list = []
        #: Processes whose generator is still live, in spawn order (a
        #: dict used as an ordered set).  A process enters at spawn and
        #: leaves on every completion path; :meth:`close` ends the rest.
        self._live: dict = {}
        self._closed = False
        #: Number of events processed so far (for diagnostics/tests).
        self.processed_events = 0
        #: Optional :class:`repro.analysis.sanitize.Sanitizer` hook.
        self.sanitizer = None
        #: Optional :class:`repro.analysis.sanitize.EventTrace` hook.
        self.trace = None
        #: Optional :class:`repro.trace.Tracer` hook (span recording).
        #: Like the two above it is timeline-read-only: attaching one
        #: must never change the event schedule.
        self.tracer = None
        #: Optional :class:`repro.analysis.witness.RaceWitness` hook
        #: (vector-clock happens-before tracking).  Timeline-read-only
        #: like the three above.  When attached, the run loop disables
        #: the inline trampoline so every wakeup flows through
        #: ``Process._resume`` and its ``on_wake`` hook.
        self.witness = None
        #: The :class:`Process` whose generator is currently executing
        #: (``None`` between resumptions).  Maintained by the process
        #: machinery; the tracer keys its open-span stacks on it.
        self.active_process = None
        #: Callables invoked (with the simulator) every time :meth:`run`
        #: completes normally — at a numeric stop time, when an awaited
        #: event triggers, or when the queue drains.  Epoch drivers (the
        #: ``repro.cluster`` barrier scheduler) register hooks here to
        #: close out a bounded window: flush cross-host message batches,
        #: snapshot outstanding-work counters.  Hooks run after the loop
        #: has exited; events they schedule stay queued for the next
        #: ``run()`` call.  Empty (and costing one truthiness check per
        #: run) everywhere outside the cluster layer.
        self.drain_hooks: list = []

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` ms from now."""
        return Timeout(self, delay, value)

    def process(self, generator: typing.Generator) -> Process:
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        """Event that succeeds when all ``events`` succeed."""
        return AllOf(self, events)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        """Event that succeeds when any of ``events`` succeeds."""
        return AnyOf(self, events)

    def schedule(self, delay: float, callback, *args) -> Event:
        """Run ``callback(*args)`` after ``delay`` ms; returns the event.

        Closure-free: the ``(callback, args)`` pair is stored directly on
        the event's callback list and dispatched by the run loop, instead
        of allocating a wrapper lambda per call.
        """
        event = Timeout(self, delay)
        event.callbacks.append((callback, args))
        return event

    def schedule_at(self, when: float, callback, *args,
                    value: object = None) -> Event:
        """Run ``callback(*args)`` at the *absolute* instant ``when``.

        Unlike :meth:`schedule` — which buckets at ``now + delay`` — this
        buckets at exactly ``when``.  Epoch drivers injecting cross-host
        messages at pre-agreed arrival times must not round-trip through
        a delay subtraction: ``now + (when - now)`` is not guaranteed to
        equal ``when`` in floating point, and a one-ULP split would land
        one agreed instant in two buckets, diverging the replay digest
        between backends.  ``value`` is carried as the event's payload so
        the digest pins *what* arrived, not just when.
        """
        when = float(when)
        if when < self._now:
            raise ValueError("schedule_at(%r) is in the past (now=%r)"
                             % (when, self._now))
        event = Event(self)
        event._ok = True
        event._value = value
        # Bare (callback, args) pair — the closure-free fast path the run
        # loop dispatches directly (see events.Event.callbacks).
        event.callbacks = (callback, args)
        buckets = self._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = [event]
            heapq.heappush(self._times, when)
        else:
            bucket.append(event)
        return event

    def call_later(self, delay: float, callback, *args) -> None:
        """Fire-and-forget :meth:`schedule`: no event handle is returned.

        Because the caller cannot observe the event, the run loop recycles
        the :class:`Timeout` object through a small pool — per-tick timer
        traffic (e.g. the CPU scheduler's quantum timers) then allocates
        nothing in steady state.  Use :meth:`schedule` whenever the event
        handle is needed.
        """
        if delay < 0:
            raise ValueError("timeout delay must be >= 0, got %r" % delay)
        pool = self._timeout_pool
        if pool:
            event = pool.pop()
            # A recycled timeout's state is known-clean: tuple-form
            # callbacks never expose the event object, so nothing could
            # have touched _ok (True), _value (None), defused (False) or
            # _cont (None) since the run loop dispatched it.  Only the
            # callback pair, the recycle flag and the queue entry need
            # refreshing.
            event.delay = delay
            event.callbacks = (callback, args)
            event.recycle = True
            when = self._now + delay
            buckets = self._buckets
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = [event]
                heapq.heappush(self._times, when)
            else:
                bucket.append(event)
        else:
            event = Timeout(self, delay)
            event.recycle = True
            event.callbacks = (callback, args)

    # ------------------------------------------------------------------
    # Queue management
    # ------------------------------------------------------------------
    def _push(self, event: Event, delay: float = 0.0) -> None:
        # (time, insertion order) is the *entire* ordering contract; see
        # the module docstring.  Bucket append order realizes the
        # insertion-order tie-break; the times heap orders instants.
        when = self._now + delay
        buckets = self._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = [event]
            heapq.heappush(self._times, when)
        else:
            bucket.append(event)

    def step(self) -> None:
        """Process exactly one event.

        Kept for manual stepping (tests, debuggers); :meth:`run` drains
        the queue with an inlined copy of this dispatch.  ``step`` does
        not recycle pooled events — only the run loop does.
        """
        if self._closed:
            raise SimulationError("the simulator is closed")
        times = self._times
        buckets = self._buckets
        bucket = None
        head = 0.0
        while times:
            head = times[0]
            bucket = buckets.get(head)
            if bucket is not None:
                break
            heapq.heappop(times)  # stale entry; see module docstring
        if bucket is None:
            raise SimulationError("no more events to process")
        if head < self._now:
            raise SimulationError(
                "clock would run backwards (%r -> %r): the queue ordering "
                "contract was violated" % (self._now, head))
        self._now = head
        event = bucket.pop(0)
        if not bucket:
            del buckets[head]
            heapq.heappop(times)
        self.processed_events += 1
        if self.trace is not None:
            self.trace.record(head, event)
        callbacks = event.callbacks
        event.callbacks = None
        cont = event._cont
        if cont is not None:
            # Continuation slot first: the parked process was the event's
            # first subscriber, so it wakes before any listed callbacks.
            event._cont = None
            cont._resume(event)
        if callbacks:
            if callbacks.__class__ is tuple:
                callbacks[0](*callbacks[1])
            else:
                for callback in callbacks:
                    if callback.__class__ is tuple:
                        callback[0](*callback[1])
                    else:
                        callback(event)
        if not event._ok and not event.defused:
            # A failure nobody handled: escalate to the run() caller so
            # broken models do not fail silently.
            raise typing.cast(BaseException, event._value)

    def run(self, until: typing.Union[float, Event, None] = None,
            inclusive: bool = True) -> object:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the queue drains;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until it triggers, returning its value
          (re-raising its exception if it failed).

        ``inclusive`` (numeric ``until`` only) picks the boundary
        semantics: ``True`` (the default, the historical behaviour)
        processes events scheduled exactly *at* the stop time before
        stopping; ``False`` is the epoch-bounded entry — events at the
        boundary stay queued, the clock still advances to the stop time,
        and a later ``run()`` picks them up.  Strict windows are what
        make epoch barriers composable: every event in ``[t0, t1)`` runs
        in the ``until=t1`` window and none leaks across, so N hosts
        advanced window-by-window partition their timelines identically
        no matter how the windows interleave across OS processes.

        On every normal completion (numeric stop, event stop, or queue
        drain) the registered ``drain_hooks`` run, in order.  A closed
        simulator raises :class:`SimulationError`.
        """
        if self._closed:
            raise SimulationError("the simulator is closed")
        stop_event: typing.Optional[Event] = None
        stop_flag: typing.Optional[_StopFlag] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
            stop_event.defused = True
            stop_flag = _StopFlag()
            stop_event.add_callback(stop_flag)
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError("until=%r is in the past (now=%r)"
                                 % (until, self._now))

        buckets = self._buckets
        times = self._times
        tpool = self._timeout_pool
        cpool = self._cell_pool
        live = self._live
        heappop = heapq.heappop
        processed = 0
        try:
            while times:
                if stop_flag is not None and stop_flag.hit:
                    break
                head = heappop(times)
                bucket = buckets.get(head)
                if bucket is None:
                    continue  # stale entry; see module docstring
                if head > stop_time or (head == stop_time
                                        and not inclusive):
                    heapq.heappush(times, head)
                    break
                if head < self._now:
                    heapq.heappush(times, head)
                    raise SimulationError(
                        "clock would run backwards (%r -> %r): the queue "
                        "ordering contract was violated" % (self._now, head))
                trace = self.trace
                witness = self.witness
                self._now = head
                # Drain every event scheduled at this instant.  Delays are
                # never negative, so callbacks can only append to the live
                # bucket (same time, later insertion order) or push later
                # — the stop-time check above stays valid for the whole
                # batch, and ``len(bucket)`` is re-read every iteration to
                # pick up same-instant appends.
                i = 0
                try:
                    while i < len(bucket):
                        event = bucket[i]
                        i += 1
                        processed += 1
                        if trace is not None:
                            trace.record(head, event)
                        callbacks = event.callbacks
                        event.callbacks = None
                        cont = event._cont
                        if cont is not None:
                            event._cont = None
                            if (witness is None and cont._value is PENDING
                                    and cont._waiting_on is event):
                                # Inline trampoline: transcription of
                                # Process._resume's hot path (see the
                                # module docstring invariant).  Dispatching
                                # here saves a bound-method call, the
                                # staleness re-checks, and the try/finally
                                # frame per wake — which is the bulk of
                                # the per-resume host cost in
                                # process-shaped workloads.
                                cont._waiting_on = None
                                self.active_process = cont
                                try:
                                    if event._ok:
                                        target = cont._generator.send(
                                            event._value)
                                    else:
                                        event.defused = True
                                        target = cont._generator.throw(
                                            typing.cast(BaseException,
                                                        event._value))
                                except StopIteration as stop:
                                    self.active_process = None
                                    del live[cont]
                                    if cont._value is PENDING:
                                        # Inlined succeed(): no witness is
                                        # attached on this path, and the
                                        # completion lands at the current
                                        # instant — i.e. on the live
                                        # bucket being drained.
                                        cont._ok = True
                                        cont._value = stop.value
                                        bucket.append(cont)
                                    else:
                                        cont.succeed(stop.value)
                                except BaseException as exc:
                                    self.active_process = None
                                    del live[cont]
                                    cont.fail(exc)
                                else:
                                    self.active_process = None
                                    if (target.__class__ is Timeout
                                            and target.sim is self
                                            and target._cont is None
                                            and not target.callbacks):
                                        # Fresh same-simulator timeout
                                        # with no subscribers: intern the
                                        # wait without re-entering
                                        # _wait_for.
                                        target._cont = cont
                                        cont._waiting_on = target
                                    else:
                                        cont._wait_for(target)
                            else:
                                cont._resume(event)
                        if callbacks:
                            if callbacks.__class__ is tuple:
                                callbacks[0](*callbacks[1])
                            else:
                                for callback in callbacks:
                                    if callback.__class__ is tuple:
                                        callback[0](*callback[1])
                                    else:
                                        callback(event)
                        if not event._ok and not event.defused:
                            # A failure nobody handled: escalate to the
                            # run() caller so broken models do not fail
                            # silently.
                            raise typing.cast(BaseException, event._value)
                        cls = event.__class__
                        if cls is Timeout:
                            if event.recycle:
                                event.recycle = False
                                if len(tpool) < _TIMEOUT_POOL_CAP:
                                    tpool.append(event)
                        elif cls is _Cell:
                            if len(cpool) < _CELL_POOL_CAP:
                                cpool.append(event)
                        if stop_flag is not None and stop_flag.hit:
                            break
                finally:
                    # Reached on batch completion, a mid-batch stop, or
                    # an escalated failure: keep any unprocessed tail
                    # queued so the queue stays consistent for callers
                    # that catch the failure and continue stepping.
                    if i < len(bucket):
                        del bucket[:i]
                        heapq.heappush(times, head)
                    else:
                        del buckets[head]
        finally:
            # Flushed once per run, not per event; exact again by the
            # time run() returns or an escalated failure escapes.
            self.processed_events += processed

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "simulation ran out of events before the awaited event "
                    "triggered")
            if not stop_event.ok:
                raise typing.cast(BaseException, stop_event.value)
            if self.drain_hooks:
                for hook in self.drain_hooks:
                    hook(self)
            return stop_event.value
        if stop_time != float("inf"):
            self._now = stop_time
        if self.drain_hooks:
            for hook in self.drain_hooks:
                hook(self)
        return None

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        """End the simulator's life so that what it holds can be freed.

        Closes the generator of every live process, in spawn order, so
        that each runs its ``finally`` blocks and ``with`` exits, and
        detaches it from the event it waited on; a condition it waited
        on also leaves its pending children.  Then drops every queued
        event (those exits may have triggered more), the timeout and cell
        pools and the drain hooks.  Call it between runs, not from inside
        one.  Afterwards :meth:`run` and :meth:`step` raise
        :class:`SimulationError`; a second ``close()`` does nothing.

        Without it a finished simulator waits for the cyclic collector:
        queued events point back at it, a parked process and the event it
        waits on point at each other, and a drain hook's owner holds it
        (DESIGN.md, "Object lifetime").
        """
        self._closed = True
        live = self._live
        try:
            while live:
                process = next(iter(live))
                del live[process]
                waiting = process._waiting_on
                process._generator.close()
                process._detach()
                if isinstance(waiting, Condition):
                    # Its pending children would keep it, and through
                    # them this simulator, in a cycle.
                    waiting._unsubscribe()
        finally:
            self._buckets.clear()
            self._times.clear()
            self._queue.clear()
            self._timeout_pool.clear()
            self._cell_pool.clear()
            self.drain_hooks.clear()
            self.active_process = None
