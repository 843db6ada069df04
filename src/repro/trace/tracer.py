"""The span tracer: sim-time intervals with nesting and attributes.

A :class:`Span` is one named interval of *simulated* time with structured
attributes — ``tracer.span("xenstore.txn", domid=3)`` — opened and closed
as a context manager around the work it measures.  Spans nest: the parent
of a new span is the innermost span still open *in the same simulation
process*, so two interleaved ``create_vm`` coroutines each get their own
stack and never adopt each other's children (the kernel exposes the
running process as :attr:`Simulator.active_process`).

Design constraints, in priority order:

* **Cheap when disabled.**  Instrumented call sites obtain their
  tracer with :func:`tracer_of`, which returns the shared
  :data:`NULL_TRACER` when no tracer is attached; its ``span()`` hands
  back one reusable no-op context manager, and its ``instant()`` does
  nothing.  An untraced site still pays the :func:`tracer_of` call and
  the method call, plus whatever its arguments cost: ``span(name,
  **attrs)`` builds a keyword dict for the attributes, and a computed
  name is built before it is thrown away (``Hypervisor._count``
  concatenates ``"hypercall." + op`` on every hypercall).  XenStore op
  spans pay none of this: :func:`traced_op` opens them only when a
  tracer is attached at the moment the op is called, and an untraced
  op runs the daemon verb's own generator.
* **The timeline is read-only.**  A tracer never schedules events, never
  draws randomness and never advances the clock — it only samples
  ``sim.now`` at enter/exit.  That is what makes the acceptance property
  hold: :class:`~repro.analysis.sanitize.EventTrace` digests are
  byte-identical with tracing enabled or disabled.
* **Replay-deterministic output.**  Span ids, track ids and the span
  list order come from monotone counters driven by the (deterministic)
  event order; :meth:`Tracer.digest` folds the whole span timeline
  through the same address-free ``canonical()`` encoding the replay
  digest uses, so two runs of one scenario produce identical span
  digests.
"""

from __future__ import annotations

import hashlib
import itertools
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Simulator
    from .metrics import MetricsRegistry


class Span:
    """One named sim-time interval; also its own context manager."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id",
                 "track", "begin_ms", "end_ms", "_context")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: typing.Dict[str, object]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id = 0
        self.track = 0
        self.begin_ms = 0.0
        self.end_ms: typing.Optional[float] = None
        self._context: object = None

    @property
    def duration_ms(self) -> float:
        """Length of the span (0 while still open, and for instants)."""
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.begin_ms

    def set(self, **attrs: object) -> "Span":
        """Attach further attributes (chainable)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.tracer._begin(self)
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer._end(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Span %s [%s, %s)>" % (self.name, self.begin_ms,
                                       self.end_ms)


class _NullSpan:
    """The do-nothing span; one shared instance serves every site."""

    __slots__ = ()

    def set(self, **_attrs: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> None:
        return None


class NullTracer:
    """The disabled tracer: every operation is a no-op."""

    __slots__ = ()

    enabled = False

    def span(self, _name: str, **_attrs: object) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, _name: str, **_attrs: object) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: Shared disabled tracer returned by :func:`tracer_of` when none is
#: attached.
NULL_TRACER = NullTracer()


def tracer_of(sim: typing.Optional["Simulator"]):
    """The tracer attached to ``sim``, or :data:`NULL_TRACER`."""
    if sim is None:
        return NULL_TRACER
    tracer = sim.tracer
    return NULL_TRACER if tracer is None else tracer


def traced_op(sim: "Simulator", name: str, gen: typing.Generator):
    """``gen`` itself when no tracer is attached to ``sim``; otherwise a
    generator that runs ``gen`` inside a ``name`` span.

    For generator operations called on hot paths (the XenStore verbs):
    an untraced call adds no frame, no context manager and no span."""
    tracer = sim.tracer
    if tracer is None:
        return gen
    return _in_span(tracer, name, gen)


def _in_span(tracer: "Tracer", name: str, gen: typing.Generator):
    with tracer.span(name):
        return (yield from gen)


class Tracer:
    """Collects the span timeline of one simulator.

    Usage::

        sim = Simulator()
        tracer = Tracer().attach(sim)
        ...  # run the scenario
        for span in tracer.spans: ...
        print(tracer.digest())

    Optionally pass a :class:`~repro.trace.metrics.MetricsRegistry`; every
    finished span then lands in the ``span/<name>`` histogram, making
    per-operation latency distributions available without re-walking the
    span list.
    """

    enabled = True

    def __init__(self, metrics: typing.Optional["MetricsRegistry"] = None):
        self.sim: typing.Optional["Simulator"] = None
        self.metrics = metrics
        #: Finished spans, in completion order (children before parents).
        self.spans: typing.List[Span] = []
        self._ids = itertools.count(1)
        #: Open-span stacks, keyed by the simulation process that opened
        #: them (``None`` for code running outside any process).
        self._stacks: typing.Dict[object, typing.List[Span]] = {}
        #: Track registry: context -> track id, plus the names in
        #: assignment order for exporters.
        self._tracks: typing.Dict[object, int] = {}
        self.track_names: typing.List[str] = []

    def attach(self, sim: "Simulator") -> "Tracer":
        """Attach to ``sim`` (sets ``sim.tracer``) and return self."""
        self.sim = sim
        sim.tracer = self
        return self

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: object) -> Span:
        """A new span; open it with ``with`` (or manually via
        :meth:`_begin`/:meth:`_end` if the interval spans call sites)."""
        return Span(self, name, attrs)

    def instant(self, name: str, **attrs: object) -> Span:
        """Record a zero-duration event at the current sim time."""
        span = Span(self, name, attrs)
        self._begin(span)
        self._end(span)
        return span

    def _context(self) -> object:
        return None if self.sim is None else self.sim.active_process

    def _track_for(self, context: object) -> int:
        track = self._tracks.get(context)
        if track is None:
            track = len(self.track_names)
            self._tracks[context] = track
            name = getattr(context, "name", None)
            self.track_names.append("main" if name is None
                                    else "%s-%d" % (name, track))
        return track

    def _begin(self, span: Span) -> None:
        context = self._context()
        stack = self._stacks.setdefault(context, [])
        span.span_id = next(self._ids)
        span.parent_id = stack[-1].span_id if stack else 0
        span.track = self._track_for(context)
        span.begin_ms = 0.0 if self.sim is None else self.sim.now
        span._context = context
        stack.append(span)

    def _end(self, span: Span) -> None:
        span.end_ms = 0.0 if self.sim is None else self.sim.now
        stack = self._stacks.get(span._context, [])
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is span:
                del stack[index]
                break
        self.spans.append(span)
        if self.metrics is not None:
            self.metrics.histogram("span/" + span.name).observe(
                span.duration_ms)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def open_spans(self) -> typing.List[Span]:
        """Spans entered but not yet exited (normally empty at end)."""
        open_: typing.List[Span] = []
        for stack in self._stacks.values():
            open_.extend(stack)
        open_.sort(key=lambda s: s.span_id)
        return open_

    def by_name(self, name: str) -> typing.List[Span]:
        """All finished spans called ``name``, in completion order."""
        return [span for span in self.spans if span.name == name]

    def digest(self) -> str:
        """SHA-256 over the canonical span timeline (address-free, so
        equal across replay-identical runs)."""
        from ..analysis.sanitize import canonical
        digest = hashlib.sha256()
        for span in self.spans:
            line = "%d|%d|%s|%s|%s|%s\n" % (
                span.span_id, span.parent_id, span.name,
                span.begin_ms.hex(),
                "open" if span.end_ms is None else span.end_ms.hex(),
                canonical(span.attrs))
            digest.update(line.encode("utf-8", "backslashreplace"))
        return digest.hexdigest()
