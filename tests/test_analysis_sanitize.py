"""Tests for the runtime sanitizers and the dual-run digest checker."""

import enum
import hashlib
import random
import typing

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import (EventTrace, ReplayDivergence, Sanitizer,
                            SanitizerViolation, assert_replay_identical,
                            canonical, verify_replay)
from repro.analysis.sanitize import _CHUNK_LINES
from repro.sim import (Resource, RngRegistry, RngStream, SimulationError,
                       Simulator, Store)


class TestCanonical:
    def test_scalars(self):
        assert canonical(None) == "None"
        assert canonical(True) == "True"
        assert canonical(42) == "42"
        assert canonical("x") == "'x'"

    def test_float_uses_exact_bits(self):
        assert canonical(0.1) == (0.1).hex()

    def test_containers_recurse(self):
        assert canonical([1, (2, 3)]) == "[1,(2,3)]"
        assert canonical({"a": 1}) == "{'a':1}"

    def test_objects_collapse_to_type_name(self):
        class Payload:
            pass

        a, b = canonical(Payload()), canonical(Payload())
        assert a == b == "<Payload>"  # no id() addresses leak in

    def test_exceptions_keep_args(self):
        assert canonical(ValueError("boom")) == "ValueError('boom')"

    def test_depth_bounded(self):
        nested = [1]
        for _ in range(10):
            nested = [nested]
        assert "..." in canonical(nested)


def reference_canonical(value: object, depth: int = 0) -> str:
    """``canonical`` as it was before exact types skipped the
    ``isinstance`` chain, copied with only its name changed."""
    if depth > 4:
        return "..."
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return repr(value)
    if isinstance(value, float):
        return value.hex()  # exact bits, not shortest-repr rounding
    if isinstance(value, (list, tuple)):
        open_, close = ("[", "]") if isinstance(value, list) else ("(", ")")
        return open_ + ",".join(reference_canonical(v, depth + 1)
                                for v in value) + close
    if isinstance(value, dict):
        return "{" + ",".join(
            "%s:%s" % (reference_canonical(k, depth + 1),
                       reference_canonical(v, depth + 1))
            for k, v in value.items()) + "}"
    if isinstance(value, BaseException):
        return "%s(%s)" % (type(value).__name__,
                           ",".join(reference_canonical(a, depth + 1)
                                    for a in value.args))
    return "<%s>" % type(value).__name__


class _Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


class _Tag(str):
    """A ``str`` subclass whose ``repr`` is not ``str``'s."""

    def __repr__(self):
        return "Tag<%s>" % str(self)


class _Point(typing.NamedTuple):
    x: object
    y: object


class _Pair(tuple):
    pass


class _Items(list):
    pass


class _Opaque:
    pass


_exact_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.binary(max_size=6), st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]))
_other_leaves = st.one_of(
    st.sampled_from(list(_Colour)), st.text(max_size=4).map(_Tag),
    st.builds(object), st.builds(_Opaque))
canonical_values = st.recursive(
    st.one_of(_exact_leaves, _other_leaves),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=3).map(_Pair),
        st.lists(children, max_size=3).map(_Items),
        st.builds(_Point, children, children),
        st.dictionaries(st.one_of(st.integers(), st.text(max_size=3),
                                  st.sampled_from(list(_Colour))),
                        children, max_size=3),
        st.builds(lambda cls, args: cls(*args),
                  st.sampled_from([ValueError, KeyError, RuntimeError]),
                  st.lists(children, max_size=2))),
    max_leaves=24)


@given(canonical_values, st.integers(min_value=0, max_value=6))
@example([_Tag("y"), (_Colour.RED, -0.0, float("nan"))], 0)
@example(_Point(_Pair((1, "a")), KeyError(b"\x00")), 3)
@example(("req", 1, -1, 2, (3, 0.5)), 4)
@settings(max_examples=400, deadline=None)
def test_canonical_matches_reference(value, depth):
    assert canonical(value, depth) == reference_canonical(value, depth)


class TestEventTrace:
    def test_counts_and_digests_every_event(self):
        sim = Simulator()
        trace = EventTrace().attach(sim)
        for _ in range(3):
            sim.timeout(1.0)
        sim.run()
        assert trace.events == 3
        assert len(trace.digest()) == 64

    def test_identical_runs_identical_digests(self):
        def run():
            sim = Simulator()
            trace = EventTrace().attach(sim)
            sim.schedule(1.0, lambda: None)
            sim.timeout(2.5, value="payload")
            sim.run()
            return trace.digest()

        assert run() == run()

    def test_time_sensitive(self):
        def run(delays):
            sim = Simulator()
            trace = EventTrace().attach(sim)
            for delay in delays:
                sim.timeout(delay)
            sim.run()
            return trace.digest()

        # Same processed order but different timestamps -> different
        # timeline.  (Swapped *creation* order of identical timeouts is
        # invisible by design: the processed timeline is what matters.)
        assert run([1.0, 2.0]) != run([1.0, 3.0])
        assert run([1.0, 2.0]) == run([1.0, 2.0])

    def test_payload_sensitive(self):
        def run(value):
            sim = Simulator()
            trace = EventTrace().attach(sim)
            sim.timeout(1.0, value=value)
            sim.run()
            return trace.digest()

        assert run("a") != run("b")


class ReferenceTrace:
    """``EventTrace.record`` as it was before payload-free lines took a
    cached tail: every line formatted in full through the reference
    ``canonical``."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.events = 0

    def record(self, when, event):
        ok = getattr(event, "_ok", None)
        value = getattr(event, "_value", None)
        line = "%s|%s|%s|%s\n" % (when.hex(), type(event).__name__,
                                  ok, reference_canonical(value))
        self._hash.update(line.encode("utf-8", "backslashreplace"))
        self.events += 1

    def digest(self):
        return self._hash.hexdigest()


class _StandIn:
    """A processed event as the digest sees it: ``_ok`` and ``_value``."""

    __slots__ = ("_ok", "_value")

    def __init__(self, ok=True, value=None):
        self._ok = ok
        self._value = value


#: Stand-in event classes by name; the last name is not ASCII.
STAND_INS = {name: type(name, (_StandIn,), {"__slots__": ()})
             for name in ("Timeout", "Event", "Process", "Condition",
                          "\u00cbvent")}


class _Bare:
    """An object with no ``_ok``/``_value``: its line reads ``|None|None``
    and must not take the cached tail."""


BARE = [type(name, (_Bare,), {}) for name in ("Timeout", "Request")]


class _Payload:
    pass


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.binary(max_size=6), st.just("\udc80"),
    st.builds(lambda cls, args: cls(*args),
              st.sampled_from([ValueError, KeyError, RuntimeError]),
              st.lists(st.one_of(st.integers(), st.text(max_size=4)),
                       max_size=2)),
    st.builds(object), st.builds(_Payload))
payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.integers(), st.text(max_size=3)),
                        children, max_size=3)),
    max_leaves=10)
stand_in_events = st.one_of(
    st.builds(lambda name, ok, value: STAND_INS[name](ok, value),
              st.sampled_from(sorted(STAND_INS)),
              st.sampled_from([True, False, None]),
              st.one_of(st.none(), payloads)),
    st.builds(lambda cls: cls(), st.sampled_from(BARE)))


def _record_all(trace, stream):
    for when, event in stream:
        trace.record(when, event)
    return trace


class TestEventTraceRecord:
    @given(st.lists(st.tuples(st.floats(), stand_in_events), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, stream):
        trace = _record_all(EventTrace(), stream)
        reference = _record_all(ReferenceTrace(), stream)
        assert trace.digest() == reference.digest()
        assert trace.events == reference.events == len(stream)
        assert not any(issubclass(cls, _Bare) for cls in trace._tails)

    def test_digest_line_format_is_pinned(self):
        # The digest of a fixed stream, computed before payload-free
        # lines took a cached tail.  Every pinned run digest rests on
        # these bytes.
        stream = [
            (0.0, STAND_INS["Timeout"]()),
            (0.5, STAND_INS["Event"]()),
            (0.5, STAND_INS["Process"](False, ValueError("boom", 3))),
            (1.25, STAND_INS["Timeout"](True, 0.1)),
            (2.0, STAND_INS["Event"](True, ("req", 1, 2, 3, (4, 0.5)))),
            (2.0, STAND_INS["Condition"](True, {"a": 1, 2: [None, b"x"]})),
            (3.0, STAND_INS["Process"](True, _Payload())),
            (3.0, BARE[0]()),
            (7.5, STAND_INS["Timeout"]()),
        ]
        trace = _record_all(EventTrace(), stream)
        assert trace.events == len(stream)
        assert trace.digest() == (
            "49e86b176db5d41b907310f97786201374c100e997c0c2af0dc5f89771cdc8c4")

    @given(st.lists(st.tuples(st.floats(), stand_in_events), min_size=1,
                    max_size=12),
           st.integers(min_value=2 * _CHUNK_LINES + 1,
                       max_value=3 * _CHUNK_LINES + 40),
           st.integers(min_value=0, max_value=2 ** 32),
           st.sets(st.integers(min_value=0, max_value=3 * _CHUNK_LINES + 40),
                   max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_long_streams_with_mid_stream_reads_match_reference(
            self, pool, length, seed, reads):
        # More than two buffered chunks, drawn from a small pool so that
        # consecutive records often share one ``when`` object; the digest
        # is read at the chunk boundaries, just past them and at random
        # points, and recording resumes after each read.
        rng = random.Random(seed)
        stream = [rng.choice(pool) for _ in range(length)]
        reads |= {_CHUNK_LINES - 1, _CHUNK_LINES, _CHUNK_LINES + 1,
                  2 * _CHUNK_LINES, length}
        trace, reference = EventTrace(), ReferenceTrace()
        for index, (when, event) in enumerate(stream):
            if index in reads:
                assert trace.digest() == reference.digest()
                assert trace.events == reference.events == index
            trace.record(when, event)
            reference.record(when, event)
        assert trace.digest() == reference.digest()
        assert trace.events == reference.events == length

    @pytest.mark.parametrize("length", [1, _CHUNK_LINES - 1, _CHUNK_LINES,
                                        _CHUNK_LINES + 1, 2 * _CHUNK_LINES + 3])
    def test_partial_chunk_is_hashed(self, length):
        stream = [(float(index), STAND_INS["Timeout"]())
                  for index in range(length)]
        trace = _record_all(EventTrace(), stream)
        assert trace.digest() == _record_all(ReferenceTrace(),
                                             stream).digest()

    def test_shared_when_object_and_signed_zero(self):
        # One float object for a batch, as the run loop passes it; then
        # -0.0 right after 0.0, which compare equal but hex differently.
        now = 1.5
        zero, negative_zero = 0.0, float("-0.0")
        event = STAND_INS["Event"]
        stream = [(now, event()), (now, event(True, 7)), (now, event()),
                  (zero, event()), (negative_zero, event()),
                  (negative_zero, event(True, 0.5)), (zero, event())]
        trace = _record_all(EventTrace(), stream)
        assert trace.digest() == _record_all(ReferenceTrace(),
                                             stream).digest()
        unsigned = [(zero if when == 0 else when, ev) for when, ev in stream]
        assert trace.digest() != _record_all(EventTrace(),
                                             unsigned).digest()

    def test_message_token_digest_is_pinned(self):
        # Cross-host message tokens, (kind, epoch, src, seq, payload), as
        # HostNode.deliver records them (src -1 is the controller); the
        # digest was computed before exact types skipped the isinstance
        # chain.  Every pinned cluster digest rests on these bytes.
        tokens = [
            ("create", 0, -1, 0, (7,)),
            ("up", 1, -1, 1, (7, 3)),
            ("req", 2, 3, 0, (7, 2.0500000000000003)),
            ("rsp", 3, 7, 4, (2.05, 1)),
            ("mig_in", 4, 3, 1, (7, 65536)),
            ("req", 5, 0, 12, (7, -0.0)),
            ("rsp", 6, 2, 3, (float("inf"), 0)),
            ("nested", 7, 1, 2, ((1, (2.5, "x")), [None, True], b"\x00")),
            ("deep", 8, -1, 5, ((((1, 0.5),),),)),
            ("empty", 9, 4, 6, ()),
        ]
        stream = []
        for index, token in enumerate(tokens):
            stream.append((0.25 * index, STAND_INS["Event"](True, token)))
            stream.append((0.25 * index, STAND_INS["Timeout"]()))
        trace = _record_all(EventTrace(), stream)
        assert trace.events == len(stream)
        assert trace.digest() == (
            "05cfdf228149d57f726846df11c4c7434b1bbe94eb2af25e1a0b73d8eeb4a0b8")


class TestSanitizerDoubleTrigger:
    def test_recorded_even_when_raise_is_swallowed(self):
        sim = Simulator()
        san = Sanitizer().attach(sim)
        event = sim.event()
        event.succeed("first")
        try:
            event.succeed("second")
        except SimulationError:
            pass
        sim.run()
        assert any("re-triggered" in v for v in san.check())

    def test_fail_after_succeed_recorded(self):
        sim = Simulator()
        san = Sanitizer().attach(sim)
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("late"))
        sim.run()
        assert len(san.check()) == 1


class TestSanitizerStalledProcesses:
    def test_deadlocked_process_reported(self):
        sim = Simulator()
        san = Sanitizer().attach(sim)

        def stuck():
            yield sim.event()  # nobody will ever trigger this

        sim.process(stuck())
        sim.run()
        violations = san.check()
        assert any("never finished" in v for v in violations)

    def test_finished_process_clean(self):
        sim = Simulator()
        san = Sanitizer().attach(sim)

        def quick():
            yield sim.timeout(1.0)

        sim.process(quick())
        sim.run()
        san.assert_clean()

    def test_daemon_processes_exempt(self):
        sim = Simulator()
        san = Sanitizer().attach(sim)

        def forever():
            while True:
                yield sim.event()

        sim.process(forever()).daemon = True
        sim.run()
        san.assert_clean()


class TestSanitizerWaiters:
    def test_resource_queue_waiter_reported(self):
        sim = Simulator()
        san = Sanitizer().attach(sim)
        resource = Resource(sim, capacity=1)

        def hog():
            with resource.request() as req:
                yield req
                yield sim.event()  # hold the slot forever

        def waiter():
            with resource.request() as req:
                yield req

        sim.process(hog())
        sim.process(waiter())
        sim.run()
        violations = san.check()
        assert any("waiter(s) still queued" in v for v in violations)

    def test_store_blocked_getter_reported(self):
        sim = Simulator()
        san = Sanitizer().attach(sim)
        store = Store(sim)

        def starved():
            yield store.get()

        sim.process(starved())
        sim.run()
        assert any("blocked getter" in v for v in san.check())

    def test_satisfied_store_clean(self):
        sim = Simulator()
        san = Sanitizer().attach(sim)
        store = Store(sim)
        store.put("item")

        def fed():
            yield store.get()

        sim.process(fed())
        sim.run()
        san.assert_clean()


class TestSanitizerRngCollisions:
    def test_duplicate_derivation_detected(self):
        san = Sanitizer()
        with san.watch_rng():
            RngStream(0, "dup")
            RngStream(0, "dup")
        assert any("derived twice" in v for v in san.check())

    def test_registry_cache_is_not_a_collision(self):
        san = Sanitizer()
        with san.watch_rng():
            registry = RngRegistry(seed=0)
            registry.stream("a")
            registry.stream("a")  # cached, not re-derived
        san.assert_clean()

    def test_watch_scope_ends_with_context(self):
        san = Sanitizer()
        with san.watch_rng():
            RngStream(0, "x")
        RngStream(0, "x")  # outside the watch: not recorded
        san.assert_clean()
        assert RngStream.observers == []

    def test_assert_clean_raises_with_details(self):
        san = Sanitizer()
        with san.watch_rng():
            RngStream(1, "s")
            RngStream(1, "s")
        with pytest.raises(SanitizerViolation, match="derived twice"):
            san.assert_clean()


class TestVerifyReplay:
    def test_deterministic_scenario_identical(self):
        def scenario(sim):
            rng = RngStream(4, "jitter")
            for _ in range(10):
                sim.timeout(rng.random())
            sim.run()

        report = verify_replay(scenario)
        assert report.identical
        assert report.event_counts == [10, 10]
        assert "IDENTICAL" in report.render()

    def test_nondeterministic_scenario_diverges(self):
        ticket = [0]

        def scenario(sim):
            # Deliberately leaks state across runs — the exact hazard
            # the checker exists to catch.
            ticket[0] += 1
            sim.timeout(float(ticket[0]))
            sim.run()

        report = verify_replay(scenario)
        assert not report.identical
        with pytest.raises(ReplayDivergence):
            assert_replay_identical(scenario)

    def test_requires_two_runs(self):
        with pytest.raises(ValueError):
            verify_replay(lambda sim: None, runs=1)

    def test_host_boot_storm_replays_identically(self):
        from repro.core import Host
        from repro.guests import DAYTIME_UNIKERNEL

        def scenario(sim):
            host = Host(variant="lightvm", seed=11, sim=sim,
                        pool_target=8,
                        shell_memory_kb=DAYTIME_UNIKERNEL.memory_kb)
            host.warmup(300.0)
            for _ in range(3):
                host.create_vm(DAYTIME_UNIKERNEL)
            sim.run(until=sim.now + 50.0)

        assert assert_replay_identical(scenario).identical

    def test_faulted_boot_storm_replays_identically(self):
        from repro.core import Host
        from repro.faults import FaultPlan
        from repro.guests import DAYTIME_UNIKERNEL

        def scenario(sim):
            host = Host(variant="xl", seed=11, sim=sim,
                        fault_plan=FaultPlan.uniform(0.05, seed=11))
            for _ in range(3):
                try:
                    host.create_vm(DAYTIME_UNIKERNEL)
                except Exception:
                    pass
            sim.run(until=sim.now + 200.0)

        report = assert_replay_identical(scenario)
        assert report.identical
        assert report.event_counts[0] > 0
