"""Tests for the discrete-event simulation engine."""

import heapq

import pytest

from repro.sim import Event, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start=42.0)
    assert sim.now == 42.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0


def test_timeouts_fire_in_order():
    sim = Simulator()
    seen = []
    for delay in (3.0, 1.0, 2.0):
        sim.schedule(delay, seen.append, delay)
    sim.run()
    assert seen == [1.0, 2.0, 3.0]


def test_same_time_events_fifo():
    sim = Simulator()
    seen = []
    for tag in range(5):
        sim.schedule(1.0, seen.append, tag)
    sim.run()
    assert seen == list(range(5))


def test_same_time_interleaved_events_pop_in_insertion_order():
    """The determinism contract: the heap is keyed by (time, insertion
    order) and nothing else.  Events landing on the same timestamp via
    *different* construction paths — direct timeouts, longer timeouts
    created earlier, immediate succeeds fired by callbacks — must still
    pop in exactly the order they were pushed."""
    sim = Simulator()
    seen = []
    # Insertion 0: a timeout created now, firing at t=5.
    sim.schedule(5.0, seen.append, "early-push")
    # Insertion 1: another t=5 arrival, pushed second.
    sim.schedule(5.0, seen.append, "second-push")
    # Insertions made later in wall order but also landing on t=5: a
    # callback at t=2 schedules two more t=5 events plus an immediate
    # event succeeded at t=5 exactly.
    def at_two():
        sim.schedule(3.0, seen.append, "from-t2-a")
        sim.schedule(3.0, seen.append, "from-t2-b")
    sim.schedule(2.0, at_two)
    # A plain event succeeded from a t=5 callback lands *after* every
    # event already queued for t=5 (it is pushed last).
    late = sim.event()
    late.add_callback(lambda _e: seen.append("succeeded-at-t5"))
    sim.schedule(5.0, late.succeed)

    sim.run()
    assert seen == ["early-push", "second-push", "from-t2-a",
                    "from-t2-b", "succeeded-at-t5"]


def test_clock_never_runs_backwards():
    """A push that would rewind the clock is a contract violation the
    kernel refuses to process silently."""
    sim = Simulator()
    sim.timeout(10.0)
    sim.run()
    assert sim.now == 10.0
    stale = Event(sim)
    stale._ok = True
    stale._value = None
    # Forge a past-dated entry directly into the bucketed queue.
    sim._buckets[5.0] = [stale]
    heapq.heappush(sim._times, 5.0)
    with pytest.raises(SimulationError, match="backwards"):
        sim.step()
    # run() enforces the same contract.
    with pytest.raises(SimulationError, match="backwards"):
        sim.run()


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()
    assert sim.now == 10.0


def test_run_until_past_time_raises():
    sim = Simulator(start=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_until_event_returns_value():
    sim = Simulator()
    evt = sim.event()
    sim.schedule(7.0, evt.succeed, "done")
    assert sim.run(until=evt) == "done"
    assert sim.now == 7.0


def test_run_until_failed_event_raises():
    sim = Simulator()
    evt = sim.event()
    sim.schedule(1.0, evt.fail, RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=evt)


def test_run_until_event_never_fires_raises():
    sim = Simulator()
    evt = sim.event()
    sim.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(until=evt)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_event_double_trigger_rejected():
    sim = Simulator()
    evt = sim.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    evt = sim.event()
    with pytest.raises(SimulationError):
        _ = evt.value


def test_unhandled_failure_escalates():
    sim = Simulator()
    evt = sim.event()
    evt.fail(ValueError("unhandled"))
    with pytest.raises(ValueError, match="unhandled"):
        sim.run()


def test_defused_failure_does_not_escalate():
    sim = Simulator()
    evt = sim.event()
    evt.defused = True
    evt.fail(ValueError("handled"))
    sim.run()  # should not raise


def test_late_callback_runs_immediately():
    sim = Simulator()
    evt = sim.timeout(1.0, value="v")
    sim.run()
    seen = []
    evt.add_callback(lambda e: seen.append(e.value))
    assert seen == ["v"]


def test_all_of_collects_values():
    sim = Simulator()
    e1 = sim.timeout(1.0, value="a")
    e2 = sim.timeout(2.0, value="b")
    both = sim.all_of([e1, e2])
    result = sim.run(until=both)
    assert result == {e1: "a", e2: "b"}
    assert sim.now == 2.0


def test_any_of_fires_on_first():
    sim = Simulator()
    e1 = sim.timeout(5.0, value="slow")
    e2 = sim.timeout(1.0, value="fast")
    either = sim.any_of([e1, e2])
    result = sim.run(until=either)
    assert result == {e2: "fast"}
    assert sim.now == 1.0


def _subscribed(condition, child):
    """True while ``child``'s callbacks still reference ``condition``."""
    return any(getattr(callback, "__self__", None) is condition
               for callback in child.callbacks or ())


def test_any_of_unsubscribes_from_the_child_that_lost():
    """The idle-poll shape: a signal raced against a timeout.  Once the
    timeout wins, the signal must not keep the AnyOf alive."""
    sim = Simulator()
    signal = sim.event()
    either = sim.any_of([signal, sim.timeout(1.0)])
    sim.run(until=either)
    assert not _subscribed(either, signal)
    assert signal.callbacks == []
    signal.succeed("late")
    sim.run()
    assert list(either.value.values()) == [None]


def test_any_of_failure_unsubscribes_from_the_rest():
    sim = Simulator()
    pending = sim.event()
    bad = sim.event()
    sim.schedule(1.0, bad.fail, ValueError("early failure"))
    either = sim.any_of([pending, bad])
    with pytest.raises(ValueError, match="early failure"):
        sim.run(until=either)
    assert not _subscribed(either, pending)


def test_any_of_triggered_at_construction_keeps_no_subscription():
    sim = Simulator()
    done = sim.timeout(0.0, value="done")
    sim.run()
    pending = sim.event()
    either = sim.any_of([pending, done, sim.event()])
    assert either.triggered
    assert not any(_subscribed(either, child) for child in either.events)
    assert sim.run(until=either) == {done: "done"}


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()
    done = sim.all_of([])
    assert done.triggered
    assert done.value == {}


def test_processed_event_counter():
    sim = Simulator()
    for _ in range(3):
        sim.timeout(1.0)
    sim.run()
    assert sim.processed_events == 3


def test_all_of_fails_when_child_fails():
    sim = Simulator()
    good = sim.timeout(1.0, value="ok")
    bad = sim.event()
    sim.schedule(2.0, bad.fail, RuntimeError("child died"))
    both = sim.all_of([good, bad])
    with pytest.raises(RuntimeError, match="child died"):
        sim.run(until=both)


def test_any_of_fails_when_first_event_fails():
    sim = Simulator()
    slow = sim.timeout(5.0, value="slow")
    bad = sim.event()
    sim.schedule(1.0, bad.fail, ValueError("early failure"))
    either = sim.any_of([slow, bad])
    with pytest.raises(ValueError, match="early failure"):
        sim.run(until=either)


def test_condition_failure_defuses_child():
    """The condition consumes the child's failure; it must not also
    escalate independently."""
    sim = Simulator()
    bad = sim.event()
    sim.schedule(1.0, bad.fail, KeyError("contained"))
    both = sim.all_of([bad])
    try:
        sim.run(until=both)
    except KeyError:
        pass
    # No unhandled-failure escalation afterwards.
    sim.timeout(1.0)
    sim.run()


# ----------------------------------------------------------------------
# Epoch-driver surface: schedule_at, exclusive bounds, drain hooks
# ----------------------------------------------------------------------

def test_schedule_at_fires_at_exact_instant():
    sim = Simulator()
    seen = []
    sim.schedule_at(7.5, seen.append, "x")
    sim.run()
    assert seen == ["x"]
    assert sim.now == 7.5


def test_schedule_at_exact_float_no_ulp_split():
    """schedule_at(t) and a relative path landing on t share one bucket.

    0.1 + 0.2 != 0.3 in floats; the absolute-time API must not reproduce
    that split, or cross-backend delivery order would diverge."""
    sim = Simulator()
    seen = []
    when = 0.1 + 0.2  # 0.30000000000000004
    sim.schedule_at(when, seen.append, "absolute")
    sim.schedule(when, seen.append, "relative")
    sim.run()
    assert seen == ["absolute", "relative"]


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(4.0, lambda: None)


def test_run_until_exclusive_leaves_boundary_event():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, seen.append, "boundary")
    sim.run(until=5.0, inclusive=False)
    assert seen == []
    assert sim.now == 5.0
    sim.run()
    assert seen == ["boundary"]


def test_run_until_exclusive_windows_partition_timeline():
    """Strict windows [kL, (k+1)L) process every event exactly once."""
    sim = Simulator()
    seen = []
    for t in (0.0, 4.9, 5.0, 9.9, 10.0, 12.0):
        sim.schedule(t, seen.append, t)
    for k in (1, 2, 3):
        sim.run(until=5.0 * k, inclusive=False)
    assert seen == [0.0, 4.9, 5.0, 9.9, 10.0, 12.0]


def test_drain_hooks_fire_after_every_run():
    sim = Simulator()
    calls = []
    sim.drain_hooks.append(lambda s: calls.append(s.now))
    sim.timeout(3.0)
    sim.run(until=2.0)
    sim.run()
    assert calls == [2.0, 3.0]
