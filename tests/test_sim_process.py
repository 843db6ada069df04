"""Tests for generator-based simulation processes."""

import pytest

from repro.sim import (Interrupt, PendingInterrupt, Resource, SimulationError,
                       Simulator)


def test_process_runs_and_returns_value():
    sim = Simulator()

    def worker():
        yield 5.0
        return "result"

    proc = sim.process(worker())
    assert sim.run(until=proc) == "result"
    assert sim.now == 5.0


def test_process_yield_number_is_timeout():
    sim = Simulator()
    times = []

    def worker():
        yield 1
        times.append(sim.now)
        yield 2.5
        times.append(sim.now)

    sim.process(worker())
    sim.run()
    assert times == [1.0, 3.5]


def test_process_receives_event_value():
    sim = Simulator()

    def worker():
        value = yield sim.timeout(1.0, value="hello")
        return value

    proc = sim.process(worker())
    assert sim.run(until=proc) == "hello"


def test_process_joins_another_process():
    sim = Simulator()

    def child():
        yield 3.0
        return 7

    def parent():
        result = yield sim.process(child())
        return result * 2

    proc = sim.process(parent())
    assert sim.run(until=proc) == 14
    assert sim.now == 3.0


def test_failed_event_raises_inside_process():
    sim = Simulator()

    def worker():
        evt = sim.event()
        sim.schedule(1.0, evt.fail, KeyError("nope"))
        try:
            yield evt
        except KeyError:
            return "caught"

    proc = sim.process(worker())
    assert sim.run(until=proc) == "caught"


def test_uncaught_process_exception_propagates():
    sim = Simulator()

    def worker():
        yield 1.0
        raise ValueError("kaput")

    proc = sim.process(worker())
    with pytest.raises(ValueError, match="kaput"):
        sim.run(until=proc)


def test_yield_garbage_fails_process():
    sim = Simulator()

    def worker():
        yield "not an event"

    proc = sim.process(worker())
    with pytest.raises(TypeError):
        sim.run(until=proc)


def test_is_alive_lifecycle():
    sim = Simulator()

    def worker():
        yield 2.0

    proc = sim.process(worker())
    assert proc.is_alive
    sim.run()
    assert not proc.is_alive


def test_interrupt_delivers_cause():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield 100.0
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    proc = sim.process(sleeper())

    def interrupter():
        yield 10.0
        proc.interrupt("wake up")

    sim.process(interrupter())
    sim.run()
    assert log == [(10.0, "wake up")]


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick():
        yield 1.0

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(RuntimeError):
        proc.interrupt()


def test_interrupted_wait_event_becomes_stale():
    """After an interrupt, the originally awaited event must not resume
    the process a second time."""
    sim = Simulator()
    resumes = []

    def sleeper():
        try:
            yield sim.timeout(5.0, value="timeout fired")
        except Interrupt:
            resumes.append("interrupted")
        yield 20.0
        resumes.append("slept on")

    proc = sim.process(sleeper())
    sim.schedule(1.0, proc.interrupt)
    sim.run()
    assert resumes == ["interrupted", "slept on"]


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_two_processes_interleave():
    sim = Simulator()
    order = []

    def ticker(name, period):
        for _ in range(3):
            yield period
            order.append((name, sim.now))

    sim.process(ticker("a", 1.0))
    sim.process(ticker("b", 1.5))
    sim.run()
    # At t=3.0 both tick; b's timeout entered the queue earlier (at t=1.5
    # vs t=2.0), so FIFO order within the timestamp puts b first.
    assert order == [("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0),
                     ("a", 3.0), ("b", 4.5)]


# ---------------------------------------------------------------------------
# Process-lifecycle regression tests
# ---------------------------------------------------------------------------

def test_cross_simulator_yield_closes_generator():
    """Yielding an event from another simulator fails the process AND
    closes its generator, so ``finally`` cleanup in the guest body runs
    (the seed kernel failed the process with the generator left open)."""
    sim = Simulator()
    other = Simulator()
    cleaned = []

    def worker():
        try:
            yield other.timeout(1.0)
        finally:
            cleaned.append("cleanup ran")

    proc = sim.process(worker())
    with pytest.raises(ValueError, match="another simulator"):
        sim.run(until=proc)
    assert cleaned == ["cleanup ran"]
    assert not proc.is_alive


def test_interrupt_detaches_interned_continuation():
    """Interrupting a process parked in an event's continuation slot
    clears the slot; re-waiting re-interns it.  Nothing accumulates."""
    sim = Simulator()
    gate = sim.event()
    interrupts = []

    def sleeper():
        while True:
            try:
                yield gate
            except Interrupt:
                interrupts.append(sim.now)

    proc = sim.process(sleeper())
    sim.run()
    assert gate._cont is proc
    for _ in range(50):
        proc.interrupt()
        sim.run()
    assert len(interrupts) == 50
    # Still exactly one parked waiter, and no dead callbacks left behind.
    assert gate._cont is proc
    assert gate.callbacks == []


def test_interrupt_detaches_stale_resume_callback():
    """When the process sits on the callback *list* (another subscriber
    got there first), interrupt removes its resume hook: a long-lived
    shared event repeatedly waited-on and interrupted must not accumulate
    dead callbacks (the seed kernel leaked one per interrupt)."""
    sim = Simulator()
    gate = sim.event()
    gate.add_callback(lambda _event: None)  # occupy the first slot

    def sleeper():
        while True:
            try:
                yield gate
            except Interrupt:
                pass

    proc = sim.process(sleeper())
    sim.run()
    assert gate._cont is None
    assert len(gate.callbacks) == 2  # the sink + the parked process
    for _ in range(50):
        proc.interrupt()
        sim.run()
    assert len(gate.callbacks) == 2


def test_second_interrupt_before_delivery_is_rejected():
    """Two interrupts before the first kick fires: the first wins, the
    second raises PendingInterrupt instead of silently replacing it."""
    sim = Simulator()
    causes = []

    def sleeper():
        try:
            yield 100.0
        except Interrupt as intr:
            causes.append(intr.cause)

    proc = sim.process(sleeper())
    sim.run(until=1.0)  # parked on its timeout now
    proc.interrupt("first")
    with pytest.raises(PendingInterrupt):
        proc.interrupt("second")
    sim.run()
    assert causes == ["first"]


def test_interrupt_before_first_resume_kills_process():
    """An interrupt landing before the bootstrap delivers detaches the
    bootstrap and throws into the never-started generator, failing the
    process with the Interrupt."""
    sim = Simulator()

    def worker():
        yield 1.0  # never reached

    proc = sim.process(worker())
    proc.interrupt("early")
    with pytest.raises(Interrupt):
        sim.run(until=proc)
    assert not proc.is_alive


def test_double_interrupt_before_first_resume_rejected():
    sim = Simulator()

    def worker():
        yield 1.0  # never reached

    proc = sim.process(worker())
    proc.interrupt("early")
    with pytest.raises(PendingInterrupt):
        proc.interrupt("late")


def test_interrupt_after_delivery_is_accepted_again():
    """PendingInterrupt only guards the undelivered window: once the
    first interrupt has been thrown in, a new interrupt is fine."""
    sim = Simulator()
    causes = []

    def sleeper():
        while True:
            try:
                yield 100.0
            except Interrupt as intr:
                causes.append(intr.cause)

    proc = sim.process(sleeper())

    def interrupter():
        yield 10.0
        proc.interrupt("one")
        yield 10.0
        proc.interrupt("two")

    sim.process(interrupter())
    sim.run(until=50.0)
    assert causes == ["one", "two"]


# ----------------------------------------------------------------------
# The live-process registry and Simulator.close()
# ----------------------------------------------------------------------

def test_registry_holds_exactly_the_live_processes_in_spawn_order():
    sim = Simulator()
    shared = sim.event()

    def returns():
        yield 1.0

    def raises():
        yield 1.0
        raise ValueError("boom")

    def bad_yield():
        yield "not an event"

    def joins():
        # The second subscriber of ``shared``: resumed through the
        # callback list, not the continuation slot.
        yield shared

    def parked():
        yield sim.event()

    procs = [sim.process(gen()) for gen in
             (returns, raises, bad_yield, joins, joins, parked)]
    for proc in procs[1:3]:
        proc.defused = True  # failures the test expects
    assert list(sim._live) == procs
    sim.schedule(2.0, shared.succeed)
    sim.run()
    assert list(sim._live) == [procs[5]]


def test_close_runs_finally_blocks_and_with_exits_in_spawn_order():
    sim = Simulator()
    resource = Resource(sim)
    log = []

    def holder():
        with resource.request() as req:
            yield req
            try:
                yield sim.timeout(100.0)
            finally:
                log.append(("holder", sim.now))

    def waiter():
        with resource.request() as req:
            try:
                yield req
            finally:
                log.append(("waiter", resource.count))

    sim.process(holder())
    sim.process(waiter())
    sim.run(until=10.0)
    sim.close()
    # Closing the holder released the resource and granted the waiter's
    # request, which queued an event into the closing simulator.
    assert log == [("holder", 10.0), ("waiter", 1)]
    assert resource.count == 0 and not resource.queue
    assert sim._live == {} and sim._buckets == {} and sim._times == []
    assert not sim._timeout_pool and not sim._cell_pool


def test_close_detaches_parked_processes_and_drops_hooks():
    sim = Simulator()
    event = sim.event()

    def parked():
        yield event

    proc = sim.process(parked())
    sim.drain_hooks.append(lambda _sim: None)
    sim.run()
    assert event._cont is proc and proc._waiting_on is event
    sim.close()
    assert event._cont is None and proc._waiting_on is None
    assert proc._generator.gi_frame is None
    assert sim.drain_hooks == []


@pytest.mark.parametrize("condition", ("any_of", "all_of"))
def test_close_unsubscribes_a_parked_condition_from_its_children(
        condition):
    """The shell pool's idle poll at close: a process parked on a
    condition over a signal and a timeout.  Once closed, neither pending
    child may keep the condition, and through it the simulator, alive."""
    sim = Simulator()
    signal = sim.event()
    timeout = sim.timeout(5.0)
    either = getattr(sim, condition)([signal, timeout])

    def poll():
        yield either

    sim.process(poll())
    sim.run(until=1.0)
    sim.close()
    assert signal.callbacks == [] and timeout.callbacks == []


def test_closed_simulator_refuses_to_run():
    sim = Simulator()
    sim.timeout(1.0)
    sim.close()
    sim.close()  # a second close does nothing
    with pytest.raises(SimulationError, match="closed"):
        sim.run()
    with pytest.raises(SimulationError, match="closed"):
        sim.step()
