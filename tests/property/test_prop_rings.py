"""Property-based tests for shared rings: losslessness, liveness, and
agreement with the list-slot reference ring."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypervisor.rings import RingFullError, SharedRing


@given(st.integers(min_value=0, max_value=6),
       st.lists(st.sampled_from(["push", "pop", "final"]), min_size=1,
                max_size=200))
@settings(max_examples=200, deadline=None)
def test_no_loss_no_reorder_under_any_interleaving(order, script):
    ring = SharedRing(order=order)
    pushed, popped = [], []
    counter = 0
    for op in script:
        if op == "push":
            if ring.is_full:
                continue
            ring.push(counter)
            pushed.append(counter)
            counter += 1
        elif op == "pop":
            if ring.is_empty:
                continue
            popped.append(ring.pop())
        else:
            ring.final_check()
    popped.extend(ring.drain())
    assert popped == pushed
    assert 0 <= ring.unconsumed <= ring.size


@given(st.lists(st.sampled_from(["push", "drain"]), min_size=1,
                max_size=100))
@settings(max_examples=200, deadline=None)
def test_sleeping_consumer_is_always_woken(script):
    """Liveness: whenever the consumer drains and re-arms, the next push
    must notify — work can never be stranded on a quiet ring."""
    ring = SharedRing(order=4)
    sleeping = True  # consumer starts asleep with prod_event armed at 1
    counter = 0
    for op in script:
        if op == "push":
            if ring.is_full:
                continue
            notified = ring.push(counter)
            counter += 1
            if sleeping:
                assert notified, "push did not wake a sleeping consumer"
                sleeping = False
        else:
            ring.drain()
            if not ring.final_check():
                sleeping = True
    # End state: nothing unconsumed while the consumer sleeps without a
    # pending notification.
    if sleeping:
        assert ring.is_empty


@given(st.integers(min_value=1, max_value=64))
@settings(max_examples=100, deadline=None)
def test_full_ring_always_rejects(extra):
    ring = SharedRing(order=3)
    for value in range(ring.size):
        ring.push(value)
    for _ in range(extra):
        try:
            ring.push("overflow")
            raise AssertionError("push into full ring succeeded")
        except RingFullError:
            pass
    assert ring.drain() == list(range(ring.size))


# ----------------------------------------------------------------------
# Reference: the list-slot ring
# ----------------------------------------------------------------------

class ListSlotRing:
    """Reference shared ring: one list slot per ring entry, cleared to
    None on pop, as the ring was before it stored only occupied slots."""

    def __init__(self, order: int):
        self.size = 1 << order
        self._slots = [None] * self.size
        self.prod = 0
        self.cons = 0
        self.prod_event = 1
        self.notifications_sent = 0
        self.notifications_suppressed = 0

    @property
    def is_empty(self) -> bool:
        return self.prod == self.cons

    def push(self, item) -> bool:
        if self.prod - self.cons == self.size:
            raise RingFullError("ring full (%d entries)" % self.size)
        self._slots[self.prod % self.size] = item
        old_prod = self.prod
        self.prod += 1
        need_notify = old_prod < self.prod_event <= self.prod
        if need_notify:
            self.notifications_sent += 1
        else:
            self.notifications_suppressed += 1
        return need_notify

    def pop(self):
        if self.is_empty:
            raise IndexError("ring empty")
        item = self._slots[self.cons % self.size]
        self._slots[self.cons % self.size] = None
        self.cons += 1
        return item

    def final_check(self) -> bool:
        self.prod_event = self.cons + 1
        return not self.is_empty

    def drain(self):
        items = []
        while not self.is_empty:
            items.append(self.pop())
        return items


def _ring_outcome(ring, name, args):
    """``("ok", result)`` or ``("error", type name, message)``."""
    try:
        return "ok", getattr(ring, name)(*args)
    except (RingFullError, IndexError) as exc:
        return "error", type(exc).__name__, str(exc)


def _ring_state(ring):
    return (ring.prod, ring.cons, ring.prod_event, ring.notifications_sent,
            ring.notifications_suppressed)


@given(st.integers(min_value=0, max_value=12), st.data())
@settings(max_examples=200, deadline=None)
def test_ring_matches_list_slot_reference(order, data):
    ring, reference = SharedRing(order=order), ListSlotRing(order=order)
    size = 1 << order
    counter = 0
    # Bursts of pushes as long as the ring, so small rings fill and
    # reject, and bursts of pops past empty.
    for _step in range(data.draw(st.integers(min_value=1, max_value=60))):
        name = data.draw(st.sampled_from(
            ["push", "push", "pop", "final_check", "drain"]))
        repeat = 1 if name in ("final_check", "drain") else data.draw(
            st.integers(min_value=1, max_value=min(size, 64) + 1))
        for _ in range(repeat):
            args = ()
            if name == "push":
                # Every fifth item is None, the value an empty list slot
                # holds.
                args = (None if counter % 5 == 0 else counter,)
                counter += 1
            assert _ring_outcome(ring, name, args) \
                == _ring_outcome(reference, name, args), (name, args)
            assert _ring_state(ring) == _ring_state(reference)
            assert ring.unconsumed == reference.prod - reference.cons
    assert ring.drain() == reference.drain()
