"""Runtime happens-before witness for the DES kernel.

:mod:`repro.analysis.races` proves lock discipline *statically*; this
module checks the same discipline *dynamically*.  :class:`RaceWitness`
is an opt-in kernel hook (``sim.witness``, same contract as
``sanitizer``/``trace``/``tracer``: one ``is None`` check per hook site,
timeline-read-only) that threads **vector clocks** through the three
places causality flows in the simulator:

* **spawn** — a child process starts with a copy of its parent's clock;
* **trigger → wake** — ``Event.succeed``/``fail`` snapshots the
  triggering context's clock onto the event, and the woken process joins
  that snapshot before its generator resumes;
* **Resource hand-off** — ``release`` folds the holder's clock into the
  lock's clock, and the next grantee joins it on wake, so lock-ordered
  critical sections are happens-before-ordered even when no event value
  flows between them.

On top of the clocks the witness keeps two ledgers:

* **observed lock order** — every acquisition made while other named
  locks are held records an edge between the *normalized* lock labels
  (``xenstore.shard[3]`` → ``xenstore.shard[*]``, matching the static
  pass).  Same-family acquisitions additionally check the concrete
  indices really ascend; a descending pair is an
  :attr:`RaceWitness.order_violations` entry on the spot.
  :meth:`RaceWitness.validate_static` diffs the observed edge set
  against a static :class:`~repro.analysis.races.LockOrderGraph` so CI
  can prove the model and the execution agree.
* **tracked shared state** — code under test calls
  :meth:`RaceWitness.track` for a label and :meth:`RaceWitness.access`
  at each read/write.  A write is racy when a conflicting access from
  another process has **no happens-before path** to it *and* the two
  held-lock sets are disjoint — the DES analogue of FastTrack's check.
  In a cooperative kernel such a pair is not memory-unsafe, but it means
  the outcome depends only on scheduler accident, which is exactly what
  the determinism contract forbids relying on.

The witness never creates, triggers, or reorders events, so attaching
it cannot change a replay digest; ``tests/test_race_witness.py`` proves
digest byte-identity over the fig04/fig09/fig10 dual-kernel slices.
"""

from __future__ import annotations

import re
import typing
import weakref

from .races import LockOrderGraph, normalize_lock_name

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Simulator


class WitnessViolation(AssertionError):
    """The runtime witness observed a lock-order or race hazard."""


#: Concrete shard index at the end of a lock name (``...[7]``).
_TRAILING_INDEX = re.compile(r"\[(\d+)\]$")


def _lock_index(name: str) -> typing.Optional[int]:
    match = _TRAILING_INDEX.search(name)
    return int(match.group(1)) if match else None


def _join(into: dict, other: dict) -> None:
    """Pointwise-max merge of vector clock ``other`` into ``into``."""
    for pid, tick in other.items():
        if tick > into.get(pid, 0):
            into[pid] = tick


def _happens_before(earlier: dict, later: dict) -> bool:
    """True when clock snapshot ``earlier`` <= clock ``later`` pointwise."""
    return all(tick <= later.get(pid, 0) for pid, tick in earlier.items())


class _Access:
    """One recorded access to a tracked shared-state label."""

    __slots__ = ("pid", "proc_name", "write", "clock", "held", "site")

    def __init__(self, pid, proc_name, write, clock, held, site):
        self.pid = pid
        self.proc_name = proc_name
        self.write = write
        self.clock = clock
        self.held = held
        self.site = site

    def describe(self) -> str:
        kind = "write" if self.write else "read"
        where = " at %s" % self.site if self.site else ""
        locks = ("{%s}" % ", ".join(sorted(self.held))) if self.held \
            else "no locks"
        return "%s by pid %d (%s)%s holding %s" % (
            kind, self.pid, self.proc_name, where, locks)


class RaceWitness:
    """Vector-clock sanitizer for process spawn/wake and lock hand-off.

    Attach before running (``RaceWitness().attach(sim)``); the kernel
    hooks in :mod:`repro.sim` call :meth:`on_spawn`, :meth:`on_trigger`,
    :meth:`on_wake` and :meth:`on_release` — everything else
    (:meth:`track`/:meth:`access`, the report accessors) is driven by
    the harness.
    """

    def __init__(self):
        self.sim: typing.Optional["Simulator"] = None
        #: pid 0 is the top-level driver context (no active process).
        self._pid_of: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()
        self._names: typing.Dict[int, str] = {0: "<main>"}
        self._clocks: typing.Dict[int, dict] = {0: {0: 1}}
        self._next_pid = 1
        #: Event -> clock snapshot taken when it was triggered.
        self._event_vc: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()
        #: Resource -> clock accumulated across releases.
        self._lock_vc: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()
        #: pid -> list of (resource, concrete name, label, index) held.
        self._held: typing.Dict[int, list] = {}
        #: (src label, dst label) -> {"ascending": bool, "count": int}.
        self._edges: typing.Dict[tuple, dict] = {}
        self.order_violations: typing.List[str] = []
        self._tracked: typing.Dict[str, dict] = {}
        self.races: typing.List[str] = []
        self.spawns = 0
        self.wakes = 0

    def attach(self, sim: "Simulator") -> "RaceWitness":
        self.sim = sim
        sim.witness = self
        return self

    # ------------------------------------------------------------------
    # Kernel hooks
    # ------------------------------------------------------------------
    def _context(self) -> int:
        proc = self.sim.active_process
        if proc is None:
            return 0
        pid = self._pid_of.get(proc)
        if pid is None:
            # Spawned before the witness attached; adopt it with a fresh
            # clock (no known parent edge).
            pid = self._register(proc, None)
        return pid

    def _register(self, process, parent_vc) -> int:
        pid = self._next_pid
        self._next_pid = pid + 1
        self._pid_of[process] = pid
        self._names[pid] = getattr(process, "name", None) or "process"
        clock = dict(parent_vc) if parent_vc else {}
        clock[pid] = 1
        self._clocks[pid] = clock
        return pid

    def on_spawn(self, process) -> None:
        """A :class:`~repro.sim.process.Process` was created."""
        parent = self._context()
        parent_vc = self._clocks[parent]
        parent_vc[parent] = parent_vc.get(parent, 0) + 1
        self._register(process, parent_vc)
        self.spawns += 1

    def on_trigger(self, event) -> None:
        """An event was succeeded/failed; snapshot the trigger clock."""
        pid = self._context()
        clock = self._clocks[pid]
        self._event_vc[event] = dict(clock)
        clock[pid] = clock.get(pid, 0) + 1

    def on_wake(self, process, event) -> None:
        """``process`` is about to resume on ``event``."""
        pid = self._pid_of.get(process)
        if pid is None:
            pid = self._register(process, None)
        clock = self._clocks[pid]
        snapshot = self._event_vc.get(event)
        if snapshot is not None:
            _join(clock, snapshot)
        resource = getattr(event, "resource", None)
        if resource is not None:
            self._on_acquire(pid, clock, resource)
        clock[pid] = clock.get(pid, 0) + 1
        self.wakes += 1

    def on_release(self, resource, request) -> None:
        """A :class:`~repro.sim.resources.Resource` slot was returned."""
        pid = self._context()
        clock = self._clocks[pid]
        lock_vc = self._lock_vc.get(resource)
        if lock_vc is None:
            self._lock_vc[resource] = dict(clock)
        else:
            _join(lock_vc, clock)
        clock[pid] = clock.get(pid, 0) + 1
        held = self._held.get(pid)
        if held:
            for position, entry in enumerate(held):
                if entry[0] is resource:
                    del held[position]
                    break

    def _on_acquire(self, pid, clock, resource) -> None:
        lock_vc = self._lock_vc.get(resource)
        if lock_vc is not None:
            _join(clock, lock_vc)
        name = getattr(resource, "name", None)
        held = self._held.setdefault(pid, [])
        if name is None:
            held.append((resource, None, None, None))
            return
        label = normalize_lock_name(name)
        index = _lock_index(name)
        for _, held_name, held_label, held_index in held:
            if held_label is None:
                continue
            if held_label == label:
                ascending = (held_index is not None and index is not None
                             and held_index < index)
                self._note_edge(label, label, ascending)
                if not ascending:
                    self.order_violations.append(
                        "pid %d (%s) acquired %s while holding %s "
                        "(same family, non-ascending)"
                        % (pid, self._names[pid], name, held_name))
            else:
                self._note_edge(held_label, label, False)
        held.append((resource, name, label, index))

    def _note_edge(self, src, dst, ascending) -> None:
        edge = self._edges.get((src, dst))
        if edge is None:
            self._edges[(src, dst)] = {"ascending": ascending, "count": 1}
        else:
            edge["count"] += 1
            if not ascending:
                edge["ascending"] = False

    # ------------------------------------------------------------------
    # Tracked shared state
    # ------------------------------------------------------------------
    def track(self, label: str) -> None:
        """Start checking happens-before on accesses to ``label``."""
        self._tracked.setdefault(label, {"write": None, "reads": []})

    def access(self, label: str, write: bool, site: str = "") -> None:
        """Record a read/write of tracked ``label`` by the current
        process; reports a race when a conflicting prior access is
        neither happens-before-ordered nor lock-protected."""
        state = self._tracked.get(label)
        if state is None:
            return
        pid = self._context()
        clock = self._clocks[pid]
        held = frozenset(
            entry[1] for entry in self._held.get(pid, ()) if entry[1])
        record = _Access(pid, self._names[pid], write, dict(clock),
                         held, site)
        conflicts = []
        if state["write"] is not None:
            conflicts.append(state["write"])
        if write:
            conflicts.extend(state["reads"])
        for prior in conflicts:
            if prior.pid == pid:
                continue
            if _happens_before(prior.clock, clock):
                continue
            if prior.held & held:
                continue
            self.races.append(
                "race on %r: %s is unordered with %s"
                % (label, record.describe(), prior.describe()))
        if write:
            state["write"] = record
            state["reads"] = []
        else:
            state["reads"].append(record)

    # ------------------------------------------------------------------
    # Reporting / cross-validation
    # ------------------------------------------------------------------
    def observed_order(self) -> typing.List[dict]:
        """Observed lock-order edges as sorted, JSON-ready dicts."""
        return [
            {"src": src, "dst": dst,
             "ascending": info["ascending"], "count": info["count"]}
            for (src, dst), info in sorted(self._edges.items())
        ]

    def validate_static(self, graph: LockOrderGraph) -> typing.List[str]:
        """Diff observed edges against the static lock-order graph.

        Returns human-readable discrepancies; empty means every edge the
        execution exercised was predicted by the static pass with a
        compatible ascending verdict.
        """
        problems = list(self.order_violations)
        static_edges = {key: edge.ascending
                        for key, edge in graph.edges.items()}
        for (src, dst), info in sorted(self._edges.items()):
            if (src, dst) not in static_edges:
                problems.append(
                    "observed lock-order edge %s -> %s never predicted "
                    "by the static pass" % (src, dst))
            elif src == dst and not info["ascending"] \
                    and static_edges[(src, dst)]:
                problems.append(
                    "static pass proves %s self-acquisition ascending "
                    "but runtime observed a non-ascending pair" % src)
        return problems

    def report(self) -> dict:
        return {
            "spawns": self.spawns,
            "wakes": self.wakes,
            "observed_edges": self.observed_order(),
            "order_violations": list(self.order_violations),
            "races": list(self.races),
        }

    def render(self) -> str:
        lines = ["witness: %d spawn(s), %d wake(s), %d observed edge(s)"
                 % (self.spawns, self.wakes, len(self._edges))]
        for edge in self.observed_order():
            arrow = "=asc=>" if edge["ascending"] else "->"
            lines.append("  observed %s %s %s  (x%d)"
                         % (edge["src"], arrow, edge["dst"], edge["count"]))
        for violation in self.order_violations:
            lines.append("  ORDER VIOLATION: %s" % violation)
        for race in self.races:
            lines.append("  RACE: %s" % race)
        return "\n".join(lines)

    def assert_clean(self) -> None:
        problems = self.order_violations + self.races
        if problems:
            raise WitnessViolation(
                "%d witness violation(s):\n%s"
                % (len(problems), "\n".join("  " + p for p in problems)))


def run_shard_witness(workers: int = 4, guests: int = 12,
                      seed: int = 0) -> RaceWitness:
    """Boot-storm a sharded-daemon host under the witness.

    This is the built-in cross-validation workload used by ``repro races
    --witness``: a ``workers``-shard XenStore daemon under an ``xl``
    boot storm (lightvm skips XenStore entirely, so it would observe
    nothing) exercises both the single-shard fast path and the
    all-shards ascending walk (name admission, transaction commits), so
    the returned witness's :meth:`~RaceWitness.observed_order` contains
    the ``xenstore.shard[*]`` family edge for
    :meth:`~RaceWitness.validate_static` to check.
    """
    from ..sim import Simulator
    from ..stdlib import run_scenario, storm_spec

    sim = Simulator()
    witness = RaceWitness().attach(sim)
    host = {"ref": "xl@1", "xenstore_workers": workers,
            "xenstore_batch": True, "pooled": False}
    run_scenario(storm_spec("shard-witness", host, "daytime@1", guests),
                 seed, sim=sim)
    return witness
