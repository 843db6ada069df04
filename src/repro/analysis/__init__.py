"""Static and runtime determinism analysis for the reproduction.

The whole repository stands on bit-identical determinism: a ``(seed,
config)`` pair must replay the exact same simulated timeline, or the
paper's curves (and the fault injector's "replays bit-identically"
promise) are not credible.  This package makes that promise
machine-checked instead of by-convention:

* :mod:`repro.analysis.lint` — an AST-based linter (``repro lint``) with
  pluggable rules ``RPR001``… that flag determinism hazards at the
  source level: ambient randomness, wall-clock reads, unordered
  ``set``/dict-view iteration on sim-visible paths, ``id()``-based
  ordering, float clock drift, and mutable default arguments.
* :mod:`repro.analysis.sanitize` — opt-in runtime sanitizers
  (``repro run --sanitize``) hooked into the simulation kernel: double-trigger
  detection, stalled-process (deadlock/leak) detection, end-of-run
  resource/store waiter audits, RNG stream-collision detection, and the
  dual-run digest checker that proves replay-identity by running a
  scenario twice and diffing a streaming SHA-256 of its event timeline.
* :mod:`repro.analysis.races` — the lock-order/race analysis
  (``repro races``): an interprocedural AST pass over every
  ``sim.Resource`` acquire/release site that builds the global
  lock-order graph, reports deadlock cycles (``RPR101``), exception-path
  lock leaks (``RPR102``) and yield-spanning stale read-modify-writes
  (``RPR103``), and diffs the graph against a committed baseline.
* :mod:`repro.analysis.witness` — the runtime side of ``races``: an
  opt-in vector-clock :class:`RaceWitness` threading happens-before
  through spawn/wake/lock hand-off, which cross-validates the static
  lock-order graph against orders actually observed in the figure
  workloads.
"""

from .bench import (BenchResultError, bench_gate, bench_trend,
                    figure_gate, load_results)
from .lint import (DuplicateRuleError, Finding, LintRule, RULES, find_rule,
                   format_findings, lint_paths, lint_source,
                   render_findings)
from .races import (LockOrderGraph, RaceReport, analyze_paths,
                    analyze_source, load_baseline, normalize_lock_name,
                    save_baseline)
from .sanitize import (EventTrace, ReplayDivergence, ReplayReport, Sanitizer,
                       SanitizerViolation, assert_replay_identical,
                       canonical, combine_digests, verify_replay)
from .witness import RaceWitness, WitnessViolation, run_shard_witness

__all__ = [
    "BenchResultError",
    "bench_gate",
    "bench_trend",
    "figure_gate",
    "load_results",
    "DuplicateRuleError",
    "EventTrace",
    "Finding",
    "LintRule",
    "LockOrderGraph",
    "RULES",
    "RaceReport",
    "RaceWitness",
    "ReplayDivergence",
    "ReplayReport",
    "Sanitizer",
    "SanitizerViolation",
    "WitnessViolation",
    "analyze_paths",
    "analyze_source",
    "assert_replay_identical",
    "canonical",
    "combine_digests",
    "find_rule",
    "format_findings",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "normalize_lock_name",
    "render_findings",
    "run_shard_witness",
    "save_baseline",
    "verify_replay",
]
