"""The ``repro chaos`` campaign: a scenario sweep plus ddmin shrinking.

A *campaign* is an ordinary sweep (:func:`repro.stdlib.run_sweep`) of a
host-mode spec whose fault profile has ``recovery`` on, so every run is
audited (see :mod:`repro.stdlib.runner`); under ``chaos@1`` each seed
draws its own crash schedule.  A seed *fails* iff its record carries
invariant violations.

A failing seed's rules are **shrunk** with delta debugging (ddmin): the
seed re-runs with subsets of its rules until a 1-minimal set still
fails.  The *reproducer* is the one-seed sweep manifest of the spec
with those rules pinned; ``repro run --replay`` re-runs it bit-for-bit,
and since the manifest digest covers the violations, a reproducer whose
bug has been fixed replays as DIVERGED.

This module is *not* imported by :mod:`repro.recovery`'s ``__init__``:
it needs the scenario stdlib, which builds hosts that lazily import the
recovery package.  Import it explicitly::

    from repro.recovery import campaign
"""

from __future__ import annotations

import typing

from ..faults import FaultRule
from ..stdlib import (ChaosProfile, ScenarioSpec, SpecTypeError,
                      run_scenario, run_sweep)
from ..stdlib.library import rules_to_json


def _split(items: list, n: int) -> typing.List[list]:
    size, rem = divmod(len(items), n)
    chunks, start = [], 0
    for index in range(n):
        end = start + size + (1 if index < rem else 0)
        if end > start:
            chunks.append(items[start:end])
        start = end
    return chunks


def shrink(schedule: typing.Sequence[FaultRule],
           failing: typing.Callable[[typing.Tuple[FaultRule, ...]], bool]
           ) -> typing.Tuple[FaultRule, ...]:
    """Delta-debug ``schedule`` down to a 1-minimal failing subset.

    ``failing(subset)`` re-runs the experiment and returns True when the
    subset still fails; ``failing(schedule)`` must be True on entry.
    Classic ddmin: try each chunk alone, then each complement, doubling
    granularity when neither reduces."""
    rules = list(schedule)
    n = 2
    while len(rules) >= 2:
        chunks = _split(rules, n)
        reduced = False
        for chunk in chunks:
            if failing(tuple(chunk)):
                rules, n, reduced = chunk, 2, True
                break
        if not reduced:
            for index in range(len(chunks)):
                complement = [rule
                              for other in chunks[:index] + chunks[index + 1:]
                              for rule in other]
                if complement and failing(tuple(complement)):
                    rules, n, reduced = complement, max(n - 1, 2), True
                    break
        if not reduced:
            if n >= len(rules):
                break
            n = min(len(rules), n * 2)
    return tuple(rules)


def _pin_rules(spec: ScenarioSpec,
              rules: typing.Sequence[FaultRule]) -> ScenarioSpec:
    """``spec`` with its chaos plan pinned to ``rules``, in the source
    too, so the manifest that embeds the spec replays exactly them."""
    source = dict(spec.source)
    faults = source["faults"]
    entry = dict(faults) if isinstance(faults, dict) else {"ref": faults}
    entry["rules"] = rules_to_json(rules)
    source["faults"] = entry
    return ScenarioSpec.from_dict(source)


def run_campaign(spec: ScenarioSpec, seeds: typing.Sequence[int]
                 ) -> typing.Tuple[dict, typing.List[dict]]:
    """Sweep ``spec`` over ``seeds`` and shrink every failing seed.

    Returns ``(manifest, reproducers)``: the sweep manifest and one
    one-seed manifest per failing seed, its ``chaos@1`` rules shrunk
    (other recovery-enabled profiles reproduce as written).  A spec that
    is not host mode or not audited raises :class:`SpecTypeError`."""
    if spec.mode != "host":
        raise SpecTypeError(
            "mode", "field 'mode': chaos campaigns run host-mode specs "
            "only, got %r" % spec.mode)
    if not spec.faults.recovery:
        raise SpecTypeError(
            "faults", "field 'faults': chaos campaigns need a fault "
            "profile with recovery on (e.g. chaos@1), got %s"
            % spec.faults.ref())
    manifest = run_sweep(spec, seeds)
    reproducers = []
    for record in manifest["runs"]:
        if not record["violations"]:
            continue
        seed = record["seed"]
        failing = spec
        if isinstance(spec.faults, ChaosProfile):
            rules = spec.faults.build(seed).rules
            if len(rules) > 1:
                rules = shrink(rules, lambda subset: bool(run_scenario(
                    _pin_rules(spec, subset), seed).violations))
            failing = _pin_rules(spec, rules)
        reproducers.append(run_sweep(failing, [seed]))
    return manifest, reproducers
