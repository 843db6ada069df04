"""Shared CLI flag conventions.

The seed/parallelism surface is the same across ``repro run`` and
``repro chaos``:

* ``--seed N`` — one seed (the default workload);
* ``--seeds A..B`` — an inclusive seed range — or ``A,B,C``, an explicit
  seed list;
* ``--workers N`` — OS processes for the parallel backends;
* ``--json`` — machine-readable output; ``--replay FILE`` — re-run a
  recorded artifact and verify its digests bit-for-bit.
"""

from __future__ import annotations

import argparse
import typing


def parse_seed_set(text: str) -> typing.List[int]:
    """Parse a seed-set expression into an ordered list of seeds.

    ``"0..31"`` is the inclusive range 0-31; ``"0,4,9"`` an explicit
    list; ``"7"`` the single seed 7.  Duplicates and backwards ranges
    are errors — a seed set names each run exactly once.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty seed set")
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise ValueError(
                "seed range %r: expected 'A..B' with integer endpoints"
                % text)
        if hi < lo:
            raise ValueError("seed range %r is backwards (%d > %d)"
                             % (text, lo, hi))
        return list(range(lo, hi + 1))
    seeds: typing.List[int] = []
    for part in text.split(","):
        part = part.strip()
        try:
            seeds.append(int(part))
        except ValueError:
            raise ValueError(
                "seed set %r: %r is not an integer (expected 'A..B', "
                "'A,B,C', or a single seed)" % (text, part))
    if len(set(seeds)) != len(seeds):
        raise ValueError("seed set %r repeats a seed" % text)
    return seeds


def seed_set(text: str) -> typing.List[int]:
    """argparse ``type=`` adapter around :func:`parse_seed_set`."""
    try:
        return parse_seed_set(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def contiguous_range(seeds: typing.Sequence[int]
                     ) -> typing.Optional[typing.Tuple[int, int]]:
    """``(base, count)`` when ``seeds`` is a contiguous ascending run
    (in any input order), else ``None``."""
    ordered = sorted(seeds)
    if not ordered:
        return None
    if ordered == list(range(ordered[0], ordered[0] + len(ordered))):
        return ordered[0], len(ordered)
    return None
