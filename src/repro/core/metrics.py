"""Measurement helpers: percentiles, CDFs, stats folding, series formatting.

Small, dependency-free statistics used by the benchmarks to print the
same rows/series the paper's figures report.
"""

from __future__ import annotations

import bisect
import math
import typing


def percentile(values: typing.Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def median(values: typing.Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50)


def mean(values: typing.Sequence[float]) -> float:
    """Arithmetic mean."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def cdf_points(values: typing.Sequence[float],
               points: int = 50) -> typing.List[typing.Tuple[float, float]]:
    """(value, cumulative fraction) pairs suitable for plotting a CDF.

    Semantics: every pair ``(v, f)`` satisfies ``f == P(X <= v)`` over the
    input sample, the ``v`` are strictly increasing, and the series always
    terminates at ``(max(values), 1.0)``.
    """
    if not values:
        raise ValueError("cdf of empty sequence")
    ordered = sorted(values)
    n = len(ordered)
    step = max(1, n // points)
    out: typing.List[typing.Tuple[float, float]] = []
    for index in range(0, n, step):
        value = ordered[index]
        if out and out[-1][0] == value:
            continue  # a duplicate maps to the same (v, f) pair
        # The subsample may land on any copy of a duplicated value, so the
        # sampled index's own rank under-reports the fraction; the CDF at
        # v is the rank of v's *last* occurrence.
        out.append((value, bisect.bisect_right(ordered, value) / n))
    # Terminate at (max value, 1.0) even when the subsampling step
    # skipped the tail entirely.
    if out[-1] != (ordered[-1], 1.0):
        out.append((ordered[-1], 1.0))
    return out


def fold_stats(totals: typing.Dict[str, float],
               stats: typing.Mapping[str, float]) -> typing.Dict[str, float]:
    """Fold one run's (or one host's) ``stats`` into ``totals``.

    Every key starts from the first value seen.  A latency key (one
    containing ``_ms`` that does not end in ``_sum``) and ``died_at``
    then keep the worst value, so ``died_at = -1`` survives; every other
    key is a sum.  The sweep folds its seeds and a cluster its hosts
    with this one rule.
    """
    for key in sorted(stats):
        value = stats[key]
        if key not in totals:
            totals[key] = value
        elif ("_ms" in key and not key.endswith("_sum")) or key == "died_at":
            totals[key] = max(totals[key], value)
        else:
            totals[key] += value
    return totals


def sample_indices(total: int, samples: int) -> typing.List[int]:
    """Evenly spaced indices, including first and last when ``samples``
    allows (a single sample pins to index 0)."""
    if total <= 0:
        raise ValueError("total must be positive")
    if samples <= 0:
        raise ValueError("samples must be positive")
    if samples >= total:
        return list(range(total))
    if samples == 1:
        # The even-spacing formula below divides by (samples - 1); with a
        # single sample there is no spacing to compute — pin to the start.
        return [0]
    step = (total - 1) / (samples - 1)
    return sorted({round(i * step) for i in range(samples)})


def format_series(title: str, xs: typing.Sequence[float],
                  series: typing.Dict[str, typing.Sequence[float]],
                  x_label: str = "x", unit: str = "ms") -> str:
    """Render aligned columns: one row per x, one column per series."""
    names = list(series)
    header = "%-10s" % x_label + "".join("%18s" % n for n in names)
    lines = [title, header]
    for row_index, x in enumerate(xs):
        cells = "".join("%18.3f" % series[name][row_index]
                        for name in names)
        lines.append("%-10g" % x + cells)
    lines.append("(values in %s)" % unit)
    return "\n".join(lines)
