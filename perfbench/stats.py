"""Order statistics for op latencies."""

from __future__ import annotations

import bisect
import math
import statistics

# Percentiles a tail may be reported at, highest first. Fixed rungs keep the
# reported percentile from drifting when the op count changes by a few.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], p: float) -> float:
    """The p-th percentile by the nearest-rank rule (``sorted_values`` ascending)."""
    if not sorted_values:
        raise ValueError("no values")
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest ladder percentile
    with at least MIN_BEYOND samples strictly above it.

    When even the median has fewer samples above it, the median is returned
    with the count it has, so the caller can see the tail is unresolved.
    """
    s = sorted(values)
    for p in TAIL_LADDER:
        v = nearest_rank(s, p)
        beyond = len(s) - bisect.bisect_right(s, v)
        if beyond >= MIN_BEYOND:
            return p, v, beyond
    v = nearest_rank(s, 50.0)
    return 50.0, v, len(s) - bisect.bisect_right(s, v)


def kind_medians(values: list[float], kinds: list[str]) -> dict[str, float]:
    """Median of the values of each kind."""
    groups: dict[str, list[float]] = {}
    for v, k in zip(values, kinds):
        groups.setdefault(k, []).append(v)
    return {k: statistics.median(vs) for k, vs in groups.items()}


def typical(values: list[float], kinds: list[str]) -> float:
    """Geometric mean over kinds of each kind's median.

    A workload mixes op kinds whose latencies differ by up to 100x, so the
    median of all ops falls on whichever kind sits in the middle and jumps
    between kinds from run to run. Every kind counts once here, and a kind
    that gets k times slower moves the value by the same factor on any seed.
    """
    meds = list(kind_medians(values, kinds).values())
    return math.exp(statistics.fmean(math.log(m) for m in meds))


def relative_tail(values: list[float], kinds: list[str]) -> tuple[float, float, int]:
    """``tail`` of each value over its kind's median: how much slower than
    usual an op gets at the tail percentile, pooled over kinds."""
    meds = kind_medians(values, kinds)
    return tail([v / meds[k] for v, k in zip(values, kinds)])
