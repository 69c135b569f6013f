"""The benchmark's statistics: medians, percentiles, the tail rule, shares.

A timing is reported as its median plus the highest percentile that has at
least ten samples beyond it, with the sample count; a share is a count over
the number attempted.
"""

import math
import statistics

TAIL_PERCENTILES = (99, 90, 50)
TAIL_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p * len(ordered) / 100)
    return ordered[max(rank, 1) - 1]


def tail(values):
    """(p, value) for the highest of TAIL_PERCENTILES with at least
    TAIL_BEYOND samples beyond it, or None when no percentile qualifies.
    Integer arithmetic: n * (100 - p) / 100 >= TAIL_BEYOND."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) >= TAIL_BEYOND * 100:
            return p, percentile(values, p)
    return None


def share(part, whole):
    """part / whole, with nothing attempted reading as a share of 0."""
    if part < 0 or whole < 0 or part > whole:
        raise ValueError(f"share {part} of {whole}")
    return part / whole if whole else 0.0


def relative_change(value, base):
    """(value - base) / base."""
    if base <= 0:
        raise ValueError(f"relative change against base {base}")
    return (value - base) / base

