"""Statistics behind the RBB benchmark's reports.

Medians and quartiles follow Python's `statistics` module (quartiles
use its default "exclusive" method).  Percentiles use the nearest-rank
definition, so "the p-th percentile has k samples beyond it" is exact:
the p-th percentile of n samples is the ceil(n*p/100)-th smallest, and
the n - ceil(n*p/100) larger samples lie beyond it.
"""

import math
import statistics


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """(q1, q2, q3) as statistics.quantiles(xs, n=4) gives them."""
    if len(xs) == 1:
        return (xs[0], xs[0], xs[0])
    return tuple(statistics.quantiles(xs, n=4))


def spread(xs):
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = quartiles(xs)
    m = median(xs)
    return (q3 - q1) / abs(m) if m else math.inf


def _rank(n, p):
    return max(1, math.ceil(n * p / 100 - 1e-9))


def percentile(xs, p):
    """Nearest-rank p-th percentile, 0 < p <= 100."""
    s = sorted(xs)
    return s[_rank(len(s), p) - 1]


def beyond(n, p):
    """How many of n samples lie beyond the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def highest_percentile(n, min_beyond=10):
    """The highest whole percentile with at least min_beyond samples beyond it.

    None when even the median has fewer samples beyond it."""
    for p in range(99, 49, -1):
        if beyond(n, p) >= min_beyond:
            return p
    return None


def pairs_verdict(parent, change, better="lower", share=0.9):
    """Paired comparison of runs of a parent and a change.

    A gain needs the change to win at least `share` of all pairs (ties
    count for neither side) and the medians to differ, in the better
    direction, by more than the spread between the parent's own runs
    (the distance between its quartiles)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("pairs_verdict needs equally many runs on both sides")
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, _, q3 = quartiles(parent)
    delta = sign * (median(parent) - median(change))
    return {
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "parent_median": median(parent),
        "change_median": median(change),
        "parent_iqr": q3 - q1,
        "gain": wins >= share * len(parent) and delta > q3 - q1,
    }


def worse_by(parent, change, better="lower"):
    """How much worse the change's median is, as a share of the parent's."""
    p, c = median(parent), median(change)
    return (c - p) / p if better == "lower" else (p - c) / p
