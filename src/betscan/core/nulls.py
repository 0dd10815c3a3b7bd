"""Null distributions and p-values for the symmetry statistic.

Ranks are a permutation of 1..n, so the number of +1 sign labels of a
digit mask depends on n and the mask alone (`label_counts`).  With P
labels +1 on u and Q on v, a uniform pairing of the two rank vectors
moves S only through K, the number of observations +1 on both axes:

    S = n - 2P - 2Q + 4K,    K ~ Hypergeometric(n, Q, P)

`exact_tail` tabulates P(|S| >= a) for a = 0..n, once per (n, P, Q); when
2^depth divides n, P = Q = n/2.  From K's mode outward, a cumulative
product of the exact ratio pmf(k + 1) / pmf(k) = (P - k)(Q - k) /
((k + 1)(n - P - Q + k + 1)), whose integer factors a double holds exactly,
gives each pmf over the mode's; these are summed by |S| (both signs of S
alike), largest |S| first, and divided by their total.  Every tail of at
least 1e-300 is within 3.2e-15 of the exact rational one (n = 96 to 20,000,
P and Q near n/2); one below the smallest double reads as the floor 5e-324.

A permutation test counts the extreme pairings among `iterations` uniform
ones; that count is Binomial(iterations, tail) in law, so it is drawn once.

The one p-value dispatch of `max_bet`, the screen and `pvalue_permutation`
is here: the raw p-value of |S| = a won by interaction t of all_bids(d1, d2)
is null_table(mode, n, d1, d2)[t, a], t's exact tail in exact and
permutation mode and 2 * Phi(-a / sqrt(n)) in approx mode.  Where
`null_draws` says so, permutation mode above n = 8, p_raw is then drawn
from that entry by `permutation_pvalue`.  `null_pvalue` gives one pair's.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import DivisibilityViolationError, ParityViolationError
from .bids import BidId, all_bids, bid_count
from .copula import CopulaColumn
from .expansion import BitPlanes, binary_expansion
from .stats import mask_combos, pair_statistics

__all__ = [
    "MODES", "null_method", "null_draws", "null_table", "null_pvalue",
    "label_counts",
    "exact_tail",
    "permutation_pvalue",
    "pvalue_hypergeometric",
    "pvalue_normal",
    "pvalue_permutation",
    "EXACT_PERMUTATION_MAX_N",
]

MODES = ("exact", "approx", "permutation")

# Smallest positive double; exact tails this small are reported at the
# floor rather than flushing to 0, keeping p strictly positive.
_P_FLOOR = 5e-324

# Up to this n the permutation null is the exact tail, as enumerating all
# n! pairings gives it; above it, a Monte Carlo estimate.
EXACT_PERMUTATION_MAX_N = 8


@lru_cache(maxsize=64)
def label_counts(n: int, depth: int) -> tuple[int, ...]:
    """Number of +1 sign labels over ranks 1..n, indexed by digit mask."""
    planes = binary_expansion(CopulaColumn(np.arange(1, n + 1)), depth)
    ones = np.bitwise_count(mask_combos(planes)).sum(1).tolist()
    # a label is -1 raised to the number of 0 digits in its mask
    return tuple(
        c if mask.bit_count() & 1 else n - c for mask, c in enumerate(ones)
    )


@lru_cache(maxsize=256)
def _tail_table(n: int, p: int, q: int) -> np.ndarray:
    lo, hi = max(0, p + q - n), min(p, q)
    k = np.arange(lo, hi, dtype=np.float64)
    up, down = (p - k) * (q - k), (k + 1) * (n - p - q + k + 1)  # pmf(k+1) / pmf(k)
    m = (p + 1) * (q + 1) // (n + 2) - lo  # K's mode, less lo
    # pmf(k) / pmf(mode) for k = lo..hi, as products outward from the mode
    left = np.cumprod((down[:m] / up[:m])[::-1])[::-1]
    mass = np.concatenate((left, [1.0], np.cumprod(up[m:] / down[m:])))
    size = np.abs(n - 2 * p - 2 * q + 4 * np.arange(lo, hi + 1))
    # P(|S| >= a): the masses of |S| >= a, smallest first, over all of them
    tail = np.cumsum(np.bincount(size, mass, n + 1)[::-1])[::-1]
    table = np.minimum(1.0, np.maximum(tail / tail[0], _P_FLOOR))
    table.flags.writeable = False
    return table


def exact_tail(n: int, p: int, q: int) -> np.ndarray:
    """P(|S| >= a) for a = 0..n, S = n - 2p - 2q + 4K, K ~ Hypergeometric(n, q, p).

    The array is shared and read-only.  |S| has the same law for p and
    n - p, and for q and n - q, so one table serves all four.
    """
    p, q = sorted((min(p, n - p), min(q, n - q)))
    return _tail_table(n, p, q)


def pvalue_hypergeometric(s: int, n: int) -> float:
    """Exact two-sided tail P(|S| >= |s|) when both axes split in halves.

    S = 4K - n with K ~ Hypergeometric(n, n/2, n/2); n must be even and
    s congruent to n modulo 4.
    """
    if n % 2 != 0:
        raise DivisibilityViolationError(f"n = {n} is odd, so it has no halves")
    if abs(s) > n:
        raise ValueError(f"|s| = {abs(s)} exceeds n = {n}")
    if (s - n) % 4 != 0:
        raise ParityViolationError(f"s = {s} is not congruent to n = {n} modulo 4")
    return float(exact_tail(n, n // 2, n // 2)[abs(s)])


def pvalue_normal(s: int, n: int) -> float:
    """Two-sided normal approximation 2 * Phi(-|s| / sqrt(n))."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    z = abs(s) / math.sqrt(n)
    p = math.erfc(z / math.sqrt(2.0))
    return min(1.0, max(p, _P_FLOOR))


def permutation_pvalue(tail, iterations: int, seed: int):
    """(1 + X) / (1 + iterations), X ~ Binomial(iterations, tail) from Philox(key=seed).

    X is the number of extreme pairings among `iterations` uniform ones;
    an array of tails is drawn elementwise from the one stream.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return (1 + rng.binomial(iterations, tail)) / (1 + iterations)


def null_method(mode: str, n: int) -> tuple[str, bool]:
    """(method, approximate) of the null that mode uses for n samples."""
    if mode == "exact":
        return "hypergeometric", False
    if mode == "approx":
        return "normal_approx", True
    if mode == "permutation":
        return "permutation", n > EXACT_PERMUTATION_MAX_N
    raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def null_draws(mode: str, n: int) -> bool:
    """Whether p_raw is drawn from its null_table entry by permutation_pvalue."""
    return null_method(mode, n) == ("permutation", True)


@lru_cache(maxsize=64)
def null_table(mode: str, n: int, d1: int, d2: int) -> np.ndarray:
    """Shared read-only (T, n + 1) table: [t, a] is the p-value of |S| = a won by t.

    t indexes all_bids(d1, d2).  Exact and permutation mode hold each t's
    exact tail; approx mode holds one normal row for every t.
    """
    null_method(mode, n)  # refuses an unknown mode
    if mode == "approx":
        row = np.array([pvalue_normal(a, n) for a in range(n + 1)])
        return np.broadcast_to(row, (bid_count(d1, d2), n + 1))
    p, q = label_counts(n, d1), label_counts(n, d2)
    table = np.stack(
        [exact_tail(n, p[bid.a_mask], q[bid.b_mask]) for bid in all_bids(d1, d2)]
    )
    table.flags.writeable = False
    return table


def null_pvalue(
    mode: str, n: int, d1: int, d2: int, t: int, size: int, iterations: int, seed: int
) -> float:
    """p_raw of |S| = size won by interaction t of all_bids(d1, d2).

    The null_table entry, or the draw from it that null_draws asks for,
    from Philox(key=seed).
    """
    tail = null_table(mode, n, d1, d2)[t, size]
    if null_draws(mode, n):
        tail = permutation_pvalue(tail, iterations, seed)
    return float(tail)


def pvalue_permutation(
    u: BitPlanes,
    v_ranks: CopulaColumn,
    bid: BidId,
    iterations: int = 9999,
    seed: int = 0,
) -> float:
    """Permutation-null tail P(|S_perm| >= |S_obs|), permuting v's ranks.

    For n <= EXACT_PERMUTATION_MAX_N this is the exact tail, the fraction
    that enumerating all n! pairings gives; larger n gets the seeded
    Monte Carlo estimate of `permutation_pvalue`.
    """
    if bid.a_mask >> u.depth:
        raise ValueError(f"a_mask {bid.a_mask:#b} exceeds depth {u.depth}")
    v = binary_expansion(v_ranks, bid.b_mask.bit_length())
    t = (bid.a_mask - 1) * ((1 << v.depth) - 1) + bid.b_mask - 1  # in all_bids
    size = abs(pair_statistics(u, v)[t])  # refuses v_ranks of another n
    return null_pvalue("permutation", u.n, u.depth, v.depth, t, size, iterations, seed)
