"""Null distributions and p-values for the symmetry statistic.

Under independence the statistic for any cross interaction of two
empirical-copula variables satisfies

    (S + n) / 4 ~ Hypergeometric(n, n/2, n/2)

because the empirical ranks pin each axis's sign split to an exact half,
so only the count K of observations positive on both axes is random and
S = 4K - n.  The splits are halves only when 2^depth divides n (at
depth 1, when n is even); otherwise callers fall back on the normal approximation
2 * Phi(-|s| / sqrt(n)) or on the permutation backend.

The exact tail is evaluated from the log-pmf of the most extreme term
outward via a stable multiplicative recurrence, so it does not underflow
before the final exponentiation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..errors import DivisibilityViolationError, ParityViolationError
from .bids import BidId
from .copula import CopulaColumn
from .expansion import BitPlanes, binary_expansion
from .stats import sign_labels, symmetry_statistic

__all__ = [
    "pvalue_hypergeometric",
    "pvalue_normal",
    "pvalue_permutation",
    "EXACT_PERMUTATION_MAX_N",
]

# Smallest positive double; exact tails this small are reported at the
# floor rather than flushing to 0, keeping p strictly positive.
_P_FLOOR = 5e-324

EXACT_PERMUTATION_MAX_N = 8

# Monte Carlo draws per chunk, so memory stays bounded for any iteration count
_BATCH = 2048


def _log_choose(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def pvalue_hypergeometric(s: int, n: int) -> float:
    """Exact two-sided tail P(|S| >= |s|) under the empirical-copula null.

    S = 4K - n with K ~ Hypergeometric(n, n/2, n/2); n must be even and
    s congruent to n modulo 4.
    """
    if n % 2 != 0:
        raise DivisibilityViolationError(
            f"n = {n} is odd; use the normal approximation "
            "or the permutation backend"
        )
    if abs(s) > n:
        raise ValueError(f"|s| = {abs(s)} exceeds n = {n}")
    if (s - n) % 4 != 0:
        raise ParityViolationError(f"s = {s} is not congruent to n = {n} modulo 4")
    if s == 0:
        return 1.0
    half = n // 2
    m = (n + abs(s)) // 4
    # P(K = k) = C(half, k)^2 / C(n, half); symmetric about n/4, and
    # m > n/4 here (s = 0 cannot occur when n = 2 mod 4), so double the
    # upper tail.
    log_head = 2.0 * _log_choose(half, m) - _log_choose(n, half)
    tail = 0.0
    term = 1.0
    for k in range(m, half):
        tail += term
        ratio = (half - k) / (k + 1)
        term *= ratio * ratio
    tail += term
    p = 2.0 * math.exp(log_head) * tail
    return min(1.0, max(p, _P_FLOOR))


def pvalue_normal(s: int, n: int) -> float:
    """Two-sided normal approximation 2 * Phi(-|s| / sqrt(n))."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    z = abs(s) / math.sqrt(n)
    p = math.erfc(z / math.sqrt(2.0))
    return min(1.0, max(p, _P_FLOOR))


def pvalue_permutation(
    u: BitPlanes,
    v_ranks: CopulaColumn,
    bid: BidId,
    iterations: int = 9999,
    seed: int = 0,
) -> float:
    """Permutation-null tail P(|S_perm| >= |S_obs|), permuting v's ranks.

    For n <= 8 every one of the n! pairings is enumerated and the tail is
    the exact fraction.  Larger n uses Monte Carlo draws from a seeded
    Philox stream with the add-one correction
    p = (1 + #extreme) / (1 + iterations), so the estimate is positive and
    reproducible for a given seed.

    A permutation of v changes S only through K, the number of points
    whose sign labels are +1 on both axes: with P labels +1 on u and Q
    on v, S = n - 2P - 2Q + 4K and K ~ Hypergeometric(n, Q, P).  Each
    iteration therefore draws K, not a shuffle of the n labels.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    n = u.n
    if v_ranks.n != n:
        from ..errors import LengthMismatchError

        raise LengthMismatchError(n, v_ranks.n)

    v = binary_expansion(v_ranks, max(1, bid.b_mask.bit_length()))
    s_obs = abs(symmetry_statistic(u, v, bid).s)

    su = sign_labels(u, bid.a_mask)
    sv = sign_labels(v, bid.b_mask)

    if n <= EXACT_PERMUTATION_MAX_N:
        su_t = tuple(int(x) for x in su)
        total = math.factorial(n)
        extreme = 0
        for perm in itertools.permutations(int(x) for x in sv):
            s = sum(a * b for a, b in zip(su_t, perm))
            if abs(s) >= s_obs:
                extreme += 1
        return extreme / total

    p = int(np.count_nonzero(su > 0))
    q = int(np.count_nonzero(sv > 0))
    rng = np.random.Generator(np.random.Philox(key=seed))
    extreme = 0
    done = 0
    while done < iterations:
        k = rng.hypergeometric(q, n - q, p, size=min(_BATCH, iterations - done))
        extreme += int(np.count_nonzero(np.abs(n - 2 * p - 2 * q + 4 * k) >= s_obs))
        done += len(k)
    return (1 + extreme) / (1 + iterations)
