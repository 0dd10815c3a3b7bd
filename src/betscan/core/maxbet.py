"""Max BET: pick the strongest cross interaction and adjust its p-value.

All (2^d1 - 1)(2^d2 - 1) statistics are computed, the largest |S| wins
(ties broken by the canonical ordering, lowest a_mask then lowest b_mask),
and the winner's p-value is Bonferroni-adjusted by the number of
interactions examined.  The adjustment count includes the linear
interaction; restricting reports to the nonlinear classes is a
reporting-time filter, not an adjustment change.

The raw p-value of a winner is null_table(mode, n, d1, d2)[t, |S|], t the
winner's index in all_bids(d1, d2).  By mode:

    exact        the exact hypergeometric tail of the winner's label
                 counts, for every n (approximate=False)
    approx       the normal approximation 2 * Phi(-|S| / sqrt(n))
    permutation  the permutation null of v's ranks: the exact tail for
                 n <= 8, else (1 + X) / (1 + iterations) with
                 X ~ Binomial(iterations, exact tail) from a seeded stream
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .bids import BidClass, BidId, all_bids, bid_class_of, bid_count
from .copula import CopulaColumn
from .expansion import BitPlanes
from .nulls import (
    EXACT_PERMUTATION_MAX_N,
    exact_tail,
    label_counts,
    permutation_pvalue,
    pvalue_normal,
)
from .stats import pair_statistics, z_score

__all__ = ["BetResult", "max_bet", "null_method", "null_table", "MODES"]

MODES = ("exact", "approx", "permutation")


@dataclass(frozen=True)
class BetResult:
    """Outcome of Max BET for one pair of variables."""

    bid: BidId
    bid_class: BidClass
    s: int
    n: int
    z: float
    p_raw: float
    p_bid_adjusted: float
    p_pair_adjusted: float | None
    approximate: bool
    method: str

    def with_pair_adjustment(self, m_pairs: int) -> "BetResult":
        return replace(
            self, p_pair_adjusted=min(1.0, m_pairs * self.p_bid_adjusted)
        )


def null_method(mode: str, n: int) -> tuple[str, bool]:
    """(method, approximate) of the null that mode uses for n samples."""
    if mode == "exact":
        return "hypergeometric", False
    if mode == "approx":
        return "normal_approx", True
    if mode == "permutation":
        return "permutation", n > EXACT_PERMUTATION_MAX_N
    raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


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


def max_bet(
    u: BitPlanes,
    v: BitPlanes,
    mode: str = "exact",
    *,
    v_ranks: CopulaColumn | None = None,
    iterations: int = 9999,
    seed: int = 0,
) -> BetResult:
    """Run Max BET on one pair of expanded variables.

    v_ranks is unused; it is accepted for callers that still pass it.
    Permutation mode draws from Philox(key=seed).
    """
    stats = pair_statistics(u, v)
    t = int(np.argmax(np.abs(stats)))  # the first maximum
    bid, s = all_bids(u.depth, v.depth)[t], int(stats[t])

    n = u.n
    method, approximate = null_method(mode, n)
    p_raw = float(null_table(mode, n, u.depth, v.depth)[t, abs(s)])
    if method == "permutation" and approximate:
        p_raw = float(permutation_pvalue(p_raw, iterations, seed))
    return BetResult(
        bid=bid,
        bid_class=bid_class_of(bid),
        s=s,
        n=n,
        z=z_score(s, n),
        p_raw=p_raw,
        p_bid_adjusted=min(1.0, bid_count(u.depth, v.depth) * p_raw),
        p_pair_adjusted=None,
        approximate=approximate,
        method=method,
    )
