"""Max BET: pick the strongest cross interaction and adjust its p-value.

All (2^d1 - 1)(2^d2 - 1) statistics are computed, the largest |S| wins
(ties broken by the canonical ordering, lowest a_mask then lowest b_mask),
and the winner's p-value is Bonferroni-adjusted by the number of
interactions examined.  The adjustment count includes the linear
interaction; restricting reports to the nonlinear classes is a
reporting-time filter, not an adjustment change.

The raw p-value of a winner comes from `nulls.null_pvalue`, the p-value
dispatch that the screen shares.  `bet_result` builds the BetResult of
every winner, here and in the screen, and `bonferroni` is the one
min(1, m * p) of the package.  `max_bet` keeps its own S and argmax, so
that it checks the screen's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bids import BidClass, BidId, _bids, bid_class_of, bid_count
from .copula import CopulaColumn
from .expansion import BitPlanes
from .nulls import null_method, null_pvalue
from .stats import pair_statistics, z_score

__all__ = ["BetResult", "bet_result", "bonferroni", "max_bet"]


def bonferroni(m: int, p):
    """min(1, m * p), p adjusted over m tests: a float (kept a float) or an array."""
    return np.minimum(1.0, m * p) if isinstance(p, np.ndarray) else min(1.0, m * p)


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
        return replace(self, p_pair_adjusted=bonferroni(m_pairs, self.p_bid_adjusted))


def bet_result(
    t: int, s: int, n: int, d1: int, d2: int, mode: str, p_raw: float,
    m_pairs: int | None = None,
) -> BetResult:
    """The result of interaction t of all_bids(d1, d2) winning with S = s.

    p_raw is adjusted over the interactions and, given m_pairs, then over
    that many pairs.
    """
    bid = _bids(d1, d2)[t]
    p_bid = bonferroni(bid_count(d1, d2), p_raw)
    p_pair = None if m_pairs is None else bonferroni(m_pairs, p_bid)
    z = z_score(s, n)
    method, approximate = null_method(mode, n)
    return BetResult(
        bid, bid_class_of(bid), s, n, z, p_raw, p_bid, p_pair, approximate, method
    )


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
    s, n, d1, d2 = int(stats[t]), u.n, u.depth, v.depth
    p_raw = null_pvalue(mode, n, d1, d2, t, abs(s), iterations, seed)
    return bet_result(t, s, n, d1, d2, mode, p_raw)
