"""Max BET: pick the strongest cross interaction and adjust its p-value.

All (2^d1 - 1)(2^d2 - 1) statistics are computed, the largest |S| wins
(ties broken by the canonical ordering, lowest a_mask then lowest b_mask),
and the winner's p-value is Bonferroni-adjusted by the number of
interactions examined.  The adjustment count includes the linear
interaction; restricting reports to the nonlinear classes is a
reporting-time filter, not an adjustment change.

p-value backends by mode:

    exact        hypergeometric when 2^max(d1, d2) divides n, else the
                 normal approximation with approximate=True
    approx       always the normal approximation
    permutation  permutation null of v's ranks: every pairing for n <= 8,
                 else Monte Carlo with one seeded Hypergeometric draw of
                 K (points +1 on both sign labels) per iteration
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bids import BidClass, BidId, bid_class_of, bid_count
from .copula import CopulaColumn
from .expansion import BitPlanes
from .nulls import (
    EXACT_PERMUTATION_MAX_N,
    pvalue_hypergeometric,
    pvalue_normal,
    pvalue_permutation,
)
from .stats import all_symmetry_statistics, z_score

__all__ = ["BetResult", "max_bet", "null_method", "null_pvalue", "MODES"]

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


_TAILS = {
    "hypergeometric": pvalue_hypergeometric,
    "normal_approx": pvalue_normal,
}


def null_method(mode: str, n: int, depth: int) -> tuple[str, bool]:
    """(method, approximate) of the null that mode uses for n and depth.

    depth is max(d1, d2); the exact hypergeometric null needs 2^depth | n.
    """
    if mode == "exact" and n % (1 << depth) == 0:
        return "hypergeometric", False
    if mode in ("exact", "approx"):
        return "normal_approx", True
    if mode == "permutation":
        return "permutation", n > EXACT_PERMUTATION_MAX_N
    raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def null_pvalue(
    s: int,
    n: int,
    depth: int,
    mode: str,
    *,
    u: BitPlanes | None = None,
    v_ranks: CopulaColumn | None = None,
    bid: BidId | None = None,
    iterations: int = 9999,
    seed: int = 0,
) -> tuple[float, str, bool]:
    """Raw p-value of a winning statistic s: (p_raw, method, approximate).

    Outside permutation mode the p-value depends on |s|, n, depth and mode
    alone, so a screen may tabulate it by |S|.  Permutation mode permutes
    v's ranks against u for interaction bid and needs all three.
    """
    method, approximate = null_method(mode, n, depth)
    if method != "permutation":
        return _TAILS[method](s, n), method, approximate
    if u is None or v_ranks is None or bid is None:
        raise ValueError("permutation mode needs u, v_ranks and bid")
    p = pvalue_permutation(u, v_ranks, bid, iterations=iterations, seed=seed)
    return p, method, approximate


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

    Permutation mode needs v's rank column (the planes alone cannot be
    re-permuted at full rank resolution).
    """
    stats = all_symmetry_statistics(u, v)
    best = stats[0]
    for st in stats[1:]:
        if abs(st.s) > abs(best.s):
            best = st

    n = u.n
    p_raw, method, approximate = null_pvalue(
        best.s,
        n,
        max(u.depth, v.depth),
        mode,
        u=u,
        v_ranks=v_ranks,
        bid=best.bid,
        iterations=iterations,
        seed=seed,
    )
    return BetResult(
        bid=best.bid,
        bid_class=bid_class_of(best.bid),
        s=best.s,
        n=n,
        z=z_score(best.s, n),
        p_raw=p_raw,
        p_bid_adjusted=min(1.0, bid_count(u.depth, v.depth) * p_raw),
        p_pair_adjusted=None,
        approximate=approximate,
        method=method,
    )
