"""Reference dependence measures and region-level contingency analysis.

Pearson's correlation test and the chi-square tail come from scipy;
Hoeffding's D is computed here from the classical Q/R/S count
decomposition (the quintuple-sum definition lives in the test suite as an
independent oracle).  Region analysis decomposes a depth-2 interaction's
white or blue area into maximal dyadic rectangles and cross-tabulates
labelled observations against them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np
from scipy import stats as sps

from .core.bids import BidId
from .core.copula import CopulaColumn, rank_rows
from .core.expansion import expand_rank_rows
from .core.maxbet import bonferroni, max_bet
from .core.nulls import EXACT_PERMUTATION_MAX_N
from .errors import (
    DegenerateTableError,
    LengthMismatchError,
    TooFewSamplesError,
    ZeroVarianceError,
)

__all__ = [
    "pearson_test",
    "hoeffdings_d",
    "hoeffdings_d_pvalue",
    "hoeffding_pvalue_floor",
    "chi_square_independence",
    "format_pvalue",
    "ContingencyTable",
    "DyadicRect",
    "bid_region_rectangles",
    "region_label_counts",
    "MeasurePairRow",
    "MeasureClassRow",
    "measure_comparison",
]

FLOAT_EPS = 2.2e-16


def _paired(x, y, min_n: int):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatchError(x.shape[0], y.shape[0] if y.ndim == 1 else -1)
    if x.shape[0] < min_n:
        raise TooFewSamplesError(f"need at least {min_n} observations, got {x.shape[0]}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("inputs must be finite")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ZeroVarianceError("constant input vector")
    return x, y


def pearson_test(x, y) -> tuple[float, float]:
    """Product-moment correlation with its two-sided t-test p-value."""
    x, y = _paired(x, y, 3)
    res = sps.pearsonr(x, y)
    return float(res.statistic), float(res.pvalue)


# comparison cells (rows x n x n) per block of Monte Carlo permutations of y
_D_CELLS = 1 << 21


def _d_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Hoeffding's D of x against each row of y (rows, n), as hoeffdings_d."""
    n = x.shape[0]
    # Q_i = 1 + #(both strictly below) + 1/2 #(one tied, other below)
    #         + 1/4 #(both tied, j != i); x_i < x_i never holds, so only
    # eqx needs its diagonal cleared
    ltx = x[None, :] < x[:, None]
    lty = y[:, None, :] < y[:, :, None]
    eqx = x[None, :] == x[:, None]
    eqy = y[:, None, :] == y[:, :, None]
    np.fill_diagonal(eqx, False)
    both_lt = (ltx & lty).sum(axis=-1)
    half = (eqx & lty).sum(axis=-1) + (ltx & eqy).sum(axis=-1)
    quarter = (eqx & eqy).sum(axis=-1)
    q = 1.0 + both_lt + 0.5 * half + 0.25 * quarter
    r = sps.rankdata(x, method="average")
    s = sps.rankdata(y, method="average", axis=-1)
    d1 = np.sum((q - 1.0) * (q - 2.0), axis=-1)
    d2 = np.sum((r - 1.0) * (r - 2.0) * (s - 1.0) * (s - 2.0), axis=-1)
    d3 = np.sum((r - 2.0) * (s - 2.0) * (q - 1.0), axis=-1)
    denom = n * (n - 1.0) * (n - 2.0) * (n - 3.0) * (n - 4.0)
    return 30.0 * ((n - 2.0) * (n - 3.0) * d1 + d2 - 2.0 * (n - 2.0) * d3) / denom


def hoeffdings_d(x, y) -> float:
    """Hoeffding's D from the Q/R/S count decomposition, scaled by 30.

    Midranks resolve ties; the result lies in [-0.5, 1] with 1 for a
    strictly monotone tie-free relationship.
    """
    x, y = _paired(x, y, 5)
    return float(_d_rows(x, y[None])[0])


def hoeffdings_d_pvalue(x, y, iterations: int = 999, seed: int = 0) -> float:
    """Permutation tail P(D_perm >= D_obs), permuting y against x.

    Exact enumeration of all n! pairings for n <= EXACT_PERMUTATION_MAX_N,
    the same switch as the Max BET permutation null; otherwise Monte Carlo
    from a seeded Philox stream with the add-one correction.  D is taken of
    all n! pairings at once, or of blocks of rng.permutation(y) draws.
    """
    x, y = _paired(x, y, 5)
    n = x.shape[0]
    d_obs = hoeffdings_d(x, y)
    if n <= EXACT_PERMUTATION_MAX_N:
        d = _d_rows(x, np.array(list(itertools.permutations(y))))
        return np.count_nonzero(d >= d_obs - 1e-12) / math.factorial(n)
    rng = np.random.Generator(np.random.Philox(key=seed))
    step = max(1, _D_CELLS // (n * n))
    extreme = 0
    for lo in range(0, iterations, step):
        draws = [rng.permutation(y) for _ in range(min(step, iterations - lo))]
        extreme += np.count_nonzero(_d_rows(x, np.array(draws)) >= d_obs - 1e-12)
    return (1 + extreme) / (1 + iterations)


def hoeffding_pvalue_floor(n: int, iterations: int) -> float:
    """The smallest p-value that hoeffdings_d_pvalue returns for n samples.

    The observed pairing is one of the n! enumerated, or the add-one term.
    """
    if n <= EXACT_PERMUTATION_MAX_N:
        return 1 / math.factorial(n)
    return 1 / (iterations + 1)


@dataclass(frozen=True)
class ContingencyTable:
    """Categories x regions count table."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.shape != (len(self.row_labels), len(self.col_labels)):
            raise DegenerateTableError("counts shape does not match labels")
        if (counts < 0).any():
            raise DegenerateTableError("negative counts")


def chi_square_independence(table: ContingencyTable) -> tuple[float, int, float]:
    """Pearson chi-square test of independence (no continuity correction)."""
    counts = table.counts
    if counts.shape[0] < 2 or counts.shape[1] < 2:
        raise DegenerateTableError("need at least a 2x2 table")
    row = counts.sum(axis=1)
    col = counts.sum(axis=0)
    total = counts.sum()
    if (row == 0).any() or (col == 0).any() or total == 0:
        raise DegenerateTableError("all-zero row or column")
    expected = np.outer(row, col) / total
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = (counts.shape[0] - 1) * (counts.shape[1] - 1)
    p = float(sps.chi2.sf(stat, dof))
    return stat, dof, p


def format_pvalue(p: float) -> str:
    """Report style for tiny tails: values below float epsilon as '< 2.2e-16'."""
    if p < FLOAT_EPS:
        return "< 2.2e-16"
    return f"{p:.6g}"


@dataclass(frozen=True)
class DyadicRect:
    """Axis-aligned rectangle (u_lo, u_hi] x (v_lo, v_hi] with dyadic bounds."""

    u_lo: Fraction
    u_hi: Fraction
    v_lo: Fraction
    v_hi: Fraction

    def contains(self, u: Fraction, v: Fraction) -> bool:
        return self.u_lo < u <= self.u_hi and self.v_lo < v <= self.v_hi

    @property
    def area(self) -> Fraction:
        return (self.u_hi - self.u_lo) * (self.v_hi - self.v_lo)


def _axis_cell_signs(mask: int) -> list[int]:
    # Sign of the selected digit product on each of the four quarter cells;
    # digit k of cell c (0-based) is bit (2 - k) of c.
    signs = []
    for cell in range(4):
        prod = 1
        for k in (1, 2):
            if mask >> (k - 1) & 1:
                bit = cell >> (2 - k) & 1
                prod *= 2 * bit - 1
        signs.append(prod)
    return signs


def _runs(signs: list[int], want: int) -> list[tuple[int, int]]:
    out = []
    start = None
    for i, sg in enumerate(signs + [0]):
        if sg == want and start is None:
            start = i
        elif sg != want and start is not None:
            out.append((start, i - 1))
            start = None
    return out


def bid_region_rectangles(bid: BidId, sign: str) -> list[DyadicRect]:
    """Maximal disjoint dyadic rectangles covering one sign region.

    Depth-2 interactions only.  The region of cells where the interaction
    takes the requested sign ('white' = +1, 'blue' = -1) factorizes as
    (positive u-cells x positive v-cells) union (negative x negative) for
    white, and the two mixed products for blue; each product of maximal
    contiguous cell runs is a maximal rectangle, and together they tile
    the region.
    """
    if sign not in ("white", "blue"):
        raise ValueError("sign must be 'white' or 'blue'")
    if bid.a_mask.bit_length() > 2 or bid.b_mask.bit_length() > 2:
        raise ValueError("region decomposition is defined at depth 2")
    sa = _axis_cell_signs(bid.a_mask)
    sb = _axis_cell_signs(bid.b_mask)
    pairs = [(+1, +1), (-1, -1)] if sign == "white" else [(+1, -1), (-1, +1)]
    rects = []
    for wa, wb in pairs:
        for (a0, a1) in _runs(sa, wa):
            for (b0, b1) in _runs(sb, wb):
                rects.append(
                    DyadicRect(
                        u_lo=Fraction(a0, 4),
                        u_hi=Fraction(a1 + 1, 4),
                        v_lo=Fraction(b0, 4),
                        v_hi=Fraction(b1 + 1, 4),
                    )
                )
    rects.sort(key=lambda r: (r.u_lo, r.v_lo))
    return rects


def region_label_counts(
    u: CopulaColumn,
    v: CopulaColumn,
    rectangles: list[DyadicRect],
    labels,
) -> tuple[ContingencyTable, dict[str, int]]:
    """Cross-tabulate labelled observations against disjoint rectangles.

    Membership uses the same left-open convention as the digit expansion,
    evaluated in exact rational arithmetic on the rank fractions.
    Observations falling outside every rectangle are tallied separately
    per label and returned alongside the table.
    """
    if u.n != v.n:
        raise LengthMismatchError(u.n, v.n)
    labels = list(labels)
    if len(labels) != u.n:
        raise LengthMismatchError(u.n, len(labels))
    row_labels = tuple(sorted(set(labels)))
    row_index = {lab: i for i, lab in enumerate(row_labels)}
    col_labels = tuple(f"region_{i + 1}" for i in range(len(rectangles)))
    counts = np.zeros((len(row_labels), len(rectangles)), dtype=np.int64)
    outside = {lab: 0 for lab in row_labels}
    n = u.n
    for i in range(n):
        pu = Fraction(int(u.ranks[i]), n)
        pv = Fraction(int(v.ranks[i]), n)
        for j, rect in enumerate(rectangles):
            if rect.contains(pu, pv):
                counts[row_index[labels[i]], j] += 1
                break
        else:
            outside[labels[i]] += 1
    return ContingencyTable(row_labels, col_labels, counts), outside


@dataclass(frozen=True)
class MeasurePairRow:
    gene_i: str
    gene_j: str
    bid_class: str
    z: float
    bet_significant: bool
    pearson_r: float
    pearson_p: float
    pearson_significant: bool
    hoeffding_d: float
    hoeffding_p: float
    hoeffding_significant: bool


@dataclass(frozen=True)
class MeasureClassRow:
    bid_class: str
    bet_significant: int
    pearson_significant: int
    pearson_proportion: float
    hoeffding_significant: int
    hoeffding_proportion: float


def measure_comparison(
    matrix,
    pairs,
    alpha: float = 0.05,
    m_pairs: int | None = None,
    d: int = 2,
    hoeffding_iterations: int = 999,
    seed: int = 0,
) -> tuple[list[MeasurePairRow], list[MeasureClassRow]]:
    """Head-to-head comparison of the binary-expansion test with baselines.

    For each listed gene pair the winning interaction and its adjusted
    p-value are computed alongside the Pearson t-test and a Hoeffding's D
    permutation test.  Per class, the pairs the expansion test finds
    significant form the universe and the proportions say how many of
    them each baseline also flags (Bonferroni over m_pairs throughout,
    defaulting to the number of listed pairs).

    The Hoeffding permutation p cannot fall below hoeffding_pvalue_floor:
    1/(iterations + 1), or 1/n! at n <= EXACT_PERMUTATION_MAX_N.  When
    bonferroni(m_pairs, floor) > alpha, no pair is Hoeffding-significant,
    and every hoeffding_significant count is 0 by construction.
    """
    if m_pairs is None:
        m_pairs = len(pairs)
    per_pair: list[MeasurePairRow] = []

    @cache
    def planes_of(gene: str):
        return expand_rank_rows(rank_rows(matrix.column(gene)[None], [gene]), d)[0]

    for idx, (gi, gj) in enumerate(pairs):
        x = matrix.column(gi)
        y = matrix.column(gj)
        bet = max_bet(planes_of(gi), planes_of(gj), mode="exact")
        bet = bet.with_pair_adjustment(m_pairs)
        r, p_r = pearson_test(x, y)
        d_stat = hoeffdings_d(x, y)
        p_d = hoeffdings_d_pvalue(
            x, y, iterations=hoeffding_iterations, seed=seed + idx
        )
        per_pair.append(
            MeasurePairRow(
                gene_i=gi,
                gene_j=gj,
                bid_class=bet.bid_class.label,
                z=bet.z,
                bet_significant=bet.p_pair_adjusted <= alpha,
                pearson_r=r,
                pearson_p=p_r,
                pearson_significant=bonferroni(m_pairs, p_r) <= alpha,
                hoeffding_d=d_stat,
                hoeffding_p=p_d,
                hoeffding_significant=bonferroni(m_pairs, p_d) <= alpha,
            )
        )

    classes: dict[str, list[MeasurePairRow]] = {}
    for row in per_pair:
        if row.bet_significant:
            classes.setdefault(row.bid_class, []).append(row)
    per_class = []
    for label in sorted(classes):
        rows = classes[label]
        n_bet = len(rows)
        n_pearson = sum(r.pearson_significant for r in rows)
        n_hoeff = sum(r.hoeffding_significant for r in rows)
        per_class.append(
            MeasureClassRow(
                bid_class=label,
                bet_significant=n_bet,
                pearson_significant=n_pearson,
                pearson_proportion=n_pearson / n_bet,
                hoeffding_significant=n_hoeff,
                hoeffding_proportion=n_hoeff / n_bet,
            )
        )
    return per_pair, per_class
