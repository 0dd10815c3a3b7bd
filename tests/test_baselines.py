import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from betscan.baselines import (
    ContingencyTable,
    DyadicRect,
    bid_region_rectangles,
    chi_square_independence,
    format_pvalue,
    hoeffding_pvalue_floor,
    hoeffdings_d,
    hoeffdings_d_pvalue,
    pearson_test,
    region_label_counts,
)
from betscan.core import (
    EXACT_PERMUTATION_MAX_N,
    BidId,
    all_bids,
    binary_expansion,
    empirical_copula,
    plane_bits,
    pvalue_permutation,
)
from betscan.errors import (
    DegenerateTableError,
    TooFewSamplesError,
    ZeroVarianceError,
)

from ._oracles import (
    chi_square_oracle,
    hoeffding_kernel_oracle,
    pearson_oracle,
)

SUBTYPE_REGION_COUNTS = [[9, 8, 90], [86, 229, 6], [63, 37, 22], [10, 15, 16]]


# ------------------------------------------------------------- correlations


def test_correlations_trivial():
    x = np.array([1.0, 2.0, 3.0])
    assert pearson_test(x, x)[0] == pytest.approx(1.0)
    assert pearson_test(x, -x)[0] == pytest.approx(-1.0)


def test_correlations_match_definitional_oracles():
    rng = np.random.default_rng(15)
    x = rng.normal(size=20)
    y = 0.5 * x + rng.normal(size=20)
    assert pearson_test(x, y)[0] == pytest.approx(pearson_oracle(x, y), rel=1e-12)


def test_correlations_zero_variance():
    with pytest.raises(ZeroVarianceError):
        pearson_test(np.ones(5), np.arange(5.0))


def test_rank_measures_monotone_invariant_pearson_not():
    rng = np.random.default_rng(16)
    x = rng.uniform(0.1, 2.0, 30)
    y = x + rng.normal(0, 0.3, 30)
    tx, ty = np.exp(x), y**3 + y
    assert hoeffdings_d(tx, ty) == pytest.approx(hoeffdings_d(x, y), rel=1e-12)
    assert pearson_test(tx, ty)[0] != pytest.approx(pearson_test(x, y)[0], rel=1e-6)


# ---------------------------------------------------------------- hoeffding


def test_hoeffding_monotone_matches_quintuple_oracle():
    x = np.arange(1.0, 11.0)
    y = x**3
    d = hoeffdings_d(x, y)
    assert d == pytest.approx(1.0, rel=1e-12)
    assert d == pytest.approx(hoeffding_kernel_oracle(x, y), rel=1e-12)


def test_hoeffding_random_matches_quintuple_oracle():
    rng = np.random.default_rng(23)
    for _ in range(3):
        x = rng.normal(size=9)
        y = rng.normal(size=9)
        assert hoeffdings_d(x, y) == pytest.approx(
            hoeffding_kernel_oracle(x, y), abs=1e-12
        )


def test_hoeffding_errors():
    with pytest.raises(TooFewSamplesError):
        hoeffdings_d([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ZeroVarianceError):
        hoeffdings_d(np.ones(6), np.arange(6.0))


def test_hoeffding_exact_permutation_matches_enumeration():
    rng = np.random.default_rng(29)
    x = rng.normal(size=6)
    y = rng.normal(size=6)
    p = hoeffdings_d_pvalue(x, y)
    d_obs = hoeffdings_d(x, y)
    hits = sum(
        hoeffdings_d(x, y[list(perm)]) >= d_obs - 1e-12
        for perm in itertools.permutations(range(6))
    )
    assert p == pytest.approx(hits / math.factorial(6), rel=1e-12)


def test_hoeffding_monte_carlo_p_deterministic():
    rng = np.random.default_rng(33)
    x = rng.normal(size=20)
    y = x + rng.normal(0, 0.1, 20)
    p1 = hoeffdings_d_pvalue(x, y, iterations=99, seed=1)
    p2 = hoeffdings_d_pvalue(x, y, iterations=99, seed=1)
    assert p1 == p2
    assert p1 == pytest.approx(1 / 100)  # strong signal: nothing more extreme


def test_hoeffding_p_never_falls_below_its_floor():
    # a strictly increasing pair: the Monte Carlo p of 99 draws is the add-one
    # floor; the enumerated p counts the observed pairing among the 6!
    x = np.arange(20.0)
    assert hoeffdings_d_pvalue(x, x**3, iterations=99) == hoeffding_pvalue_floor(20, 99)
    x = np.arange(6.0)
    floor = hoeffding_pvalue_floor(6, 99)
    assert floor == 1 / math.factorial(6)
    hits = hoeffdings_d_pvalue(x, x**3, iterations=99) / floor
    assert hits >= 1 and hits == pytest.approx(round(hits))
    n = EXACT_PERMUTATION_MAX_N
    assert hoeffding_pvalue_floor(n, 99) == 1 / math.factorial(n)
    assert hoeffding_pvalue_floor(n + 1, 99) == 1 / 100


def test_both_permutation_nulls_switch_to_monte_carlo_at_the_same_n():
    # An enumerated tail does not depend on the iteration count.  A Monte
    # Carlo one of a strong signal is 1 / (1 + iterations), so it does.
    rng = np.random.default_rng(43)
    for n in (EXACT_PERMUTATION_MAX_N, EXACT_PERMUTATION_MAX_N + 1):
        x = rng.normal(size=n)
        y = x + rng.normal(0, 0.01, n)
        u = binary_expansion(empirical_copula(x), 1)
        v = empirical_copula(y)
        hoeffding = [hoeffdings_d_pvalue(x, y, iterations=k, seed=5) for k in (1, 3)]
        bet = [pvalue_permutation(u, v, BidId(1, 1), iterations=k, seed=5) for k in (1, 3)]
        enumerated = n <= EXACT_PERMUTATION_MAX_N
        assert (hoeffding[0] == hoeffding[1]) == enumerated
        assert (bet[0] == bet[1]) == enumerated


# --------------------------------------------------------------- chi-square


def test_chi_square_published_counts():
    table = ContingencyTable(
        row_labels=("Basal", "LumA", "LumB", "Her2"),
        col_labels=("region_1", "region_2", "region_3"),
        counts=np.array(SUBTYPE_REGION_COUNTS),
    )
    stat, dof, p = chi_square_independence(table)
    assert dof == 6
    assert p < 2.2e-16
    assert format_pvalue(p) == "< 2.2e-16"
    assert stat == pytest.approx(chi_square_oracle(SUBTYPE_REGION_COUNTS), rel=1e-12)


def test_chi_square_proportional_table():
    table = ContingencyTable(
        row_labels=("a", "b"),
        col_labels=("x", "y"),
        counts=np.array([[10, 20], [30, 60]]),
    )
    stat, dof, p = chi_square_independence(table)
    assert stat == pytest.approx(0.0, abs=1e-12)
    assert p == pytest.approx(1.0)


def test_chi_square_matches_direct_formula():
    rng = np.random.default_rng(41)
    counts = rng.integers(1, 50, size=(2, 3))
    table = ContingencyTable(
        row_labels=("a", "b"),
        col_labels=("x", "y", "z"),
        counts=counts,
    )
    stat, dof, _ = chi_square_independence(table)
    assert dof == 2
    assert stat == pytest.approx(chi_square_oracle(counts), rel=1e-12)


def test_chi_square_row_col_permutation_invariant():
    counts = np.array(SUBTYPE_REGION_COUNTS)
    base = chi_square_independence(
        ContingencyTable(("r1", "r2", "r3", "r4"), ("c1", "c2", "c3"), counts)
    )[0]
    perm = counts[[2, 0, 3, 1]][:, [1, 2, 0]]
    stat = chi_square_independence(
        ContingencyTable(("r1", "r2", "r3", "r4"), ("c1", "c2", "c3"), perm)
    )[0]
    assert stat == pytest.approx(base, rel=1e-12)


def test_chi_square_degenerate():
    with pytest.raises(DegenerateTableError):
        chi_square_independence(
            ContingencyTable(("a", "b"), ("x", "y"), np.array([[0, 0], [1, 2]]))
        )


# ------------------------------------------------------------------ regions


def test_linear_white_rectangles():
    rects = bid_region_rectangles(BidId(1, 1), "white")
    boxes = {(r.u_lo, r.u_hi, r.v_lo, r.v_hi) for r in rects}
    assert boxes == {
        (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1), Fraction(1, 2), Fraction(1)),
    }


def test_parabolic_blue_is_three_rectangles():
    rects = bid_region_rectangles(BidId(3, 1), "blue")
    assert len(rects) == 3
    boxes = {(r.u_lo, r.u_hi, r.v_lo, r.v_hi) for r in rects}
    assert boxes == {
        (Fraction(0), Fraction(1, 4), Fraction(0), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(3, 4), Fraction(1, 2), Fraction(1)),
        (Fraction(3, 4), Fraction(1), Fraction(0), Fraction(1, 2)),
    }


def test_region_areas_halve_for_every_bid():
    for bid in all_bids(2, 2):
        for sign in ("white", "blue"):
            rects = bid_region_rectangles(bid, sign)
            assert sum(r.area for r in rects) == Fraction(1, 2)


def test_regions_disjoint_and_consistent_with_digits():
    # a point's rectangle is recoverable from its digit bits
    for bid in all_bids(2, 2):
        white = bid_region_rectangles(bid, "white")
        blue = bid_region_rectangles(bid, "blue")
        n = 16
        col = empirical_copula(list(range(1, 17)))
        bp = binary_expansion(col, 2)
        for i in range(n):
            pu = Fraction(i + 1, n)
            hits_w = [r for r in white if r.contains(pu, pu)]
            hits_b = [r for r in blue if r.contains(pu, pu)]
            assert len(hits_w) + len(hits_b) == 1
            a1 = int(plane_bits(bp.planes[0], n)[i])
            a2 = int(plane_bits(bp.planes[1], n)[i])
            cell = Fraction(a1 * 2 + a2, 4)
            rect = (hits_w + hits_b)[0]
            assert rect.u_lo <= cell < rect.u_hi


def test_region_label_counts_conservation():
    rng = np.random.default_rng(55)
    n = 64
    u = empirical_copula(rng.permutation(n) + 1.0)
    v = empirical_copula(rng.permutation(n) + 1.0)
    labels = rng.choice(["A", "B", "C"], size=n).tolist()
    rects = bid_region_rectangles(BidId(3, 1), "blue")
    table, outside = region_label_counts(u, v, rects, labels)
    assert int(table.counts.sum()) + sum(outside.values()) == n
    assert table.col_labels == ("region_1", "region_2", "region_3")


def test_region_label_counts_single_rectangle():
    n = 8
    u = empirical_copula(np.arange(1.0, 9.0))
    labels = ["only"] * n
    rects = [DyadicRect(Fraction(0), Fraction(1), Fraction(0), Fraction(1))]
    table, outside = region_label_counts(u, u, rects, labels)
    assert table.counts.tolist() == [[8]]
    assert outside == {"only": 0}


def test_region_constructed_mixture_dominates_expected_cell():
    # load the lower-right blue rectangle of the parabolic interaction
    # with one label and check that its column is dominated by it
    rng = np.random.default_rng(60)
    n = 80
    x = np.concatenate([rng.uniform(0.80, 1.0, 20), rng.uniform(0.0, 0.75, 60)])
    y = np.concatenate([rng.uniform(0.0, 0.45, 20), rng.uniform(0.5, 1.0, 60)])
    labels = ["X"] * 20 + ["other"] * 60
    u = empirical_copula(x)
    v = empirical_copula(y)
    rects = bid_region_rectangles(BidId(3, 1), "blue")
    table, _ = region_label_counts(u, v, rects, labels)
    lower_right = table.col_labels.index("region_3")
    x_row = table.row_labels.index("X")
    col = table.counts[:, lower_right]
    assert col[x_row] > col.sum() - col[x_row]
