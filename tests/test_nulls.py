from fractions import Fraction

import numpy as np
import pytest

from betscan.core import (
    BidId,
    all_bids,
    binary_expansion,
    empirical_copula,
    max_bet,
    pvalue_hypergeometric,
    pvalue_normal,
    pvalue_permutation,
)
from betscan.core.nulls import exact_tail, label_counts, null_table
from betscan.errors import DivisibilityViolationError, ParityViolationError
from betscan.manifest import cell

from ._oracles import (
    arrangement_tail,
    exact_tails,
    hypergeom_tail,
    permutation_distribution,
    permutation_tail,
    quadrant_stat,
    sign_vector,
)


def planes_for(ranks, depth=2):
    return binary_expansion(empirical_copula(np.asarray(ranks, float)), depth)


def test_hypergeometric_extremes():
    assert pvalue_hypergeometric(8, 8) == pytest.approx(1 / 35, rel=1e-12)
    assert pvalue_hypergeometric(0, 8) == 1.0


def test_hypergeometric_matches_enumeration():
    # n = 2 mod 4 is the depth-1 case: only 2 | n is needed for the halves
    for n in (6, 8, 10, 12, 14, 18, 64):
        for s in range(-n, n + 1, 4):
            assert pvalue_hypergeometric(s, n) == pytest.approx(
                hypergeom_tail(s, n), rel=1e-12
            )


def test_hypergeometric_preconditions():
    with pytest.raises(DivisibilityViolationError):
        pvalue_hypergeometric(3, 11)
    with pytest.raises(ParityViolationError):
        pvalue_hypergeometric(2, 8)


def test_pvalue_monotone_in_s():
    for backend, n, step in (
        (pvalue_hypergeometric, 16, 4),
        (pvalue_normal, 17, 1),
    ):
        values = [backend(s, n) for s in range(0, n + 1, step)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_permutation_exact_matches_hypergeometric():
    u = planes_for(range(1, 9))
    v_ranks = empirical_copula(np.arange(8, 0, -1, dtype=float))
    p = pvalue_permutation(u, v_ranks, BidId(1, 1))
    assert p == pytest.approx(1 / 35, rel=1e-12)


def test_permutation_exact_s_zero_is_one():
    # v arranged so the linear statistic is exactly 0
    u = planes_for(range(1, 9))
    v_ranks = empirical_copula(np.array([1.0, 5, 2, 6, 7, 3, 8, 4]))
    assert quadrant_stat(range(1, 9), [1, 5, 2, 6, 7, 3, 8, 4], 1, 1, 2) == 0
    assert pvalue_permutation(u, v_ranks, BidId(1, 1)) == 1.0


def test_permutation_exact_every_bid_n8():
    rng = np.random.default_rng(2)
    ur = rng.permutation(8) + 1
    vr = rng.permutation(8) + 1
    u = planes_for(ur)
    v_ranks = empirical_copula(vr.astype(float))
    for bid in all_bids(2, 2):
        dist = permutation_distribution(ur, (bid.a_mask, bid.b_mask), 2)
        s_obs = quadrant_stat(ur, vr, bid.a_mask, bid.b_mask, 2)
        expected = permutation_tail(dist, s_obs, 8)
        assert pvalue_permutation(u, v_ranks, bid) == pytest.approx(
            expected, rel=1e-12
        )


def test_permutation_monte_carlo_deterministic_and_corrected():
    rng = np.random.default_rng(4)
    ur = rng.permutation(40) + 1
    vr = rng.permutation(40) + 1
    u = planes_for(ur)
    v_ranks = empirical_copula(vr.astype(float))
    p1 = pvalue_permutation(u, v_ranks, BidId(3, 1), iterations=500, seed=99)
    p2 = pvalue_permutation(u, v_ranks, BidId(3, 1), iterations=500, seed=99)
    assert p1 == p2
    assert p1 >= 1 / 501  # add-one correction keeps it positive
    p3 = pvalue_permutation(u, v_ranks, BidId(3, 1), iterations=500, seed=100)
    assert abs(p3 - p1) < 0.25


def test_permutation_monte_carlo_matches_enumeration_n9():
    # n = 9 is the smallest n on the Monte Carlo branch, and there no sign
    # label splits the points in halves; 5 binomial standard errors
    n, iterations = 9, 100_000
    rng = np.random.default_rng(9)
    ur = rng.permutation(n) + 1
    vr = rng.permutation(n) + 1
    u = planes_for(ur)
    v_ranks = empirical_copula(vr.astype(float))
    for seed, bid in enumerate(all_bids(2, 2)):
        assert 2 * np.count_nonzero(sign_vector(ur, n, bid.a_mask, 2) > 0) != n
        dist = permutation_distribution(ur, (bid.a_mask, bid.b_mask), 2)
        s_obs = quadrant_stat(ur, vr, bid.a_mask, bid.b_mask, 2)
        expected = permutation_tail(dist, s_obs, n)
        p = pvalue_permutation(u, v_ranks, bid, iterations=iterations, seed=seed)
        se = np.sqrt(expected * (1 - expected) / iterations)
        assert abs(p - expected) <= 5 * se + 1 / (1 + iterations), bid.name


def test_permutation_monte_carlo_unequal_label_counts():
    # at n = 10 and 14 the two axes' sign labels have different numbers of
    # +1 entries for some interactions; the oracle places v's +1 labels
    # in every possible way
    iterations = 100_000
    rng = np.random.default_rng(10)
    checked = 0
    for n in (10, 14):
        ur = rng.permutation(n) + 1
        vr = rng.permutation(n) + 1
        u = planes_for(ur)
        v_ranks = empirical_copula(vr.astype(float))
        for bid in all_bids(2, 2):
            su = sign_vector(ur, n, bid.a_mask, 2)
            plus_v = int(np.count_nonzero(sign_vector(vr, n, bid.b_mask, 2) > 0))
            if np.count_nonzero(su > 0) == plus_v:
                continue
            checked += 1
            s_obs = quadrant_stat(ur, vr, bid.a_mask, bid.b_mask, 2)
            expected = arrangement_tail(su, plus_v, s_obs)
            p = pvalue_permutation(u, v_ranks, bid, iterations=iterations, seed=n)
            se = np.sqrt(expected * (1 - expected) / iterations)
            assert abs(p - expected) <= 5 * se + 1 / (1 + iterations), (n, bid.name)
    assert checked >= 4


def _label_count_pairs(depths, ns):
    """(n, p, q) of every distinct folded pair of digit-mask label counts."""
    for n in ns:
        counts = sorted(
            {min(c, n - c) for d in depths for c in label_counts(n, d)[1:]}
        )
        yield from ((n, p, q) for i, p in enumerate(counts) for q in counts[i:])


_ORACLE_CASES = [
    (817, 408, 409), (817, 409, 409), (1096, 548, 548), (1097, 548, 549),
    (96, 48, 48), (1098, 549, 549), (2047, 1023, 1024), (2048, 1024, 1024),
    (8191, 4095, 4096),
]
_ORACLE_CASES += [
    case
    for case in _label_count_pairs((3, 5), (817, 1096, 1097))
    if case not in _ORACLE_CASES
]


@pytest.mark.parametrize("n, p, q", _ORACLE_CASES)
def test_exact_tail_matches_rational_oracle(n, p, q):
    table = exact_tail(n, p, q)
    checked = 0
    for a, exact in exact_tails(n, p, q).items():
        if exact >= Fraction(1, 10**300):
            assert abs(Fraction(table[a]) - exact) <= 2e-14 * exact, a
            checked += 1
    assert checked >= min(150, n // 4)


@pytest.mark.parametrize(
    "n, p, q", [(817, 408, 409), (1096, 548, 548), (2048, 1024, 1024)]
)
def test_printed_pvalues_match_the_rational_oracle(n, p, q):
    # the 12 significant digits that every p cell carries
    table = exact_tail(n, p, q)
    printed = {
        a: (cell(float(table[a])), cell(float(exact)))
        for a, exact in exact_tails(n, p, q).items()
        if exact >= Fraction(1, 10**300)
    }
    assert [a for a, (got, want) in printed.items() if got != want] == []
    assert len(printed) > 250


def test_exact_tail_floor():
    # P(|S| = 1096) = 2 / C(1096, 548) is below the smallest double
    assert exact_tails(1096, 548, 548)[1096] < Fraction(5e-324)
    assert exact_tail(1096, 548, 548)[1096] == 5e-324
    assert pvalue_hypergeometric(1096, 1096) == 5e-324


def test_exact_tail_matches_scipy_and_arrangements():
    from scipy.stats import hypergeom

    for n in range(1, 13):
        for p in range(n + 1):
            for q in range(n + 1):
                table = exact_tail(n, p, q)
                law = hypergeom(n, q, p)
                su = np.array([1] * p + [-1] * (n - p))
                c0 = n - 2 * p - 2 * q
                for k in range(max(0, p + q - n), min(p, q) + 1):
                    a = abs(c0 + 4 * k)
                    # P(S >= a) + P(S <= -a) for a > 0
                    up, down = law.sf(-((c0 - a) // 4) - 1), law.cdf((-a - c0) // 4)
                    want = min(1.0, up + down) if a else 1.0
                    assert table[a] == pytest.approx(want, rel=1e-12)
                    assert table[a] == pytest.approx(
                        arrangement_tail(su, q, a), rel=1e-12
                    )


def test_exact_mode_calibrated_where_4_does_not_divide_n():
    # criterion c06's family-wise rejection rate, at n = 817
    rng = np.random.default_rng(817)
    n, sims, alpha = 817, 10_000, 0.05
    u = binary_expansion(empirical_copula(np.arange(1.0, n + 1.0)), 2)
    rejections = 0
    for _ in range(sims):
        v = binary_expansion(empirical_copula(rng.permutation(n) + 1.0), 2)
        res = max_bet(u, v, mode="exact")
        assert res.method == "hypergeometric" and not res.approximate
        rejections += res.p_bid_adjusted <= alpha
    assert rejections / sims <= alpha + 3.0 * np.sqrt(alpha * (1 - alpha) / sims)


def test_normal_approx_basics():
    assert pvalue_normal(0, 817) == 1.0
    # z = 13.89 is far in the tail but still positive
    p = pvalue_normal(397, 817)
    assert 0.0 < p < 1e-40


def test_null_distribution_fits_hypergeometric_per_bid():
    # 10k independent pairings at n=64: (S+n)/4 for every interaction
    # follows Hypergeometric(64, 32, 32); chi-square GOF at p > 0.001
    from scipy import stats as sps

    rng = np.random.default_rng(646464)
    n, sims = 64, 10_000
    u = planes_for(np.arange(1, n + 1))
    from betscan.core import all_symmetry_statistics

    half = n // 2
    ks = np.zeros((9, sims), dtype=np.int64)
    for t in range(sims):
        v = planes_for(rng.permutation(n) + 1)
        for b, st in enumerate(all_symmetry_statistics(u, v)):
            ks[b, t] = (st.s + n) // 4

    support = np.arange(half + 1)
    pmf = sps.hypergeom(n, half, half).pmf(support)
    for b in range(9):
        observed = np.bincount(ks[b], minlength=half + 1).astype(float)
        # merge tail bins until every expected count is >= 5
        exp = pmf * sims
        keep = exp >= 5
        lo, hi = np.argmax(keep), len(keep) - np.argmax(keep[::-1]) - 1
        obs_m = np.concatenate(
            [[observed[: lo + 1].sum()], observed[lo + 1 : hi], [observed[hi:].sum()]]
        )
        exp_m = np.concatenate([[exp[: lo + 1].sum()], exp[lo + 1 : hi], [exp[hi:].sum()]])
        stat = float(((obs_m - exp_m) ** 2 / exp_m).sum())
        p = float(sps.chi2.sf(stat, len(obs_m) - 1))
        assert p > 0.001, f"interaction {b}: GOF p = {p}"


@pytest.mark.parametrize("n", [4, 5, 7, 8, 9, 12, 40])
def test_permutation_reads_the_null_table(n):
    # the exact entry up to n = 8, else the seeded draw from that entry
    rng = np.random.default_rng(n)
    ur, vr = rng.permutation(n) + 1, rng.permutation(n) + 1
    u = planes_for(ur)
    v_ranks = empirical_copula(vr.astype(float))
    table = null_table("permutation", n, 2, 2)
    for t, bid in enumerate(all_bids(2, 2)):
        entry = table[t, abs(quadrant_stat(ur, vr, bid.a_mask, bid.b_mask, 2))]
        p = pvalue_permutation(u, v_ranks, bid, iterations=999, seed=t)
        if n <= 8:
            assert p == entry, bid.name
        else:
            x = np.random.Generator(np.random.Philox(key=t)).binomial(999, entry)
            assert p == (1 + x) / 1000, bid.name
