import numpy as np
import pytest

from betscan.core import (
    BidId,
    binary_expansion,
    empirical_copula,
    max_bet,
)

from ._oracles import all_quadrant_stats


def planes_for(values, depth=2):
    return binary_expansion(empirical_copula(np.asarray(values, float)), depth)


def test_parabola_wins_parabolic_class():
    # off-centre grid so (x - 0.5)^2 never pairs symmetric duplicates
    x = (np.arange(128) + 0.3) / 128
    y = (x - 0.5) ** 2
    u, v = planes_for(x), planes_for(y)
    res = max_bet(u, v, mode="exact")
    assert res.bid_class.label == "Parabolic"
    # the winner's |S| really is the maximum per the quadrant oracle
    ur = empirical_copula(x).ranks
    vr = empirical_copula(y).ranks
    oracle = all_quadrant_stats(ur, vr, 2)
    assert abs(res.s) == max(abs(s) for s in oracle.values())
    assert oracle[(res.bid.a_mask, res.bid.b_mask)] == res.s


def test_all_zero_ties_break_canonically():
    # Latin pairing of quarter cells: every (u-cell, v-cell) combination
    # appears exactly once, so all nine statistics vanish
    n = 16
    vr = np.empty(n, dtype=int)
    next_rank = {c: c * 4 + 1 for c in range(4)}
    for r in range(1, n + 1):
        ucell, t = (r - 1) // 4, (r - 1) % 4
        vcell = (ucell + t) % 4
        vr[r - 1] = next_rank[vcell]
        next_rank[vcell] += 1
    u = planes_for(range(1, n + 1))
    v = planes_for(vr)
    from betscan.core import all_symmetry_statistics

    assert all(st.s == 0 for st in all_symmetry_statistics(u, v))
    res = max_bet(u, v, mode="exact")
    assert res.bid == BidId(1, 1)
    assert res.s == 0
    assert res.p_bid_adjusted == 1.0


def test_bid_adjustment_count():
    u = planes_for(range(1, 9))
    res = max_bet(u, u, mode="exact")
    assert res.z == pytest.approx(abs(res.s) / np.sqrt(res.n), rel=1e-12)
    assert res.p_bid_adjusted == pytest.approx(min(1.0, 9 * res.p_raw), rel=1e-12)
    u3 = planes_for(range(1, 9), depth=3)
    res3 = max_bet(u3, u3, mode="exact")
    assert res3.p_bid_adjusted == pytest.approx(min(1.0, 49 * res3.p_raw), rel=1e-12)


def test_exact_mode_backend_selection():
    # the exact null holds for every n, also where 2^depth does not divide it
    for n in (64, 17):
        res = max_bet(planes_for(range(n)), planes_for(range(n)), mode="exact")
        assert res.method == "hypergeometric"
        assert not res.approximate


def test_permutation_mode_without_ranks():
    # the planes fix the permutation null; v_ranks is accepted and unused
    u = planes_for(range(1, 9))
    ranks = empirical_copula(np.arange(1.0, 9.0))
    for v_ranks in (None, ranks):
        res = max_bet(u, u, mode="permutation", v_ranks=v_ranks)
        assert res.method == "permutation"
        assert not res.approximate
        assert res.p_raw == pytest.approx(1 / 35, rel=1e-12)  # exact tail


def test_pair_adjustment_helper():
    res = max_bet(planes_for(range(64)), planes_for(range(64)), mode="exact")
    adjusted = res.with_pair_adjustment(1000)
    assert adjusted.p_pair_adjusted == pytest.approx(
        min(1.0, 1000 * res.p_bid_adjusted), rel=1e-12
    )
    assert res.p_pair_adjusted is None
