from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betscan.core import stats
from betscan.core import (
    BidId,
    all_bids,
    all_symmetry_statistics,
    binary_expansion,
    cell_counts,
    empirical_copula,
    mask_combos,
    pvalue_permutation,
    z_score,
)
from betscan.errors import LengthMismatchError

from ._oracles import all_quadrant_stats, digit_table, quadrant_stat
from ._synth import random_rank_pair


def planes_for(ranks, depth=2):
    return binary_expansion(empirical_copula(np.asarray(ranks, float)), depth)


def test_identical_ranks_linear():
    u = planes_for(range(1, 9))
    linear = all_symmetry_statistics(u, u)[0]
    assert (linear.bid, linear.s) == (BidId(1, 1), 8)


def test_reversed_ranks_linear():
    u = planes_for(range(1, 9))
    v = planes_for(range(8, 0, -1))
    linear = all_symmetry_statistics(u, v)[0]
    assert (linear.bid, linear.s) == (BidId(1, 1), -8)


def test_random_pair_matches_quadrant_oracle():
    rng = np.random.default_rng(3)
    ur, vr = random_rank_pair(32, rng)
    u, v = planes_for(ur), planes_for(vr)
    for st in all_symmetry_statistics(u, v):
        assert st.s == quadrant_stat(ur, vr, st.bid.a_mask, st.bid.b_mask, 2)


def test_all_statistics_census_and_order():
    u = planes_for(range(1, 9))
    stats2 = all_symmetry_statistics(u, u)
    assert len(stats2) == 9
    assert [(s.bid.a_mask, s.bid.b_mask) for s in stats2[:3]] == [
        (1, 1), (1, 2), (1, 3),
    ]
    u3 = planes_for(range(1, 9), depth=3)
    assert len(all_symmetry_statistics(u3, u3)) == 49


def test_all_statistics_match_oracle_fixed_permutation():
    ur = np.array([3, 8, 1, 6, 2, 7, 4, 5])
    vr = np.array([5, 1, 7, 2, 8, 3, 6, 4])
    u, v = planes_for(ur), planes_for(vr)
    oracle = all_quadrant_stats(ur, vr, 2)
    for st in all_symmetry_statistics(u, v):
        assert st.s == oracle[(st.bid.a_mask, st.bid.b_mask)]


@settings(max_examples=60, deadline=None)
@given(
    du=st.integers(1, 3),
    dv=st.integers(1, 3),
    n=st.integers(4, 140),
    seed=st.integers(0, 2**32 - 1),
    pairs=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12),
)
@example(du=3, dv=1, n=9, seed=0, pairs=[])
def test_cross_statistics_match_quadrant_oracle(du, dv, n, seed, pairs):
    # five genes on each axis, a pair list with repeats, one pair per XOR step
    rng = np.random.default_rng(seed)
    u_ranks = [rng.permutation(n) + 1 for _ in range(5)]
    v_ranks = [rng.permutation(n) + 1 for _ in range(5)]
    cu, cv = (
        np.stack([mask_combos(planes_for(r, d))[1:] for r in ranks])
        for ranks, d in ((u_ranks, du), (v_ranks, dv))
    )
    i = np.array([a for a, _ in pairs], dtype=np.intp)
    j = np.array([b for _, b in pairs], dtype=np.intp)
    with mock.patch.object(stats, "_XOR_WORDS", 1):
        s = stats.cross_statistics(cu, cv, i, j, n)
    assert s.dtype == np.int32
    assert s.shape == (len(pairs), ((1 << du) - 1) * ((1 << dv) - 1))
    for row, (a, b) in zip(s.tolist(), pairs):
        oracle = all_quadrant_stats(u_ranks[a], v_ranks[b], max(du, dv))
        expected = [oracle[(bid.a_mask, bid.b_mask)] for bid in all_bids(du, dv)]
        assert row == expected


def test_reflection_identity():
    rng = np.random.default_rng(9)
    for n in (8, 20, 64):
        ur, vr = random_rank_pair(n, rng)
        u, v = planes_for(ur, 3), planes_for(vr, 3)
        backward = {st.bid: st.s for st in all_symmetry_statistics(v, u)}
        for st in all_symmetry_statistics(u, v):
            assert st.s == backward[st.bid.swapped]


def test_monotone_invariance():
    rng = np.random.default_rng(13)
    values_u = rng.uniform(-2, 2, 48)
    values_v = rng.uniform(-2, 2, 48)
    base_u, base_v = planes_for(values_u), planes_for(values_v)
    base = {
        (s.bid.a_mask, s.bid.b_mask): s.s
        for s in all_symmetry_statistics(base_u, base_v)
    }
    for transform in (np.exp, lambda t: t**3 + t):
        tu = planes_for(transform(values_u))
        tv = planes_for(transform(values_v))
        for st in all_symmetry_statistics(tu, tv):
            assert st.s == base[(st.bid.a_mask, st.bid.b_mask)]


def test_quadrant_conservation_and_reconstruction():
    rng = np.random.default_rng(21)
    ur, vr = random_rank_pair(24, rng)
    u, v = planes_for(ur), planes_for(vr)
    counts = cell_counts(u, v)
    assert counts.sum() == 24
    # every statistic is a signed sum over the dyadic cells
    table = digit_table(24, 2)
    for st in all_symmetry_statistics(u, v):
        total = 0
        for cu in range(4):
            for cv in range(4):
                sign = 1
                for k in (1, 2):
                    if st.bid.a_mask >> (k - 1) & 1:
                        sign *= 2 * (cu >> (2 - k) & 1) - 1
                    if st.bid.b_mask >> (k - 1) & 1:
                        sign *= 2 * (cv >> (2 - k) & 1) - 1
                total += sign * counts[cu, cv]
        assert total == st.s
    # cell index derived from digits agrees with the oracle digit table
    for i in range(24):
        du = table[ur[i]]
        cu = du[0] * 2 + du[1]
        dv = table[vr[i]]
        cv = dv[0] * 2 + dv[1]
        assert counts[cu, cv] > 0


def test_parity_invariant():
    rng = np.random.default_rng(17)
    for n in (8, 12, 64):
        ur, vr = random_rank_pair(n, rng)
        u, v = planes_for(ur), planes_for(vr)
        for st in all_symmetry_statistics(u, v):
            assert abs(st.s) <= n
            assert (st.s - n) % 2 == 0
            if n % 4 == 0:
                assert (st.s - n) % 4 == 0


def test_mixed_depths():
    # depths may differ per axis: (2^d1 - 1)(2^d2 - 1) interactions
    rng = np.random.default_rng(27)
    ur, vr = random_rank_pair(32, rng)
    u = planes_for(ur, depth=2)
    v = planes_for(vr, depth=3)
    stats = all_symmetry_statistics(u, v)
    assert len(stats) == 3 * 7
    from ._oracles import sign_vector

    for st in stats:
        su = sign_vector(ur, 32, st.bid.a_mask, 2)
        sv = sign_vector(vr, 32, st.bid.b_mask, 3)
        assert st.s == int(np.sum(su * sv))


def test_length_mismatch():
    u = planes_for(range(1, 9))
    v = planes_for(range(1, 13))
    with pytest.raises(LengthMismatchError):
        all_symmetry_statistics(u, v)
    with pytest.raises(LengthMismatchError):
        pvalue_permutation(u, empirical_copula(np.arange(1.0, 13.0)), BidId(1, 1))


def test_mask_depth_check():
    # a_mask 4 asks for digit 3 of planes of depth 2; b_mask sets v's depth
    u = planes_for(range(1, 9))
    v_ranks = empirical_copula(np.arange(8.0, 0.0, -1.0))
    with pytest.raises(ValueError, match="a_mask 0b100 exceeds depth 2"):
        pvalue_permutation(u, v_ranks, BidId(4, 1))
    assert pvalue_permutation(u, v_ranks, BidId(3, 4)) <= 1


def test_z_score_values():
    assert z_score(397, 817) == pytest.approx(13.89, abs=0.005)
    assert z_score(381, 817) == pytest.approx(13.33, abs=0.005)
    assert z_score(0, 100) == 0.0
    assert z_score(-10, 100) == 1.0
    with pytest.raises(ValueError):
        z_score(11, 10)
