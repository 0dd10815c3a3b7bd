import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betscan.core import binary_expansion, empirical_copula, plane_bits
from betscan.errors import DepthTooLargeError

from ._oracles import digit_table


def digits_of(bp, i):
    return [int(plane_bits(bp.planes[k], bp.n)[i]) for k in range(bp.depth)]


def test_rank_five_of_eight():
    # 5/8 sits on a dyadic boundary; the left-open convention puts it at
    # the closed end of (1/2, 5/8], so the depth-3 digits are 1,0,0
    col = empirical_copula(list(range(1, 9)))
    bp = binary_expansion(col, 3)
    assert digits_of(bp, 4) == [1, 0, 0]


def test_rank_n_is_all_ones():
    col = empirical_copula([10.0, 3.0, 7.0, 99.0, 5.0])
    bp = binary_expansion(col, 4)
    assert digits_of(bp, 3) == [1, 1, 1, 1]


def test_n16_depth2_plane_membership():
    # enumerate interval membership directly with rational comparison
    col = empirical_copula(list(range(1, 17)))
    bp = binary_expansion(col, 2)
    table = digit_table(16, 2)
    for rank in range(1, 17):
        i = rank - 1  # identity ordering: rank == position + 1
        assert digits_of(bp, i) == table[rank].tolist()
    plane1 = [r for r in range(1, 17) if plane_bits(bp.planes[0], 16)[r - 1]]
    plane2 = [r for r in range(1, 17) if plane_bits(bp.planes[1], 16)[r - 1]]
    assert plane1 == list(range(9, 17))
    assert plane2 == [5, 6, 7, 8, 13, 14, 15, 16]


def test_matches_interval_oracle_random():
    rng = np.random.default_rng(5)
    for n in (12, 37, 64):
        ranks = rng.permutation(n) + 1
        col = empirical_copula(ranks.astype(float))
        assert col.ranks.tolist() == ranks.tolist()
        bp = binary_expansion(col, 3)
        table = digit_table(n, 3)
        for i in range(n):
            assert digits_of(bp, i) == table[ranks[i]].tolist()


def test_balanced_planes_when_divisible():
    col = empirical_copula(list(range(32)))
    bp = binary_expansion(col, 3)
    for k in range(3):
        assert plane_bits(bp.planes[k], 32).sum() == 16


def test_balanced_sign_combination_every_mask():
    # every nonzero sign mask splits the ranks into exact halves when
    # 2^depth divides n
    from betscan.core import label_counts

    for n, depth in ((8, 3), (32, 3), (64, 2)):
        counts = label_counts(n, depth)
        assert len(counts) == 1 << depth
        assert all(counts[mask] == n // 2 for mask in range(1, 1 << depth))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 200),
    depth=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_label_counts_match_the_planes_of_any_gene(n, depth, seed):
    # the +1 labels of a mask are the points where the mask's XOR parity
    # equals its size's parity; any ranking of n values has the same count
    from betscan.core import label_counts, mask_combos

    values = np.random.default_rng(seed).normal(size=n)
    combos = mask_combos(binary_expansion(empirical_copula(values), depth))
    for mask in range(1, 1 << depth):
        ones = int(np.bitwise_count(combos[mask]).sum())
        plus = ones if mask.bit_count() % 2 else n - ones
        assert label_counts(n, depth)[mask] == plus


def test_no_bits_beyond_n():
    col = empirical_copula([4.0, 2.0, 9.0, 1.0, 7.0])
    bp = binary_expansion(col, 2)
    assert bp.planes.shape == (2, 1)
    for plane in bp.planes:
        assert int(plane[0]) >> bp.n == 0


def word_bits(words, count):
    """Bit i of packed words, read as bit i % 64 of word i // 64."""
    i = np.arange(count)
    return (words[..., i // 64] >> (i % 64).astype(np.uint64)) & np.uint64(1)


@pytest.mark.parametrize("n", [5, 63, 64, 65, 817, 1096])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_packed_words_match_the_digit_oracle(n, depth):
    from betscan.core import mask_combos

    ranks = np.random.default_rng(n + depth).permutation(n) + 1
    bp = binary_expansion(empirical_copula(ranks.astype(float)), depth)
    words = -(-n // 64)
    assert bp.planes.dtype == np.uint64 and bp.planes.shape == (depth, words)
    digits = digit_table(n, depth)[ranks].T  # (depth, n)
    bits = word_bits(bp.planes, 64 * words)
    assert (bits[:, :n] == digits).all()
    assert not bits[:, n:].any()
    combos = mask_combos(bp)
    assert combos.shape == (1 << depth, words)
    for mask in range(1 << depth):
        parity = np.zeros(n, dtype=np.int64)
        for k in range(depth):
            if mask >> k & 1:
                parity ^= digits[k]
        assert (word_bits(combos[mask], n) == parity).all()
    assert not bp.planes.flags.writeable
    assert bp == binary_expansion(empirical_copula(ranks.astype(float)), depth)
    assert bp != binary_expansion(empirical_copula(ranks[::-1].astype(float)), depth)
    with pytest.raises(ValueError):
        bp.planes[0, 0] = 1


def test_depth_cap():
    col = empirical_copula(list(range(8)))
    with pytest.raises(DepthTooLargeError):
        binary_expansion(col, 17)
    with pytest.raises(ValueError):
        binary_expansion(col, 0)
