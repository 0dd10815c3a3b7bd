"""Property tests: the columnar all-pairs kernel against single-pair Max BET.

max_bet scores one pair from core.stats.cross_statistics, an XOR and
popcount of the packed words, which shares no code with the screen's
float32 sign products, its bands and tiles, its winner keys or its |S|
table.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betscan.core import (
    all_bids,
    all_symmetry_statistics,
    bid_class_of,
    binary_expansion,
    empirical_copula,
    max_bet,
)
from betscan import screen
from betscan.core import stats
from betscan.errors import BetscanError
from betscan.preprocess import ExpressionMatrix
from betscan.screen import (
    ScreenConfig,
    screen_all_pairs,
    write_results_csv,
)

from ._oracles import rows

PROPERTY = settings(max_examples=40, deadline=None)


def make_matrix(g, n, seed):
    """Random genes with a copy, a reflection and a parabola planted."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(g, n))
    if g >= 3:
        values[1] = values[0]
        values[2] = (values[0] - 0.2) ** 2 + 0.01 * rng.normal(size=n)
    if g >= 5:
        values[4] = -values[3]
    return ExpressionMatrix(
        gene_ids=[f"G{i:02d}" for i in range(g)],
        sample_ids=[f"S{j:03d}" for j in range(n)],
        values=values,
    )


def screen_inputs(matrix, d1, d2):
    copulas = [empirical_copula(row) for row in matrix.values]
    planes = [binary_expansion(c, max(d1, d2)) for c in copulas]
    u = [binary_expansion(c, d1) for c in copulas]
    v = [binary_expansion(c, d2) for c in copulas]
    return planes, u, v


def reference(matrix, u, v, mode, m_pairs):
    """Every pair's max_bet result, adjusted across m_pairs, in pair order."""
    g = matrix.n_genes
    return [
        (
            matrix.gene_ids[i],
            matrix.gene_ids[j],
            max_bet(u[i], v[j], mode).with_pair_adjustment(m_pairs),
        )
        for i in range(g)
        for j in range(i + 1, g)
    ]


shapes = st.tuples(
    st.integers(2, 7),  # genes
    st.integers(4, 200),  # samples
    st.integers(1, 4),  # d1
    st.integers(1, 4),  # d2
    st.integers(0, 2**32 - 1),  # seed
)


@PROPERTY
@given(shape=shapes, mode=st.sampled_from(["exact", "approx"]))
def test_emit_all_matches_max_bet_on_every_pair(shape, mode):
    g, n, d1, d2, seed = shape
    matrix = make_matrix(g, n, seed)
    planes, u, v = screen_inputs(matrix, d1, d2)
    config = ScreenConfig(d1=d1, d2=d2, mode=mode, emit_all=True)
    expected = reference(matrix, u, v, mode, g * (g - 1) // 2)
    results, summary = screen_all_pairs(planes, matrix.gene_ids, config)
    assert rows(results) == expected
    assert summary.total_pairs == len(expected)


@PROPERTY
@given(
    shape=shapes,
    mode=st.sampled_from(["exact", "approx"]),
    alpha=st.sampled_from([1e-6, 0.01, 0.05, 0.5]),
    data=st.data(),
)
def test_significant_rows_are_exactly_the_reference_hits(shape, mode, alpha, data):
    g, n, d1, d2, seed = shape
    n += (-n) % max(4, 1 << max(d1, d2))  # the exact null throughout
    matrix = make_matrix(g, n, seed)
    planes, u, v = screen_inputs(matrix, d1, d2)
    labels = sorted({bid_class_of(b).label for b in all_bids(d1, d2)})
    chosen = data.draw(st.none() | st.sets(st.sampled_from(labels), min_size=1))
    bid_filter = None if chosen is None else frozenset(chosen)
    config = ScreenConfig(d1=d1, d2=d2, mode=mode, alpha=alpha, bid_filter=bid_filter)
    expected = [
        (gene_i, gene_j, result)
        for gene_i, gene_j, result in reference(matrix, u, v, mode, g * (g - 1) // 2)
        if result.p_pair_adjusted <= alpha
        and (bid_filter is None or result.bid_class.label in bid_filter)
    ]
    results, summary = screen_all_pairs(planes, matrix.gene_ids, config)
    assert rows(results) == expected
    assert summary.significant_pairs == len(expected)
    counts: dict[str, int] = {}
    for _, _, result in expected:
        label = result.bid_class.label
        counts[label] = counts.get(label, 0) + 1
    assert summary.class_counts == counts


def test_tied_maximum_goes_to_lowest_canonical_interaction():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(400):
        x, y = rng.permutation(16) + 1.0, rng.permutation(16) + 1.0
        u = binary_expansion(empirical_copula(x), 2)
        v = binary_expansion(empirical_copula(y), 2)
        stats = all_symmetry_statistics(u, v)
        top = max(abs(st.s) for st in stats)
        tied = [st.bid for st in stats if abs(st.s) == top]
        # a tie the first interaction (A1B1) is not part of
        if len(tied) < 2 or tied[0] == stats[0].bid:
            continue
        results, _ = screen_all_pairs([u, v], ["X", "Y"], ScreenConfig(emit_all=True))
        (_, _, first), = rows(results)
        assert first.bid == min(tied)
        assert abs(first.s) == top
        checked += 1
    assert checked >= 5


@settings(max_examples=15, deadline=None)
@given(
    g=st.integers(2, 40),
    n=st.integers(4, 130),
    seed=st.integers(0, 2**32 - 1),
    emit_all=st.booleans(),
)
def test_csv_identical_for_one_two_three_workers(
    tmp_path_factory, g, n, seed, emit_all
):
    matrix = make_matrix(g, n, seed)
    planes, _, _ = screen_inputs(matrix, 2, 2)
    out = tmp_path_factory.mktemp("workers")
    csvs = []
    for workers in (1, 2, 3):
        results, _ = screen_all_pairs(
            planes,
            matrix.gene_ids,
            ScreenConfig(emit_all=emit_all, worker_count=workers),
        )
        path = out / f"w{workers}.csv"
        write_results_csv(results, path)
        csvs.append(path.read_bytes())
    assert csvs[0] == csvs[1] == csvs[2]


@pytest.mark.parametrize("mode", ["exact", "approx", "permutation"])
@pytest.mark.parametrize("d1, d2", [(1, 3), (3, 1), (2, 4), (4, 2)])
@pytest.mark.parametrize("band, tile", [(1, 1), (3, 3), (5, 7)])
def test_band_and_tile_sizes_change_no_byte(
    monkeypatch, tmp_path, band, tile, d1, d2, mode
):
    # 12 genes, 11 of them with later partners: 3, 5 and 7 divide neither
    # count, so bands and tiles end short, and the emitted-pair statistics
    # XOR one pair a step
    matrix = make_matrix(12, 100, 5)
    planes, u, v = screen_inputs(matrix, d1, d2)
    config = ScreenConfig(
        d1=d1, d2=d2, mode=mode, emit_all=True, permutation_iterations=199
    )

    def outputs(results, name):
        path = tmp_path / f"{name}.csv"
        write_results_csv(results, path)
        lines = "".join(screen.all_bid_diagnostics(planes, matrix.gene_ids, results))
        compared = screen.compare_runs(
            results, dict(zip(matrix.gene_ids, planes)), "Linear"
        )
        return path.read_bytes(), lines, compared

    default, _ = screen_all_pairs(planes, matrix.gene_ids, config)
    expected_outputs = outputs(default, "default")
    monkeypatch.setattr(stats, "_XOR_WORDS", 1)
    expected = reference(matrix, u, v, "exact" if mode == "permutation" else mode, 66)

    # p_raw of a permutation screen is a draw, which max_bet makes from
    # another stream
    def winners(found):
        return [(a, b, r.bid, r.s) for a, b, r in found]

    # two partner genes to a float32 column at n = 100, and one once the
    # limit is lowered below n; bands of band genes, and of 2 * band + 1,
    # longer than the tile
    limit = screen._PACKED_SAMPLES
    for packed, genes in itertools.product((limit, 0), (band, 2 * band + 1)):
        monkeypatch.setattr(screen, "_PACKED_SAMPLES", packed)
        monkeypatch.setattr(screen, "_band_sizes", lambda ma, mb: (genes, tile))
        results, _ = screen_all_pairs(planes, matrix.gene_ids, config)
        if mode == "permutation":
            assert winners(rows(results)) == winners(expected)
        else:
            assert rows(results) == expected
        assert outputs(results, f"sized{packed}-{genes}") == expected_outputs


def graded_matrix(g, n, seed):
    """make_matrix, and gene 2k + 1 following gene 2k ever more loosely."""
    matrix = make_matrix(g, n, seed)
    rng = np.random.default_rng(seed)
    for k in range(3, g // 2):
        noise = rng.normal(size=n) * 0.12 * (k - 2)
        matrix.values[2 * k + 1] = matrix.values[2 * k] + noise
    return matrix


def check_significant_rows_against_emit_all(matrix, planes, d1, d2, mode, bid_filter):
    """A significant-only screen keeps the emit-all rows with p_pair_adj <= alpha.

    alpha runs over every p_pair_adj below 1 of the emit-all rows, so each
    is the boundary once: rows at it are kept, the rows of the next larger
    p are not.  In approx mode p falls strictly with |S|, so the least kept
    |S| is the winning |S| of the rows at alpha.  In exact mode it is one
    above the next attainable size, which the rows of the next p hold.
    """
    config = ScreenConfig(d1=d1, d2=d2, mode=mode, emit_all=True)
    every = rows(screen_all_pairs(planes, matrix.gene_ids, config)[0])
    alphas = sorted({r.p_pair_adjusted for _, _, r in every} - {1.0})
    assert alphas  # the planted pairs pass some alpha
    for alpha in alphas:
        config = ScreenConfig(
            d1=d1, d2=d2, mode=mode, alpha=alpha, bid_filter=bid_filter
        )
        expected = [
            (a, b, r)
            for a, b, r in every
            if r.p_pair_adjusted <= alpha
            and (bid_filter is None or r.bid_class.label in bid_filter)
        ]
        results, summary = screen_all_pairs(planes, matrix.gene_ids, config)
        assert rows(results) == expected
        assert summary.significant_pairs == len(expected)


@settings(max_examples=25, deadline=None)
@given(
    g=st.integers(12, 18),
    n=st.integers(40, 160),
    depths=st.sampled_from([(2, 2), (1, 3)]),
    mode=st.sampled_from(["exact", "approx"]),
    packed=st.booleans(),
    sizes=st.tuples(st.integers(1, 7), st.integers(1, 5)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_significant_rows_are_the_emit_all_rows_that_pass(
    g, n, depths, mode, packed, sizes, seed, data
):
    # small bands and tiles, so most blocks lie off the diagonal,
    # where only the rows that reach the least kept |S| get winner keys
    d1, d2 = depths
    matrix = graded_matrix(g, n, seed)
    planes, _, _ = screen_inputs(matrix, d1, d2)
    labels = sorted({bid_class_of(b).label for b in all_bids(d1, d2)})
    chosen = data.draw(st.none() | st.sets(st.sampled_from(labels), min_size=1))
    bid_filter = None if chosen is None else frozenset(chosen)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(screen, "_band_sizes", lambda ma, mb: sizes)
        if not packed:
            patch.setattr(screen, "_PACKED_SAMPLES", 0)
        check_significant_rows_against_emit_all(
            matrix, planes, d1, d2, mode, bid_filter
        )


def test_significant_rows_with_int64_winner_keys_are_the_emit_all_rows_that_pass(
    monkeypatch,
):
    # depth 5 at n = 8224: int64 keys, one partner a column
    matrix = graded_matrix(12, 8224, 13)
    planes, _, _ = screen_inputs(matrix, 5, 5)
    assert screen._Winners(31, 31, 8224).dtype == np.int64
    monkeypatch.setattr(screen, "_band_sizes", lambda ma, mb: (5, 3))
    check_significant_rows_against_emit_all(matrix, planes, 5, 5, "exact", None)


# two partners a column, and then one: x_hi is dropped, so rows 3, 6 and 7,
# which reach least only in x_hi, are not flagged
@pytest.mark.parametrize("n, flagged", [(100, [3, 4, 5, 6, 7, 8]), (3000, [4, 5, 8])])
def test_reaching_flags_exactly_the_rows_with_some_size_at_least(n, flagged):
    least = 37
    products = screen._SignProducts(np.zeros((3, 2, -(-n // 64)), np.uint64), n, 3, 3)
    rng = np.random.default_rng(n)
    lo, hi = rng.integers(1 - least, least, size=(2, 12, 3, 3, 4))
    lo[0, 0, 0, 0] = hi[0, 0, 0, 0] = least - 1
    lo[1, 2, 1, 3] = hi[1, 2, 1, 3] = 1 - least
    # the largest |y| below the bound, and the least |y| at or above it
    lo[2, 1, 2, 0], hi[2, 1, 2, 0] = least - 1, least - 1
    lo[3, 1, 2, 0], hi[3, 1, 2, 0] = 1 - least, least
    lo[4, 0, 0, 3] = least
    lo[5, 2, 2, 1] = -least
    hi[6, 1, 0, 2] = least
    hi[7, 0, 1, 0] = -least
    lo[8] = 0
    lo[8, 0, 2, 2] = n  # |x_lo| is at most n
    y = lo + products.scale * hi if products.pack == 2 else lo
    assert products.reaching(y.astype(np.float32), least).tolist() == flagged


@pytest.mark.parametrize(
    "n, dtype",
    [(1000, np.float32), (1 << 20, np.int64), ((1 << 24) - 1, np.int64)],
)
def test_winner_key_keeps_first_maximum_and_sign_at_depth_4(n, dtype):
    # 225 interactions; n picks a key type that the largest key fits
    winners = screen._Winners(15, 15, n)
    assert winners.dtype == dtype
    rng = np.random.default_rng(n)
    tied = rng.choice([-n, n], size=225)  # all tied at |x| = n, mixed signs
    mixed = rng.integers(-n // 2, n // 2, size=225)
    mixed[[40, 90, 200]] = [n - 2, -(n - 2), n - 2]  # first maximum at 40
    last = np.full(225, n - 4)
    last[-1] = -n  # a lone maximum in last place
    dots = np.stack([tied, -tied, mixed, -mixed, last]).astype(np.float32)
    # the keys of 5 rows and 1 column go into column 1 of a wider array,
    # a strided view, as a tile's keys go into a band's key rows; keys()
    # overwrites the dots (rows, a_mask, b_mask, cols) it is given, so it
    # gets a copy
    tile = dots.reshape(5, 15, 15, 1).copy()
    wide = np.full((5, 3), -7, winners.dtype)
    winners.keys(tile, wide[:, 1:2])
    assert (wide[:, [0, 2]] == -7).all()
    t, x = winners.decode(wide[:, 1])
    first = np.abs(dots).argmax(1)
    assert t.tolist() == first.tolist() == [0, 0, 40, 40, 224]
    assert x.tolist() == dots[np.arange(5), first].tolist()


def test_screen_with_int64_winner_keys_matches_max_bet():
    # at depth 5 and n = 8224 the largest key passes 2^24
    assert screen._Winners(31, 31, 8224).dtype == np.int64
    matrix = make_matrix(4, 8224, 9)
    planes, u, v = screen_inputs(matrix, 5, 5)
    config = ScreenConfig(d1=5, d2=5, emit_all=True)
    results, _ = screen_all_pairs(planes, matrix.gene_ids, config)
    assert rows(results) == reference(matrix, u, v, "exact", 6)


def test_packed_partial_sums_fit_float32_up_to_the_limit():
    # every partial sum of a packed product is at most n (M + 1), with M
    # the least power of two above 2n
    def bound(n):
        return n * ((1 << (2 * n).bit_length()) + 1)

    limit = screen._PACKED_SAMPLES
    assert bound(limit) <= screen._FLOAT32_EXACT < bound(limit + 1)
    assert screen._SignProducts(np.zeros((3, 2, 32), np.uint64), limit, 3, 3).pack == 2
    assert screen._SignProducts(np.zeros((3, 2, 33), np.uint64), limit + 1, 3, 3).pack == 1


@pytest.mark.parametrize("n, pack", [(2047, 2), (2048, 1)])
def test_screen_at_the_pack_limit_matches_max_bet(n, pack):
    # 12 genes: gene 0 has 11 partners, so a tile of them packs 6 columns
    # of which 5 carry two genes.  Genes 1 and 7 copy gene 0 and genes 2
    # and 8 negate it, so at the factor 2 columns 0 and 1 of gene 0's row
    # hold |S| = n (n - 2 for a negation at odd n) for both of their
    # genes: partial sums up to n (M + 1)
    matrix = make_matrix(12, n, 11)
    values = matrix.values
    values[[1, 7]] = values[0]
    values[[2, 8]] = -values[0]
    planes, u, v = screen_inputs(matrix, 2, 2)
    combos = np.zeros((3, 2, planes[0].planes.shape[1]), np.uint64)
    assert screen._SignProducts(combos, n, 3, 3).pack == pack
    for mode in ("exact", "approx"):
        config = ScreenConfig(mode=mode, emit_all=True)
        results, _ = screen_all_pairs(planes, matrix.gene_ids, config)
        assert rows(results) == reference(matrix, u, v, mode, 66)
    found = {(a, b): r.s for a, b, r in rows(results)}
    assert found["G00", "G01"] == found["G00", "G07"] == n
    assert found["G00", "G02"] == found["G00", "G08"] <= 2 - n


def test_sample_count_too_large_for_float32_refused():
    screen._check_exact_products((1 << 24) - 1)
    with pytest.raises(BetscanError, match="n = 16777216 samples"):
        screen._check_exact_products(1 << 24)


def test_permutation_screen_within_binomial_error_of_exact():
    # each row's Monte Carlo count is Binomial(iterations, exact tail)
    iterations = 2000
    matrix = make_matrix(20, 100, 3)
    planes, _, _ = screen_inputs(matrix, 2, 2)
    config = ScreenConfig(
        mode="permutation", permutation_iterations=iterations, emit_all=True, seed=4
    )
    results, _ = screen_all_pairs(planes, matrix.gene_ids, config)
    index = {gene: k for k, gene in enumerate(matrix.gene_ids)}
    assert len(results) == 190
    for gene_i, gene_j, result in rows(results):
        u, v = planes[index[gene_i]], planes[index[gene_j]]
        exact = max_bet(u, v, "exact").p_raw
        se = np.sqrt(exact * (1 - exact) / iterations)
        assert result.method == "permutation" and result.approximate
        assert abs(result.p_raw - exact) <= 5 * se + 1 / (1 + iterations)
