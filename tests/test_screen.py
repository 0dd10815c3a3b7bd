import csv
import dataclasses
import hashlib
import io
import os
import tracemalloc

import numpy as np
import pytest

from betscan.core import (
    all_bids,
    all_symmetry_statistics,
    bid_class_of,
    binary_expansion,
    empirical_copula,
    max_bet,
    symmetry_statistic,
)
from betscan.core.bids import class_members
from betscan.errors import (
    BetscanError,
    EmptyIntersectionError,
    NonFiniteError,
    TiesPresentError,
    TooFewSamplesError,
)
from betscan import screen
from betscan.preprocess import ExpressionMatrix
from betscan.screen import (
    RESULT_COLUMNS,
    ScreenConfig,
    all_bid_diagnostics,
    compare_runs,
    precompute_bitplanes,
    precompute_copulas,
    read_results_csv,
    screen_all_pairs,
    top_k_genes,
    write_diagnostics_csv,
    write_results_csv,
)

from ._oracles import all_quadrant_stats, empirical_copula_oracle, rows
from ._synth import make_parabola


def matrix_from(values):
    values = np.asarray(values, dtype=float)
    return ExpressionMatrix(
        gene_ids=[f"G{i:03d}" for i in range(values.shape[0])],
        sample_ids=[f"S{j:03d}" for j in range(values.shape[1])],
        values=values,
    )


def random_matrix(g, n, seed):
    rng = np.random.default_rng(seed)
    return matrix_from(rng.normal(size=(g, n)))


def test_ranking_errors_name_the_gene():
    m = random_matrix(4, 16, 17)
    m.values[2, 5] = m.values[2, 0]
    with pytest.raises(TiesPresentError) as err:
        precompute_bitplanes(m, 2)
    assert err.value.gene == "G002"
    assert "'G002' has tied values" in str(err.value)
    m.values[2, 5] = np.nan
    with pytest.raises(NonFiniteError) as err:
        precompute_copulas(m)
    assert err.value.gene == "G002"
    assert err.value.index == 5
    assert "'G002' has non-finite value" in str(err.value)


@pytest.mark.parametrize("extra", [-1, 0, 1, screen._RANK_GENES + 1])
@pytest.mark.parametrize("n", [4, 64, 65, 817])
def test_block_ranks_and_planes_match_each_gene(extra, n):
    g = screen._RANK_GENES + extra
    m = random_matrix(g, n, g * n)
    m.values[1] *= -1e-300  # tiny and negative values, and a signed zero
    m.values[2, 3] = -0.0
    columns = precompute_copulas(m)
    planes = precompute_bitplanes(m, 3)
    assert len(columns) == len(planes) == g
    for values, col, plane in zip(m.values, columns, planes):
        single = empirical_copula_oracle(values)
        assert np.array_equal(col.ranks, single.ranks)
        assert col.ranks.dtype == single.ranks.dtype
        assert plane == binary_expansion(single, 3)
        assert not plane.planes.flags.writeable


@pytest.mark.parametrize(
    "fault, error",
    [
        ("tie", TiesPresentError),
        ("nan", NonFiniteError),
        ("inf", NonFiniteError),
        ("zeros", TiesPresentError),  # 0.0 and -0.0 tie
    ],
)
def test_fault_in_a_later_block_names_the_first_gene(fault, error):
    m = random_matrix(3 * screen._RANK_GENES, 40, 5)
    first, second = screen._RANK_GENES + 3, screen._RANK_GENES + 9
    for g in (first, second, 2 * screen._RANK_GENES + 1):
        if fault == "tie":
            m.values[g, 7] = m.values[g, 30]
        elif fault == "zeros":
            m.values[g, 7], m.values[g, 30] = 0.0, -0.0
        else:
            m.values[g, 30] = float(fault)
    for precompute in (precompute_copulas, lambda m: precompute_bitplanes(m, 2)):
        with pytest.raises(error) as err:
            precompute(m)
        assert err.value.gene == m.gene_ids[first]
        with pytest.raises(error) as direct:
            empirical_copula_oracle(m.values[first], m.gene_ids[first])
        assert str(err.value) == str(direct.value)


def test_bad_depth_or_too_few_samples_fail_as_for_one_gene():
    m = random_matrix(40, 3, 1)
    with pytest.raises(TooFewSamplesError, match="at least 4 observations, got 3"):
        precompute_bitplanes(m, 2)
    m = random_matrix(40, 16, 1)
    with pytest.raises(ValueError, match="depth must be >= 1"):
        precompute_bitplanes(m, 0)
    m.values[33, 1] = m.values[33, 2]
    with pytest.raises(BetscanError, match="exceeds the cap"):
        precompute_bitplanes(m, 17)
    assert precompute_bitplanes(matrix_from(np.empty((0, 8))), 0) == []


def test_precompute_shapes_and_purity():
    m = random_matrix(10, 64, 1)
    planes = precompute_bitplanes(m, 2)
    assert len(planes) == 10
    assert all(p.depth == 2 and p.n == 64 for p in planes)
    single = binary_expansion(empirical_copula(m.values[4]), 2)
    assert single == planes[4]
    shuffled = ExpressionMatrix(
        gene_ids=list(reversed(m.gene_ids)),
        sample_ids=m.sample_ids,
        values=m.values[::-1].copy(),
    )
    assert precompute_bitplanes(shuffled, 2)[::-1] == planes


def test_pair_count():
    m = random_matrix(100, 16, 2)
    planes = precompute_bitplanes(m, 2)
    results, summary = screen_all_pairs(
        planes, m.gene_ids, ScreenConfig(emit_all=True)
    )
    assert summary.total_pairs == 4950
    assert len(results) == 4950


def test_duplicated_genes_win_linear_with_full_s():
    m = random_matrix(5, 64, 3)
    m.values[2] = m.values[0]
    planes = precompute_bitplanes(m, 2)
    results, _ = screen_all_pairs(planes, m.gene_ids, ScreenConfig())
    hits = [
        result
        for gene_i, gene_j, result in rows(results)
        if (gene_i, gene_j) == ("G000", "G002")
    ]
    assert len(hits) == 1
    assert hits[0].bid_class.label == "Linear"
    assert hits[0].s == 64


def test_null_matrix_family_wise_false_positives():
    # 20 independent replicate screens; expect <= 3 runs with any rejection
    fp_runs = 0
    for rep in range(20):
        m = random_matrix(50, 64, 100 + rep)
        planes = precompute_bitplanes(m, 2)
        _, summary = screen_all_pairs(planes, m.gene_ids, ScreenConfig(alpha=0.05))
        fp_runs += summary.significant_pairs > 0
    assert fp_runs <= 3


def test_output_deterministic_across_worker_counts():
    m = random_matrix(24, 64, 5)
    m.values[1] = m.values[0] + 0.0  # one guaranteed hit
    planes = precompute_bitplanes(m, 2)
    runs = {}
    for workers in (1, 2, 4, 16):
        results, _ = screen_all_pairs(
            planes, m.gene_ids, ScreenConfig(worker_count=workers, emit_all=True)
        )
        runs[workers] = rows(results)
    assert runs[1] == runs[2] == runs[4] == runs[16]


def test_permutation_csv_identical_across_worker_counts(tmp_path):
    m = random_matrix(24, 40, 8)
    m.values[1] = m.values[0] + 0.0  # one pair far in the tail
    planes = precompute_bitplanes(m, 2)
    ranks = precompute_copulas(m)

    def csv_bytes(workers, seed):
        config = ScreenConfig(
            mode="permutation",
            permutation_iterations=199,
            emit_all=True,
            worker_count=workers,
            seed=seed,
        )
        results, _ = screen_all_pairs(planes, m.gene_ids, config, ranks)
        path = tmp_path / f"w{workers}-s{seed}.csv"
        write_results_csv(results, path)
        return path.read_bytes()

    one = csv_bytes(1, 7)
    assert csv_bytes(2, 7) == one
    assert csv_bytes(4, 7) == one
    assert csv_bytes(1, 7) == one
    # the p-values follow the seed, so the identity above is not vacuous
    assert csv_bytes(1, 8) != one


@pytest.mark.parametrize(
    "field, value",
    [("alpha", 0.0), ("mode", "binomial"), ("worker_count", 0),
     ("permutation_iterations", 0), ("permutation_iterations", -5),
     ("seed", -1), ("seed", 1 << 64), ("bid_filter", frozenset())],
)
def test_screen_config_refuses_bad_values(field, value):
    with pytest.raises(ValueError, match=field.split("_")[0]):
        ScreenConfig(**{field: value})


def test_csv_round_trip_and_byte_identity(tmp_path):
    m = random_matrix(12, 64, 6)
    m.values[3] = -m.values[7]
    planes = precompute_bitplanes(m, 2)
    results, _ = screen_all_pairs(planes, m.gene_ids, ScreenConfig(emit_all=True))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(results, p1)
    write_results_csv(results, p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = read_results_csv(p1, n=64)
    assert len(loaded) == len(results)
    for have, want in zip(rows(loaded), rows(results)):
        assert have[0] == want[0]
        assert have[2].bid == want[2].bid
        assert have[2].s == want[2].s
        assert have[2].p_raw == pytest.approx(want[2].p_raw, rel=1e-11)


def test_csv_quotes_gene_ids_as_csv_writer_does(tmp_path):
    # a gene id alone in a csv row would be written as "" when empty, so
    # the writer must format each id as a field among others
    ids = ["a,b", 'say "hi"', " lead", "", "two\nlines", "plain"]
    m = random_matrix(len(ids), 64, 9)
    m = ExpressionMatrix(gene_ids=ids, sample_ids=m.sample_ids, values=m.values)
    results, _ = screen_all_pairs(
        precompute_bitplanes(m, 2), m.gene_ids, ScreenConfig(emit_all=True)
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    writer.writerows(
        [
            gene_i,
            gene_j,
            r.bid.name,
            r.bid_class.label,
            str(r.s),
            *(
                f"{x:.12g}"
                for x in (r.z, r.p_raw, r.p_bid_adjusted, r.p_pair_adjusted)
            ),
            "true" if r.approximate else "false",
            r.method,
        ]
        for gene_i, gene_j, r in rows(results)
    )
    path = tmp_path / "results.csv"
    write_results_csv(results, path)
    assert path.read_bytes() == buf.getvalue().encode("utf-8")
    again = tmp_path / "again.csv"
    write_results_csv(read_results_csv(path), again)
    assert again.read_bytes() == path.read_bytes()


# sha256 of emit-all CSVs written by the release that built a list of
# PairResult objects and wrote it row by row with csv.writer; the
# permutation one by the release that drew each row's Monte Carlo counts
# from the exact tails, one Philox stream per row
PINNED_CSVS = {
    # (genes, samples, depth, mode, matrix seed)
    (30, 64, 2, "exact", 21): (
        "f7b1cfd75b8d4dc496d5c082b64f63ddbd9047dfa320b8cbf5e1ef4ee1752301"
    ),
    (16, 70, 3, "approx", 22): (
        "61085aa47a6eee45dfc5f05897f8026052964f2132f5195b57aad1c007726cee"
    ),
    (12, 40, 2, "permutation", 23): (
        "89f75e1d500ccc6a40fe55513be7868a265a4060dc855f809b3a43d95d569772"
    ),
}


def pinned_csv(tmp_path, shape):
    g, n, depth, mode, seed = shape
    m = random_matrix(g, n, seed)
    m.values[1] = m.values[0] ** 2  # one pair far in the tail
    config = ScreenConfig(
        d1=depth,
        d2=depth,
        mode=mode,
        emit_all=True,
        permutation_iterations=199,
        seed=5,
    )
    ranks = precompute_copulas(m) if mode == "permutation" else None
    results, _ = screen_all_pairs(
        precompute_bitplanes(m, depth), m.gene_ids, config, ranks
    )
    path = tmp_path / "results.csv"
    write_results_csv(results, path)
    return path


@pytest.mark.parametrize("shape, digest", PINNED_CSVS.items())
def test_emit_all_csv_bytes_pinned(tmp_path, shape, digest):
    path = pinned_csv(tmp_path, shape)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("shape", PINNED_CSVS)
def test_read_then_write_gives_identical_bytes(tmp_path, shape):
    path = pinned_csv(tmp_path, shape)
    again = tmp_path / "again.csv"
    write_results_csv(read_results_csv(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_failed_write_leaves_no_partial_csv(tmp_path, monkeypatch):
    m = random_matrix(40, 64, 12)
    results, _ = screen_all_pairs(
        precompute_bitplanes(m, 2), m.gene_ids, ScreenConfig(emit_all=True)
    )
    # the last row names a table entry that does not exist, so the write
    # fails after several chunks
    monkeypatch.setattr(screen, "_CHUNK_ROWS", 100)
    k = results.k.copy()
    k[-1] = len(results.table)
    broken = dataclasses.replace(results, k=k)
    path = tmp_path / "results.csv"
    with pytest.raises(IndexError):
        write_results_csv(broken, path)
    assert os.listdir(tmp_path) == []
    write_results_csv(results, path)
    earlier = path.read_bytes()
    with pytest.raises(IndexError):
        write_results_csv(broken, path)
    assert os.listdir(tmp_path) == ["results.csv"]
    assert path.read_bytes() == earlier


def test_emit_all_rows_retain_few_bytes():
    m = random_matrix(200, 64, 4)
    planes = precompute_bitplanes(m, 2)
    config = ScreenConfig(emit_all=True)
    # fills the null tables and module caches, which are not per row
    screen_all_pairs(planes[:20], m.gene_ids[:20], config)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results, _ = screen_all_pairs(planes, m.gene_ids, config)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(results) == 19_900
    assert retained / len(results) < 32


def test_summary_counts_match_stream_recount():
    m = random_matrix(30, 64, 7)
    m.values[1] = m.values[0]
    m.values[5] = -m.values[4]
    planes = precompute_bitplanes(m, 2)
    results, summary = screen_all_pairs(planes, m.gene_ids, ScreenConfig())
    recount: dict[str, int] = {}
    for _, _, r in rows(results):
        if r.p_pair_adjusted <= summary.alpha:
            lab = r.bid_class.label
            recount[lab] = recount.get(lab, 0) + 1
    assert recount == summary.class_counts
    assert sum(recount.values()) == summary.significant_pairs


def test_m_pairs_override_only_upward():
    m = random_matrix(6, 16, 8)
    planes = precompute_bitplanes(m, 2)
    with pytest.raises(BetscanError, match="m_pairs=10 below the 15 pairs"):
        screen_all_pairs(planes, m.gene_ids, ScreenConfig(m_pairs=10))
    _, summary = screen_all_pairs(
        planes, m.gene_ids, ScreenConfig(m_pairs=138_020_805)
    )
    assert summary.m_pairs == 138_020_805


def test_duplicate_gene_ids_refused():
    m = random_matrix(3, 16, 8)
    planes = precompute_bitplanes(m, 2)
    with pytest.raises(ValueError, match="gene ids must be distinct"):
        screen_all_pairs(planes, ["G0", "G1", "G0"], ScreenConfig())


def test_bid_filter_restricts_output():
    rng = np.random.default_rng(9)
    values = []
    for _ in range(6):
        x, y = make_parabola(64, rng)
        values.extend([x, y])
    m = matrix_from(np.array(values))
    planes = precompute_bitplanes(m, 2)
    all_results, _ = screen_all_pairs(planes, m.gene_ids, ScreenConfig())
    filtered, summary = screen_all_pairs(
        planes, m.gene_ids, ScreenConfig(bid_filter=frozenset({"Parabolic"}))
    )
    assert len(filtered)
    assert all(r.bid_class.label == "Parabolic" for _, _, r in rows(filtered))
    expected = [
        row for row in rows(all_results) if row[2].bid_class.label == "Parabolic"
    ]
    assert rows(filtered) == expected
    assert set(summary.class_counts) <= {"Parabolic"}


def test_subset_coherence():
    # screening a sample subset == screening the matrix restricted to it
    m = random_matrix(8, 48, 10)
    keep = np.arange(48) % 2 == 0
    sub = ExpressionMatrix(
        gene_ids=m.gene_ids,
        sample_ids=[s for s, k in zip(m.sample_ids, keep) if k],
        values=m.values[:, keep],
    )
    a, _ = screen_all_pairs(
        precompute_bitplanes(sub, 2), sub.gene_ids, ScreenConfig(emit_all=True)
    )
    b, _ = screen_all_pairs(
        precompute_bitplanes(
            matrix_from(m.values[:, keep]), 2
        ),
        m.gene_ids,
        ScreenConfig(emit_all=True),
    )
    assert rows(a) == rows(b)


def test_top_k_genes():
    m = random_matrix(10, 64, 11)
    m.values[1] = m.values[0]          # z = 8 pair
    m.values[3] = m.values[2] * 0.9    # another strong pair
    planes = precompute_bitplanes(m, 2)
    results, _ = screen_all_pairs(planes, m.gene_ids, ScreenConfig())
    top = top_k_genes(results, k=3)
    assert [g for g, _ in top][:2] == ["G000", "G001"]
    everything = top_k_genes(results, k=100)
    assert len(everything) <= 10
    # brute-force re-scan agreement
    best = {}
    for gene_i, gene_j, r in rows(results):
        for g in (gene_i, gene_j):
            best[g] = max(best.get(g, 0.0), r.z)
    assert dict(everything) == best


def test_top_k_ties_break_by_gene_id():
    m = random_matrix(6, 32, 12)
    m.values[3] = m.values[2]
    m.values[5] = m.values[4]
    planes = precompute_bitplanes(m, 2)
    results, _ = screen_all_pairs(planes, m.gene_ids, ScreenConfig())
    top = top_k_genes(results, k=4)
    zs = [z for _, z in top]
    assert zs == sorted(zs, reverse=True)
    genes = [g for g, z in top if z == zs[0]]
    assert genes == sorted(genes)


def test_compare_runs_identity_diagonal():
    m = random_matrix(8, 64, 13)
    m.values[1] = m.values[0]
    m.values[3] = (m.values[2] - m.values[2].mean()) ** 2
    planes = precompute_bitplanes(m, 2)
    results, _ = screen_all_pairs(planes, m.gene_ids, ScreenConfig(emit_all=True))
    planes_b = dict(zip(m.gene_ids, planes))
    for label in ("Linear", "Parabolic"):
        for row in compare_runs(results, planes_b, label):
            assert row.flag == "ok"
            assert row.z_b == pytest.approx(row.z_a, rel=1e-12)


def test_compare_runs_larger_sample_strengthens_z():
    rng = np.random.default_rng(14)
    small_rows, big_rows = [], []
    for _ in range(10):
        x, y = make_parabola(128, rng)
        small_rows.extend([x, y])
        x2, y2 = make_parabola(256, rng)
        big_rows.extend([x2, y2])
    small = matrix_from(np.array(small_rows))
    big = matrix_from(np.array(big_rows))
    results_a, _ = screen_all_pairs(
        precompute_bitplanes(small, 2), small.gene_ids, ScreenConfig()
    )
    planes_b = dict(zip(big.gene_ids, precompute_bitplanes(big, 2)))
    rows = compare_runs(results_a, planes_b, "Parabolic")
    assert rows
    za = np.median([r.z_a for r in rows])
    zb = np.median([r.z_b for r in rows])
    assert zb > za


def test_compare_runs_missing_gene_flagged():
    m = random_matrix(6, 64, 15)
    m.values[1] = m.values[0]
    planes = precompute_bitplanes(m, 2)
    results, _ = screen_all_pairs(planes, m.gene_ids, ScreenConfig())
    partial = ExpressionMatrix(
        gene_ids=m.gene_ids[:1] + m.gene_ids[2:],
        sample_ids=m.sample_ids,
        values=np.vstack([m.values[:1], m.values[2:]]),
    )
    planes_b = dict(zip(partial.gene_ids, precompute_bitplanes(partial, 2)))
    rows = compare_runs(results, planes_b, "Linear")
    flagged = [r for r in rows if r.flag == "missing_in_b"]
    assert flagged
    assert all(np.isnan(r.z_b) for r in flagged)


def test_compare_runs_empty_intersection():
    m = random_matrix(4, 64, 16)
    m.values[1] = m.values[0]
    planes = precompute_bitplanes(m, 2)
    results, _ = screen_all_pairs(planes, m.gene_ids, ScreenConfig())
    with pytest.raises(EmptyIntersectionError):
        compare_runs(results, {}, "Linear")


def diagnostics_rows(planes, gene_ids, results, tmp_path):
    path = tmp_path / "results_all_bids.csv"
    write_diagnostics_csv(all_bid_diagnostics(planes, gene_ids, results), path)
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


QUOTED_IDS = ["a,b", 'say "hi"', " lead", "two\nlines", "plain", ""]


@pytest.mark.parametrize("emit_all", [True, False])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_all_bid_diagnostics_match_all_symmetry_statistics(tmp_path, depth, emit_all):
    m = random_matrix(14, 70, 30 + depth)
    m.values[1] = m.values[0] ** 2
    m.values[5] = -m.values[4]
    ids = QUOTED_IDS + m.gene_ids[len(QUOTED_IDS) :]
    m = ExpressionMatrix(gene_ids=ids, sample_ids=m.sample_ids, values=m.values)
    planes = precompute_bitplanes(m, depth)
    config = ScreenConfig(d1=depth, d2=depth, emit_all=emit_all, alpha=0.5)
    results, _ = screen_all_pairs(planes, m.gene_ids, config)
    assert 0 < len(results) <= 91
    path = tmp_path / "results.csv"
    write_results_csv(results, path)
    index = {gene: x for x, gene in enumerate(ids)}
    ranks = [empirical_copula_oracle(row).ranks for row in m.values]
    # the diagnostics and all_symmetry_statistics share their kernel, so
    # both are checked against the quadrant oracle
    # the reader numbers genes in first-seen order, not the matrix's
    for emitted in (results, read_results_csv(path)):
        lines = diagnostics_rows(planes, ids, emitted, tmp_path)
        assert lines[0] == ["gene_i", "gene_j", "bid", "bid_class", "s", "z"]
        expected = []
        for gene_i, gene_j, _ in rows(emitted):
            a, b = index[gene_i], index[gene_j]
            oracle = all_quadrant_stats(ranks[a], ranks[b], depth)
            statistics = all_symmetry_statistics(planes[a], planes[b])
            assert [(st.bid.a_mask, st.bid.b_mask, st.s) for st in statistics] == [
                (*key, s) for key, s in oracle.items()
            ]
            expected += [
                [gene_i, gene_j, st.bid.name, bid_class_of(st.bid).label,
                 str(st.s), f"{st.z:.12g}"]
                for st in statistics
            ]
        assert lines[1:] == expected
        assert len(expected) == len(emitted) * ((1 << depth) - 1) ** 2


# sha256 of a results_all_bids.csv written by the release that computed
# each row with all_symmetry_statistics and wrote it with csv.writer
PINNED_DIAGNOSTICS = (
    "36bf4a9cf5345438d0d3c308af7f9c8c4f4680eb8636b3eb04db19f7795a6437"
)


def test_all_bid_diagnostics_bytes_pinned(tmp_path):
    m = random_matrix(16, 70, 22)
    m.values[1] = m.values[0] ** 2
    m = ExpressionMatrix(
        gene_ids=QUOTED_IDS + m.gene_ids[len(QUOTED_IDS) :],
        sample_ids=m.sample_ids,
        values=m.values,
    )
    planes = precompute_bitplanes(m, 3)
    config = ScreenConfig(d1=3, d2=3, emit_all=True)
    results, _ = screen_all_pairs(planes, m.gene_ids, config)
    path = tmp_path / "results_all_bids.csv"
    write_diagnostics_csv(all_bid_diagnostics(planes, m.gene_ids, results), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_DIAGNOSTICS


@pytest.mark.parametrize("depth", [2, 3])
def test_compare_runs_takes_class_max_of_symmetry_statistic(depth):
    a = random_matrix(12, 64, 40 + depth)
    a.values[1] = a.values[0] ** 2
    a.values[3] = a.values[2]
    config = ScreenConfig(d1=depth, d2=depth, emit_all=True)
    results, _ = screen_all_pairs(precompute_bitplanes(a, depth), a.gene_ids, config)
    # run B lacks two genes and lists the others in another order
    b = random_matrix(12, 96, 50 + depth)
    keep = [x for x in range(12) if x not in (4, 7)][::-1]
    ids_b = [a.gene_ids[x] for x in keep]
    planes_b = dict(
        zip(
            ids_b,
            precompute_bitplanes(
                ExpressionMatrix(ids_b, b.sample_ids, b.values[keep]), depth
            ),
        )
    )
    labels = sorted({bid_class_of(bid).label for bid in all_bids(depth, depth)})
    other_winner = missing = 0
    for label in labels:
        members = class_members(label, depth, depth)
        expected = [
            (gene_i, gene_j, r.z)
            for gene_i, gene_j, r in rows(results)
            if r.bid_class.label == label
        ]
        compared = compare_runs(results, planes_b, label)
        assert [(r.gene_i, r.gene_j, r.z_a) for r in compared] == expected
        for row in compared:
            u, v = planes_b.get(row.gene_i), planes_b.get(row.gene_j)
            if u is None or v is None:
                assert row.flag == "missing_in_b" and np.isnan(row.z_b)
                missing += 1
                continue
            assert row.flag == "ok"
            assert row.z_b == max(symmetry_statistic(u, v, bid).z for bid in members)
            other_winner += max_bet(u, v).bid_class.label != label
    assert missing and other_winner


def test_read_results_csv_retains_few_bytes(tmp_path):
    m = random_matrix(200, 64, 4)
    results, _ = screen_all_pairs(
        precompute_bitplanes(m, 2), m.gene_ids, ScreenConfig(emit_all=True)
    )
    path = tmp_path / "results.csv"
    write_results_csv(results, path)
    read_results_csv(path, n=64)  # fills module caches, which are not per row
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = read_results_csv(path, n=64)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(loaded) == 19_900
    assert loaded.gene_ids == results.gene_ids
    assert retained / len(loaded) < 32


HEADER = ",".join(RESULT_COLUMNS)
ROW = "G0,G1,A1B1,Linear,64,8,1e-10,9e-10,1e-09,false,hypergeometric"


@pytest.mark.parametrize(
    "text, fault",
    [
        ("", "header '' is not"),
        ("gene_i,gene_j,s\nG0,G1,3\n", "header 'gene_i,gene_j,s' is not"),
        (f"{HEADER}\n{ROW}\nG0,G1,A1B1\n", "line 3: 3 cells, expected 11"),
        (f"{HEADER}\n{ROW.replace(',64,', ',6x4,')}\n", "line 2: column s: cannot parse '6x4'"),
        (f"{HEADER}\n{ROW.replace('A1B1', 'A1C1')}\n", "line 2: column bid: cannot parse 'A1C1'"),
        (f"{HEADER}\n{ROW.replace(',8,', ',1e-300,')}\n", "line 2: column z: "),
    ],
)
def test_read_results_csv_names_the_fault(tmp_path, text, fault):
    path = tmp_path / "results.csv"
    path.write_text(text)
    with pytest.raises(BetscanError) as err:
        read_results_csv(path)
    assert str(err.value).startswith(f"{path}: ")
    assert fault in str(err.value)
