"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test prints its own pass/fail line (visible with pytest -s / -rA) in
addition to the usual pytest verdict.  Every random suite is seeded, so a
given release either passes or fails reproducibly.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from betscan.baselines import ContingencyTable, chi_square_independence, format_pvalue
from betscan.cli import main
from betscan.core import (
    all_bids,
    all_symmetry_statistics,
    bid_class_of,
    binary_expansion,
    depth2_classes,
    empirical_copula,
    max_bet,
    pvalue_hypergeometric,
    z_score,
)
from betscan.preprocess import (
    ExpressionMatrix,
    jitter_minimum_ties,
    gene_stream_key,
    reset_median_imputed,
    run_pipeline,
    save_matrix,
)
from betscan.screen import (
    ScreenConfig,
    precompute_bitplanes,
    screen_all_pairs,
    write_results_csv,
)

from ._oracles import all_permutations, all_quadrant_stats, sign_vector
from ._synth import CLASS_GENERATORS

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"\n[criterion {num:02d}] {name}: PASS")


@pytest.fixture(scope="module")
def rank_pair_suite():
    """1000 random rank pairs, 250 at each n in {8, 16, 32, 64}."""
    rng = np.random.default_rng(20260810)
    suite = []
    for n in (8, 16, 32, 64):
        for _ in range(250):
            suite.append((n, rng.permutation(n) + 1, rng.permutation(n) + 1))
    return suite


def test_c01_z_score_anchors():
    with criterion(1, "z-score anchors and S reconstruction"):
        assert z_score(397, 817) == pytest.approx(13.89, abs=0.005)
        assert z_score(381, 817) == pytest.approx(13.33, abs=0.005)
        white, blue = 607, 210
        assert white + blue == 817
        assert white - blue == 397


def test_c02_chi_square_anchor():
    with criterion(2, "chi-square anchor on the published subtype counts"):
        table = ContingencyTable(
            row_labels=("Basal", "LumA", "LumB", "Her2"),
            col_labels=("region_1", "region_2", "region_3"),
            counts=np.array([[9, 8, 90], [86, 229, 6], [63, 37, 22], [10, 15, 16]]),
        )
        chi_square_independence(table)  # warm path before timing
        started = time.perf_counter()
        stat, dof, p = chi_square_independence(table)
        elapsed = time.perf_counter() - started
        assert dof == 6
        assert format_pvalue(p) == "< 2.2e-16"
        assert elapsed < 1e-3


def test_c03_bid_census_and_classes():
    with criterion(3, "interaction census and reflection classes"):
        u2 = binary_expansion(empirical_copula(np.arange(1.0, 17.0)), 2)
        assert len(all_symmetry_statistics(u2, u2)) == 9
        u3 = binary_expansion(empirical_copula(np.arange(1.0, 17.0)), 3)
        assert len(all_symmetry_statistics(u3, u3)) == 49
        classes = depth2_classes()
        assert len(classes) == 6
        members = sorted(b for c in classes for b in c.members)
        assert members == sorted(all_bids(2, 2))
        pairings = {
            "Parabolic": {"A1A2B1", "A1B1B2"},
            "W": {"A2B1", "A1B2"},
            "Linear": {"A1B1"},
            "Checkerboard": {"A2B2"},
            "FullCross": {"A1A2B1B2"},
            "LShape": {"A1A2B2", "A2B1B2"},
        }
        for cls in classes:
            assert {b.name for b in cls.members} == pairings[cls.label]


def test_c04_oracle_equivalence(rank_pair_suite):
    with criterion(4, "bit-parallel statistics equal the quadrant oracle"):
        started = time.perf_counter()
        for n, ur, vr in rank_pair_suite:
            u = binary_expansion(empirical_copula(ur.astype(float)), 3)
            v = binary_expansion(empirical_copula(vr.astype(float)), 3)
            lib = {
                (s.bid.a_mask, s.bid.b_mask): s.s
                for s in all_symmetry_statistics(u, v)
            }
            assert lib == all_quadrant_stats(ur, vr, 3)
        assert time.perf_counter() - started < 10.0


def test_c05_exact_null_equivalence():
    with criterion(5, "hypergeometric tail equals full permutation enumeration"):
        started = time.perf_counter()
        n = 8
        perms = all_permutations(n)
        total = perms.shape[0]
        identity = np.arange(1, n + 1)
        for a in range(1, 8):
            su = sign_vector(identity, n, a, 3)
            for b in range(1, 8):
                sv = sign_vector(identity, n, b, 3)
                stats = np.abs(sv[perms] @ su)
                for s0 in np.unique(stats):
                    p_enum = np.count_nonzero(stats >= s0) / total
                    p_lib = pvalue_hypergeometric(int(s0), n)
                    assert abs(p_lib - p_enum) <= 1e-12 * p_enum
        assert time.perf_counter() - started < 60.0


def test_c06_null_calibration():
    with criterion(6, "family-wise rejection rate under the null"):
        started = time.perf_counter()
        rng = np.random.default_rng(64064)
        n, sims, alpha = 64, 10_000, 0.05
        u = binary_expansion(empirical_copula(np.arange(1.0, n + 1.0)), 2)
        rejections = 0
        for _ in range(sims):
            v = binary_expansion(empirical_copula(rng.permutation(n) + 1.0), 2)
            res = max_bet(u, v, mode="exact")
            assert res.method == "hypergeometric"
            rejections += res.p_bid_adjusted <= alpha
        rate = rejections / sims
        bound = alpha + 3.0 * np.sqrt(alpha * (1 - alpha) / sims)
        assert rate <= bound, f"rate {rate} exceeds {bound}"
        assert time.perf_counter() - started < 30.0


def test_c07_pattern_recovery():
    with criterion(7, "synthetic pattern recovery at 90% per class"):
        rng = np.random.default_rng(7_2026)
        n, reps = 256, 500
        for label, generate in CLASS_GENERATORS.items():
            wins = 0
            for _ in range(reps):
                x, y = generate(n, rng)
                res = max_bet(
                    binary_expansion(empirical_copula(x), 2),
                    binary_expansion(empirical_copula(y), 2),
                    mode="exact",
                )
                wins += res.bid_class.label == label
            rate = wins / reps
            assert rate >= 0.90, f"{label} recovered at {rate:.3f}"


def test_c08_reflection_invariance(rank_pair_suite):
    with criterion(8, "axis-swap reflection identity"):
        for n, ur, vr in rank_pair_suite:
            u = binary_expansion(empirical_copula(ur.astype(float)), 3)
            v = binary_expansion(empirical_copula(vr.astype(float)), 3)
            forward = {
                (s.bid.a_mask, s.bid.b_mask): s.s
                for s in all_symmetry_statistics(u, v)
            }
            backward = all_symmetry_statistics(v, u)
            for st in backward:
                assert forward[(st.bid.b_mask, st.bid.a_mask)] == st.s


def test_c09_monotone_invariance(rank_pair_suite):
    with criterion(9, "strictly increasing margins leave every S unchanged"):
        for n, ur, vr in rank_pair_suite:
            base_u = ur / n
            base_v = vr / n
            u0 = binary_expansion(empirical_copula(base_u), 2)
            v0 = binary_expansion(empirical_copula(base_v), 2)
            reference = [s.s for s in all_symmetry_statistics(u0, v0)]
            for transform in (np.exp, lambda t: t**3 + t):
                ut = binary_expansion(empirical_copula(transform(base_u)), 2)
                vt = binary_expansion(empirical_copula(transform(base_v)), 2)
                assert [s.s for s in all_symmetry_statistics(ut, vt)] == reference


def test_c10_throughput_and_parallel_identity(tmp_path):
    with criterion(10, "full screen of 100 genes x 817 samples within 2 s"):
        rng = np.random.default_rng(10817)
        values = np.array([rng.permutation(817) + 1.0 for _ in range(100)])
        matrix = ExpressionMatrix(
            gene_ids=[f"G{i:03d}" for i in range(100)],
            sample_ids=[f"S{j:03d}" for j in range(817)],
            values=values,
        )
        started = time.perf_counter()
        planes = precompute_bitplanes(matrix, 2)
        results, summary = screen_all_pairs(
            planes, matrix.gene_ids, ScreenConfig(emit_all=True)
        )
        elapsed = time.perf_counter() - started
        assert summary.total_pairs == 4950
        assert elapsed <= 2.0, f"single-threaded screen took {elapsed:.2f}s"

        parallel, _ = screen_all_pairs(
            planes, matrix.gene_ids, ScreenConfig(emit_all=True, worker_count=4)
        )
        single_path = tmp_path / "single.csv"
        parallel_path = tmp_path / "parallel.csv"
        write_results_csv(results, single_path)
        write_results_csv(parallel, parallel_path)
        assert single_path.read_bytes() == parallel_path.read_bytes()


def test_c11_preprocessing_contract(tmp_path):
    with criterion(11, "cleaning pipeline yields tie-free, reproducible columns"):
        rng = np.random.default_rng(11_2026)
        genes, samples = 30, 60
        values = np.empty((genes, samples))
        for g in range(genes):
            col = rng.choice(np.arange(1, 10**6), size=samples, replace=False)
            col = col.astype(float)
            col[: rng.integers(2, 10)] = 0.0
            rng.shuffle(col)
            if g % 2 == 0:
                col[col == 0.0] = np.sort(col)[samples // 2]
            values[g] = col
        matrix = ExpressionMatrix(
            gene_ids=[f"G{i:02d}" for i in range(genes)],
            sample_ids=[f"S{j:02d}" for j in range(samples)],
            values=values,
        )

        cleaned_a, report = run_pipeline(matrix, seed=99)
        cleaned_b, _ = run_pipeline(matrix, seed=99)

        for g in range(cleaned_a.n_genes):
            empirical_copula(cleaned_a.values[g])  # raises on any tie

        for g, gene in enumerate(cleaned_a.gene_ids):
            col = reset_median_imputed(matrix.values[matrix.gene_index(gene)])
            jittered = jitter_minimum_ties(col, gene_stream_key(99, g))
            nonmin = col > col.min()
            assert np.array_equal(jittered[nonmin], col[nonmin])
            if nonmin.any() and (~nonmin).sum() > 0:
                assert jittered[~nonmin].max() < col[nonmin].min()

        save_matrix(cleaned_a, tmp_path / "a.tsv")
        save_matrix(cleaned_b, tmp_path / "b.tsv")
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
        assert report.jitter_seed == 99


def test_c12_baseline_comparison_table(tmp_path):
    with criterion(12, "per-class baseline table; Pearson trails on Parabolic"):
        rng = np.random.default_rng(12_2026)
        n, per_class = 256, 60
        rows, genes, pair_lines = [], [], ["gene_i,gene_j"]
        for label, generate in CLASS_GENERATORS.items():
            for r in range(per_class):
                x, y = generate(n, rng)
                gi, gj = f"{label[:4].upper()}{r:03d}x", f"{label[:4].upper()}{r:03d}y"
                rows.extend([x, y])
                genes.extend([gi, gj])
                pair_lines.append(f"{gi},{gj}")
        matrix = ExpressionMatrix(
            gene_ids=genes,
            sample_ids=[f"S{j:03d}" for j in range(n)],
            values=np.array(rows),
        )
        matrix_path = tmp_path / "suite.tsv"
        save_matrix(matrix, matrix_path)
        pairs_path = tmp_path / "pairs.csv"
        pairs_path.write_text("\n".join(pair_lines) + "\n")

        out = tmp_path / "base"
        code = main(
            [
                "baselines",
                str(matrix_path),
                str(pairs_path),
                "--out",
                str(out),
                "--hoeffding-iterations",
                "19",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        table = {}
        for line in (out / "baseline_classes.csv").read_text().splitlines()[1:]:
            cells = line.split(",")
            table[cells[0]] = {
                "bet": int(cells[1]),
                "pearson": int(cells[2]),
                "pearson_prop": float(cells[3]),
                "hoeffding": int(cells[4]),
            }
        assert set(CLASS_GENERATORS) <= set(table)
        parabolic = table["Parabolic"]
        assert parabolic["bet"] > 0
        assert parabolic["pearson"] < parabolic["bet"]
        assert parabolic["pearson_prop"] < 1.0
