"""Per-layer probes for the traced run.

Each probe calls one layer's public function on the workload's own data,
inside a span, and reports the time per call or per pass together with
the work it did.  Which end-to-end metric each probe should move is
listed in perfbench/README.md.
"""

from __future__ import annotations

import math
import statistics
import time

from betscan.core.bids import all_bids, bid_class_of, bid_count
from betscan.core.copula import empirical_copula
from betscan.core.expansion import binary_expansion
from betscan.core.maxbet import max_bet
from betscan.core.nulls import pvalue_hypergeometric, pvalue_normal, pvalue_permutation
from betscan.core.stats import all_symmetry_statistics, mask_combos
from betscan.manifest import sha256_file
from betscan.preprocess import load_matrix, run_pipeline, save_matrix

from checks import random_pairs

STATS_PAIRS = 2000
MAXBET_PAIRS = 500
PERMUTATION_PAIRS = 5
REPS = 3


def timed(tr, name: str, fn, reps: int = 1, **counts):
    """Median seconds of `reps` calls of fn, each in its own span, and the last result."""
    times = []
    for _ in range(reps):
        with tr.span(name, **counts):
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def probe_layers(tr, cfg, input_path, matrix, planes, rng, work) -> dict:
    """Time every layer on the screened matrix; input_path is what set-up loads."""
    m: dict[str, float] = {}
    n = matrix.n_samples
    genes = matrix.n_genes
    pairs = genes * (genes - 1) // 2

    m["preprocess.load_s"], raw = timed(
        tr, "preprocess.load_matrix", lambda: load_matrix(input_path), REPS
    )
    m["preprocess.pipeline_s"], (cleaned, _) = timed(
        tr, "preprocess.run_pipeline", lambda: run_pipeline(raw, seed=cfg.seed), REPS
    )
    m["preprocess.save_s"], _ = timed(
        tr, "preprocess.save_matrix", lambda: save_matrix(cleaned, work / "probe.tsv"), REPS
    )
    m["manifest.hash_s"], _ = timed(
        tr, "manifest.sha256_file", lambda: sha256_file(input_path), REPS
    )

    m["copula.s"], cols = timed(
        tr, "copula.empirical_copula",
        lambda: [empirical_copula(v) for v in matrix.values], calls=genes,
    )
    m["expansion.s"], _ = timed(
        tr, "expansion.binary_expansion",
        lambda: [binary_expansion(c, cfg.d1) for c in cols], calls=genes,
    )
    m["stats.combos_s"], _ = timed(
        tr, "stats.mask_combos", lambda: [mask_combos(p) for p in planes], calls=genes
    )

    sample = sorted(random_pairs(rng, genes, STATS_PAIRS))
    t, all_stats = timed(
        tr, "stats.all_symmetry_statistics",
        lambda: [all_symmetry_statistics(planes[i], planes[j]) for i, j in sample],
        calls=len(sample),
    )
    m["stats.us_per_pair"] = t / len(sample) * 1e6
    m["stats.popcount_words"] = pairs * bid_count(cfg.d1, cfg.d2) * math.ceil(n / 64)

    winners = [max(stats, key=lambda st: abs(st.s)) for stats in all_stats]
    abs_s = [abs(st.s) for st in winners]
    distinct = len(set(abs_s))
    m["nulls.distinct_abs_s"] = distinct
    m["nulls.cache_base_pairs"] = len(sample)
    m["nulls.cache_hit_ratio"] = 1.0 - distinct / len(sample)

    # the exact null needs 4 | n; time it at the largest such n <= n, with
    # each winning |S| moved to the nearest value that n admits
    n4 = n - n % 4
    hyper_s = [min(s, n4) - min(s, n4) % 4 for s in abs_s]
    t, _ = timed(
        tr, "nulls.pvalue_hypergeometric",
        lambda: [pvalue_hypergeometric(s, n4) for s in hyper_s], calls=len(hyper_s),
    )
    m["nulls.hypergeometric_us"] = t / len(hyper_s) * 1e6
    reps = 20
    t, _ = timed(
        tr, "nulls.pvalue_normal",
        lambda: [pvalue_normal(s, n) for _ in range(reps) for s in abs_s],
        calls=reps * len(abs_s),
    )
    m["nulls.normal_us"] = t / (reps * len(abs_s)) * 1e6
    perm = list(zip(sample, winners))[:PERMUTATION_PAIRS]
    t, _ = timed(
        tr, "nulls.pvalue_permutation",
        lambda: [
            pvalue_permutation(
                planes[i], cols[j], st.bid,
                iterations=cfg.permutation_iterations, seed=k,
            )
            for k, ((i, j), st) in enumerate(perm)
        ],
        calls=len(perm),
    )
    m["nulls.permutation_ms"] = t / len(perm) * 1e3

    bids = all_bids(cfg.d1, cfg.d2)
    reps = 2000
    t, _ = timed(
        tr, "bids.bid_class_of",
        lambda: [bid_class_of(b) for _ in range(reps) for b in bids],
        calls=reps * len(bids),
    )
    m["bids.class_of_us"] = t / (reps * len(bids)) * 1e6

    count = PERMUTATION_PAIRS if cfg.mode == "permutation" else MAXBET_PAIRS
    mb = sample[:count]
    t, _ = timed(
        tr, "maxbet.max_bet",
        lambda: [
            max_bet(
                planes[i], planes[j], mode=cfg.mode, v_ranks=cols[j],
                iterations=cfg.permutation_iterations, seed=cfg.seed,
            )
            for i, j in mb
        ],
        calls=len(mb),
    )
    m["maxbet.us_per_pair"] = t / len(mb) * 1e6
    return m
