"""Independent reference implementations used only to check the library.

Everything here recomputes quantities from first principles: digits by
scanning the dyadic intervals with integer cross-multiplication,
statistics by classifying each observation into its quadrant and summing
region signs, tails by exhaustive enumeration, a matrix file by
csv.reader and float() one row at a time, the cleaning pipeline one gene
at a time, ranks by np.unique and a stable argsort one gene at a time,
the top genes and the network by walking the result rows one at a
time, the CSV outputs by csv.writer one row at a time, and a screen's
table by a two-column np.unique of each band's codes and p_raw bits.  None
of it shares code with the bit-parallel production path, the block-wise
loader, the block-wise pipeline, the block ranker, the columnar readers of
ScreenResults or its joined writers.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np

from betscan.core.bids import bid_class_of
from betscan.core.copula import CopulaColumn
from betscan.core.expansion import BitPlanes
from betscan.core.maxbet import BetResult
from betscan.core.stats import all_symmetry_statistics
from betscan.errors import (
    BetscanError,
    DegenerateColumnError,
    MatrixParseError,
    NonFiniteError,
    TiesPresentError,
)
from betscan.network import EDGE_COLORS, DependenceGraph, GraphEdge
from betscan.preprocess import (
    ExpressionMatrix,
    PreprocessReport,
    _drop_constant_genes_in_place,
    filter_zero_heavy,
    gene_stream_key,
    jitter_minimum_ties,
    reset_median_imputed,
)
from betscan.manifest import cell
from betscan.screen import DIAGNOSTIC_COLUMNS, RESULT_COLUMNS, ScreenResults


def interval_digit(rank: int, n: int, k: int) -> int:
    """Digit k of rank/n by direct left-open interval membership."""
    lhs = rank * (1 << k)  # compare rank/n against j-th interval bounds
    for j in range(1, (1 << (k - 1)) + 1):
        if (2 * j - 1) * n < lhs <= 2 * j * n:
            return 1
    return 0


@lru_cache(maxsize=None)
def digit_table(n: int, depth: int) -> np.ndarray:
    """digits[r, k-1] for ranks 1..n (row 0 unused)."""
    table = np.zeros((n + 1, depth), dtype=np.int64)
    for r in range(1, n + 1):
        for k in range(1, depth + 1):
            table[r, k - 1] = interval_digit(r, n, k)
    return table


def sign_vector(ranks, n: int, mask: int, depth: int) -> np.ndarray:
    """Per-point +-1 product of the selected digit signs."""
    digits = digit_table(n, depth)[np.asarray(ranks)]
    prod = np.ones(len(ranks), dtype=np.int64)
    for k in range(1, depth + 1):
        if mask >> (k - 1) & 1:
            prod *= 2 * digits[:, k - 1] - 1
    return prod


def quadrant_stat(u_ranks, v_ranks, a_mask: int, b_mask: int, depth: int) -> int:
    """Symmetry statistic by per-point quadrant classification."""
    n = len(u_ranks)
    su = sign_vector(u_ranks, n, a_mask, depth)
    sv = sign_vector(v_ranks, n, b_mask, depth)
    return int(np.sum(su * sv))


def all_quadrant_stats(u_ranks, v_ranks, depth: int) -> dict[tuple[int, int], int]:
    n = len(u_ranks)
    su = {a: sign_vector(u_ranks, n, a, depth) for a in range(1, 1 << depth)}
    sv = {b: sign_vector(v_ranks, n, b, depth) for b in range(1, 1 << depth)}
    return {
        (a, b): int(np.sum(su[a] * sv[b]))
        for a in range(1, 1 << depth)
        for b in range(1, 1 << depth)
    }


def hypergeom_tail(s: int, n: int) -> float:
    """P(|S| >= |s|) for (S+n)/4 ~ Hypergeom(n, n/2, n/2), by enumeration."""
    half = n // 2
    target = abs(s)
    total = comb(n, half)
    hits = sum(
        comb(half, k) * comb(half, half - k)
        for k in range(half + 1)
        if abs(4 * k - n) >= target
    )
    return hits / total


@lru_cache(maxsize=None)
def all_permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def permutation_distribution(
    u_ranks, bid: tuple[int, int], depth: int
) -> dict[int, int]:
    """Exact null distribution of S over all n! pairings of the ranks.

    The statistic for each permutation is the per-point product sum of the
    quadrant sign labels; only the label pattern matters, so permuting the
    v labels enumerates every pairing.
    """
    n = len(u_ranks)
    su = sign_vector(u_ranks, n, bid[0], depth)
    sv = sign_vector(np.arange(1, n + 1), n, bid[1], depth)
    perms = all_permutations(n)
    stats = sv[perms] @ su
    values, counts = np.unique(stats, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def permutation_tail(dist: dict[int, int], s: int, n: int) -> float:
    hits = sum(c for v, c in dist.items() if abs(v) >= abs(s))
    return hits / factorial(n)


def arrangement_tail(su, plus_v: int, s: int) -> float:
    """P(|S| >= |s|) when plus_v labels +1 (the rest -1) pair with su.

    A uniform permutation of v's labels puts its +1 labels on a uniform
    subset of the positions, so enumerating all C(n, plus_v) subsets gives
    the permutation null exactly.
    """
    su = np.asarray(su, dtype=np.int64)
    total = int(su.sum())
    hits = 0
    for plus in itertools.combinations(range(len(su)), plus_v):
        # S = sum over +1 positions minus sum over the others
        on = int(su[list(plus)].sum())
        hits += abs(2 * on - total) >= abs(s)
    return hits / comb(len(su), plus_v)


def exact_tails(n: int, p: int, q: int) -> dict[int, Fraction]:
    """P(|S| >= a) at every reachable a, as exact fractions.

    S = n - 2p - 2q + 4K with K ~ Hypergeometric(n, q, p), whose pmf is
    C(p, k) C(n - p, q - k) / C(n, q).
    """
    weight: dict[int, int] = {}
    for k in range(max(0, p + q - n), min(p, q) + 1):
        size = abs(n - 2 * p - 2 * q + 4 * k)
        weight[size] = weight.get(size, 0) + comb(p, k) * comb(n - p, q - k)
    total, above, tails = comb(n, q), 0, {}
    for size in sorted(weight, reverse=True):
        above += weight[size]
        tails[size] = Fraction(above, total)
    return tails


def pearson_oracle(x, y) -> float:
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    mx, my = x.mean(), y.mean()
    num = float(np.sum((x - mx) * (y - my)))
    den = float(np.sqrt(np.sum((x - mx) ** 2) * np.sum((y - my) ** 2)))
    return num / den


def hoeffding_kernel_oracle(x, y) -> float:
    """Hoeffding's D from the defining 5-tuple kernel, O(n^5)."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    n = len(x)

    def psi(a, b, c):
        return (1.0 if b <= a else 0.0) - (1.0 if c <= a else 0.0)

    total = 0.0
    idx = range(n)
    for i in idx:
        for j in idx:
            if j == i:
                continue
            for k in idx:
                if k == i or k == j:
                    continue
                px = psi(x[i], x[j], x[k])
                py = psi(y[i], y[j], y[k])
                if px == 0.0 or py == 0.0:
                    continue
                for l in idx:
                    if l in (i, j, k):
                        continue
                    for m in idx:
                        if m in (i, j, k, l):
                            continue
                        total += (
                            0.25
                            * px
                            * psi(x[i], x[l], x[m])
                            * py
                            * psi(y[i], y[l], y[m])
                        )
    denom = n * (n - 1) * (n - 2) * (n - 3) * (n - 4)
    return 30.0 * total / denom


def chi_square_oracle(counts) -> float:
    counts = np.asarray(counts, dtype=float)
    row = counts.sum(axis=1, keepdims=True)
    col = counts.sum(axis=0, keepdims=True)
    expected = row @ col / counts.sum()
    return float(np.sum((counts - expected) ** 2 / expected))


def parse_matrix_oracle(fh, path, delim: str) -> ExpressionMatrix:
    """The row-at-a-time matrix parser that the block-wise loader replaced.

    A record that csv.reader refuses is a BetscanError naming its number.
    """
    reader = csv.reader(fh, delimiter=delim)
    line_no = 1
    try:
        header = next(reader)
    except StopIteration:
        raise MatrixParseError(path, 1, 1, "empty file") from None
    except csv.Error as exc:
        raise BetscanError(f"{path}: line 1: {exc}") from None
    if len(header) < 2:
        raise MatrixParseError(path, 1, 1, "header has no sample ids")
    sample_ids = [c.strip() for c in header[1:]]

    gene_ids: list[str] = []
    rows: list[np.ndarray] = []
    try:
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(sample_ids) + 1:
                raise MatrixParseError(
                    path, line_no, len(row),
                    f"expected {len(sample_ids) + 1} cells, found {len(row)}",
                )
            gene_ids.append(row[0].strip())
            try:
                rows.append(
                    np.fromiter(map(float, row[1:]), np.float64, len(sample_ids))
                )
            except ValueError:
                # find the cell at fault
                for col_no, cell in enumerate(row[1:], start=2):
                    try:
                        float(cell)
                    except ValueError:
                        raise MatrixParseError(
                            path, line_no, col_no, f"non-numeric cell {cell!r}"
                        ) from None
                raise
    except csv.Error as exc:
        # the record after the last one read
        raise BetscanError(f"{path}: line {line_no + 1}: {exc}") from None
    if not rows:
        raise MatrixParseError(path, 2, 1, "no gene rows")
    return ExpressionMatrix(
        gene_ids=gene_ids,
        sample_ids=sample_ids,
        values=np.array(rows, dtype=np.float64),
    )


def run_pipeline_oracle(
    matrix: ExpressionMatrix, seed: int, zero_fraction_threshold: float = 0.20
) -> tuple[ExpressionMatrix, PreprocessReport]:
    """The gene-at-a-time cleaning loop that the block-wise run_pipeline replaced.

    Each gene takes np.median, reset_median_imputed, np.unique and
    jitter_minimum_ties on its own, on a copy of the filtered values.
    """
    filtered, report = filter_zero_heavy(matrix, zero_fraction_threshold)
    report.jitter_seed = seed

    values = filtered.values.copy()
    for g, gene in enumerate(filtered.gene_ids):
        col = values[g]
        med = float(np.median(col))
        dup = int((col == med).sum())
        if dup == len(col):
            continue  # one value, so no ranks: dropped below
        if dup > 1:
            report.medians_reset[gene] = dup - 1
        col = reset_median_imputed(col)

        uniq = np.unique(col)
        if uniq.shape[0] >= 2 and int((col == uniq[0]).sum()) > 1:
            report.jitter_widths[gene] = float(uniq[1] - uniq[0])
            try:
                col = jitter_minimum_ties(col, gene_stream_key(seed, g))
            except DegenerateColumnError as exc:
                raise DegenerateColumnError(f"gene {gene!r}: {exc}") from None
        values[g] = col

    earlier = f"the zero filter (zero fraction above {zero_fraction_threshold:g})"
    cleaned = replace(filtered, values=values)
    return _drop_constant_genes_in_place(cleaned, report, earlier), report


def empirical_copula_oracle(values, gene: str | None = None) -> CopulaColumn:
    """The one-gene ranker that the block ranker replaced; names gene in errors."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d vector of values")
    n = arr.shape[0]
    if n < 4:
        raise ValueError(f"need at least 4 observations, got {n}")

    finite = np.isfinite(arr)
    if not finite.all():
        idx = int(np.argmin(finite))
        raise NonFiniteError(idx, float(arr[idx]), gene)

    uniq, counts = np.unique(arr, return_counts=True)
    dup = counts > 1
    if dup.any():
        first = int(np.argmax(dup))
        raise TiesPresentError(
            value=float(uniq[first]),
            count=int(counts[first]),
            tie_groups=int(dup.sum()),
            gene=gene,
        )

    order = np.argsort(arr, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1, dtype=np.int64)
    return CopulaColumn(ranks=ranks)


def rows(results: ScreenResults) -> list[tuple[str, str, BetResult]]:
    """The rows of results as (gene_i, gene_j, result) tuples, in row order."""
    genes, table = results.gene_ids, results.table
    return [
        (genes[a], genes[b], table[c])
        for a, b, c in zip(results.i.tolist(), results.j.tolist(), results.k.tolist())
    ]


def screen_results(pairs, gene_ids=()) -> ScreenResults:
    """A ScreenResults holding the (gene_i, gene_j, result) rows of pairs.

    Genes are numbered in first-seen order after the given gene_ids (which
    may hold genes in no row); each row gets its own table entry.
    """
    index = {gene: x for x, gene in enumerate(gene_ids)}
    i = [index.setdefault(a, len(index)) for a, _, _ in pairs]
    j = [index.setdefault(b, len(index)) for _, b, _ in pairs]
    return ScreenResults(
        tuple(index),
        np.array(i, dtype=np.int32),
        np.array(j, dtype=np.int32),
        np.arange(len(pairs), dtype=np.int32),
        tuple(result for _, _, result in pairs),
    )


def top_k_genes_oracle(pairs, k: int = 200) -> list[tuple[str, float]]:
    """The row-at-a-time top_k_genes over (gene_i, gene_j, result) rows."""
    best: dict[str, float] = {}
    for gene_i, gene_j, result in pairs:
        z = result.z
        for gene in (gene_i, gene_j):
            if z > best.get(gene, -1.0):
                best[gene] = z
    ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def build_network_oracle(pairs, top_genes, class_filter=None) -> DependenceGraph:
    """The row-at-a-time build_network over (gene_i, gene_j, result) rows."""
    allowed = set(class_filter) if class_filter is not None else None
    nodes = {gene: float(z) for gene, z in top_genes}
    edges: list[GraphEdge] = []
    seen: set[tuple[str, str]] = set()
    for gene_i, gene_j, result in pairs:
        if gene_i == gene_j:
            continue
        if gene_i not in nodes or gene_j not in nodes:
            continue
        label = result.bid_class.label
        if allowed is not None and label not in allowed:
            continue
        key = tuple(sorted((gene_i, gene_j)))
        if key in seen:
            continue
        seen.add(key)
        edges.append(
            GraphEdge(
                gene_i=gene_i,
                gene_j=gene_j,
                bid_class=label,
                z=result.z,
                color=EDGE_COLORS.get(label, "black"),
            )
        )
    return DependenceGraph(nodes=nodes, edges=edges)


def results_csv_oracle(results: ScreenResults) -> str:
    """The text of write_results_csv, by csv.writer one row at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for gene_i, gene_j, r in rows(results):
        writer.writerow([
            gene_i, gene_j, r.bid.name, r.bid_class.label, str(r.s), cell(r.z),
            cell(r.p_raw), cell(r.p_bid_adjusted), cell(r.p_pair_adjusted),
            cell(r.approximate), r.method,
        ])
    return buf.getvalue()


def diagnostics_oracle(
    planes, gene_ids, results: ScreenResults, d1: int, d2: int
) -> str:
    """The text of a d1 x d2 screen's results_all_bids.csv, pair by pair.

    planes[x] belongs to gene_ids[x], and its first d1 (for gene_i) or d2
    (for gene_j) digits give the interactions of all_bids(d1, d2).
    """
    index = {gene: x for x, gene in enumerate(gene_ids)}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(DIAGNOSTIC_COLUMNS)
    for gene_i, gene_j, _ in rows(results):
        u, v = planes[index[gene_i]], planes[index[gene_j]]
        u, v = BitPlanes(d1, u.n, u.planes[:d1]), BitPlanes(d2, v.n, v.planes[:d2])
        for st in all_symmetry_statistics(u, v):
            label = bid_class_of(st.bid).label
            writer.writerow([gene_i, gene_j, st.bid.name, label, str(st.s), cell(st.z)])
    return buf.getvalue()


def band_table_oracle(i, t, x, p_raw, n: int, band: int):
    """k and the (t, x, p_raw) table of a screen's rows, band by band.

    The rows come in pair order, and a band holds the rows of `band`
    consecutive genes i.  Within a band, the entries that are new come in
    the order of the two-column np.unique(axis=0) of (t (2n + 1) + n - x,
    the bits of p_raw), and equal pairs of those share one entry.
    """
    shared: dict[tuple[int, int, float], int] = {}
    k = np.empty(len(i), dtype=np.int32)
    for lo in range(0, int(i.max(initial=-1)) + 1, band):
        rows_ = np.flatnonzero((i >= lo) & (i < lo + band))
        tb, xb, pb = t[rows_], x[rows_], p_raw[rows_]
        code = np.stack([tb * (2 * n + 1) + n - xb, pb.view(np.int64)], axis=1)
        _, first, inverse = np.unique(
            code, return_index=True, return_inverse=True, axis=0
        )
        entries = list(zip(tb[first].tolist(), xb[first].tolist(), pb[first].tolist()))
        for entry in entries:
            shared.setdefault(entry, len(shared))
        lut = np.array([shared[entry] for entry in entries], dtype=np.int32)
        k[rows_] = lut[inverse.reshape(-1)]
    return k, list(shared)
