"""All-pairs Max BET screening with family-wise error control.

Each gene's XOR mask combinations (`mask_combos`) are packed once into a
word-major (W, G, 2^d - 1) uint64 array, d = max(d1, d2), W = ceil(n / 64),
observation k at bit k % 64 of word k // 64 and zeros past n.  Row i is
scored against every j > i in numpy passes over the partners: for each
interaction (a, b), c = popcount(combos[:, j, b-1] ^ combos[:, i, a-1])
summed over the words, S = sign(a, b) * (n - 2c), and the first maximum of
|S| in canonical (a_mask-major) order wins, so ties break as in max_bet.
A pair is significant when

    min(1, m_pairs * min(1, m_bids * p_raw)) <= alpha

i.e. Bonferroni across the interactions of the pair and then across all
pairs.  m_pairs defaults to C(G, 2) of the screened matrix and may be
overridden upward (never downward) to adjust against a larger external
family, e.g. the full pair count of a parent dataset when screening a
sample-subset context.  p_raw is null_table(...)[t, |S|], t the winner;
permutation mode above n = 8 draws it from that entry with one Philox
stream per row i (key (seed << 32) ^ i), whatever the blocks and threads.

Rows are cut into contiguous blocks of similar pair counts, scored by
min(worker_count, os.cpu_count(), number of blocks) threads: a thread pool
when there are several (numpy's XOR, popcount and sum loops release the
GIL), else the calling thread.  The calling thread joins the blocks in row
order, so results come in pair-index order (i < j, lexicographic) whatever
worker_count is.

The emitted rows stay columns: `ScreenResults` holds int32 columns i, j
and k, where k indexes a table with one BetResult per distinct (winner,
popcount, p_raw); each block maps its rows to the table with one
np.unique.  It reads as a sequence of PairResult.  `write_results_csv`
formats each gene-id cell and each table entry's cells once and writes the
rows as joined strings, a few thousand at a time, into a temporary file
that is renamed over the target when complete.
"""

from __future__ import annotations

import csv
import io
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core.bids import (
    all_bids,
    bid_class_of,
    bid_count,
    bid_from_name,
    class_members,
    parse_class_label,
)
from .core.copula import CopulaColumn, empirical_copula
from .core.expansion import BitPlanes, binary_expansion
from .core.maxbet import MODES, BetResult, null_method, null_table
from .core.nulls import permutation_pvalue
from .core.stats import (
    all_symmetry_statistics,
    mask_combos,
    sign_factor,
    symmetry_statistic,
    z_score,
)
from .errors import EmptyIntersectionError, NonFiniteError, TiesPresentError
from .manifest import atomic_open
from .preprocess import ExpressionMatrix

__all__ = [
    "ScreenConfig",
    "ScreenSummary",
    "PairResult",
    "ScreenResults",
    "CompareRow",
    "precompute_bitplanes",
    "precompute_copulas",
    "rank_gene",
    "screen_all_pairs",
    "write_results_csv",
    "read_results_csv",
    "write_compare_csv",
    "all_bid_diagnostics",
    "write_diagnostics_csv",
    "top_k_genes",
    "compare_runs",
    "class_z",
    "RESULT_COLUMNS",
]

RESULT_COLUMNS = (
    "gene_i",
    "gene_j",
    "bid",
    "bid_class",
    "s",
    "z",
    "p_raw",
    "p_bid_adj",
    "p_pair_adj",
    "approximate",
    "method",
)


@dataclass(frozen=True)
class ScreenConfig:
    d1: int = 2
    d2: int = 2
    alpha: float = 0.05
    m_pairs: int | None = None
    bid_filter: frozenset[str] | None = None
    worker_count: int = 1
    emit_all: bool = False
    mode: str = "exact"
    permutation_iterations: int = 999
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if self.permutation_iterations < 1:
            raise ValueError("permutation_iterations must be >= 1")


@dataclass
class ScreenSummary:
    total_pairs: int
    significant_pairs: int
    class_counts: dict[str, int]
    wall_time_s: float
    n_genes: int
    n_samples: int
    alpha: float
    m_pairs: int
    d1: int
    d2: int
    mode: str

    def to_dict(self) -> dict:
        return {
            "total_pairs": self.total_pairs,
            "significant_pairs": self.significant_pairs,
            "class_counts": self.class_counts,
            "wall_time_s": float(f"{self.wall_time_s:.12g}"),
            "n_genes": self.n_genes,
            "n_samples": self.n_samples,
            "alpha": self.alpha,
            "m_pairs": self.m_pairs,
            "d1": self.d1,
            "d2": self.d2,
            "mode": self.mode,
        }


@dataclass(frozen=True)
class PairResult:
    gene_i: str
    gene_j: str
    result: BetResult


# rows per chunk when iterating or writing ScreenResults
_CHUNK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class ScreenResults(Sequence[PairResult]):
    """Rows of a screen as columns, read as a sequence of PairResult.

    Row r is the pair (gene_ids[i[r]], gene_ids[j[r]]) with the result
    table[k[r]]; i, j and k are int32 arrays, and rows with equal results
    share one table entry.  Comparing with == takes any sequence of
    PairResult, and + concatenates into a list.
    """

    gene_ids: tuple[str, ...]
    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    table: tuple[BetResult, ...]

    @classmethod
    def from_rows(cls, rows: Iterable[PairResult]) -> ScreenResults:
        genes: dict[str, int] = {}
        table: dict[BetResult, int] = {}
        i, j, k = [], [], []
        for row in rows:
            i.append(genes.setdefault(row.gene_i, len(genes)))
            j.append(genes.setdefault(row.gene_j, len(genes)))
            k.append(table.setdefault(row.result, len(table)))
        return cls(
            tuple(genes),
            *(np.array(column, dtype=np.int32) for column in (i, j, k)),
            tuple(table),
        )

    def __len__(self) -> int:
        return len(self.k)

    def __getitem__(self, r: int) -> PairResult:
        return PairResult(
            self.gene_ids[self.i[r]], self.gene_ids[self.j[r]], self.table[self.k[r]]
        )

    def _chunks(self) -> Iterator[tuple[list[int], list[int], list[int]]]:
        """The columns i, j, k as lists, _CHUNK_ROWS rows at a time."""
        for lo in range(0, len(self), _CHUNK_ROWS):
            yield tuple(
                column[lo : lo + _CHUNK_ROWS].tolist()
                for column in (self.i, self.j, self.k)
            )

    def __iter__(self) -> Iterator[PairResult]:
        genes, table = self.gene_ids, self.table
        for i, j, k in self._chunks():
            for a, b, c in zip(i, j, k):
                yield PairResult(genes[a], genes[b], table[c])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __add__(self, other: Iterable[PairResult]) -> list[PairResult]:
        return [*self, *other]


def rank_gene(gene: str, values: np.ndarray) -> CopulaColumn:
    """Rank-transform one gene's values, naming the gene in an error."""
    try:
        return empirical_copula(values)
    except TiesPresentError as exc:
        raise TiesPresentError(exc.value, exc.count, exc.tie_groups, gene) from None
    except NonFiniteError as exc:
        raise NonFiniteError(exc.index, exc.value, gene) from None


def _ranked_genes(matrix: ExpressionMatrix) -> Iterator[CopulaColumn]:
    """Rank-transform the genes one at a time."""
    for gene, values in zip(matrix.gene_ids, matrix.values):
        yield rank_gene(gene, values)


def precompute_bitplanes(matrix: ExpressionMatrix, d1: int) -> list[BitPlanes]:
    """Copula-transform and expand every gene once."""
    return [binary_expansion(col, d1) for col in _ranked_genes(matrix)]


def precompute_copulas(matrix: ExpressionMatrix) -> list[CopulaColumn]:
    return list(_ranked_genes(matrix))


# Sizes that bound the scratch memory of the kernel: a row block holds at
# most _BLOCK_PAIRS pairs (fewer when that gives each thread less than
# four blocks), and one numpy pass XORs at most _PASS_WORDS words.
_BLOCK_PAIRS = 1 << 13
_PASS_WORDS = 1 << 17


def _pack_combos(planes: Sequence[BitPlanes], depth: int) -> np.ndarray:
    """Mask combinations of every gene, word-major: (W, G, 2^depth - 1) uint64."""
    nbytes = 8 * ((planes[0].n + 63) // 64)
    raw = b"".join(
        combo.to_bytes(nbytes, "little")
        for p in planes
        for combo in mask_combos(p)[1 : 1 << depth]
    )
    packed = np.frombuffer(raw, dtype="<u8").reshape(len(planes), (1 << depth) - 1, -1)
    return np.ascontiguousarray(packed.transpose(2, 0, 1))


def _row_blocks(g: int, target: int) -> list[tuple[int, int]]:
    """Contiguous row ranges [lo, hi), each but the last with >= target pairs."""
    blocks, lo, pairs = [], 0, 0
    for i in range(g - 1):
        pairs += g - 1 - i
        if pairs >= target:
            blocks.append((lo, i + 1))
            lo, pairs = i + 1, 0
    if pairs:
        blocks.append((lo, g - 1))
    return blocks


def _score_rows(
    combos: np.ndarray, rows: tuple[int, int], d1: int, d2: int, n: int
) -> list[np.ndarray]:
    """Columns i, j, t, c for every pair i in rows, j > i.

    t indexes the winning interaction in all_bids(d1, d2) order (the first
    maximum of |n - 2c|) and c is its XOR popcount.
    """
    words, g, _ = combos.shape
    ma, mb = (1 << d1) - 1, (1 << d2) - 1
    step = max(1, _PASS_WORDS // (ma * mb * words))
    parts = []
    for i in range(*rows):
        cu = combos[:, i, :ma].T[:, :, None, None]
        for lo in range(i + 1, g, step):
            # axes (a, word, j, b)
            x = combos[None, :, lo : lo + step, :mb] ^ cu
            counts = np.bitwise_count(x).sum(1, dtype=np.int32)
            counts = counts.transpose(1, 0, 2).reshape(-1, ma * mb)
            t = np.abs(n - 2 * counts).argmax(1)
            parts.append(
                (
                    np.full(len(t), i, dtype=np.int32),
                    np.arange(lo, lo + len(t), dtype=np.int32),
                    t,
                    np.take_along_axis(counts, t[:, None], 1)[:, 0],
                )
            )
    return [np.concatenate(column) for column in zip(*parts)]


def screen_all_pairs(
    planes: Sequence[BitPlanes],
    gene_ids: Sequence[str],
    config: ScreenConfig,
    ranks: Sequence[CopulaColumn] | None = None,
) -> tuple[ScreenResults, ScreenSummary]:
    """Score every unordered gene pair; see the module docstring for rules.

    ranks is unused; it is accepted for callers that still pass it.
    """
    g = len(planes)
    if g < 2:
        raise ValueError("need at least two genes")
    if len(gene_ids) != g:
        raise ValueError("gene_ids and planes disagree in length")
    total_pairs = g * (g - 1) // 2
    m_pairs = config.m_pairs if config.m_pairs is not None else total_pairs
    if m_pairs < total_pairs:
        raise ValueError(
            f"m_pairs={m_pairs} below the {total_pairs} pairs screened; "
            "the external family may only be larger"
        )
    n = planes[0].n
    depth = max(config.d1, config.d2)
    if any(p.n != n or p.depth < depth for p in planes):
        raise ValueError(
            f"every gene needs {n} samples and planes of depth >= {depth}"
        )
    started = time.perf_counter()
    combos = _pack_combos(planes, depth)
    bids = all_bids(config.d1, config.d2)
    classes = [bid_class_of(b) for b in bids]
    signs = [sign_factor(b) for b in bids]
    m_bids = bid_count(config.d1, config.d2)
    keep_class = (
        None
        if config.bid_filter is None
        else np.array([c.label in config.bid_filter for c in classes])
    )
    method, approximate = null_method(config.mode, n)
    p_table = null_table(config.mode, n, config.d1, config.d2)
    draw = config.mode == "permutation" and approximate

    def score(rows: tuple[int, int]) -> list[np.ndarray]:
        i, j, t, c = _score_rows(combos, rows, config.d1, config.d2, n)
        p_raw = p_table[t, np.abs(n - 2 * c)]
        if draw:
            # one stream per row, so p_raw does not depend on the blocks
            lo = 0
            for r in range(*rows):
                hi = lo + g - 1 - r
                seed = (config.seed << 32) ^ r
                p_raw[lo:hi] = permutation_pvalue(
                    p_raw[lo:hi], config.permutation_iterations, seed
                )
                lo = hi
        return [i, j, t, c, p_raw]

    def result(t: int, c: int, p_raw: float) -> BetResult:
        s = signs[t] * (n - 2 * c)
        p_bid = min(1.0, m_bids * p_raw)
        return BetResult(
            bid=bids[t],
            bid_class=classes[t],
            s=s,
            n=n,
            z=z_score(s, n),
            p_raw=p_raw,
            p_bid_adjusted=p_bid,
            p_pair_adjusted=min(1.0, m_pairs * p_bid),
            approximate=approximate,
            method=method,
        )

    # rows with the same winner, popcount and p_raw share one table entry:
    # (t, c, p_raw) -> its index
    shared: dict[tuple[int, int, float], int] = {}
    hits = np.zeros(len(bids), dtype=np.int64)
    columns: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    threads = min(config.worker_count, os.cpu_count() or 1)
    blocks = _row_blocks(g, min(_BLOCK_PAIRS, -(-total_pairs // (4 * threads))))
    threads = min(threads, len(blocks))
    # a lone scorer runs in the calling thread: a pool thread would get a
    # malloc arena of its own and raise the peak RSS
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    scored = pool.map(score, blocks) if pool else map(score, blocks)
    try:
        for i, j, t, c, p_raw in scored:
            p_pair = np.minimum(1.0, m_pairs * np.minimum(1.0, m_bids * p_raw))
            sig = p_pair <= config.alpha
            keep = sig | config.emit_all
            if keep_class is not None:
                keep &= keep_class[t]
            hits += np.bincount(t[keep & sig], minlength=len(bids))
            rows = np.flatnonzero(keep)
            i, j, t, c, p_raw = (column[rows] for column in (i, j, t, c, p_raw))
            # (t, c) fixes p_raw, unless it is a Monte Carlo draw per pair
            code = t * (n + 1) + c
            if draw:
                code = np.stack([code, p_raw.view(np.int64)], axis=1)
            _, first, inverse = np.unique(
                code, return_index=True, return_inverse=True, axis=0
            )
            keys = zip(*(column[first].tolist() for column in (t, c, p_raw)))
            lut = np.array(
                [shared.setdefault(key, len(shared)) for key in keys], dtype=np.int32
            )
            columns.append((i, j, lut[inverse.reshape(-1)]))
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    results = ScreenResults(
        tuple(gene_ids),
        *(np.concatenate(column) for column in zip(*columns)),
        tuple(result(*key) for key in shared),
    )

    class_counts: dict[str, int] = {}
    for cls, k in zip(classes, hits.tolist()):
        if k:
            class_counts[cls.label] = class_counts.get(cls.label, 0) + k

    summary = ScreenSummary(
        total_pairs=total_pairs,
        significant_pairs=int(hits.sum()),
        class_counts=dict(sorted(class_counts.items())),
        wall_time_s=time.perf_counter() - started,
        n_genes=g,
        n_samples=n,
        alpha=config.alpha,
        m_pairs=m_pairs,
        d1=config.d1,
        d2=config.d2,
        mode=config.mode,
    )
    return results, summary


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.12g}"


def _csv_line(fields: Sequence[str]) -> str:
    """The fields as a line of csv.writer, which quotes as the reader needs."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def _result_cells(r: BetResult) -> list[str]:
    return [
        r.bid.name,
        r.bid_class.label,
        str(r.s),
        _fmt(r.z),
        _fmt(r.p_raw),
        _fmt(r.p_bid_adjusted),
        _fmt(r.p_pair_adjusted),
        "true" if r.approximate else "false",
        r.method,
    ]


def write_results_csv(results: Iterable[PairResult], path) -> None:
    """Write the rows as CSV, replacing path only once the file is complete.

    Rows that are not a ScreenResults are first gathered into one.  Each
    gene id and each table entry is formatted once.  The file is written
    through atomic_open, so a failed write leaves the earlier file, if
    any, in place.
    """
    if not isinstance(results, ScreenResults):
        results = ScreenResults.from_rows(results)
    # each gene cell with the comma after it; it is formatted beside an
    # empty field, because csv.writer writes a lone empty field as ""
    genes = [_csv_line([gene, ""])[:-1] for gene in results.gene_ids]
    tails = [_csv_line(_result_cells(r)) for r in results.table]
    with atomic_open(path) as fh:
        fh.write(_csv_line(RESULT_COLUMNS))
        for i, j, k in results._chunks():
            rows = [genes[a] + genes[b] + tails[c] for a, b, c in zip(i, j, k)]
            fh.write("".join(rows))


def read_results_csv(path, n: int | None = None) -> list[PairResult]:
    """Load a results CSV back into PairResult rows.

    The sample count is not stored per row; pass n when downstream code
    needs BetResult.n, otherwise it is reconstructed from s and z (0 when
    s = 0).
    """
    out: list[PairResult] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            s = int(rec["s"])
            z = float(rec["z"])
            n_row = n if n is not None else (round((s / z) ** 2) if z > 0 else 0)
            bid = bid_from_name(rec["bid"])
            out.append(
                PairResult(
                    gene_i=rec["gene_i"],
                    gene_j=rec["gene_j"],
                    result=BetResult(
                        bid=bid,
                        bid_class=bid_class_of(bid),
                        s=s,
                        n=n_row,
                        z=z,
                        p_raw=float(rec["p_raw"]),
                        p_bid_adjusted=float(rec["p_bid_adj"]),
                        p_pair_adjusted=(
                            float(rec["p_pair_adj"]) if rec["p_pair_adj"] else None
                        ),
                        approximate=rec["approximate"] == "true",
                        method=rec["method"],
                    ),
                )
            )
    return out


def all_bid_diagnostics(
    planes: Sequence[BitPlanes],
    gene_ids: Sequence[str],
    results: Iterable[PairResult],
) -> list[tuple[str, str, str, str, int, float]]:
    """Every interaction's statistic for the emitted pairs (diagnostics).

    Rows are (gene_i, gene_j, bid, bid_class, s, z); inference stays with
    the winning interaction in the main results.
    """
    index = {g: i for i, g in enumerate(gene_ids)}
    out = []
    for row in results:
        u = planes[index[row.gene_i]]
        v = planes[index[row.gene_j]]
        for st in all_symmetry_statistics(u, v):
            out.append(
                (
                    row.gene_i,
                    row.gene_j,
                    st.bid.name,
                    bid_class_of(st.bid).label,
                    st.s,
                    st.z,
                )
            )
    return out


def write_diagnostics_csv(rows, path) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["gene_i", "gene_j", "bid", "bid_class", "s", "z"])
        for gene_i, gene_j, bid, cls, s, z in rows:
            writer.writerow([gene_i, gene_j, bid, cls, str(s), f"{z:.12g}"])


def top_k_genes(
    results: Iterable[PairResult], k: int = 200
) -> list[tuple[str, float]]:
    """Genes ranked by their maximum z over the given (significant) pairs.

    Descending z, ties broken by gene id; the first k are returned.
    """
    best: dict[str, float] = {}
    for row in results:
        z = row.result.z
        for gene in (row.gene_i, row.gene_j):
            if z > best.get(gene, -1.0):
                best[gene] = z
    ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


@dataclass(frozen=True)
class CompareRow:
    gene_i: str
    gene_j: str
    z_a: float
    z_b: float
    flag: str


def class_z(planes_u: BitPlanes, planes_v: BitPlanes, class_label: str) -> float:
    """Largest |S|/sqrt(n) over the member interactions of a class.

    Taking the max over the reflection orbit makes the value independent
    of which gene sits on which axis.
    """
    members = class_members(class_label, planes_u.depth, planes_v.depth)
    return max(symmetry_statistic(planes_u, planes_v, m).z for m in members)


def compare_runs(
    results_a: Iterable[PairResult],
    planes_b: Mapping[str, BitPlanes],
    bid_class: str,
) -> list[CompareRow]:
    """Class-specific z of run A's significant pairs, recomputed in run B.

    planes_b maps run B's gene ids to their planes.  Rows of run A whose
    winning class matches are kept; for each, the class statistic is
    recomputed from run B's planes even when that class is not the winner
    there.  Pairs with a gene missing from run B are flagged
    'missing_in_b' (z_b = nan) rather than dropped.
    """
    label = parse_class_label(bid_class)
    rows_a = [r for r in results_a if r.result.bid_class.label == label]
    genes_a = {g for r in rows_a for g in (r.gene_i, r.gene_j)}
    if genes_a and genes_a.isdisjoint(planes_b):
        raise EmptyIntersectionError(
            "no gene of the selected pairs exists in the comparison run"
        )
    out = []
    for r in rows_a:
        pu = planes_b.get(r.gene_i)
        pv = planes_b.get(r.gene_j)
        if pu is None or pv is None:
            out.append(
                CompareRow(r.gene_i, r.gene_j, r.result.z, float("nan"), "missing_in_b")
            )
            continue
        out.append(
            CompareRow(r.gene_i, r.gene_j, r.result.z, class_z(pu, pv, label), "ok")
        )
    return out


def write_compare_csv(rows: Iterable[CompareRow], path) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["gene_i", "gene_j", "z_a", "z_b", "flag"])
        for row in rows:
            writer.writerow(
                [row.gene_i, row.gene_j, _fmt(row.z_a), _fmt(row.z_b), row.flag]
            )
