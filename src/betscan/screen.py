"""All-pairs Max BET screening with family-wise error control.

Every gene's planes (BitPlanes.planes: W = ceil(n / 64) uint64 words per
digit, observation k at bit k % 64 of word k // 64 and zeros past n) are
stacked and combined once by `mask_combos` into a word-major
(W, G, 2^d - 1) array, d = max(d1, d2).  One helper,
`_interaction_counts`, computes S for many pairs: for each interaction
(a, b) of pair (i, j), c = popcount(combos[:, j, b-1] ^ combos[:, i, a-1])
summed over the words, and S = sign(a, b) * (n - 2c).  Its callers are
`_score_rows` (row i against every j > i; the first maximum of |S| in
canonical, a_mask-major order wins, so ties break as in max_bet),
`all_bid_diagnostics` (every S of the emitted pairs, for --emit-all-bids)
and `compare_runs` (a class's largest |S| in a second dataset).  max_bet
and the other single-pair paths read the same words but keep their own
XOR and popcount, so that they check this kernel rather than share it.
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
that is renamed over the target when complete.  `read_results_csv` reads
such a file back into a ScreenResults, parsing each distinct result once.
"""

from __future__ import annotations

import csv
import io
import operator
import os
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
from .core.stats import mask_combos, sign_factor, z_score
from .errors import (
    BetscanError,
    EmptyIntersectionError,
    NonFiniteError,
    TiesPresentError,
)
from .manifest import atomic_open, open_input
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
    "all_bid_diagnostics",
    "write_diagnostics_csv",
    "top_k_genes",
    "compare_runs",
    "RESULT_COLUMNS",
]

# seeds are 64-bit, as preprocess.gene_stream_key keeps them
SEED_LIMIT = 1 << 64

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
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


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
        return {**asdict(self), "wall_time_s": float(f"{self.wall_time_s:.12g}")}


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

    def where(self, keep: Callable[[BetResult], bool]) -> ScreenResults:
        """The rows whose result passes keep, asked once per table entry."""
        chosen = [k for k, result in enumerate(self.table) if keep(result)]
        rows = np.flatnonzero(np.isin(self.k, chosen))
        return replace(self, i=self.i[rows], j=self.j[rows], k=self.k[rows])


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
    combos = mask_combos(np.stack([p.planes[:depth] for p in planes]))
    return np.ascontiguousarray(combos[:, 1:].transpose(2, 0, 1))


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


def _interaction_counts(
    combos: np.ndarray, rows_u, rows_v, d1: int, d2: int
) -> np.ndarray:
    """XOR popcounts of every interaction for the pairs (rows_u, rows_v).

    rows_u and rows_v select genes of combos, as slices or index arrays;
    they pair up elementwise, and a side of length one pairs with every
    gene of the other.  Returns (pairs, (2^d1 - 1)(2^d2 - 1)) int32 counts,
    interactions in all_bids(d1, d2) order.
    """
    ma, mb = (1 << d1) - 1, (1 << d2) - 1
    cu = combos[:, rows_u, :ma].transpose(2, 0, 1)[..., None]
    # axes (a, word, pair, b)
    x = combos[None, :, rows_v, :mb] ^ cu
    counts = np.bitwise_count(x).sum(1, dtype=np.int32)
    return counts.transpose(1, 0, 2).reshape(-1, ma * mb)


def _pass_pairs(combos: np.ndarray, d1: int, d2: int) -> int:
    """Pairs per _interaction_counts call that XOR at most _PASS_WORDS words."""
    return max(1, _PASS_WORDS // (bid_count(d1, d2) * combos.shape[0]))


def _score_rows(
    combos: np.ndarray, rows: tuple[int, int], d1: int, d2: int, n: int
) -> list[np.ndarray]:
    """Columns i, j, t, c for every pair i in rows, j > i.

    t indexes the winning interaction in all_bids(d1, d2) order (the first
    maximum of |n - 2c|) and c is its XOR popcount.
    """
    g, step = combos.shape[1], _pass_pairs(combos, d1, d2)
    parts = []
    for i in range(*rows):
        for lo in range(i + 1, g, step):
            counts = _interaction_counts(
                combos, slice(i, i + 1), slice(lo, lo + step), d1, d2
            )
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
        raise BetscanError(
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


def _gene_cells(gene_ids: Sequence[str]) -> list[str]:
    """Each gene id as a CSV cell with the comma after it.

    It is formatted beside an empty field, because csv.writer writes a
    lone empty field as "".
    """
    return [_csv_line([gene, ""])[:-1] for gene in gene_ids]


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


def write_results_csv(results: ScreenResults, path) -> None:
    """Write the rows as CSV, replacing path only once the file is complete.

    Each gene id and each table entry is formatted once.  The file is
    written through atomic_open, so a failed write leaves the earlier
    file, if any, in place.
    """
    genes = _gene_cells(results.gene_ids)
    tails = [_csv_line(_result_cells(r)) for r in results.table]
    with atomic_open(path) as fh:
        fh.write(_csv_line(RESULT_COLUMNS))
        for i, j, k in results._chunks():
            rows = [genes[a] + genes[b] + tails[c] for a, b, c in zip(i, j, k)]
            fh.write("".join(rows))


# how read_results_csv parses the cells after the gene ids; the bid_class
# cell is not read, because the class follows from the bid
_CELL_PARSERS = (
    bid_from_name, str, int, float, float, float,
    lambda text: float(text) if text else None, "true".__eq__, str,
)


def _parse_result(cells: Sequence[str], n: int | None) -> BetResult:
    """The BetResult of a row's cells after the gene ids.

    Raises ValueError naming the column of a cell that does not parse.
    """
    values = []
    for name, parse, text in zip(RESULT_COLUMNS[2:], _CELL_PARSERS, cells):
        try:
            values.append(parse(text))
        except ValueError:
            raise ValueError(f"column {name}: cannot parse {text!r}") from None
    bid, _, s, z, *rest = values
    if n is None:
        try:
            n = round((s / z) ** 2) if z > 0 else 0
        except OverflowError:
            raise ValueError(f"column z: {z!r} does not fit s = {s}") from None
    return BetResult(bid, bid_class_of(bid), s, n, z, *rest)


def read_results_csv(path, n: int | None = None) -> ScreenResults:
    """Load a results CSV back into a ScreenResults.

    Gene ids are numbered in first-seen order, and each distinct run of
    the nine cells after them is parsed once into a table entry.  The
    sample count is not stored per row; pass n when downstream code needs
    BetResult.n, otherwise it is reconstructed from s and z (0 when
    s = 0).  A file whose header is not RESULT_COLUMNS, or with a row of
    another length or a cell that does not parse, raises BetscanError.
    """
    genes: dict[str, int] = {}
    tails: dict[tuple[str, ...], int] = {}
    table: list[BetResult] = []
    i, j, k = array("i"), array("i"), array("i")
    with open_input(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header) != RESULT_COLUMNS:
            raise BetscanError(
                f"{path}: header {','.join(header)!r} is not "
                f"{','.join(RESULT_COLUMNS)!r}"
            )
        for row in filter(None, reader):  # blank lines aside
            if len(row) != len(RESULT_COLUMNS):
                raise BetscanError(
                    f"{path}: line {reader.line_num}: {len(row)} cells, "
                    f"expected {len(RESULT_COLUMNS)}"
                )
            tail = tuple(row[2:])
            entry = tails.get(tail)
            if entry is None:
                try:
                    table.append(_parse_result(tail, n))
                except ValueError as exc:
                    raise BetscanError(
                        f"{path}: line {reader.line_num}: {exc}"
                    ) from None
                entry = tails[tail] = len(tails)
            i.append(genes.setdefault(row[0], len(genes)))
            j.append(genes.setdefault(row[1], len(genes)))
            k.append(entry)
    return ScreenResults(
        tuple(genes),
        *(np.array(column, dtype=np.int32) for column in (i, j, k)),
        tuple(table),
    )


def all_bid_diagnostics(
    planes: Sequence[BitPlanes],
    gene_ids: Sequence[str],
    results: ScreenResults,
) -> Iterator[str]:
    """Every interaction's statistic for the emitted pairs, as CSV lines.

    Yields the lines gene_i,gene_j,bid,bid_class,s,z of one kernel pass
    of pairs at a time, in row order and all_bids order within a pair;
    inference stays with the winning interaction in the main results.
    planes[x] belongs to gene_ids[x].  Each gene cell and each
    (interaction, S) cell is formatted once.
    """
    if not len(results):
        return
    index = {gene: x for x, gene in enumerate(gene_ids)}
    chosen = [planes[index[gene]] for gene in results.gene_ids]
    n, d = chosen[0].n, chosen[0].depth
    combos = _pack_combos(chosen, d)
    bids = all_bids(d, d)
    # code t * (n + 1) + c stands for interaction t with popcount c
    offsets = np.arange(len(bids), dtype=np.int32) * (n + 1)

    @cache
    def cell(code: int) -> str:
        t, c = divmod(code, n + 1)
        s = sign_factor(bids[t]) * (n - 2 * c)
        label = bid_class_of(bids[t]).label
        return _csv_line([bids[t].name, label, str(s), _fmt(z_score(s, n))])

    genes = _gene_cells(results.gene_ids)
    step = _pass_pairs(combos, d, d)
    for lo in range(0, len(results), step):
        i, j = results.i[lo : lo + step], results.j[lo : lo + step]
        codes = _interaction_counts(combos, i, j, d, d) + offsets
        unique, inverse = np.unique(codes, return_inverse=True)
        cells = [cell(code) for code in unique.tolist()]
        lines = []
        for a, b, row in zip(
            i.tolist(), j.tolist(), inverse.reshape(codes.shape).tolist()
        ):
            pair = genes[a] + genes[b]
            lines.append(pair + pair.join([cells[x] for x in row]))
        yield "".join(lines)


def write_diagnostics_csv(lines: Iterable[str], path) -> None:
    """Write all_bid_diagnostics' lines below their header, atomically."""
    with atomic_open(path) as fh:
        fh.write("gene_i,gene_j,bid,bid_class,s,z\n")
        fh.writelines(lines)


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


def compare_runs(
    results_a: ScreenResults,
    planes_b: Mapping[str, BitPlanes],
    bid_class: str,
) -> list[CompareRow]:
    """Class-specific z of run A's significant pairs, recomputed in run B.

    planes_b maps run B's gene ids to their planes.  Rows of run A whose
    winning class matches are kept; for each, z_b is the largest
    |S|/sqrt(n) in run B over the member interactions of the class, even
    when that class is not the winner there.  Taking the max over the
    reflection orbit makes it independent of which gene sits on which
    axis.  Pairs with a gene missing from run B are flagged
    'missing_in_b' (z_b = nan) rather than dropped.
    """
    label = parse_class_label(bid_class)
    rows = results_a.where(lambda r: r.bid_class.label == label)
    # each of run A's genes as an index into planes_b, -1 when missing
    in_b = {gene: x for x, gene in enumerate(planes_b)}
    index = np.array([in_b.get(gene, -1) for gene in rows.gene_ids], dtype=np.intp)
    u, v = index[rows.i], index[rows.j]
    if len(rows) and max(u.max(), v.max()) < 0:
        raise EmptyIntersectionError(
            "no gene of the selected pairs exists in the comparison run"
        )
    ok = (u >= 0) & (v >= 0)
    z_b = np.full(len(rows), np.nan)
    if ok.any():
        chosen = list(planes_b.values())
        n, d = chosen[0].n, chosen[0].depth
        combos = _pack_combos(chosen, d)
        members = class_members(label, d, d)
        columns = [t for t, bid in enumerate(all_bids(d, d)) if bid in members]
        u, v = u[ok], v[ok]
        step = _pass_pairs(combos, d, d)
        best = []
        for lo in range(0, len(u), step):
            counts = _interaction_counts(
                combos, u[lo : lo + step], v[lo : lo + step], d, d
            )
            best.append(np.abs(n - 2 * counts[:, columns]).max(1))
        z_b[ok] = np.concatenate(best) / np.sqrt(n)
    genes, table = rows.gene_ids, rows.table
    return [
        CompareRow(genes[a], genes[b], table[c].z, z, "ok" if f else "missing_in_b")
        for a, b, c, z, f in zip(
            rows.i.tolist(), rows.j.tolist(), rows.k.tolist(), z_b.tolist(), ok
        )
    ]
