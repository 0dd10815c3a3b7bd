"""All-pairs Max BET screening with family-wise error control.

`precompute_bitplanes` and `precompute_copulas` rank the genes
_RANK_GENES at a time with `rank_rows`, which names the first gene at
fault.  `expand_rank_rows` expands a block's ranks in one pass, and each
gene's BitPlanes is a view of the block's packed words.

Every gene's planes (BitPlanes.planes: W = ceil(n / 64) uint64 words per
digit, observation k at bit k % 64 of word k // 64 and zeros past n) are
combined once by `mask_combos`, d = max(d1, d2).  Bit k of mask m of a
gene gives the sign label -1 (set) or +1, and S of interaction (a, b) of
pair (i, j) is sign(a, b) times the dot product of label vector a of gene
i and label vector b of gene j.  `_SignProducts` gets these dot products
as float32 matrix products of a band of row genes (128 at depth 2) against
a tile of partner genes, two partners a column up to n = 2047, exact in
any BLAS summation order below n = 2^24 (its docstring has the proof).
`_Winners` folds a pair's interactions into keys whose np.max is the first
maximum of |S| in canonical, a_mask-major order, so ties break as in
max_bet, whose S and argmax share no code with either class.  The screen
scores row bands against every later gene, and each band's candidates in
one pass.  `all_bid_diagnostics` (every S of the emitted pairs, for
--emit-all-bids) and `compare_runs` (a class's largest |S| in a second
dataset) take S of a list of pairs, mostly few and scattered, from
`core.stats.cross_statistics`: T * W word operations a pair, where a
matrix product would unpack n labels per gene and multiply partners that
no pair asks for.

p_raw is `core.nulls.null_table`(...)[t, |S|], t the winner; where
`null_draws` says so (permutation mode above n = 8) it is drawn from that
entry with one Philox stream per row i (key (seed << 32) ^ i), whatever
the bands.  A pair is significant when its p_raw, Bonferroni-adjusted
(`core.maxbet.bonferroni`, min(1, m * p)) across the m_bids interactions
of the pair and then across m_pairs pairs, is at most alpha.  m_pairs
defaults to C(G, 2) of the screened matrix and may be overridden upward
(never downward) to adjust against a larger external family, e.g. the
full pair count of a parent dataset when screening a sample-subset
context.  Outside permutation draws a pair can be kept only if its |S|
reaches the least |S| that the table keeps, so only those keys are
decoded.  Each table entry's BetResult comes from `core.maxbet.bet_result`,
as max_bet's does.

The bands are scored in the calling thread, in row order, so results come
in pair-index order (i < j, lexicographic).  The matrix products run on
BLAS threads (OPENBLAS_NUM_THREADS caps them) and are exact, so the bytes
do not depend on them; worker_count is accepted for callers that pass it
and starts no thread.

The emitted rows stay columns: `ScreenResults` holds int32 columns i, j
and k, where k indexes a table with one BetResult per distinct (winner,
dot product, p_raw); each band maps its rows to the table with one
np.unique.  Every reader works on the columns and asks each table entry
once.  `write_results_csv` formats each gene-id cell and each table
entry's cells once and writes the rows as joined strings, a few thousand
at a time, into a temporary file that is renamed over the target when
complete.  `read_results_csv` reads such a file back into a ScreenResults,
parsing each distinct result once.  `top_k_genes` folds each row's z into
its two genes with np.fmax.at.
"""

from __future__ import annotations

import csv
import io
import time
from array import array
from dataclasses import asdict, dataclass, replace
from functools import cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core.bids import (
    all_bids,
    bid_class_of,
    bid_from_name,
    class_members,
    parse_class_label,
)
from .core.copula import CopulaColumn, rank_rows
from .core.expansion import BitPlanes, expand_rank_rows
from .core.maxbet import BetResult, bet_result, bonferroni
from .core.nulls import null_draws, null_method, null_table, permutation_pvalue
from .core.stats import cross_statistics, mask_combos, sign_factor, z_score
from .errors import BetscanError, EmptyIntersectionError
from .manifest import atomic_open, open_input
from .preprocess import ExpressionMatrix

__all__ = [
    "ScreenConfig",
    "ScreenSummary",
    "ScreenResults",
    "CompareRow",
    "precompute_bitplanes",
    "precompute_copulas",
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
        null_method(self.mode, 0)  # refuses an unknown mode
        if self.bid_filter is not None and not self.bid_filter:
            raise ValueError("bid_filter names no class; None keeps every class")
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


# rows per chunk when writing ScreenResults
_CHUNK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class ScreenResults:
    """Rows of a screen as columns.

    Row r is the pair (gene_ids[i[r]], gene_ids[j[r]]) with the result
    table[k[r]]; i, j and k are int32 arrays, the gene ids are distinct,
    and rows with equal results share one table entry.
    """

    gene_ids: tuple[str, ...]
    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    table: tuple[BetResult, ...]

    def __len__(self) -> int:
        return len(self.k)

    def _chunks(self) -> Iterator[tuple[list[int], list[int], list[int]]]:
        """The columns i, j, k as lists, _CHUNK_ROWS rows at a time."""
        for lo in range(0, len(self), _CHUNK_ROWS):
            yield tuple(
                column[lo : lo + _CHUNK_ROWS].tolist()
                for column in (self.i, self.j, self.k)
            )

    def where(self, keep: Callable[[BetResult], bool]) -> ScreenResults:
        """The rows whose result passes keep, asked once per table entry."""
        chosen = [k for k, result in enumerate(self.table) if keep(result)]
        rows = np.flatnonzero(np.isin(self.k, chosen))
        return replace(self, i=self.i[rows], j=self.j[rows], k=self.k[rows])


# genes ranked per argsort and expanded per pass; bounds the temporary arrays
_RANK_GENES = 32


def _gene_ranks(matrix: ExpressionMatrix) -> Iterator[np.ndarray]:
    """rank_rows of every gene, _RANK_GENES genes at a time."""
    for lo in range(0, matrix.n_genes, _RANK_GENES):
        hi = lo + _RANK_GENES
        yield rank_rows(matrix.values[lo:hi], matrix.gene_ids[lo:hi])


def precompute_bitplanes(matrix: ExpressionMatrix, d1: int) -> list[BitPlanes]:
    """Copula-transform and expand every gene once."""
    return [p for ranks in _gene_ranks(matrix) for p in expand_rank_rows(ranks, d1)]


def precompute_copulas(matrix: ExpressionMatrix) -> list[CopulaColumn]:
    return [CopulaColumn(r) for ranks in _gene_ranks(matrix) for r in ranks]


# A band of rows and a tile of partner genes hold _LABELS sign labels each:
# 128 genes at depth 2, fewer at deeper depths, so that one product keeps
# about the same size.
_LABELS = 384
# (pair, interaction) entries per pass of the emitted-pair statistics
_PASS_ENTRIES = 1 << 16
# float32 holds every integer up to 2^24 exactly
_FLOAT32_EXACT = 1 << 24
# the largest n at which two partner genes share a float32 column: with
# M = 4096 the partial sums stay within n (M + 1) < 2^24 (_SignProducts)
_PACKED_SAMPLES = 2047


def _band_sizes(ma: int, mb: int) -> tuple[int, int]:
    """Genes per band of rows (ma labels each) and per tile of partners (mb each)."""
    return max(1, _LABELS // ma), max(1, _LABELS // mb)


def _check_exact_products(n: int) -> None:
    """Refuse sample counts at which a float32 sign product could round."""
    if n >= _FLOAT32_EXACT:
        raise BetscanError(
            f"n = {n} samples: the screen's float32 sign products are exact "
            f"only below 2^24 = {_FLOAT32_EXACT} samples"
        )


class _SignProducts:
    """Dot products of genes' +-1 sign labels, one float32 matrix product each.

    Gene x's label of mask m is -1 at observation k where bit k of
    combos[m, x] is set, else +1, so mask a of gene x and mask b of gene y
    have the dot product n - 2 * popcount(combos[a, x] ^ combos[b, y]).

    A call's partner genes are packed two to a column.  With h = ceil(cols
    / 2) and M = `scale` the least power of two above 2n, column q of mask
    b holds label(q) + M * label(q + h) (label(q) alone when q + h >= cols),
    so one product gives y = x_lo + M * x_hi for both partners.  Every term
    is +-1 +- M, so every partial sum is an integer of size at most
    n (M + 1) <= 2047 * 4097 < 2^24 while n <= _PACKED_SAMPLES, and BLAS
    gets y exactly in any summation order.  As |x_lo| <= n < M / 2,
    x_hi = rint(y / M) and x_lo = y - M * x_hi are exact too, and they fill
    the two halves of the last axis of the dots.  Above _PACKED_SAMPLES
    each column holds one partner (h = cols), and every partial sum is at
    most n, exact while n < 2^24.

    Labels are unpacked from the packed words into float32 buffers that
    are reused; set_rows takes a slice of at most `band` genes and a call
    a slice of at most `tile`.  Allocating the four buffers per call made a
    1000 x 1096 screen about 2% slower on two BLAS threads (none on one).
    """

    def __init__(self, combos: np.ndarray, n: int, ma: int, mb: int):
        _check_exact_products(n)
        self.combos, self.n, self.ma, self.mb = combos, n, ma, mb
        self.band, self.tile = _band_sizes(ma, mb)
        self.pack = 2 if n <= _PACKED_SAMPLES else 1
        self.scale = np.float32(1 << (2 * n).bit_length())
        columns = mb * -(-self.tile // self.pack)
        self._row_buf = np.empty(ma * self.band * n, np.float32)
        self._col_buf = np.empty(columns * n, np.float32)
        self._out_buf = np.empty(ma * self.band * columns, np.float32)
        self._dot_buf = np.empty(ma * self.band * mb * self.tile, np.float32)
        self._rows = self._row_buf[:0].reshape(0, n)

    def _labels(
        self, masks: int, genes: slice, pack: int, buf: np.ndarray
    ) -> np.ndarray:
        """Labels (masks * h, n) of combos[:masks, genes], mask-major.

        h = ceil(len(genes) / pack), and gene q + h rides on gene q,
        scaled by M.
        """
        words = self.combos[:masks, genes]
        bits = np.unpackbits(
            words.view(np.uint8), axis=-1, count=self.n, bitorder="little"
        )
        h = -(-bits.shape[1] // pack)
        k = bits.shape[1] - h  # the columns that carry a second gene
        labels = buf[: masks * h * self.n].reshape(masks, h, self.n)
        # 1 - 2 lo + M (1 - 2 hi), in place from the bits
        shared = labels[:, :k]
        shared[...] = bits[:, h:]
        shared *= -2 * self.scale
        shared += 1 + self.scale
        labels[:, k:] = 1
        lo = bits[:, :h]
        lo += lo
        labels -= lo
        return labels.reshape(-1, self.n)

    def set_rows(self, genes: slice) -> None:
        """Multiply by these genes from now on."""
        self._rows = self._labels(self.ma, genes, 1, self._row_buf)

    def __call__(self, genes: slice) -> np.ndarray:
        """Dots (ma, rows, mb, len(genes)) of the row genes against genes."""
        cols = self._labels(self.mb, genes, self.pack, self._col_buf)
        rows, width = len(self._rows), len(self.combos[0, genes])
        y = self._out_buf[: rows * len(cols)].reshape(rows, len(cols))
        np.matmul(self._rows, cols.T, out=y)
        y = y.reshape(self.ma, -1, self.mb, len(cols) // self.mb)
        h = y.shape[-1]
        k = width - h  # the columns that carry a second partner
        if not k:
            return y
        dots = self._dot_buf[: y.size // h * width].reshape(*y.shape[:-1], width)
        lo, hi = dots[..., :h], dots[..., h:]
        np.multiply(y[..., :k], 1 / self.scale, out=hi)
        np.rint(hi, out=hi)
        np.multiply(hi, -self.scale, out=lo[..., :k])
        lo[..., :k] += y[..., :k]
        lo[..., k:] = y[..., k:]
        return dots


class _Winners:
    """The first maximum of |dot| over a pair's interactions, as one number.

    With T interactions and s = bit_length(T - 1) + 1, interaction t with
    dot product x has the key

        |x| * 2^s + 2 * (T - 1 - t) + [x < 0]

    so the largest key holds the largest |x| and, among equal |x|, the
    lowest t (all_bids order, as in max_bet); its low bit keeps the sign.
    Keys are float32 while they stay below 2^24, else int64, so they are
    exact for every depth and n.
    """

    def __init__(self, ma: int, mb: int, n: int):
        self.count = ma * mb
        self.shift = (self.count - 1).bit_length() + 1
        top = (n + 1) << self.shift
        self.dtype = np.dtype(np.float32 if top < _FLOAT32_EXACT else np.int64)
        ties = 2 * (self.count - 1 - np.arange(self.count))
        self.ties = ties.astype(self.dtype).reshape(ma, 1, mb, 1)

    def keys(self, dots: np.ndarray, out: np.ndarray) -> None:
        """Write the winner keys of dots (ma, rows, mb, cols) to out (rows, cols).

        dots is overwritten: float32 keys are built in it, int64 keys in a
        new array.
        """
        negative = dots < 0
        keys = np.abs(dots, out=dots).astype(self.dtype, copy=False)
        keys *= 1 << self.shift
        keys += self.ties
        keys += negative
        np.max(keys, axis=(0, 2), out=out)

    def decode(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(t, x) of each key: the winning interaction and its dot product."""
        keys = keys.astype(np.int64)
        low = keys & ((1 << self.shift) - 1)
        size = keys >> self.shift
        return self.count - 1 - (low >> 1), np.where(low & 1, -size, size)


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
        raise BetscanError(f"need at least two genes, got {g}")
    if len(gene_ids) != g:
        raise ValueError("gene_ids and planes disagree in length")
    if len(set(gene_ids)) != g:
        raise ValueError("gene ids must be distinct")
    total_pairs = g * (g - 1) // 2
    m_pairs = config.m_pairs if config.m_pairs is not None else total_pairs
    if m_pairs < total_pairs:
        raise BetscanError(
            f"m_pairs={m_pairs} below the {total_pairs} pairs screened; "
            "the external family may only be larger"
        )
    n, d1, d2, mode = planes[0].n, config.d1, config.d2, config.mode
    depth = max(d1, d2)
    if any(p.n != n or p.depth < depth for p in planes):
        raise ValueError(
            f"every gene needs {n} samples and planes of depth >= {depth}"
        )
    started = time.perf_counter()
    ma, mb = (1 << d1) - 1, (1 << d2) - 1
    combos = mask_combos(np.stack([p.planes[:depth] for p in planes]))[:, 1:]
    combos = np.ascontiguousarray(combos.transpose(1, 0, 2))  # mask-major
    products = _SignProducts(combos, n, ma, mb)
    winners = _Winners(ma, mb, n)
    bids = all_bids(d1, d2)
    classes = [bid_class_of(b) for b in bids]
    signs = [sign_factor(b) for b in bids]
    keep_class = (
        None
        if config.bid_filter is None
        else np.array([c.label in config.bid_filter for c in classes])
    )
    p_table = null_table(mode, n, d1, d2)
    draw = null_draws(mode, n)

    def p_pair_of(p_raw: np.ndarray) -> np.ndarray:
        return bonferroni(m_pairs, bonferroni(len(bids), p_raw))

    def kept(t: np.ndarray, sig: np.ndarray) -> np.ndarray:
        keep = sig | config.emit_all
        return keep if keep_class is None else keep & keep_class[t]

    # Unless p_raw is drawn per pair, it is p_table[t, |S|]: a pair can be
    # kept only if its |S| reaches the least |S| kept in that table.
    least = 0
    if not draw:
        t_all = np.arange(len(bids))[:, None]
        kept_sizes = kept(t_all, p_pair_of(p_table) <= config.alpha).any(0)
        least = int(kept_sizes.argmax()) if kept_sizes.any() else n + 1

    # rows with the same winner, dot product and p_raw share one table
    # entry: (t, x, p_raw) -> its index
    shared: dict[tuple[int, int, float], int] = {}
    hits = np.zeros(len(bids), dtype=np.int64)

    def band_rows(lo: int, keys: np.ndarray) -> tuple[np.ndarray, ...]:
        """Int32 columns i, j, k of the kept pairs of the band from gene lo.

        keys[r, c] is the winner key of gene lo + r and gene lo + 1 + c.
        The band's candidate arrays die on return, before the next band's
        products, which bounds the screen's peak memory.
        """
        # the band's candidates in pair order: winner t and its dot product x
        i, j = np.nonzero(keys >= least << winners.shift)
        t, x = winners.decode(keys[i, j])
        i += lo
        j += lo + 1
        p_raw = p_table[t, np.abs(x)]
        if draw:
            # one stream per row, so p_raw does not depend on the bands
            starts = np.flatnonzero(np.diff(i, prepend=-1)).tolist()
            for a, b in zip(starts, starts[1:] + [len(i)]):
                seed = (config.seed << 32) ^ int(i[a])
                p_raw[a:b] = permutation_pvalue(
                    p_raw[a:b], config.permutation_iterations, seed
                )
        sig = p_pair_of(p_raw) <= config.alpha
        keep = kept(t, sig)
        hits[:] += np.bincount(t[keep & sig], minlength=len(bids))
        rows = np.flatnonzero(keep)
        i, j, t, x, p_raw = (column[rows] for column in (i, j, t, x, p_raw))
        # (t, x) fixes p_raw, unless it is a Monte Carlo draw per pair
        code = t * (2 * n + 1) + n - x
        if draw:
            code = np.stack([code, p_raw.view(np.int64)], axis=1)
        _, first, inverse = np.unique(
            code, return_index=True, return_inverse=True, axis=0
        )
        entries = zip(*(column[first].tolist() for column in (t, x, p_raw)))
        lut = np.array(
            [shared.setdefault(key, len(shared)) for key in entries], dtype=np.int32
        )
        return i.astype(np.int32), j.astype(np.int32), lut[inverse.reshape(-1)]

    columns: list[tuple[np.ndarray, ...]] = []  # one per band
    band_keys = np.empty(products.band * (g - 1), winners.dtype)
    for lo in range(0, g - 1, products.band):
        hi = min(lo + products.band, g - 1)
        width = g - 1 - lo  # the partners lo + 1 .. g - 1
        keys = band_keys[: (hi - lo) * width].reshape(hi - lo, width)
        products.set_rows(slice(lo, hi))
        for c0 in range(0, width, products.tile):
            c1 = min(c0 + products.tile, width)
            winners.keys(products(slice(lo + 1 + c0, lo + 1 + c1)), keys[:, c0:c1])
        # row i pairs only with the genes after it
        keys[:, : hi - lo][np.tri(hi - lo, k=-1, dtype=bool)] = -1
        columns.append(band_rows(lo, keys))
    results = ScreenResults(
        tuple(gene_ids),
        *(np.concatenate(column) for column in zip(*columns)),
        tuple(
            bet_result(t, signs[t] * x, n, d1, d2, mode, p, m_pairs)
            for t, x, p in shared
        ),
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
        d1=d1,
        d2=d2,
        mode=mode,
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
    s = 0).  A file whose header is not RESULT_COLUMNS, or with a record
    that csv.reader refuses, a row of another length or a cell that does
    not parse, raises BetscanError.
    """
    genes: dict[str, int] = {}
    tails: dict[tuple[str, ...], int] = {}
    table: list[BetResult] = []
    i, j, k = array("i"), array("i"), array("i")
    with open_input(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if tuple(header) != RESULT_COLUMNS:
                raise BetscanError(
                    f"{path}: header {','.join(header)!r} is not "
                    f"{','.join(RESULT_COLUMNS)!r}"
                )
            for row in filter(None, reader):  # blank lines aside
                if len(row) != len(RESULT_COLUMNS):
                    raise ValueError(
                        f"{len(row)} cells, expected {len(RESULT_COLUMNS)}"
                    )
                tail = tuple(row[2:])
                entry = tails.get(tail)
                if entry is None:
                    table.append(_parse_result(tail, n))
                    entry = tails[tail] = len(tails)
                i.append(genes.setdefault(row[0], len(genes)))
                j.append(genes.setdefault(row[1], len(genes)))
                k.append(entry)
        except (ValueError, csv.Error) as exc:
            raise BetscanError(f"{path}: line {reader.line_num}: {exc}") from None
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
    combos = mask_combos(np.stack([p.planes for p in chosen]))[:, 1:]
    bids = all_bids(d, d)
    # code t * (2n + 1) + n + S stands for interaction t with statistic S
    offsets = np.arange(len(bids), dtype=np.int64) * (2 * n + 1) + n

    @cache
    def cell(code: int) -> str:
        t, s = divmod(code, 2 * n + 1)
        s -= n
        label = bid_class_of(bids[t]).label
        return _csv_line([bids[t].name, label, str(s), _fmt(z_score(s, n))])

    genes = _gene_cells(results.gene_ids)
    step = max(1, _PASS_ENTRIES // len(bids))
    for lo in range(0, len(results), step):
        i, j = results.i[lo : lo + step], results.j[lo : lo + step]
        codes = cross_statistics(combos, combos, i, j, n) + offsets
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


def top_k_genes(results: ScreenResults, k: int = 200) -> list[tuple[str, float]]:
    """Genes ranked by their maximum z over the given (significant) pairs.

    Descending z, ties broken by gene id; the first k are returned.  A
    gene is ranked when that maximum exceeds -1 (a NaN z never counts),
    and the first row that holds it supplies it, so 0.0 and -0.0 read as
    written.
    """
    i, j = results.i, results.j
    z = np.array([r.z for r in results.table], dtype=np.float64)[results.k]
    best = np.full(len(results.gene_ids), -1.0)
    np.fmax.at(best, i, z)
    np.fmax.at(best, j, z)
    # fmax may keep 0.0 or -0.0; as in a fold row by row, the first row at
    # a gene's maximum supplies it
    hit = np.flatnonzero((z == best[i]) | (z == best[j]))
    genes = np.stack([i[hit], j[hit]], axis=1).ravel()
    z = np.repeat(z[hit], 2)
    at_max = np.flatnonzero(z == best[genes])
    _, first = np.unique(genes[at_max], return_index=True)
    best[genes[at_max[first]]] = z[at_max[first]]
    ranked = sorted(
        (kv for kv in zip(results.gene_ids, best.tolist()) if kv[1] > -1.0),
        key=lambda kv: (-kv[1], kv[0]),
    )
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
        # only the genes that the rows name are packed
        named, uv = np.unique(np.hstack([rows.i[ok], rows.j[ok]]), return_inverse=True)
        chosen = [planes_b[rows.gene_ids[x]] for x in named.tolist()]
        n, d = chosen[0].n, chosen[0].depth
        members = class_members(label, d, d)
        columns = [t for t, bid in enumerate(all_bids(d, d)) if bid in members]
        combos = mask_combos(np.stack([p.planes for p in chosen]))[:, 1:]
        s = cross_statistics(combos, combos, *uv.reshape(2, -1), n)
        z_b[ok] = np.abs(s[:, columns]).max(1) / np.sqrt(n)
    genes, table = rows.gene_ids, rows.table
    return [
        CompareRow(genes[a], genes[b], table[c].z, z, "ok" if f else "missing_in_b")
        for a, b, c, z, f in zip(
            rows.i.tolist(), rows.j.tolist(), rows.k.tolist(), z_b.tolist(), ok
        )
    ]
