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
as float32 matrix products, two partners a column up to n = 2047, exact in
any BLAS summation order below n = 2^24 (its docstring has the proof).
`_Winners` folds a pair's interactions into keys whose np.max is the first
maximum of |S| in canonical, a_mask-major order, so ties break as in
max_bet, whose S and argmax share no code with either class.

The loop has two levels, as in Goto and van de Geijn, "Anatomy of
High-Performance Matrix Multiplication" (ACM TOMS 34, 2008).  An outer
loop takes bands of row genes (224 at depth 2) and unpacks their labels
once.  An inner loop takes tiles of the later genes (128 at depth 2): each
tile's labels are unpacked once per band, and one product multiplies them
by every row of the band that has a partner in the tile.  The loop lives
in one generator, `_bands`, which yields each scored band in row order:
the int32 columns i, j and k of its kept pairs, the (t, S, p_raw) table
entries first seen in it, its significant pairs per interaction, and if
asked S of its kept pairs, from each tile's dots before `_Winners`
overwrites them.  `screen_all_pairs` joins the bands, hands each band's
(i, j, S) to on_band (--emit-all-bids writes `all_bid_diagnostics` from
them), and reads nothing else of the loop.  `band_rows` decodes a band's
candidates in a function of its own, because a suspended generator keeps
its locals alive: they die on return, which bounds the memory of an
emit-all screen.

Outside permutation draws a pair can be kept only if its |S| reaches the
least |S| that the table keeps, `least`.  In a significant-only screen
(least > 0) a row of a band against a tile gets winner keys only if some
|x| of it reaches least, which `_SignProducts.reaching` finds from the
packed product; S is an exact integer dot product, so no other row holds a
pair that could be kept, and its keys are 0, below every key that is
decoded.  The block of a band against a tile that starts inside the band
holds self pairs (|x| = n) and earlier pairs, which would mark every row;
it always gets keys, and the pairs that are not later are masked after.
Emit-all screens and permutation draws (least = 0) get keys for every
pair.  `compare_runs` (a class's largest |S| in a second dataset) takes S
of a list of pairs, mostly few and scattered, from
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
context.  Only the keys that reach least are decoded.  Each table entry's
BetResult comes from `core.maxbet.bet_result`, as max_bet's does.

The bands are scored in the calling thread, in row order, so results
come in pair-index order (i < j, lexicographic).  The matrix products run
on BLAS threads (OPENBLAS_NUM_THREADS caps them) and are exact, so the
bytes do not depend on them; worker_count is accepted for callers that
pass it and starts no thread.

The emitted rows stay columns: `ScreenResults` holds int32 columns i, j
and k, where k indexes a table with one BetResult per distinct (winner,
dot product, p_raw).  Each band codes each row as one int64, t (2n + 1) +
n - x; under permutation draws that code times B + 1, plus the draw's
count X = (1 + B) p_raw - 1, as B iterations give p_raw = (1 + X) / (1 +
B).  One np.unique of the codes maps the rows to the table, and each new
entry's (t, x, p_raw) is decoded from its code; `_check_draw_codes`
refuses a B whose codes would not fit.  Every reader works on the columns
and asks each table entry once.  `write_results_csv` and
`all_bid_diagnostics` format each gene-id cell and each table entry's (or
interaction and S's) cells once.  `_joined` picks a chunk's cells by
index arrays into one object array and joins it once, with no Python step
per row; the results go into a temporary file that is renamed over the
target when complete.  `read_results_csv` reads such a file back into a
ScreenResults, parsing each distinct result once.  `top_k_genes` folds
each row's z into its two genes with np.fmax.at.
"""

from __future__ import annotations

import itertools
import time
from array import array
from dataclasses import asdict, dataclass, replace
from functools import cache
from typing import Callable, Iterator, Mapping, Sequence

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
from .manifest import atomic_open, cell, csv_line, read_csv, refused_record
from .preprocess import ExpressionMatrix

__all__ = [
    "ScreenConfig",
    "ScreenSummary",
    "ScreenResults",
    "CompareRow",
    "precompute_bitplanes",
    "precompute_copulas",
    "screen_all_pairs",
    "screen_reach",
    "write_results_csv",
    "read_results_csv",
    "all_bid_diagnostics",
    "top_k_genes",
    "compare_runs",
    "RESULT_COLUMNS",
    "DIAGNOSTIC_COLUMNS",
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

# the columns of results_all_bids.csv: every interaction's statistic per pair
DIAGNOSTIC_COLUMNS = ("gene_i", "gene_j", "bid", "bid_class", "s", "z")


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
        for name, depth in (("d1", self.d1), ("d2", self.d2)):
            if depth < 1:
                raise ValueError(f"{name} must be >= 1, got {depth}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        null_method(self.mode, 0)  # refuses an unknown mode
        if self.bid_filter is not None and not self.bid_filter:
            raise ValueError("bid_filter names no class; None keeps every class")
        for label in sorted(self.bid_filter or ()):
            try:
                class_members(label, self.d1, self.d2)
            except ValueError as exc:
                raise ValueError(f"bid_filter: {exc}") from None
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


# A band of row genes holds _BAND_LABELS sign labels, 224 genes at depth 2,
# and a tile of partner genes _TILE_LABELS, 128 genes at depth 2; fewer
# genes at deeper depths, so that one product keeps about the same size.
# Each tile's labels are unpacked once per band.
_BAND_LABELS = 672
_TILE_LABELS = 384
# (pair, interaction) entries per chunk of all_bid_diagnostics' lines
_PASS_ENTRIES = 1 << 16
# float32 holds every integer up to 2^24 exactly
_FLOAT32_EXACT = 1 << 24
# the largest n at which two partner genes share a float32 column: with
# M = 4096 the partial sums stay within n (M + 1) < 2^24 (_SignProducts)
_PACKED_SAMPLES = 2047


def _band_sizes(ma: int, mb: int) -> tuple[int, int]:
    """Genes per band of rows (ma labels each) and per tile (mb each)."""
    return max(1, _BAND_LABELS // ma), max(1, _TILE_LABELS // mb)


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
    x_hi = rint(y / M) and x_lo = y - M * x_hi are exact too, and `split`
    puts them in the two halves of the last axis of the dots.  Above
    _PACKED_SAMPLES each column holds one partner (h = cols), and every
    partial sum is at most n, exact while n < 2^24.

    `reaching` tells which rows of a block of packed products hold some
    |x| >= least > 0 without splitting them.  x_lo = y - M * rint(y / M)
    as above, and |x_hi| >= least exactly when |y| >= M (least - 1/2):
    |y| >= M |x_hi| - |x_lo| > M (|x_hi| - 1/2), and |y| < M (|x_hi| + 1/2).
    A column with one partner has |y| = |x_lo| <= n < M / 2, so rint(y / M)
    is 0, x_lo = y and the test on x_hi never fires; one bound serves both
    layouts.  With two partners a column, M least - M / 2 is an integer
    below 2^24, so float32 holds it exactly.  With one it may round, but
    never below the power of two M / 2.

    The row labels of a band are stored gene-major, (gene, mask, n), so
    the first r genes of the band are one contiguous (r * ma, n) operand
    and a call is one 2-D product.  Labels are unpacked from the packed
    words into float32 buffers that are reused; set_rows takes a slice of
    at most `band` genes, a call a slice of at most `tile`, and `reaching`
    and `split` work on at most `band` rows.  Allocating the buffers per
    call made a 1000 x 1096 screen about 2% slower on two BLAS threads.
    """

    def __init__(self, combos: np.ndarray, n: int, ma: int, mb: int):
        _check_exact_products(n)
        self.combos, self.n, self.ma, self.mb = combos, n, ma, mb
        self.band, self.tile = _band_sizes(ma, mb)
        self.pack = 2 if n <= _PACKED_SAMPLES else 1
        self.scale = np.float32(1 << (2 * n).bit_length())
        columns = mb * -(-self.tile // self.pack)
        self._row_buf = np.empty(ma * self.band * n, np.float32)
        self._out_buf = np.empty(ma * self.band * columns, np.float32)
        # a tile's labels, and once its product is taken, its dots or |x_lo|
        dots = ma * self.band * mb * self.tile
        self._tile_buf = np.empty(max(columns * n, dots), np.float32)
        self._rows = self._row_buf[:0].reshape(0, n)

    def _bits(self, mask: int, genes: slice) -> np.ndarray:
        """Bits (genes, n) of one mask combination of genes, as uint8.

        One mask at a time keeps the uint8 copy small: unpacking a tile's
        three masks at once added 0.4 MB to a 1000 x 1096 screen's peak RSS.
        """
        words = self.combos[mask, genes].view(np.uint8)
        return np.unpackbits(words, axis=-1, count=self.n, bitorder="little")

    def set_rows(self, genes: slice) -> None:
        """Multiply by these genes from now on, gene-major."""
        rows = self._row_buf[: len(self.combos[0, genes]) * self.ma * self.n]
        rows = rows.reshape(-1, self.ma, self.n)
        for m in range(self.ma):
            np.multiply(self._bits(m, genes), np.float32(-2), out=rows[:, m])
        rows += 1
        self._rows = rows.reshape(-1, self.n)

    def _columns(self, genes: slice) -> np.ndarray:
        """Labels (mb * h, n) of genes, mask-major, gene q + h riding on gene q."""
        width = len(self.combos[0, genes])
        h = -(-width // self.pack)
        k = width - h  # the columns that carry a second gene
        cols = self._tile_buf[: self.mb * h * self.n].reshape(self.mb, h, self.n)
        for m, labels in enumerate(cols):
            bits = self._bits(m, genes)
            # 1 - 2 lo + M (1 - 2 hi), in place from the bits
            shared = labels[:k]
            shared[...] = bits[h:]
            shared *= -2 * self.scale
            shared += 1 + self.scale
            labels[k:] = 1
            lo = bits[:h]
            lo += lo
            labels -= lo
        return cols.reshape(-1, self.n)

    def __call__(self, genes: slice, rows: int) -> np.ndarray:
        """Packed products y (rows, ma, mb, h) of the first rows row genes and genes."""
        cols = self._columns(genes)
        y = self._out_buf[: rows * self.ma * len(cols)].reshape(-1, len(cols))
        np.matmul(self._rows[: rows * self.ma], cols.T, out=y)
        return y.reshape(rows, self.ma, self.mb, -1)

    def split(self, y: np.ndarray, width: int) -> np.ndarray:
        """Dots (rows, ma, mb, width) of packed products y of width partners."""
        h = y.shape[-1]
        k = width - h  # the columns that carry a second partner
        if not k:
            return y
        dots = self._tile_buf[: y.size // h * width].reshape(*y.shape[:-1], width)
        lo, hi = dots[..., :h], dots[..., h:]
        np.multiply(y[..., :k], 1 / self.scale, out=hi)
        np.rint(hi, out=hi)
        np.multiply(hi, -self.scale, out=lo[..., :k])
        lo[..., :k] += y[..., :k]
        lo[..., k:] = y[..., k:]
        return dots

    def reaching(self, y: np.ndarray, least: int) -> np.ndarray:
        """Indices of the rows of packed products y with some |x| >= least > 0.

        It writes |x_lo| where `split` writes the dots.
        """
        y = y.reshape(len(y), -1)
        size = self._tile_buf[: y.size].reshape(y.shape)
        np.abs(y, out=size)
        hit = (size >= self.scale * (least - 0.5)).any(1)
        np.multiply(y, 1 / self.scale, out=size)
        np.rint(size, out=size)
        size *= -self.scale
        size += y  # x_lo
        np.abs(size, out=size)
        hit |= (size >= least).any(1)
        return np.flatnonzero(hit)


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
        self.ties = ties.astype(self.dtype).reshape(ma, mb, 1)

    def keys(self, dots: np.ndarray, out: np.ndarray) -> None:
        """Write the winner keys of dots (rows, ma, mb, cols) to out (rows, cols).

        dots is overwritten: float32 keys are built in it, int64 keys in a
        new array.
        """
        negative = dots < 0
        keys = np.abs(dots, out=dots).astype(self.dtype, copy=False)
        keys *= 1 << self.shift
        keys += self.ties
        keys += negative
        np.max(keys, axis=(1, 2), out=out)

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
    *,
    on_band: Callable[[np.ndarray, np.ndarray, np.ndarray], object] | None = None,
) -> tuple[ScreenResults, ScreenSummary]:
    """Score every unordered gene pair; see the module docstring for rules.

    ranks is unused; it is accepted for callers that still pass it.
    on_band gets each band's kept rows after every refusal, before the next
    band is scored: int32 i < j and S (rows, T) in all_bids order, int16
    below n = 2^15 samples and int32 from there.
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
    bids = all_bids(d1, d2)
    bands = []
    for *band, s in _bands(planes, config, m_pairs, on_band is not None):
        if on_band is not None:
            on_band(*band[:2], s)
        bands.append(band)
        del s  # before the next band is scored
    i, j, k, entries, band_hits = zip(*bands)
    hits = sum(band_hits)
    results = ScreenResults(
        tuple(gene_ids),
        *(np.concatenate(column) for column in (i, j, k)),
        tuple(
            bet_result(t, s, n, d1, d2, mode, p, m_pairs)
            for t, s, p in itertools.chain.from_iterable(entries)
        ),
    )

    class_counts: dict[str, int] = {}
    for bid, count in zip(bids, hits.tolist()):
        if count:
            label = bid_class_of(bid).label
            class_counts[label] = class_counts.get(label, 0) + count

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


def _kept_classes(config: ScreenConfig) -> np.ndarray:
    """Whether bid_filter keeps the class of each of all_bids(d1, d2)."""
    classes = [bid_class_of(b).label for b in all_bids(config.d1, config.d2)]
    return np.isin(classes, list(config.bid_filter or classes))


def screen_reach(config: ScreenConfig, n: int, m_pairs: int) -> tuple[int, float]:
    """(least, smallest) of a screen of n samples over a family of m_pairs.

    least is the least |S| at which a pair can be kept: unless p_raw is
    drawn per pair, it is null_table[t, |S|], so no smaller |S| reaches a
    kept entry (n + 1 when none does); under draws it is 0.  smallest is
    the smallest p_pair_adj that a pair of a kept class can reach, from
    the least null_table entry of those classes, or 1 / (1 + B) under
    draws; above alpha, the screen can flag no pair.
    """
    keep_class = _kept_classes(config)
    p_table = null_table(config.mode, n, config.d1, config.d2)
    draw = null_draws(config.mode, n)
    if draw:
        floor = 1 / (1 + config.permutation_iterations)
    else:
        floor = float(p_table[keep_class].min())
    smallest = bonferroni(m_pairs, bonferroni(len(keep_class), floor))
    if draw:
        return 0, smallest
    sig = bonferroni(m_pairs, bonferroni(len(keep_class), p_table)) <= config.alpha
    kept_sizes = ((sig | config.emit_all) & keep_class[:, None]).any(0)
    return (int(kept_sizes.argmax()) if kept_sizes.any() else n + 1), smallest


def _check_draw_codes(count: int, n: int, iterations: int) -> None:
    """Refuse B = iterations draws that band_rows cannot code as one int64.

    A kept row's code t (2n + 1) + n - x times B + 1, plus its count X,
    stays below count (2n + 1) (B + 1), which must stay below 2^63; and
    rint((1 + B) p_raw) gives 1 + X back exactly only while 1 + B < 2^51.
    """
    most = min(1 << 51, -(-(1 << 63) // (count * (2 * n + 1)))) - 2
    if iterations > most:
        raise BetscanError(
            f"{iterations} permutation iterations: at most {most} at {count} "
            f"interactions and n = {n}, as each row's table code (interaction, "
            "S, draw count) is one int64, below 2^63, and needs 1 + B < 2^51"
        )


def _bands(
    planes: Sequence[BitPlanes], config: ScreenConfig, m_pairs: int, statistics=False
) -> Iterator[tuple]:
    """The kept pairs, and S if statistics, of each band; see the module docstring."""
    g, n, d1, d2 = len(planes), planes[0].n, config.d1, config.d2
    ma, mb = (1 << d1) - 1, (1 << d2) - 1
    p_table = null_table(config.mode, n, d1, d2)
    draw = null_draws(config.mode, n)
    iterations = config.permutation_iterations
    if draw:
        _check_draw_codes(ma * mb, n, iterations)
    combos = mask_combos(np.stack([p.planes[: max(d1, d2)] for p in planes]))[:, 1:]
    combos = np.ascontiguousarray(combos.transpose(1, 0, 2))  # mask-major
    products = _SignProducts(combos, n, ma, mb)
    winners = _Winners(ma, mb, n)
    keep_class = _kept_classes(config)
    least, _ = screen_reach(config, n, m_pairs)
    s_dtype = np.int16 if n < 1 << 15 else np.int32  # holds every |S| <= n
    signs = np.array([sign_factor(b) for b in all_bids(d1, d2)], s_dtype)
    empty = np.empty(0, np.int32), np.empty((0, ma, mb), s_dtype)

    def p_pair_of(p_raw: np.ndarray) -> np.ndarray:
        return bonferroni(m_pairs, bonferroni(winners.count, p_raw))

    # rows with the same winner, dot product and p_raw share one table
    # entry: its code (band_rows) -> its index
    shared: dict[int, int] = {}

    def entry(code: int) -> tuple[int, int, float]:
        """The (t, S, p_raw) of a table entry's code."""
        if draw:
            code, count = divmod(code, iterations + 1)
        t, rest = divmod(code, 2 * n + 1)
        x = n - rest
        # a draw's p_raw as permutation_pvalue divides it
        p_raw = (1 + count) / (1 + iterations) if draw else float(p_table[t, abs(x)])
        return t, int(signs[t]) * x, p_raw

    def band_rows(lo: int, keys: np.ndarray) -> tuple:
        """What the band from gene lo yields; keys[r, c] pairs lo + r, lo + 1 + c.

        The band's candidate arrays die on return, before the next band's
        products, which bounds the screen's peak memory.
        """
        s = None
        if pieces is not None:  # tile by tile, each in pair order: sort by row
            r, s = map(np.concatenate, zip(*pieces))
            pieces.clear()
            s = s[np.argsort(r, kind="stable")].reshape(-1, ma * mb)
            s *= signs
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
                p_raw[a:b] = permutation_pvalue(p_raw[a:b], iterations, seed)
        sig = p_pair_of(p_raw) <= config.alpha
        keep = (sig | config.emit_all) & keep_class[t]
        hits = np.bincount(t[keep & sig], minlength=winners.count)
        rows = np.flatnonzero(keep)
        i, j, t, x, p_raw = (column[rows] for column in (i, j, t, x, p_raw))
        s = None if s is None else s[rows]
        # (t, x) fixes p_raw, unless it is a Monte Carlo draw per pair; then
        # the draw's count X = (1 + B) p_raw - 1 joins the code, and as
        # p_raw grows with X, the codes sort as (t, x, p_raw) entries would
        code = t * (2 * n + 1) + n - x
        if draw:
            code *= iterations + 1
            code += np.rint(p_raw * (iterations + 1)).astype(np.int64) - 1
        codes, inverse = np.unique(code, return_inverse=True)
        codes = codes.tolist()
        fresh = [c for c in codes if c not in shared]
        shared.update(zip(fresh, itertools.count(len(shared))))
        k = np.array([shared[c] for c in codes], dtype=np.int32)[inverse]
        i, j = i.astype(np.int32), j.astype(np.int32)
        return i, j, k, list(map(entry, fresh)), hits, s

    def fill(keys: np.ndarray, y: np.ndarray, width: int, diagonal: bool, first: int):
        """Write the winner keys of packed products y to keys (rows, width).

        Off the diagonal block of a significant-only screen, only the rows
        with some |x| >= least get keys; the others get 0, below every key
        that band_rows keeps.  keys[r, c] pairs band row r and column first +
        c, and pieces gets (r, S) of each later pair that band_rows decodes.
        """
        if diagonal or not least:
            rows, found, dots = None, keys, products.split(y, width)
        else:
            keys[...] = 0
            rows = products.reaching(y, least)
            if not len(rows):
                return
            found = key_buf[: len(rows) * width].reshape(-1, width)
            dots = products.split(y[rows], width)
        s = None if pieces is None else dots.astype(s_dtype)
        winners.keys(dots, found)
        if rows is not None:
            keys[rows] = found
        if s is not None:
            r, c = np.nonzero(found >= least << winners.shift)
            row = r if rows is None else rows[r]
            later = first + c >= row
            pieces.append((row[later].astype(np.int32), s[r[later], :, :, c[later]]))

    band, tile = products.band, products.tile
    band_keys = np.empty(band * (g - 1), winners.dtype)
    key_buf = np.empty(band * tile, winners.dtype)
    for b0 in range(0, g - 1, band):
        b1 = min(b0 + band, g - 1)
        width = g - 1 - b0  # keys[r, c]: gene b0 + r and gene b0 + 1 + c
        keys = band_keys[: (b1 - b0) * width].reshape(b1 - b0, width)
        pieces = [empty] if statistics else None  # fill's (rows, S), never []
        products.set_rows(slice(b0, b1))
        for c0 in range(b0 + 1, g, tile):
            c1 = min(c0 + tile, g)
            rows = min(b1, c1 - 1) - b0  # the rows with a partner in the tile
            y = products(slice(c0, c1), rows)
            first = c0 - b0 - 1
            # a tile that starts inside the band holds self and earlier pairs
            fill(keys[:rows, first : c1 - b0 - 1], y, c1 - c0, c0 < b1, first)
        # row i pairs only with the genes after it
        keys[:, : b1 - b0][np.tri(b1 - b0, k=-1, dtype=bool)] = -1
        yield band_rows(b0, keys)


def _gene_cells(gene_ids: Sequence[str]) -> np.ndarray:
    """Each gene id as a CSV cell with the comma after it, an object array.

    It is formatted beside an empty field, because csv.writer writes a
    lone empty field as "".
    """
    return np.array([csv_line([gene, ""])[:-1] for gene in gene_ids], dtype=object)


def _joined(genes: np.ndarray, i: np.ndarray, j: np.ndarray, tails: np.ndarray) -> str:
    """The lines genes[i] + genes[j] + tails, in the order of tails' cells.

    i and j broadcast to the shape of tails.  The cells are filled into one
    object array and joined once, with no Python step per line.
    """
    cells = np.empty((*tails.shape, 3), dtype=object)
    cells[..., 0] = genes[i]
    cells[..., 1] = genes[j]
    cells[..., 2] = tails
    return "".join(cells.ravel().tolist())


def _result_cells(r: BetResult) -> list[str]:
    return [
        r.bid.name,
        r.bid_class.label,
        str(r.s),
        cell(r.z),
        cell(r.p_raw),
        cell(r.p_bid_adjusted),
        cell(r.p_pair_adjusted),
        cell(r.approximate),
        r.method,
    ]


def write_results_csv(results: ScreenResults, path) -> None:
    """Write the rows as CSV, replacing path only once the file is complete.

    Each gene id and each table entry is formatted once.  The file is
    written through atomic_open, so a failed write leaves the earlier
    file, if any, in place.
    """
    genes = _gene_cells(results.gene_ids)
    tails = np.array([csv_line(_result_cells(r)) for r in results.table], dtype=object)
    with atomic_open(path) as fh:
        fh.write(csv_line(RESULT_COLUMNS))
        for lo in range(0, len(results), _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            i, j, k = results.i[rows], results.j[rows], results.k[rows]
            fh.write(_joined(genes, i, j, tails[k]))


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
    that read_csv refuses, a row of another length or a cell that does not
    parse, raises BetscanError.
    """
    genes: dict[str, int] = {}
    tails: dict[tuple[str, ...], int] = {}
    table: list[BetResult] = []
    i, j, k = array("i"), array("i"), array("i")
    records = read_csv(path)
    _, header = next(records)
    if tuple(header) != RESULT_COLUMNS:
        raise BetscanError(
            f"{path}: header {','.join(header)!r} is not {','.join(RESULT_COLUMNS)!r}"
        )
    try:
        for line, row in records:
            tail = tuple(row[2:])
            entry = tails.get(tail)
            if entry is None:  # a new tail, as is that of a row of another length
                if len(row) != len(RESULT_COLUMNS):
                    raise ValueError(f"{len(row)} cells, expected {len(RESULT_COLUMNS)}")
                table.append(_parse_result(tail, n))
                entry = tails[tail] = len(tails)
            i.append(genes.setdefault(row[0], len(genes)))
            j.append(genes.setdefault(row[1], len(genes)))
            k.append(entry)
    except ValueError as exc:
        raise refused_record(path, line, exc) from None
    return ScreenResults(
        tuple(genes),
        *(np.array(column, dtype=np.int32) for column in (i, j, k)),
        tuple(table),
    )


def all_bid_diagnostics(
    gene_ids: Sequence[str], n: int, d1: int, d2: int
) -> Callable[[np.ndarray, np.ndarray, np.ndarray], Iterator[str]]:
    """The CSV lines of a screen's bands, from the (i, j, S) of each.

    The function returned takes the (i, j, S) that screen_all_pairs gives
    on_band and yields the lines gene_i,gene_j,bid,bid_class,s,z of
    _PASS_ENTRIES (pair, interaction) entries at a time, in row order and
    all_bids(d1, d2) order within a pair; inference stays with the winning
    interaction in the main results.  Each gene cell, and each
    (interaction, S) cell of the whole screen, is formatted once.
    """
    bids = all_bids(d1, d2)
    # code t * (2n + 1) + n + S stands for interaction t with statistic S
    offsets = np.arange(len(bids), dtype=np.int64) * (2 * n + 1) + n
    genes = _gene_cells(gene_ids)
    step = max(1, _PASS_ENTRIES // len(bids))

    @cache
    def tail_of(code: int) -> str:
        t, s = divmod(code, 2 * n + 1)
        s -= n
        label = bid_class_of(bids[t]).label
        return csv_line([bids[t].name, label, str(s), cell(z_score(s, n))])

    def lines(i: np.ndarray, j: np.ndarray, s: np.ndarray) -> Iterator[str]:
        for lo in range(0, len(i), step):
            rows = slice(lo, lo + step)
            codes = s[rows] + offsets
            unique, inverse = np.unique(codes, return_inverse=True)
            tails = np.array([tail_of(code) for code in unique.tolist()], dtype=object)
            cells = tails[inverse.reshape(codes.shape)]
            yield _joined(genes, i[rows, None], j[rows, None], cells)

    return lines


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
