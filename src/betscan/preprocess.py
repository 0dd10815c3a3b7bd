"""Expression-matrix ingestion and the cleaning pipeline.

load_matrix reads a file as csv.reader and float() would, row by row, but
in blocks of _BLOCK_LINES lines.  A first binary pass counts the lines,
which bounds the gene rows, so the values go straight into one array and
the peak memory is that array plus one block.  Each block's gene ids are
the text before each line's first delimiter, stripped; its cells are
parsed by one np.loadtxt call, which rounds as float() does, after a check
that every line has one delimiter per sample (loadtxt would drop extra
cells).  A block goes to csv.reader and float() instead when it holds a
quote (a quoted cell may span lines; csv.reader then reads on past the
block to the end of its record) or a NUL, a row of the wrong length, or a
cell that loadtxt refuses but float() may take, such as '1_000'.  That
path also names the line and column of a fault, so the accepted input,
the values and the errors are those of the row-by-row parse.  A pipe is
read once, into memory, to count its lines.

`betscan preprocess` also writes matrix.tsv.npz beside its matrix.tsv
(save_binary_copy): the float64 values, the gene and sample ids as
fixed-width unicode arrays, and the sha256 of the text's bytes.  The
invariant: the copy holds exactly what the tab-delimited parse of that
text returns.  It holds because save_matrix writes repr floats, which
reload bit-exact, and save_binary_copy writes only what check_savable
accepts: finite values, and stripped ids with no tab, quote, CR, LF or
NUL.
load_matrix trusts a copy only through its digest: when fmt is
tab-delimited, path is a regular file and <path>.npz loads without
pickles, holds every key and records the sha256 of path's bytes (taken
now, or passed by a caller that hashed them), its arrays are returned and
the text is not parsed.  Any other copy is ignored and the text parsed,
so the text stays the source of truth and a copy adds no error.

Count matrices as published typically carry two artifacts that break a
rank transform: genes whose zero counts were replaced by the gene median
(a large spike of exactly-equal values), and residual zeros (ties at the
minimum).  The pipeline applies, in order:

    1. filter_zero_heavy   drop genes with more than 20% zero entries
    2. reset_median_imputed   move all but the first median duplicate back
       to the column minimum (zero counts are small expression, not
       typical expression)
    3. jitter_minimum_ties    spread tied minima over the open interval
       up to the second-smallest distinct value

after which each column is strictly ordered and ready for
the rank transform.  Jitter never crosses the second-smallest value, so
every jittered observation stays in the lowest rank block and no
non-minimum ordering changes.

Randomness is drawn from numpy's Philox counter-based generator.  Gene g
of a run seeded with s uses the stream Philox(key = s * 2^64 + g), with g
the row index in the filtered matrix; results are therefore reproducible
for a given (seed, input) regardless of scheduling or gene order of
processing.
"""

from __future__ import annotations

import csv
import itertools
import os
import re
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from .errors import (
    BetscanError,
    DegenerateColumnError,
    DegenerateSampleError,
    DimensionMismatchError,
    MatrixParseError,
    NonFiniteError,
    UnknownLabelError,
)
from .manifest import atomic_open, open_input, sha256_file

__all__ = [
    "ExpressionMatrix",
    "PreprocessReport",
    "load_matrix",
    "save_matrix",
    "save_binary_copy",
    "check_savable",
    "load_labels",
    "filter_zero_heavy",
    "reset_median_imputed",
    "jitter_minimum_ties",
    "subset_by_labels",
    "upper_quartile_log2",
    "run_pipeline",
    "gene_stream_key",
]

_MASK64 = (1 << 64) - 1


@dataclass
class ExpressionMatrix:
    """Genes x samples matrix with identifiers and optional sample labels."""

    gene_ids: list[str]
    sample_ids: list[str]
    values: np.ndarray
    labels: list[str] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimensionMismatchError("values must be a 2-d array")
        g, s = self.values.shape
        if g != len(self.gene_ids):
            raise DimensionMismatchError(
                f"{len(self.gene_ids)} gene ids for {g} rows"
            )
        if s != len(self.sample_ids):
            raise DimensionMismatchError(
                f"{len(self.sample_ids)} sample ids for {s} columns"
            )
        if self.labels is not None and len(self.labels) != s:
            raise DimensionMismatchError(
                f"{len(self.labels)} labels for {s} samples"
            )

    @property
    def n_genes(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    def gene_index(self, gene_id: str) -> int:
        try:
            return self.gene_ids.index(gene_id)
        except ValueError:
            from .errors import UnknownGeneError

            raise UnknownGeneError(gene_id) from None

    def column(self, gene_id: str) -> np.ndarray:
        return self.values[self.gene_index(gene_id)]

    def with_labels(self, mapping: dict[str, str]) -> "ExpressionMatrix":
        """Attach per-sample labels from a sample_id -> label mapping."""
        missing = [s for s in self.sample_ids if s not in mapping]
        if missing:
            raise DimensionMismatchError(
                f"labels missing for sample(s): {', '.join(missing[:5])}"
                + ("..." if len(missing) > 5 else "")
            )
        labels = [mapping[s] for s in self.sample_ids]
        return replace(self, values=self.values.copy(), labels=labels)


@dataclass
class PreprocessReport:
    """What the pipeline changed, keyed by gene id."""

    genes_dropped: list[dict] = field(default_factory=list)
    medians_reset: dict[str, int] = field(default_factory=dict)
    jitter_seed: int = 0
    jitter_widths: dict[str, float] = field(default_factory=dict)


_DELIMS = {"tsv_genes_by_samples": "\t", "tsv": "\t", "csv": ","}

# body lines parsed per np.loadtxt call; bounds the text held at once
_BLOCK_LINES = 32


def load_matrix(
    path, fmt: str = "tsv_genes_by_samples", *, sha256: str | None = None
) -> ExpressionMatrix:
    """Parse a delimited genes-by-samples matrix.

    First row: corner cell then sample ids.  Each following row: gene id
    then one numeric cell per sample ('.' decimal separator).  Bad cells
    raise MatrixParseError with 1-based line/column coordinates.  For a
    tab-delimited fmt, the arrays of a binary copy at <path>.npz that
    records path's sha256 are returned instead of a parse (module docstring).
    A caller that has hashed path may pass the digest as sha256.
    """
    delim = _delimiter(fmt)
    copy = _load_binary_copy(path, sha256) if delim == "\t" else None
    if copy is not None:
        return copy
    with open_input(path) as fh:
        return _parse_matrix(fh, path, delim)


def _delimiter(fmt: str) -> str:
    if fmt not in _DELIMS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {sorted(_DELIMS)}")
    return _DELIMS[fmt]


def _parse_matrix(fh, path, delim: str) -> ExpressionMatrix:
    # csv.reader takes lines from fh one at a time and stops at the end of
    # a record, so after the header, or a record of the csv path below, fh
    # goes on at the next line
    try:
        header = next(csv.reader(fh, delimiter=delim))
    except StopIteration:
        raise MatrixParseError(path, 1, 1, "empty file") from None
    except csv.Error as exc:
        raise _csv_error(path, 1, exc) from None
    if len(header) < 2:
        raise MatrixParseError(path, 1, 1, "header has no sample ids")
    sample_ids = [c.strip() for c in header[1:]]
    width = len(sample_ids)

    lines, bound = _body_lines(fh, path, width)
    values = np.empty((bound, width))
    gene_ids: list[str] = []
    line_no = 2  # csv record number of the next body line
    while block := list(itertools.islice(lines, _BLOCK_LINES)):
        g = len(gene_ids)
        parsed = _parse_block(block, delim, width, gene_ids)
        if parsed is None:
            records = csv.reader(itertools.chain(block, lines), delimiter=delim)
            parsed, line_no = _parse_records(
                records, len(block), path, line_no, width, gene_ids
            )
        else:
            line_no += len(block)
        values[g : len(gene_ids)] = parsed
    if not gene_ids:
        raise MatrixParseError(path, 2, 1, "no gene rows")
    if len(gene_ids) < bound:
        values = values[: len(gene_ids)].copy()
    return ExpressionMatrix(gene_ids=gene_ids, sample_ids=sample_ids, values=values)


def _body_lines(fh, path, width: int) -> tuple[Iterator[str], int]:
    """The lines of fh after its header, and an upper bound on their records.

    A record takes at least one line and holds `width` delimiters, so there
    are no more records than lines, nor than characters // width.  A pipe
    can be read only once, so its lines are held in memory; a file's are
    counted in a binary pass.
    """
    if not fh.seekable():
        held = list(fh)
        return iter(held), min(len(held), sum(map(len, held)) // width)
    count, size, last = 0, 0, b"\n"
    with open(path, "rb") as raw:
        for chunk in iter(lambda: raw.read(1 << 20), b""):
            # '\n', '\r' and '\r\n' each end a line
            count += chunk.count(b"\n") + chunk.count(b"\r") - chunk.count(b"\r\n")
            if last == b"\r" and chunk.startswith(b"\n"):
                count -= 1  # a '\r\n' split between two chunks
            size += len(chunk)
            last = chunk[-1:]
    if last not in b"\r\n":
        count += 1  # a last line without a line break
    # the header took at least one line
    return fh, min(count - 1, size // width)


def _parse_block(
    lines: list[str], delim: str, width: int, gene_ids: list[str]
) -> np.ndarray | None:
    """Parse lines that hold one record each with one loadtxt call.

    Returns their (records, width) values and appends their gene ids, or
    returns None and appends nothing when csv.reader must read the lines:
    a quote or NUL, a row of the wrong length, or a cell that loadtxt
    refuses (float() also takes '1_000').  A carriage return needs no
    csv.reader: a file opened with newline="" ends a line at every one.
    """
    text = "".join(lines)
    if '"' in text or "\0" in text:
        return None
    # csv.reader's blank records: no delimiter and nothing but whitespace
    rows = [line for line in lines if delim in line or line.strip()]
    if any(line.count(delim) != width for line in rows):
        return None
    if not rows:
        return np.empty((0, width))
    try:
        values = np.loadtxt(
            rows,
            delimiter=delim,
            usecols=range(1, width + 1),
            comments=None,
            ndmin=2,
        )
    except ValueError:
        return None
    gene_ids.extend(line.partition(delim)[0].strip() for line in rows)
    return values


def _parse_records(
    records, lines: int, path, line_no: int, width: int, gene_ids: list[str]
) -> tuple[np.ndarray, int]:
    """Read csv records until `lines` source lines are consumed.

    A quoted cell may carry the last record past them.  Returns the values
    and the record number after the last one read; raises MatrixParseError
    at the first bad record or cell.
    """
    rows: list[np.ndarray] = []
    try:
        for row in records:
            if row and (len(row) > 1 or row[0].strip()):
                if len(row) != width + 1:
                    raise MatrixParseError(
                        path, line_no, len(row),
                        f"expected {width + 1} cells, found {len(row)}",
                    )
                gene_ids.append(row[0].strip())
                try:
                    rows.append(np.fromiter(map(float, row[1:]), np.float64, width))
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
            line_no += 1
            if records.line_num >= lines:
                break
    except csv.Error as exc:
        raise _csv_error(path, line_no, exc) from None
    return np.array(rows, dtype=np.float64).reshape(-1, width), line_no


def _csv_error(path, line: int, exc: csv.Error) -> BetscanError:
    """A record that csv.reader refuses, such as a field past its size limit."""
    return BetscanError(f"{path}: line {line}: {exc}")


def save_matrix(matrix: ExpressionMatrix, path, fmt: str = "tsv_genes_by_samples"):
    """Write a matrix back out; floats use repr so reload is bit-exact."""
    delim = _delimiter(fmt)
    with atomic_open(path) as fh:
        fh.write(delim.join(["gene_id", *matrix.sample_ids]) + "\n")
        for gene, row in zip(matrix.gene_ids, matrix.values):
            fh.write(delim.join([gene, *map(repr, row.tolist())]) + "\n")


# the arrays of a binary copy
_COPY_KEYS = ("values", "gene_ids", "sample_ids", "sha256")

# characters that save_matrix cannot write in an id so that load_matrix reads
# it back: the delimiter, the csv quote and line ends; fixed-width unicode
# arrays also drop a trailing NUL
_UNSAVABLE = re.compile('[\t"\r\n\0]')


def _binary_copy_path(path) -> str:
    return f"{os.fspath(path)}.npz"


def save_binary_copy(matrix: ExpressionMatrix, path):
    """Write <path>.npz, the arrays of the text that save_matrix(matrix, path) wrote.

    Raises check_savable's BetscanError, and writes nothing, for a matrix
    whose parse would differ from its arrays.  The copy records the sha256
    of path's bytes, so load_matrix uses it only for that text.  It is
    written atomically by np.savez, uncompressed; np.savez dates each
    member 1980-01-01, so the same matrix gives the same bytes.
    """
    check_savable(matrix)
    arrays = {
        "values": np.ascontiguousarray(matrix.values),
        "gene_ids": np.array(matrix.gene_ids, dtype=str),
        "sample_ids": np.array(matrix.sample_ids, dtype=str),
        "sha256": np.array(sha256_file(path)),
    }
    with atomic_open(_binary_copy_path(path), binary=True) as fh:
        np.savez(fh, **arrays)


def _load_binary_copy(path, sha256: str | None) -> ExpressionMatrix | None:
    """The matrix in path's binary copy, or None when the copy may not stand for path."""
    copy = _binary_copy_path(path)
    if not (os.path.isfile(path) and os.path.isfile(copy)):
        return None
    try:
        # np.load leaves a file it opened open when the archive is cut
        with open(copy, "rb") as fh, np.load(fh, allow_pickle=False) as arrays:
            if sorted(arrays.files) != sorted(_COPY_KEYS):
                return None
            if _text(arrays["sha256"]) != (sha256 or sha256_file(path)):
                return None
            values = arrays["values"]
            genes, samples = arrays["gene_ids"], arrays["sample_ids"]
    except Exception:
        # a cut or altered archive fails in zipfile or its decompressors with
        # BadZipFile, EOFError, NotImplementedError, RuntimeError and more;
        # np.load refuses a pickle or a bad header with ValueError, and the
        # array it returns for a lone .npy file is no context manager.
        # Whatever fails, the text is parsed instead
        return None
    if not (
        values.dtype == np.float64
        and values.ndim == 2
        and 0 not in values.shape  # the parse refuses such a file
        and genes.dtype.kind == samples.dtype.kind == "U"
        and genes.shape == values.shape[:1]
        and samples.shape == values.shape[1:]
    ):
        return None
    return ExpressionMatrix(
        gene_ids=genes.tolist(), sample_ids=samples.tolist(), values=values
    )


def _text(array: np.ndarray) -> str | None:
    """The string that a 0-d unicode array holds, else None."""
    return array.item() if array.dtype.kind == "U" and array.ndim == 0 else None


def check_savable(matrix: ExpressionMatrix) -> None:
    """Refuse a matrix that save_matrix cannot write for load_matrix to read back.

    Raises BetscanError naming the first id that holds a tab, a double
    quote, a CR, an LF or a NUL, or that starts or ends with whitespace
    (the parse strips it), or else the gene and sample of the first value
    that is not finite, which no screen accepts.
    """
    for kind, ids in (("sample", matrix.sample_ids), ("gene", matrix.gene_ids)):
        for name in ids:
            if found := _UNSAVABLE.search(name):
                fault = f"holds {found.group()!r}"
            elif name != name.strip():
                fault = "starts or ends with whitespace"
            else:
                continue
            raise BetscanError(
                f"{kind} id {name!r} {fault}, which matrix.tsv cannot carry"
            )
    faulty = np.argwhere(~np.isfinite(matrix.values))
    if len(faulty):
        g, j = faulty[0].tolist()
        raise BetscanError(
            f"gene {matrix.gene_ids[g]!r}, sample {matrix.sample_ids[j]!r}: "
            f"non-finite value {float(matrix.values[g, j])!r}"
        )


def load_labels(path) -> dict[str, str]:
    """Read a two-column CSV (header 'sample_id,label') into a mapping.

    A sample may be listed again only with the same label.
    """
    with open_input(path) as fh:
        reader = csv.reader(fh)
        try:
            rows = [(reader.line_num, row) for row in reader]
        except csv.Error as exc:
            raise _csv_error(path, reader.line_num, exc) from None
    if not rows or [c.strip() for c in rows[0][1][:2]] != ["sample_id", "label"]:
        raise MatrixParseError(path, 1, 1, "expected header 'sample_id,label'")
    out: dict[str, str] = {}
    lines: dict[str, int] = {}
    for line_no, row in rows[1:]:
        if not row:
            continue
        if len(row) < 2:
            raise MatrixParseError(path, line_no, 1, "expected two columns")
        sample, label = row[0].strip(), row[1].strip()
        first = lines.setdefault(sample, line_no)
        if out.setdefault(sample, label) != label:
            raise BetscanError(
                f"{path}: sample {sample!r} is labelled {out[sample]!r} on line "
                f"{first} and {label!r} on line {line_no}"
            )
    return out


def filter_zero_heavy(
    matrix: ExpressionMatrix, zero_fraction_threshold: float = 0.20
) -> tuple[ExpressionMatrix, PreprocessReport]:
    """Drop genes whose fraction of zero entries strictly exceeds the threshold."""
    if not 0.0 <= zero_fraction_threshold <= 1.0:
        raise ValueError("threshold must be within [0, 1]")
    frac = (matrix.values == 0.0).mean(axis=1)
    keep = frac <= zero_fraction_threshold
    report = PreprocessReport()
    for g in np.nonzero(~keep)[0]:
        report.genes_dropped.append(
            {
                "gene": matrix.gene_ids[int(g)],
                "reason": "zero_fraction",
                "zero_fraction": float(frac[g]),
            }
        )
    genes = [g for g, k in zip(matrix.gene_ids, keep) if k]
    return replace(matrix, gene_ids=genes, values=matrix.values[keep]), report


def reset_median_imputed(column) -> np.ndarray:
    """Send all but the first occurrence of a duplicated median to the minimum.

    A value spike exactly at the column median is the signature of
    median-imputed zero counts; the first occurrence (in sample order)
    stays, every other one becomes the column minimum.  No-op when the
    median is not a duplicated data value.
    """
    col = np.asarray(column, dtype=np.float64).copy()
    med = float(np.median(col))
    hits = np.nonzero(col == med)[0]
    if hits.shape[0] > 1:
        col[hits[1:]] = col.min()
    return col


def jitter_minimum_ties(column, seed: int) -> np.ndarray:
    """Spread tied minima over (min, second_unique_min), keeping one holdout.

    The first occurrence of the minimum keeps its exact value; every other
    occurrence gains an independent draw from the open interval
    (0, second_unique_min - min).  Jittered values stay strictly below the
    second-smallest distinct value, so the ordering of all non-minimum
    observations is untouched.  Draws come from Philox(key=seed); the same
    seed reproduces the same output bit for bit.  Raises NonFiniteError when
    the minimum is tied and it or the second-smallest value is not finite.
    """
    col = np.asarray(column, dtype=np.float64).copy()
    uniq = np.unique(col)
    if uniq.shape[0] < 2:
        raise DegenerateColumnError("all values equal; nothing to rank")
    lo, second = float(uniq[0]), float(uniq[1])
    gap = second - lo
    idx = np.nonzero(col == lo)[0]
    if idx.shape[0] < 2:
        return col
    if not (np.isfinite(lo) and np.isfinite(second)):  # no draw lands in the gap
        at = int(np.argmin(np.isfinite(col)))
        raise NonFiniteError(at, float(col[at]))
    movers = idx[1:]
    rng = np.random.Generator(np.random.Philox(key=seed & ((1 << 128) - 1)))
    while True:
        draws = rng.random(movers.shape[0])
        jittered = lo + draws * gap
        # open interval and distinctness; float collisions are ~impossible
        # but the downstream rank transform cannot tolerate them
        if (
            (draws > 0.0).all()
            and (jittered < second).all()
            and np.unique(jittered).shape[0] == movers.shape[0]
            and not np.isin(jittered, [lo]).any()
        ):
            break
    col[movers] = jittered
    return col


def subset_by_labels(matrix: ExpressionMatrix, keep) -> ExpressionMatrix:
    """Retain the samples whose label is in `keep`."""
    if matrix.labels is None:
        raise ValueError("matrix has no sample labels")
    keep = set(keep)
    unknown = keep - set(matrix.labels)
    if unknown:
        raise UnknownLabelError(unknown)
    mask = np.array([lab in keep for lab in matrix.labels], dtype=bool)
    return ExpressionMatrix(
        gene_ids=list(matrix.gene_ids),
        sample_ids=[s for s, m in zip(matrix.sample_ids, mask) if m],
        values=matrix.values[:, mask],
        labels=[lab for lab, m in zip(matrix.labels, mask) if m],
    )


def upper_quartile_log2(
    matrix: ExpressionMatrix, target_quartile: float
) -> ExpressionMatrix:
    """Approximate upper-quartile normalization followed by log2(x + 1).

    Each sample is scaled so the 75th percentile of its nonzero values
    equals target_quartile, then log2(x + 1) is applied.  This is a local
    stand-in for consortium-grade normalization, close but not identical
    to published pipelines; treat the output as approximate.  Raises
    BetscanError for a target that is not finite and above 0, and names
    the gene and sample of the first negative count.
    """
    if not 0 < target_quartile < np.inf:
        raise BetscanError(f"uq_target must be finite and above 0, got {target_quartile}")
    negative = np.argwhere(matrix.values < 0)
    if len(negative):
        g, j = negative[0].tolist()
        raise BetscanError(
            f"gene {matrix.gene_ids[g]!r}, sample {matrix.sample_ids[j]!r}: "
            f"negative count {float(matrix.values[g, j])!r}"
        )
    out = np.empty_like(matrix.values)
    for j, sample in enumerate(matrix.sample_ids):
        col = matrix.values[:, j]
        nz = col[col > 0]
        if nz.size == 0:
            raise DegenerateSampleError(sample, "no nonzero counts")
        q = float(np.percentile(nz, 75))
        if q <= 0:
            raise DegenerateSampleError(sample, "zero upper quartile")
        out[:, j] = np.log2(col * (target_quartile / q) + 1.0)
    return replace(matrix, values=out)


def gene_stream_key(seed: int, gene_index: int) -> int:
    """Philox key for one gene's jitter stream: seed in the high 64 bits."""
    return ((seed & _MASK64) << 64) | (gene_index & _MASK64)


def run_pipeline(
    matrix: ExpressionMatrix,
    seed: int,
    zero_fraction_threshold: float = 0.20,
) -> tuple[ExpressionMatrix, PreprocessReport]:
    """filter -> reset -> jitter, returning the cleaned matrix and a report.

    Raises BetscanError when fewer than two genes pass the zero filter,
    since a screen needs a pair.
    """
    filtered, report = filter_zero_heavy(matrix, zero_fraction_threshold)
    if filtered.n_genes < 2:
        raise BetscanError(
            f"{filtered.n_genes} gene(s) left: the zero filter (zero fraction "
            f"above {zero_fraction_threshold:g}) dropped "
            f"{len(report.genes_dropped)} of {matrix.n_genes}; a screen needs "
            "at least 2"
        )
    report.jitter_seed = seed

    values = filtered.values.copy()
    for g, gene in enumerate(filtered.gene_ids):
        col = values[g]
        med = float(np.median(col))
        dup = int((col == med).sum())
        if dup > 1:
            report.medians_reset[gene] = dup - 1
        col = reset_median_imputed(col)

        uniq = np.unique(col)
        if uniq.shape[0] >= 2 and int((col == uniq[0]).sum()) > 1:
            report.jitter_widths[gene] = float(uniq[1] - uniq[0])
            col = jitter_minimum_ties(col, gene_stream_key(seed, g))
        values[g] = col
    return replace(filtered, values=values), report
