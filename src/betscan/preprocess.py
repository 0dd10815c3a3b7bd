"""Expression-matrix ingestion and the cleaning pipeline.

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
empirical_copula.  Jitter never crosses the second-smallest value, so
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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateColumnError,
    DegenerateSampleError,
    DimensionMismatchError,
    MatrixParseError,
    UnknownLabelError,
)
from .manifest import atomic_open, open_input

__all__ = [
    "ExpressionMatrix",
    "PreprocessReport",
    "load_matrix",
    "save_matrix",
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
        return ExpressionMatrix(
            gene_ids=list(self.gene_ids),
            sample_ids=list(self.sample_ids),
            values=self.values.copy(),
            labels=[mapping[s] for s in self.sample_ids],
        )


@dataclass
class PreprocessReport:
    """What the pipeline changed, keyed by gene id."""

    genes_dropped: list[dict] = field(default_factory=list)
    medians_reset: dict[str, int] = field(default_factory=dict)
    jitter_seed: int = 0
    jitter_widths: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "genes_dropped": self.genes_dropped,
            "medians_reset": self.medians_reset,
            "jitter_seed": self.jitter_seed,
            "jitter_widths": self.jitter_widths,
        }


_DELIMS = {"tsv_genes_by_samples": "\t", "tsv": "\t", "csv": ","}


def load_matrix(path, fmt: str = "tsv_genes_by_samples") -> ExpressionMatrix:
    """Parse a delimited genes-by-samples matrix.

    First row: corner cell then sample ids.  Each following row: gene id
    then one numeric cell per sample ('.' decimal separator).  Bad cells
    raise MatrixParseError with 1-based line/column coordinates.
    """
    delim = _delimiter(fmt)
    with open_input(path) as fh:
        return _parse_matrix(fh, path, delim)


def _delimiter(fmt: str) -> str:
    if fmt not in _DELIMS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {sorted(_DELIMS)}")
    return _DELIMS[fmt]


def _parse_matrix(fh, path, delim: str) -> ExpressionMatrix:
    reader = csv.reader(fh, delimiter=delim)
    try:
        header = next(reader)
    except StopIteration:
        raise MatrixParseError(path, 1, 1, "empty file") from None
    if len(header) < 2:
        raise MatrixParseError(path, 1, 1, "header has no sample ids")
    sample_ids = [c.strip() for c in header[1:]]

    gene_ids: list[str] = []
    rows: list[np.ndarray] = []
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
            rows.append(np.fromiter(map(float, row[1:]), np.float64, len(sample_ids)))
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
    if not rows:
        raise MatrixParseError(path, 2, 1, "no gene rows")
    return ExpressionMatrix(
        gene_ids=gene_ids,
        sample_ids=sample_ids,
        values=np.array(rows, dtype=np.float64),
    )


def save_matrix(matrix: ExpressionMatrix, path, fmt: str = "tsv_genes_by_samples"):
    """Write a matrix back out; floats use repr so reload is bit-exact."""
    delim = _delimiter(fmt)
    with atomic_open(path) as fh:
        fh.write(delim.join(["gene_id", *matrix.sample_ids]) + "\n")
        for g, gene in enumerate(matrix.gene_ids):
            cells = [repr(float(x)) for x in matrix.values[g]]
            fh.write(delim.join([gene, *cells]) + "\n")


def load_labels(path) -> dict[str, str]:
    """Read a two-column CSV (header 'sample_id,label') into a mapping."""
    out: dict[str, str] = {}
    with open_input(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:2]] != ["sample_id", "label"]:
            raise MatrixParseError(path, 1, 1, "expected header 'sample_id,label'")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise MatrixParseError(path, line_no, 1, "expected two columns")
            out[row[0].strip()] = row[1].strip()
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
    kept = ExpressionMatrix(
        gene_ids=[g for g, k in zip(matrix.gene_ids, keep) if k],
        sample_ids=list(matrix.sample_ids),
        values=matrix.values[keep],
        labels=list(matrix.labels) if matrix.labels is not None else None,
    )
    return kept, report


def reset_median_imputed(column) -> np.ndarray:
    """Send all but the first occurrence of a duplicated median to the minimum.

    A value spike exactly at the column median is the signature of
    median-imputed zero counts; the first occurrence (in sample order)
    stays, every other one becomes the column minimum.  No-op when the
    median is not a duplicated data value.
    """
    col = np.asarray(column, dtype=np.float64).copy()
    if col.shape[0] < 4:
        raise ValueError("need at least 4 observations")
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
    seed reproduces the same output bit for bit.
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
    to published pipelines; treat the output as approximate.
    """
    if (matrix.values < 0).any():
        raise ValueError("counts must be non-negative")
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
    return ExpressionMatrix(
        gene_ids=list(matrix.gene_ids),
        sample_ids=list(matrix.sample_ids),
        values=out,
        labels=list(matrix.labels) if matrix.labels is not None else None,
    )


def gene_stream_key(seed: int, gene_index: int) -> int:
    """Philox key for one gene's jitter stream: seed in the high 64 bits."""
    return ((seed & _MASK64) << 64) | (gene_index & _MASK64)


def run_pipeline(
    matrix: ExpressionMatrix,
    seed: int,
    zero_fraction_threshold: float = 0.20,
) -> tuple[ExpressionMatrix, PreprocessReport]:
    """filter -> reset -> jitter, returning the cleaned matrix and a report."""
    filtered, report = filter_zero_heavy(matrix, zero_fraction_threshold)
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

    cleaned = ExpressionMatrix(
        gene_ids=list(filtered.gene_ids),
        sample_ids=list(filtered.sample_ids),
        values=values,
        labels=list(filtered.labels) if filtered.labels is not None else None,
    )
    return cleaned, report
