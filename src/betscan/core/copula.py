"""Empirical copula margins: the rank transform of each gene's values.

The rank vector is the whole empirical copula for one margin: observation i
maps to the support point rank_i / n, so both margins of a pair become
uniform on {1/n, 2/n, ..., 1} and only the relative ordering of the raw
values survives.

`rank_rows` is the one ranker: one argsort(axis=1) orders every row of a
(genes, n) block, and the sorted values are checked for non-finite ends
(argsort puts -inf first and +inf and NaN last) and for equal neighbours
(0.0 and -0.0 are equal).  The first row at fault is scanned on its own
to build the error that names its gene; every other row's ranks are
scattered back from the argsort.  `empirical_copula` is its one-row call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import NonFiniteError, TiesPresentError, TooFewSamplesError

__all__ = ["CopulaColumn", "empirical_copula", "rank_rows"]

MIN_SAMPLES = 4


@dataclass(frozen=True)
class CopulaColumn:
    """Ranks 1..n of one variable; a permutation of {1, ..., n}."""

    ranks: np.ndarray

    @property
    def n(self) -> int:
        return int(self.ranks.shape[0])


def rank_rows(values: np.ndarray, genes: Sequence[str] | None = None) -> np.ndarray:
    """Ranks 1..n (int64) of every row of a (rows, n) array of values.

    rank is the 1-based position of a value in its row's ascending order.
    Fewer than MIN_SAMPLES columns raise TooFewSamplesError; the first row
    with a NaN or infinite value raises NonFiniteError, and the first with
    tied values TiesPresentError, naming genes[row] when genes is given.
    """
    n = values.shape[1]
    if n < MIN_SAMPLES:
        raise TooFewSamplesError(f"need at least {MIN_SAMPLES} observations, got {n}")
    order = values.argsort(axis=1)
    ordered = np.take_along_axis(values, order, axis=1)
    faulty = ~np.isfinite(ordered[:, [0, -1]]).all(axis=1)
    faulty |= (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if faulty.any():
        row = int(np.argmax(faulty))
        raise _fault(values[row], None if genes is None else genes[row])
    ranks = np.empty(values.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, n + 1), axis=1)
    return ranks


def _fault(row: np.ndarray, gene: str | None) -> Exception:
    """The error for one row with a non-finite or tied value."""
    finite = np.isfinite(row)
    if not finite.all():
        idx = int(np.argmin(finite))
        return NonFiniteError(idx, float(row[idx]), gene)
    uniq, counts = np.unique(row, return_counts=True)
    dup = counts > 1
    first = int(np.argmax(dup))
    return TiesPresentError(
        float(uniq[first]), int(counts[first]), int(dup.sum()), gene
    )


def empirical_copula(values) -> CopulaColumn:
    """Rank-transform a tie-free vector into its empirical copula margin.

    Ties are a hard error (TiesPresentError) because the downstream binary
    expansion needs a strict ordering; jitter the column first.  NaN or
    infinite entries raise NonFiniteError, fewer than MIN_SAMPLES values
    TooFewSamplesError.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d vector of values")
    return CopulaColumn(ranks=rank_rows(arr[None])[0])
