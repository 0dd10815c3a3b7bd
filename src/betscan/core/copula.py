"""Empirical copula margins: rank transform of a single variable.

The rank vector is the whole empirical copula for one margin: observation i
maps to the support point rank_i / n, so both margins of a pair become
uniform on {1/n, 2/n, ..., 1} and only the relative ordering of the raw
values survives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NonFiniteError, TiesPresentError

__all__ = ["CopulaColumn", "empirical_copula"]

MIN_SAMPLES = 4


@dataclass(frozen=True)
class CopulaColumn:
    """Ranks 1..n of one variable; a permutation of {1, ..., n}."""

    ranks: np.ndarray

    @property
    def n(self) -> int:
        return int(self.ranks.shape[0])


def empirical_copula(values) -> CopulaColumn:
    """Rank-transform a tie-free vector into its empirical copula margin.

    rank_i is the 1-based position of values[i] in ascending order.  Ties
    are a hard error (TiesPresentError) because the downstream binary
    expansion needs a strict ordering; jitter the column first.  NaN or
    infinite entries raise NonFiniteError.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d vector of values")
    n = arr.shape[0]
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} observations, got {n}")

    finite = np.isfinite(arr)
    if not finite.all():
        idx = int(np.argmin(finite))
        raise NonFiniteError(idx, float(arr[idx]))

    uniq, counts = np.unique(arr, return_counts=True)
    dup = counts > 1
    if dup.any():
        first = int(np.argmax(dup))
        raise TiesPresentError(
            value=float(uniq[first]),
            count=int(counts[first]),
            tie_groups=int(dup.sum()),
        )

    order = np.argsort(arr, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1, dtype=np.int64)
    return CopulaColumn(ranks=ranks)
