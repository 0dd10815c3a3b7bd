"""Binary expansion of copula ranks into packed bit planes.

Digit k of the expansion of u = rank/n is 1 exactly when u falls in the
union of left-open dyadic intervals ((2j-1)/2^k, 2j/2^k].  This convention
makes u = 1 expand to all-ones (0.111...) and keeps every plane balanced
(n/2 ones) whenever 2^depth divides n.

Digits are never computed in floating point: u = r/n lies in
((2j-1)/2^k, 2j/2^k] iff ceil(2^k * r / n) equals 2j, so

    digit_k(r) = 1  iff  ceil(2^k * r / n) is even
               = 1  iff  ((2^k * r + n - 1) // n) % 2 == 0

which is exact for any rank and immune to boundary rounding at points
like u = 1/2.  The digits are packed into the uint64 words of BitPlanes,
the layout that the single-pair statistics and the screen kernel share.
binary_expansion applies the test to one rank column, expand_rank_rows to
a block of them in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DepthTooLargeError
from .copula import CopulaColumn

__all__ = ["BitPlanes", "binary_expansion", "expand_rank_rows", "plane_bits"]

MAX_DEPTH = 16
_INT64_BUDGET = 1 << 62


@dataclass(frozen=True, eq=False)
class BitPlanes:
    """Expansion digits of one variable, one packed row of words per depth.

    planes is a read-only (depth, ceil(n / 64)) uint64 array; planes[k-1]
    holds digit k, observation i at bit i % 64 of word i // 64, and every
    bit past observation n-1 is zero.
    """

    depth: int
    n: int
    planes: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitPlanes):
            return NotImplemented
        return (self.depth, self.n) == (other.depth, other.n) and bool(
            np.array_equal(self.planes, other.planes)
        )


def plane_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Unpack bits 0..n-1 of packed words (last axis) into uint8 digits."""
    raw = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(raw, axis=-1, bitorder="little")[..., :n]


def binary_expansion(col: CopulaColumn, depth: int) -> BitPlanes:
    """Expand a rank column into its first `depth` binary digit planes."""
    planes = _digit_words(col.ranks, col.n, depth)
    return BitPlanes(depth=depth, n=col.n, planes=planes)


def expand_rank_rows(ranks: np.ndarray, depth: int) -> list[BitPlanes]:
    """binary_expansion of every row of a (genes, n) rank array in one pass.

    The planes are read-only views of one packed (genes, depth, words) array.
    """
    n = ranks.shape[1]
    return [
        BitPlanes(depth=depth, n=n, planes=words)
        for words in _digit_words(ranks, n, depth)
    ]


def _digit_words(ranks: np.ndarray, n: int, depth: int) -> np.ndarray:
    """Read-only packed digits (..., depth, ceil(n / 64)) of ranks (..., n)."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if depth > MAX_DEPTH:
        raise DepthTooLargeError(f"depth {depth} exceeds the cap of {MAX_DEPTH}")
    if (n << depth) >= _INT64_BUDGET:
        raise DepthTooLargeError(
            f"2^{depth} * n = {n << depth} overflows the exact integer test"
        )

    shifts = np.arange(1, depth + 1, dtype=np.int64)[:, None]
    ceil_val = ((ranks[..., None, :] << shifts) + n - 1) // n
    bits = np.zeros((*ranks.shape[:-1], depth, 64 * ((n + 63) // 64)), dtype=bool)
    bits[..., :n] = (ceil_val & 1) == 0
    words = np.packbits(bits, axis=-1, bitorder="little").view("<u8")
    words.flags.writeable = False
    return words
