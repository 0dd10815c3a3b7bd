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
like u = 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DepthTooLargeError
from .copula import CopulaColumn

__all__ = ["BitPlanes", "binary_expansion", "plane_bits", "pack_bits"]

MAX_DEPTH = 16
_INT64_BUDGET = 1 << 62


@dataclass(frozen=True)
class BitPlanes:
    """Expansion digits of one variable, one packed bit-vector per depth.

    planes[k-1] holds digit k for every observation, observation i at bit
    position i (arbitrary-precision int, so there are no stray bits past
    position n-1).
    """

    depth: int
    n: int
    planes: tuple[int, ...]


def pack_bits(bits: np.ndarray) -> int:
    """Pack a 0/1 vector into an int, observation i at bit i."""
    packed = np.packbits(bits.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def plane_bits(packed: int, n: int) -> np.ndarray:
    """Unpack bit positions 0..n-1 of an int into a uint8 vector."""
    nbytes = (n + 7) // 8
    raw = np.frombuffer(packed.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n]


def binary_expansion(col: CopulaColumn, depth: int) -> BitPlanes:
    """Expand a rank column into its first `depth` binary digit planes."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if depth > MAX_DEPTH:
        raise DepthTooLargeError(f"depth {depth} exceeds the cap of {MAX_DEPTH}")
    n = col.n
    if (n << depth) >= _INT64_BUDGET:
        raise DepthTooLargeError(
            f"2^{depth} * n = {n << depth} overflows the exact integer test"
        )

    ranks = col.ranks
    planes = []
    for k in range(1, depth + 1):
        ceil_val = ((ranks << k) + n - 1) // n
        bits = (ceil_val & 1) == 0
        planes.append(pack_bits(bits))
    return BitPlanes(depth=depth, n=n, planes=tuple(planes))
