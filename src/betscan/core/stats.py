"""Symmetry statistics: signed white-minus-blue counts per cross interaction.

For interaction (a, b) the statistic is

    S = sum_i  prod_{k in a} (2*A_k,i - 1) * prod_{k' in b} (2*B_k',i - 1)

Each factor is +-1, so the product at observation i is -1 raised to the
number of zero digits among the selected ones.  With P_i the XOR (parity)
of the selected digit bits this gives

    S = (-1)^(|a| + |b|) * (n - 2 * popcount(P))

one XOR-and-popcount pass over the packed planes per interaction; the
leading sign restores the orientation that the parity trick drops for
odd-weight interactions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import LengthMismatchError
from .bids import BidId, all_bids
from .expansion import BitPlanes, plane_bits

__all__ = [
    "SymmetryStat",
    "symmetry_statistic",
    "all_symmetry_statistics",
    "z_score",
    "mask_combos",
    "sign_factor",
    "cell_counts",
]


@dataclass(frozen=True)
class SymmetryStat:
    """White-minus-blue count for one cross interaction."""

    bid: BidId
    s: int
    n: int

    @property
    def z(self) -> float:
        return z_score(self.s, self.n)


def z_score(s: int, n: int) -> float:
    """|S| / sqrt(n), the scale the screening reports use."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if abs(s) > n:
        raise ValueError(f"|s| = {abs(s)} exceeds n = {n}")
    return abs(s) / np.sqrt(n)


def sign_factor(bid: BidId) -> int:
    """Global sign dropped by the parity trick: -1 for odd-weight interactions."""
    return -1 if bid.weight & 1 else 1


def mask_combos(planes: BitPlanes) -> list[int]:
    """XOR combination of planes for every nonzero mask, indexed by mask.

    Entry 0 is a placeholder; entry m is the XOR of the planes whose digit
    participates in mask m.  Computing these once per variable amortizes
    the per-pair work down to one XOR and one popcount per interaction.
    """
    size = 1 << planes.depth
    combos = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        combos[mask] = (
            planes.planes[low.bit_length() - 1]
            if mask == low
            else combos[mask ^ low] ^ combos[low]
        )
    return combos


def _check_pair(u: BitPlanes, v: BitPlanes, bid: BidId | None = None) -> None:
    if u.n != v.n:
        raise LengthMismatchError(u.n, v.n)
    if bid is not None:
        if bid.a_mask >= (1 << u.depth):
            raise ValueError(f"a_mask {bid.a_mask:#b} exceeds depth {u.depth}")
        if bid.b_mask >= (1 << v.depth):
            raise ValueError(f"b_mask {bid.b_mask:#b} exceeds depth {v.depth}")


def symmetry_statistic(u: BitPlanes, v: BitPlanes, bid: BidId) -> SymmetryStat:
    """Signed white-minus-blue count of one interaction for one pair."""
    _check_pair(u, v, bid)
    parity = 0
    for k in range(u.depth):
        if bid.a_mask >> k & 1:
            parity ^= u.planes[k]
    for k in range(v.depth):
        if bid.b_mask >> k & 1:
            parity ^= v.planes[k]
    s = u.n - 2 * parity.bit_count()
    return SymmetryStat(bid=bid, s=sign_factor(bid) * s, n=u.n)


def all_symmetry_statistics(u: BitPlanes, v: BitPlanes) -> list[SymmetryStat]:
    """Every cross interaction's statistic, a_mask-major then b ascending."""
    _check_pair(u, v)
    n = u.n
    cu = mask_combos(u)
    cv = mask_combos(v)
    out = []
    for bid in all_bids(u.depth, v.depth):
        parity = cu[bid.a_mask] ^ cv[bid.b_mask]
        s = n - 2 * parity.bit_count()
        out.append(SymmetryStat(bid=bid, s=sign_factor(bid) * s, n=n))
    return out


def cell_counts(u: BitPlanes, v: BitPlanes) -> np.ndarray:
    """Observation counts over the 2^d1 x 2^d2 dyadic cells.

    Cell (i, j) covers (i/2^d1, (i+1)/2^d1] x (j/2^d2, (j+1)/2^d2]; every
    statistic is a signed sum over this grid.
    """
    _check_pair(u, v)
    iu = np.zeros(u.n, dtype=np.int64)
    for k in range(u.depth):
        iu |= plane_bits(u.planes[k], u.n).astype(np.int64) << (u.depth - 1 - k)
    iv = np.zeros(v.n, dtype=np.int64)
    for k in range(v.depth):
        iv |= plane_bits(v.planes[k], v.n).astype(np.int64) << (v.depth - 1 - k)
    counts = np.zeros((1 << u.depth, 1 << v.depth), dtype=np.int64)
    np.add.at(counts, (iu, iv), 1)
    return counts
