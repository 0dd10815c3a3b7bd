"""Symmetry statistics: signed white-minus-blue counts per cross interaction.

For interaction (a, b) the statistic is

    S = sum_i  prod_{k in a} (2*A_k,i - 1) * prod_{k' in b} (2*B_k',i - 1)

Each factor is +-1, so the product at observation i is -1 raised to the
number of zero digits among the selected ones.  With P_i the XOR (parity)
of the selected digit bits this gives

    S = (-1)^(|a| + |b|) * (n - 2 * popcount(P))

one XOR-and-popcount pass over the packed uint64 words of the planes
(`BitPlanes.planes`) per interaction; the leading sign restores the
orientation that the parity trick drops for odd-weight interactions.
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


def mask_combos(planes: BitPlanes | np.ndarray) -> np.ndarray:
    """XOR combination of planes for every mask: (..., 2^depth, words) uint64.

    planes is a BitPlanes or a (..., depth, words) stack of plane arrays.
    Row m is the XOR of the planes whose digit participates in mask m (row
    0 is all zeros).  Computing these once per variable amortizes the
    per-pair work down to one XOR and one popcount per interaction.
    """
    words = planes.planes if isinstance(planes, BitPlanes) else planes
    depth = words.shape[-2]
    combos = np.zeros((*words.shape[:-2], 1 << depth, words.shape[-1]), np.uint64)
    for k in range(depth):
        # masks with highest bit k: the masks below 2^k, XOR plane k
        np.bitwise_xor(
            combos[..., : 1 << k, :],
            words[..., k : k + 1, :],
            out=combos[..., 1 << k : 2 << k, :],
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
    chosen = [
        p.planes[k]
        for p, mask in ((u, bid.a_mask), (v, bid.b_mask))
        for k in range(p.depth)
        if mask >> k & 1
    ]
    s = u.n - 2 * int(np.bitwise_count(np.bitwise_xor.reduce(chosen)).sum())
    return SymmetryStat(bid=bid, s=sign_factor(bid) * s, n=u.n)


def all_symmetry_statistics(u: BitPlanes, v: BitPlanes) -> list[SymmetryStat]:
    """Every cross interaction's statistic, a_mask-major then b ascending."""
    _check_pair(u, v)
    n = u.n
    cu = mask_combos(u)[1:, None]
    cv = mask_combos(v)[None, 1:]
    counts = np.bitwise_count(cu ^ cv).sum(-1).ravel().tolist()
    return [
        SymmetryStat(bid=bid, s=sign_factor(bid) * (n - 2 * c), n=n)
        for bid, c in zip(all_bids(u.depth, v.depth), counts)
    ]


def cell_counts(u: BitPlanes, v: BitPlanes) -> np.ndarray:
    """Observation counts over the 2^d1 x 2^d2 dyadic cells.

    Cell (i, j) covers (i/2^d1, (i+1)/2^d1] x (j/2^d2, (j+1)/2^d2]; every
    statistic is a signed sum over this grid.
    """
    _check_pair(u, v)
    # an observation's cell index has its first digit as the most significant bit
    cells = tuple(
        (1 << np.arange(p.depth - 1, -1, -1)) @ plane_bits(p.planes, p.n) for p in (u, v)
    )
    counts = np.zeros((1 << u.depth, 1 << v.depth), dtype=np.int64)
    np.add.at(counts, cells, 1)
    return counts
