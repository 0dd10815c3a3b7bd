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

`cross_statistics` computes S of every interaction of a list of pairs
for max_bet, `pvalue_permutation`, `all_symmetry_statistics` and
compare: the single-pair checks of the screen, whose own S (and that of
--emit-all-bids) comes from its float32 sign products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from ..errors import LengthMismatchError
from .bids import BidId, all_bids
from .expansion import BitPlanes, plane_bits

__all__ = [
    "SymmetryStat",
    "all_symmetry_statistics",
    "cross_statistics",
    "pair_statistics",
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
    return abs(s) / math.sqrt(n)


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


def _check_pair(u: BitPlanes, v: BitPlanes) -> None:
    if u.n != v.n:
        raise LengthMismatchError(u.n, v.n)


# words XORed per step of cross_statistics; bounds its scratch array
_XOR_WORDS = 1 << 17


@cache
def _signs(mu: int, mv: int) -> np.ndarray:
    """Read-only int32 sign_factor of every interaction of mu x mv masks."""
    bids = all_bids(mu.bit_length(), mv.bit_length())
    signs = np.array([sign_factor(bid) for bid in bids], np.int32)
    signs.flags.writeable = False
    return signs


def cross_statistics(u: np.ndarray, v: np.ndarray, i, j, n: int) -> np.ndarray:
    """S (pairs, T) int32 of the pairs (u[i[k]], v[j[k]]), all_bids order.

    u and v are (genes, 2^d - 1, words) mask combinations without the zero
    mask, `mask_combos(...)[:, 1:]`, d the depth of that axis.
    """
    mu, mv = u.shape[1], v.shape[1]
    s = np.empty((len(i), mu, mv), np.int32)
    step = max(1, _XOR_WORDS // (mu * mv * u.shape[2]))
    for lo in range(0, len(i), step):
        x = u[i[lo : lo + step], :, None] ^ v[j[lo : lo + step], None, :]
        np.bitwise_count(x).sum(-1, dtype=np.int32, out=s[lo : lo + step])
    return (n - 2 * s.reshape(len(i), mu * mv)) * _signs(mu, mv)


def pair_statistics(u: BitPlanes, v: BitPlanes) -> np.ndarray:
    """S of every cross interaction of one pair: (T,) int32, all_bids order."""
    _check_pair(u, v)
    cu, cv = (mask_combos(p)[None, 1:] for p in (u, v))
    return cross_statistics(cu, cv, [0], [0], u.n)[0]


def all_symmetry_statistics(u: BitPlanes, v: BitPlanes) -> list[SymmetryStat]:
    """Every cross interaction's statistic, a_mask-major then b ascending."""
    bids, s = all_bids(u.depth, v.depth), pair_statistics(u, v).tolist()
    return [SymmetryStat(bid=bid, s=x, n=u.n) for bid, x in zip(bids, s)]


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
