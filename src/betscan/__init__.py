"""betscan: binary-expansion testing for nonlinear pairwise dependence.

Rank-based, exact, and fast enough to screen every pair of a large
expression matrix: copula transform, dyadic binary expansion, bit-parallel
symmetry statistics, exact or permutation null inference, family-wise
error control across interactions and pairs, plus baseline dependence
measures and significance-network export.
"""

from .core import (
    BetResult,
    BidClass,
    BidId,
    BitPlanes,
    CopulaColumn,
    all_bids,
    all_symmetry_statistics,
    bid_class_of,
    binary_expansion,
    empirical_copula,
    max_bet,
    pvalue_hypergeometric,
    pvalue_permutation,
    z_score,
)

__version__ = "0.1.0"

__all__ = [
    "BetResult",
    "BidClass",
    "BidId",
    "BitPlanes",
    "CopulaColumn",
    "all_bids",
    "all_symmetry_statistics",
    "bid_class_of",
    "binary_expansion",
    "empirical_copula",
    "max_bet",
    "pvalue_hypergeometric",
    "pvalue_permutation",
    "z_score",
    "__version__",
]
