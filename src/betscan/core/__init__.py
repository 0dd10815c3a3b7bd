"""Exact binary-expansion testing machinery."""

from .bids import (
    BidClass,
    BidId,
    DEPTH2_CLASS_LABELS,
    all_bids,
    bid_class_of,
    bid_count,
    bid_from_name,
    class_members,
    depth2_classes,
    parse_class_label,
)
from .copula import CopulaColumn, empirical_copula
from .expansion import BitPlanes, binary_expansion, plane_bits
from .maxbet import BetResult, max_bet
from .nulls import (
    EXACT_PERMUTATION_MAX_N,
    MODES,
    label_counts,
    pvalue_hypergeometric,
    pvalue_normal,
    pvalue_permutation,
)
from .stats import (
    SymmetryStat,
    all_symmetry_statistics,
    cell_counts,
    mask_combos,
    sign_factor,
    symmetry_statistic,
    z_score,
)

__all__ = [
    "BidClass",
    "BidId",
    "BitPlanes",
    "BetResult",
    "CopulaColumn",
    "DEPTH2_CLASS_LABELS",
    "EXACT_PERMUTATION_MAX_N",
    "MODES",
    "SymmetryStat",
    "all_bids",
    "all_symmetry_statistics",
    "bid_class_of",
    "bid_count",
    "bid_from_name",
    "binary_expansion",
    "cell_counts",
    "class_members",
    "depth2_classes",
    "empirical_copula",
    "label_counts",
    "mask_combos",
    "max_bet",
    "parse_class_label",
    "plane_bits",
    "pvalue_hypergeometric",
    "pvalue_normal",
    "pvalue_permutation",
    "sign_factor",
    "symmetry_statistic",
    "z_score",
]
