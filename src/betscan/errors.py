"""Exception types raised across the package.

Every error carries enough context to identify the offending input
(value, cell, gene, ...) without the caller re-deriving it.
"""

from __future__ import annotations


class BetscanError(Exception):
    """Base class for all package-specific errors."""


def _column(gene: str | None) -> str:
    return "column" if gene is None else f"gene {gene!r}"


class TiesPresentError(BetscanError):
    """A column contains tied values and cannot be rank-transformed.

    Carries the first tied value, how often it occurs, the total number
    of distinct tied values in the column, and the gene id when known.
    """

    def __init__(
        self, value: float, count: int, tie_groups: int, gene: str | None = None
    ):
        self.value = value
        self.count = count
        self.tie_groups = tie_groups
        self.gene = gene
        super().__init__(
            f"{_column(gene)} has tied values: {value!r} occurs {count} times "
            f"({tie_groups} tied group(s) total); jitter the column first"
        )


class NonFiniteError(BetscanError):
    """A column contains NaN or infinite entries; names the gene when known."""

    def __init__(self, index: int, value: float, gene: str | None = None):
        self.index = index
        self.value = value
        self.gene = gene
        super().__init__(
            f"{_column(gene)} has non-finite value {value!r} at position {index}"
        )


class DepthTooLargeError(BetscanError):
    """Requested expansion depth exceeds the exact-arithmetic budget."""


class LengthMismatchError(BetscanError):
    """Two paired inputs have different sample counts."""

    def __init__(self, n_left: int, n_right: int):
        super().__init__(f"sample counts differ: {n_left} vs {n_right}")


class ParityViolationError(BetscanError):
    """Statistic value is incompatible with the parity its null requires."""


class DivisibilityViolationError(BetscanError):
    """Sample count lacks the divisibility the exact null requires."""


class MatrixParseError(BetscanError):
    """A matrix file could not be parsed; names the offending cell."""

    def __init__(self, path, line: int, column: int, message: str):
        self.path = path
        self.line = line
        self.column = column
        super().__init__(f"{path}: line {line}, column {column}: {message}")


class DimensionMismatchError(BetscanError):
    """Matrix components disagree on shape."""


class DegenerateColumnError(BetscanError):
    """A column has too little variation for the requested operation."""


class DegenerateSampleError(BetscanError):
    """A sample cannot be normalized (e.g. zero upper quartile)."""

    def __init__(self, sample_id: str, message: str):
        self.sample_id = sample_id
        super().__init__(f"sample {sample_id!r}: {message}")


class UnknownLabelError(BetscanError):
    """A label filter references names absent from the matrix labels."""

    def __init__(self, names):
        self.names = sorted(names)
        super().__init__(f"unknown label(s): {', '.join(self.names)}")


class UnknownGeneError(BetscanError):
    """A gene identifier is not present in the matrix."""

    def __init__(self, gene_id: str):
        self.gene_id = gene_id
        super().__init__(f"unknown gene id: {gene_id!r}")


class EmptyIntersectionError(BetscanError):
    """Two runs share no gene identifiers."""


class DegenerateTableError(BetscanError):
    """Contingency table has an all-zero row/column or is too small."""


class TooFewSamplesError(BetscanError):
    """Not enough observations for the requested statistic."""


class ZeroVarianceError(BetscanError):
    """An input vector is constant where variation is required."""
