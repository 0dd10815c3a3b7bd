"""Cross-interaction identifiers and their reflection classes.

A cross interaction multiplies at least one sign digit from each axis:
a_mask selects u-digits, b_mask selects v-digits (bit k-1 of a mask means
digit k participates).  At depths (d1, d2) there are (2^d1 - 1)(2^d2 - 1)
of them: 9 at depth 2, 49 at depth 3.

Swapping the two axes maps interaction (a, b) to (b, a) and produces the
same partition pattern with the roles of the variables reversed.  The
orbits of that swap are the pattern classes: at depth 2 the 9 interactions
collapse to 6 classes, five nonlinear plus the linear one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property

__all__ = [
    "BidId",
    "BidClass",
    "all_bids",
    "bid_count",
    "bid_class_of",
    "depth2_classes",
    "bid_from_name",
    "class_members",
    "parse_class_label",
    "DEPTH2_CLASS_LABELS",
]


@dataclass(frozen=True, order=True)
class BidId:
    """One cross interaction: nonzero digit masks for the two axes."""

    a_mask: int
    b_mask: int

    def __post_init__(self):
        if self.a_mask <= 0 or self.b_mask <= 0:
            raise ValueError("cross interactions need a nonzero mask on both axes")

    @cached_property
    def name(self) -> str:
        """'A1A2B1' and the like, built once per BidId: every table cell names one."""
        return _mask_name(self.a_mask, "A") + _mask_name(self.b_mask, "B")

    @property
    def swapped(self) -> "BidId":
        return BidId(a_mask=self.b_mask, b_mask=self.a_mask)

    @property
    def weight(self) -> int:
        """Total number of participating digits."""
        return self.a_mask.bit_count() + self.b_mask.bit_count()

    def __str__(self) -> str:
        return self.name


def _mask_name(mask: int, axis: str) -> str:
    return "".join(f"{axis}{k + 1}" for k in range(mask.bit_length()) if mask >> k & 1)


def bid_count(d1: int, d2: int) -> int:
    return ((1 << d1) - 1) * ((1 << d2) - 1)


def all_bids(d1: int, d2: int) -> list[BidId]:
    """Every cross interaction in canonical order: a_mask-major, b ascending."""
    return list(_bids(d1, d2))


@cache
def _bids(d1: int, d2: int) -> tuple[BidId, ...]:
    """all_bids, built once per pair of depths; BidIds are immutable."""
    return tuple(
        BidId(a, b) for a in range(1, 1 << d1) for b in range(1, 1 << d2)
    )


# Depth-2 class labels keyed by the canonical member (the orbit member with
# the larger a_mask).  LShape covers A1A2B2 and its reflection A2B1B2.
DEPTH2_CLASS_LABELS: dict[tuple[int, int], str] = {
    (1, 1): "Linear",
    (3, 1): "Parabolic",
    (2, 1): "W",
    (2, 2): "Checkerboard",
    (3, 3): "FullCross",
    (3, 2): "LShape",
}

_ALIASES = {
    "linear": "Linear",
    "parabolic": "Parabolic",
    "w": "W",
    "checkerboard": "Checkerboard",
    "fullcross": "FullCross",
    "lshape": "LShape",
    "l-shape": "LShape",
}


@dataclass(frozen=True)
class BidClass:
    """Reflection orbit of a cross interaction.

    members has one entry when the interaction is symmetric under the axis
    swap and two otherwise; canonical is the member with the larger a_mask.
    """

    canonical: BidId
    members: tuple[BidId, ...]
    label: str

    def __str__(self) -> str:
        return self.label


@cache
def bid_class_of(bid: BidId) -> BidClass:
    """Reflection class of a cross interaction (any depth).

    Cached: a BidClass is immutable, and the interactions of the depths in
    use are few.
    """
    partner = bid.swapped
    if partner == bid:
        members = (bid,)
        canonical = bid
    else:
        canonical = bid if bid.a_mask > bid.b_mask else partner
        members = tuple(sorted((bid, partner)))
    label = DEPTH2_CLASS_LABELS.get((canonical.a_mask, canonical.b_mask))
    if label is None:
        label = canonical.name
    return BidClass(canonical=canonical, members=members, label=label)


def depth2_classes() -> list[BidClass]:
    """The six depth-2 classes, in canonical-member order."""
    seen: dict[BidId, BidClass] = {}
    for bid in all_bids(2, 2):
        cls = bid_class_of(bid)
        seen.setdefault(cls.canonical, cls)
    return sorted(seen.values(), key=lambda c: (c.canonical.a_mask, c.canonical.b_mask))


def class_members(label: str, d1: int = 2, d2: int = 2) -> tuple[BidId, ...]:
    """Member interactions of a class label at the given depths."""
    for bid in all_bids(d1, d2):
        cls = bid_class_of(bid)
        if cls.label == label:
            return cls.members
    raise ValueError(f"no class labelled {label!r} at depths ({d1}, {d2})")


_BID_TOKEN = re.compile(r"([AB])(\d+)")


def bid_from_name(name: str) -> BidId:
    """Parse names like 'A1A2B1' back into masks."""
    a_mask = b_mask = 0
    consumed = 0
    for match in _BID_TOKEN.finditer(name):
        consumed += len(match.group(0))
        k = int(match.group(2))
        if k < 1:
            raise ValueError(f"bad digit index in {name!r}")
        if match.group(1) == "A":
            a_mask |= 1 << (k - 1)
        else:
            b_mask |= 1 << (k - 1)
    if consumed != len(name) or a_mask == 0 or b_mask == 0:
        raise ValueError(f"not a cross-interaction name: {name!r}")
    return BidId(a_mask, b_mask)


def parse_class_label(text: str) -> str:
    """Normalize a user-supplied class label or member BID name."""
    key = text.strip().lower()
    if key in _ALIASES:
        return _ALIASES[key]
    try:
        return bid_class_of(bid_from_name(text.strip())).label
    except ValueError:
        raise ValueError(f"unknown pattern class: {text!r}") from None
