"""Seeded input generator for the screening benchmark.

Every gene is a row of strictly distinct positive floats.  Planted pairs
are dyadic cell mixtures at depth 2: cell (cu, cv) of the 4 x 4 grid gets
probability (1 + strength * sign(cu, cv)) / 16, where sign is the region
sign of the planted interaction.  This loads exactly that interaction and
leaves the other eight centred at zero, so the planted class wins.  The
margins stay uniform, so the ranks see the same cells.

Raw inputs (the CLI workload) also carry the two artifacts the preprocess
pipeline exists for, on null genes only:

  * zeros: some genes get up to 15% zero entries (kept, jittered), and a
    few get 30% (dropped by the 20% zero filter);
  * median spikes: a block of entries around the median set to exactly
    the median value (reset to the minimum, then jittered).

Integer counts with ties away from the minimum are left out on purpose:
they pass preprocess and then stop `screen` with TiesPresentError, which
is a known defect, not a benchmark case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Canonical (a_mask, b_mask) of each depth-2 class.
CLASS_MASKS = {
    "Linear": (1, 1),
    "Parabolic": (3, 1),
    "W": (2, 1),
    "Checkerboard": (2, 2),
    "FullCross": (3, 3),
    "LShape": (3, 2),
}

STRENGTH = 0.45
ZERO_HEAVY_SHARE = 0.02
ZERO_SHARE = 0.5
SPIKE_SHARE = 0.1


@dataclass
class Inputs:
    path: Path
    gene_ids: list[str]
    planted: list[tuple[str, str, str]]  # (gene, gene, class label)
    dropped: set[str] = field(default_factory=set)
    spiked: set[str] = field(default_factory=set)


def _cell_signs(mask: int) -> np.ndarray:
    # sign of the selected depth-2 digit product on each quarter cell;
    # digit 1 is the high bit of the cell index, digit 2 the low bit
    out = np.ones(4, dtype=np.int64)
    for cell in range(4):
        for k in (1, 2):
            if mask >> (k - 1) & 1:
                out[cell] *= 2 * (cell >> (2 - k) & 1) - 1
    return out


def _planted(rng, n: int, a_mask: int, b_mask: int) -> tuple[np.ndarray, np.ndarray]:
    weights = (1.0 + STRENGTH * np.outer(_cell_signs(a_mask), _cell_signs(b_mask))).ravel()
    cells = rng.choice(16, size=n, p=weights / weights.sum())
    x = (cells // 4 + rng.random(n)) / 4.0
    y = (cells % 4 + rng.random(n)) / 4.0
    return x, y


def _to_values(rng, u: np.ndarray) -> np.ndarray:
    # a gene-specific monotone map to expression-like positive values
    return np.exp(rng.uniform(0.0, 4.0) + 3.0 * u)


def _add_spike(rng, row: np.ndarray) -> None:
    # set a block of ranks straddling the middle to the median data value,
    # so np.median of the row equals that duplicated value
    n = row.shape[0]
    k = int(rng.integers(4, 41))
    order = np.argsort(row, kind="stable")
    block = order[n // 2 - k // 2 : n // 2 - k // 2 + k]
    row[block] = row[order[n // 2]]


def generate(
    path: Path,
    seed: int,
    stream: int,
    genes: int,
    samples: int,
    planted_per_class: int,
    raw: bool,
) -> Inputs:
    """Write a genes-by-samples TSV and return what was planted in it."""
    rng = np.random.Generator(np.random.Philox(key=(seed << 16) | stream))
    gene_ids = [f"g{g:05d}" for g in range(genes)]
    sample_ids = [f"s{j:05d}" for j in range(samples)]
    labels = list(CLASS_MASKS) * planted_per_class
    order = rng.permutation(genes)
    pair_rows = [(int(order[2 * k]), int(order[2 * k + 1])) for k in range(len(labels))]
    planted_rows = {r for pair in pair_rows for r in pair}

    u = rng.random((genes, samples))
    for (gi, gj), label in zip(pair_rows, labels):
        u[gi], u[gj] = _planted(rng, samples, *CLASS_MASKS[label])

    inputs = Inputs(
        path=path,
        gene_ids=gene_ids,
        planted=[(gene_ids[gi], gene_ids[gj], lab) for (gi, gj), lab in zip(pair_rows, labels)],
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\t".join(["gene_id", *sample_ids]) + "\n")
        for g in range(genes):
            row = _to_values(rng, u[g])
            while np.unique(row).shape[0] < samples:
                row = _to_values(rng, rng.random(samples))
            if raw and g not in planted_rows:
                draw = rng.random()
                if draw < ZERO_HEAVY_SHARE:
                    row[rng.choice(samples, int(0.3 * samples), replace=False)] = 0.0
                    inputs.dropped.add(gene_ids[g])
                elif draw < ZERO_SHARE:
                    count = int(rng.uniform(0.01, 0.15) * samples)
                    row[rng.choice(samples, count, replace=False)] = 0.0
                if gene_ids[g] not in inputs.dropped and rng.random() < SPIKE_SHARE:
                    _add_spike(rng, row)
                    inputs.spiked.add(gene_ids[g])
            fh.write(gene_ids[g] + "\t" + "\t".join(map(repr, row.tolist())) + "\n")
    return inputs
