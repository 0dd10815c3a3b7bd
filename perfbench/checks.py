"""Correctness checks behind `failed` / `attempted`; never timed.

The screen's rows are compared with the single-pair `max_bet` path on a
seeded sample of pairs that includes every planted pair and, for
significant-only outputs, every emitted row.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

from betscan.core.bids import bid_count
from betscan.core.maxbet import max_bet
from betscan.screen import RESULT_COLUMNS

SAMPLE_PAIRS = 500
DETERMINISTIC_METHODS = ("hypergeometric", "normal_approx")


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print(f"check failed: {what}", file=sys.stderr)
        return ok


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def read_rows(ck: Checks, path: Path) -> dict[tuple[str, str], dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        ck.expect(tuple(reader.fieldnames or ()) == RESULT_COLUMNS, f"{path.name} header")
        return {(r["gene_i"], r["gene_j"]): r for r in reader}


def random_pairs(rng, genes: int, count: int) -> set[tuple[int, int]]:
    """`count` distinct seeded pairs (i < j), or every pair when there are fewer."""
    if genes * (genes - 1) // 2 <= count:
        return {(i, j) for i in range(genes) for j in range(i + 1, genes)}
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < count:
        i, j = sorted(int(v) for v in rng.choice(genes, 2, replace=False))
        pairs.add((i, j))
    return pairs


def check_rows(ck, rows, gene_ids, planes, pairs, cfg, m_pairs):
    """Each sampled pair is emitted iff max_bet says it should be, and matches."""
    permutation = cfg.mode == "permutation"
    m_bids = bid_count(cfg.d1, cfg.d2)
    for i, j in pairs:
        # the winner (bid, s, z) does not depend on the mode; permutation
        # p-values come from a seeded Monte Carlo stream and are checked for
        # range and adjustment only
        ref = max_bet(planes[i], planes[j], mode="approx" if permutation else cfg.mode)
        ref = ref.with_pair_adjustment(m_pairs)
        row = rows.get((gene_ids[i], gene_ids[j]))
        expected = cfg.emit_all or ref.p_pair_adjusted <= cfg.alpha
        label = f"pair ({gene_ids[i]}, {gene_ids[j]})"
        if not ck.expect((row is not None) == expected, f"{label} emitted={row is not None}"):
            continue
        if row is None:
            continue
        same = (
            row["bid"] == ref.bid.name
            and row["bid_class"] == ref.bid_class.label
            and row["s"] == str(ref.s)
            and row["z"] == _fmt(ref.z)
        )
        if permutation:
            p_raw = float(row["p_raw"])
            p_bid = min(1.0, m_bids * p_raw)
            same = (
                same
                and row["method"] == "permutation"
                and row["approximate"] == "true"
                and 1.0 / (1 + cfg.permutation_iterations) <= p_raw <= 1.0
                and abs(float(row["p_bid_adj"]) - p_bid) <= 1e-9 * p_bid
            )
        else:
            same = (
                same
                and ref.method in DETERMINISTIC_METHODS
                and row["method"] == ref.method
                and row["approximate"] == ("true" if ref.approximate else "false")
                and row["p_raw"] == _fmt(ref.p_raw)
                and row["p_bid_adj"] == _fmt(ref.p_bid_adjusted)
                and row["p_pair_adj"] == _fmt(ref.p_pair_adjusted)
            )
        ck.expect(same, f"{label} row {row} differs from max_bet {ref}")


def check_planted(ck, rows, gene_index, planted, alpha) -> None:
    """Every planted pair is emitted with its planted class."""
    for ga, gb, label in planted:
        key = (ga, gb) if gene_index[ga] < gene_index[gb] else (gb, ga)
        row = rows.get(key)
        ck.expect(
            row is not None
            and row["bid_class"] == label
            and float(row["p_bid_adj"]) <= alpha,
            f"planted {label} pair {key} recovered as {row}",
        )


def check_manifest(ck, out_dir: Path, command: str, input_sha: str) -> None:
    path = out_dir / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        ck.expect(False, f"{command} manifest unreadable: {exc}")
        return
    ck.expect(
        manifest.get("command") == command
        and list(manifest.get("inputs", {}).values()) == [input_sha],
        f"{command} manifest records command and input hash",
    )
