"""Command-line front end.

Subcommands mirror the pipeline: preprocess, test (one pair, verbose),
screen (all pairs), network, compare (cross-dataset), baselines, and
rerun (replay a recorded manifest; it refuses an input that is missing
or whose sha256 no longer matches).  Outputs are plain text, CSV, and
JSON only; every run directory gets a manifest.json, written last, that
reproduces the data outputs byte for byte (wall-time metadata aside).

The seed, when not given with --seed, falls back to the BETSCAN_SEED
environment variable and then to 0.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .core.bids import bid_class_of, parse_class_label
from .core.expansion import binary_expansion
from .core.maxbet import MODES, max_bet
from .core.stats import all_symmetry_statistics, cell_counts
from .errors import BetscanError
from .manifest import (
    atomic_open,
    new_manifest,
    open_input,
    read_manifest,
    sha256_file,
    write_json,
    write_records,
)
from .preprocess import (
    load_labels,
    load_matrix,
    run_pipeline,
    save_matrix,
    subset_by_labels,
    upper_quartile_log2,
)
from .screen import (
    SEED_LIMIT,
    CompareRow,
    ScreenConfig,
    all_bid_diagnostics,
    compare_runs,
    precompute_bitplanes,
    rank_gene,
    read_results_csv,
    screen_all_pairs,
    top_k_genes,
    write_diagnostics_csv,
    write_results_csv,
)


def _number(cast, ok, rule: str):
    """An argparse type: text cast to int or float, refused unless ok(value)."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            kind = "an integer" if cast is int else "a number"
            raise argparse.ArgumentTypeError(f"not {kind}: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    return parse


_seed = _number(int, lambda x: 0 <= x < SEED_LIMIT, "in [0, 2**64)")
_positive_int = _number(int, lambda x: x >= 1, "at least 1")
_alpha = _number(float, lambda x: 0 < x < 1, "in (0, 1)")
_fraction = _number(float, lambda x: 0 <= x <= 1, "in [0, 1]")


def _labels(parse):
    """An argparse type: class label text that parse accepts, kept as written."""

    def check(text: str) -> str:
        try:
            parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text

    return check


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("BETSCAN_SEED")
    try:
        return _seed(env) if env else 0
    except argparse.ArgumentTypeError as exc:
        raise BetscanError(f"BETSCAN_SEED: {exc}") from None


def _parse_filter(text: str | None) -> frozenset[str] | None:
    if not text:
        return None
    return frozenset(parse_class_label(tok) for tok in text.split(",") if tok.strip())


def _start_run(out_dir: Path) -> None:
    """Make out_dir; drop an earlier manifest, which would mark this run complete."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").unlink(missing_ok=True)


def _finish_run(out_dir: Path, manifest, outputs: list[str], started: float) -> None:
    manifest.outputs = sorted(outputs)
    manifest.wall_time_s = time.perf_counter() - started
    write_json(manifest.to_dict(), out_dir / "manifest.json")


# ---------------------------------------------------------------- preprocess


def run_preprocess(config: dict, out_dir: Path) -> int:
    started = time.perf_counter()
    _start_run(out_dir)
    inputs = [config["input"]]
    if config.get("labels"):
        inputs.append(config["labels"])

    matrix = load_matrix(config["input"], config.get("format", "tsv_genes_by_samples"))
    if config.get("labels"):
        matrix = matrix.with_labels(load_labels(config["labels"]))

    if config.get("uq_target") is not None:
        matrix = upper_quartile_log2(matrix, float(config["uq_target"]))

    cleaned, report = run_pipeline(
        matrix,
        seed=int(config["seed"]),
        zero_fraction_threshold=float(config.get("zero_threshold", 0.20)),
    )

    # Context subsetting happens after jitter so every context inherits the
    # same cleaned values; ranks are taken per context downstream anyway.
    if config.get("context"):
        keep = [tok.strip() for tok in config["context"].split(",") if tok.strip()]
        cleaned = subset_by_labels(cleaned, keep)

    outputs = []
    matrix_path = out_dir / "matrix.tsv"
    save_matrix(cleaned, matrix_path, "tsv_genes_by_samples")
    outputs.append(matrix_path.name)
    if cleaned.labels is not None:
        labels_path = out_dir / "labels.csv"
        with atomic_open(labels_path) as fh:
            fh.write("sample_id,label\n")
            for sample, label in zip(cleaned.sample_ids, cleaned.labels):
                fh.write(f"{sample},{label}\n")
        outputs.append(labels_path.name)
    report_path = out_dir / "preprocess_report.json"
    write_json(report.to_dict(), report_path)
    outputs.append(report_path.name)

    manifest = new_manifest("preprocess", config, inputs, seed=int(config["seed"]))
    _finish_run(out_dir, manifest, outputs, started)
    print(
        f"preprocess: {cleaned.n_genes} genes x {cleaned.n_samples} samples -> "
        f"{matrix_path} ({len(report.genes_dropped)} gene(s) dropped)"
    )
    return 0


# ---------------------------------------------------------------------- test


def _grid_lines(counts) -> list[str]:
    d1, d2 = counts.shape
    row_labels = [
        f"v ({Fraction(vc, d2)}, {Fraction(vc + 1, d2)}]" for vc in range(d2)
    ]
    width = max(len(lab) for lab in row_labels)
    lines = []
    for vc in reversed(range(d2)):
        row = "  ".join(f"{int(c):5d}" for c in counts[:, vc])
        lines.append(f"  {row_labels[vc]:<{width}} | {row}")
    labels = "   ".join(f"({Fraction(u, d1)},{Fraction(u + 1, d1)}]" for u in range(d1))
    lines.append(f"  {'u bins:':<{width}}   {labels}")
    return lines


def run_test(config: dict, out_dir: Path | None) -> int:
    started = time.perf_counter()
    matrix = load_matrix(config["input"], config.get("format", "tsv_genes_by_samples"))
    gene_a, gene_b = config["gene_a"], config["gene_b"]
    depth = int(config.get("depth", 2))

    col_u = rank_gene(gene_a, matrix.column(gene_a))
    col_v = rank_gene(gene_b, matrix.column(gene_b))
    u = binary_expansion(col_u, depth)
    v = binary_expansion(col_v, depth)

    stats = all_symmetry_statistics(u, v)
    result = max_bet(
        u,
        v,
        mode=config.get("mode", "exact"),
        iterations=int(config.get("permutation_iterations", 999)),
        seed=int(config.get("seed", 0)),
    )

    lines = [f"pair: {gene_a} x {gene_b}   (n = {u.n}, depth = {depth})", ""]
    lines.append(f"  {'interaction':<14}{'class':<14}{'S':>8}{'z':>10}")
    for st in stats:
        lines.append(
            f"  {st.bid.name:<14}{bid_class_of(st.bid).label:<14}"
            f"{st.s:>8d}{st.z:>10.4f}"
        )
    lines.append("")
    lines.append(
        f"winner: {result.bid.name} ({result.bid_class.label})   "
        f"S = {result.s}   z = {result.z:.4f}"
    )
    approx = "  [approximate]" if result.approximate else ""
    lines.append(
        f"p_raw = {result.p_raw:.6g}   p_bid_adjusted = "
        f"{result.p_bid_adjusted:.6g}   method = {result.method}{approx}"
    )
    lines.append("")
    lines.append("quadrant counts (v decreasing top to bottom, u increasing):")
    lines.extend(_grid_lines(cell_counts(u, v)))
    report = "\n".join(lines) + "\n"
    print(report, end="")

    if out_dir is not None:
        _start_run(out_dir)
        with atomic_open(out_dir / "test_report.txt") as fh:
            fh.write(report)
        manifest = new_manifest(
            "test", config, [config["input"]], seed=int(config.get("seed", 0))
        )
        _finish_run(out_dir, manifest, ["test_report.txt"], started)
    return 0


# -------------------------------------------------------------------- screen


def run_screen(config: dict, out_dir: Path) -> int:
    started = time.perf_counter()
    _start_run(out_dir)
    matrix = load_matrix(config["input"], config.get("format", "tsv_genes_by_samples"))
    depth = int(config.get("depth", 2))

    screen_config = ScreenConfig(
        d1=depth,
        d2=depth,
        alpha=float(config.get("alpha", 0.05)),
        m_pairs=config.get("m_pairs"),
        bid_filter=_parse_filter(config.get("bid_filter")),
        worker_count=int(config.get("workers", 1)),
        emit_all=bool(config.get("emit_all", False)),
        mode=config.get("mode", "exact"),
        permutation_iterations=int(config.get("permutation_iterations", 999)),
        seed=int(config.get("seed", 0)),
    )
    planes = precompute_bitplanes(matrix, depth)
    results, summary = screen_all_pairs(planes, matrix.gene_ids, screen_config)

    results_path = out_dir / "results.csv"
    write_results_csv(results, results_path)
    summary_path = out_dir / "summary.json"
    write_json(summary.to_dict(), summary_path)
    outputs = [results_path.name, summary_path.name]

    if config.get("emit_all_bids"):
        diag_path = out_dir / "results_all_bids.csv"
        write_diagnostics_csv(
            all_bid_diagnostics(planes, matrix.gene_ids, results), diag_path
        )
        outputs.append(diag_path.name)

    manifest = new_manifest(
        "screen", config, [config["input"]], seed=int(config.get("seed", 0))
    )
    _finish_run(out_dir, manifest, outputs, started)
    print(
        f"screen: {summary.total_pairs} pairs tested, "
        f"{summary.significant_pairs} significant at alpha={summary.alpha} "
        f"(m_pairs={summary.m_pairs}) -> {results_path}"
    )
    return 0


# ------------------------------------------------------------------- network


def run_network(config: dict, out_dir: Path) -> int:
    from .network import build_network, export_graph, hub_report

    started = time.perf_counter()
    _start_run(out_dir)
    alpha = float(config.get("alpha", 0.05))
    results = read_results_csv(config["results"]).where(
        lambda r: r.p_pair_adjusted is not None and r.p_pair_adjusted <= alpha
    )
    k = int(config.get("k", 200))
    class_filter = _parse_filter(config.get("bid_filter"))

    graph = build_network(results, top_k_genes(results, k), class_filter)
    fmt = config.get("graph_format", "csv_edge_list")
    ext = {"csv_edge_list": "csv", "dot": "dot", "json": "json"}[fmt]
    graph_path = out_dir / f"graph.{ext}"
    export_graph(graph, graph_path, fmt)

    hubs_path = out_dir / "hubs.csv"
    with atomic_open(hubs_path) as fh:
        fh.write("gene,degree,neighbors\n")
        for gene, degree, neighbors in hub_report(
            graph, int(config.get("min_degree", 1))
        ):
            fh.write(f"{gene},{degree},{';'.join(neighbors)}\n")

    outputs = [graph_path.name, hubs_path.name]
    if fmt == "csv_edge_list":
        outputs.append(graph_path.name + ".nodes.csv")
    manifest = new_manifest("network", config, [config["results"]])
    _finish_run(out_dir, manifest, outputs, started)
    print(
        f"network: {len(graph.nodes)} nodes, {len(graph.edges)} edges -> {graph_path}"
    )
    return 0


# ------------------------------------------------------------------- compare


def run_compare(config: dict, out_dir: Path) -> int:
    started = time.perf_counter()
    _start_run(out_dir)
    results_a = read_results_csv(config["results_a"])
    matrix_b = load_matrix(
        config["matrix_b"], config.get("format", "tsv_genes_by_samples")
    )
    planes_b = precompute_bitplanes(matrix_b, int(config.get("depth", 2)))
    rows = compare_runs(
        results_a, dict(zip(matrix_b.gene_ids, planes_b)), config["bid_class"]
    )
    out_path = out_dir / "compare.csv"
    write_records(rows, CompareRow, out_path)
    manifest = new_manifest(
        "compare", config, [config["results_a"], config["matrix_b"]]
    )
    _finish_run(out_dir, manifest, [out_path.name], started)
    missing = sum(1 for r in rows if r.flag != "ok")
    print(f"compare: {len(rows)} pairs ({missing} flagged) -> {out_path}")
    return 0


# ----------------------------------------------------------------- baselines


def run_baselines(config: dict, out_dir: Path) -> int:
    import csv as _csv

    from .baselines import MeasureClassRow, MeasurePairRow, measure_comparison

    started = time.perf_counter()
    _start_run(out_dir)
    matrix = load_matrix(config["input"], config.get("format", "tsv_genes_by_samples"))

    with open_input(config["pairs"]) as fh:
        reader = _csv.DictReader(fh)
        if not {"gene_i", "gene_j"} <= set(reader.fieldnames or ()):
            raise BetscanError(f"{config['pairs']}: no gene_i and gene_j columns")
        pairs = [(rec["gene_i"], rec["gene_j"]) for rec in reader]
    if not pairs:
        raise BetscanError(f"no pairs found in {config['pairs']}")

    per_pair, per_class = measure_comparison(
        matrix,
        pairs,
        alpha=float(config.get("alpha", 0.05)),
        m_pairs=config.get("m_pairs"),
        d=int(config.get("depth", 2)),
        hoeffding_iterations=int(config.get("hoeffding_iterations", 999)),
        seed=int(config.get("seed", 0)),
    )

    pairs_path = out_dir / "baseline_pairs.csv"
    write_records(per_pair, MeasurePairRow, pairs_path)
    classes_path = out_dir / "baseline_classes.csv"
    write_records(per_class, MeasureClassRow, classes_path)

    manifest = new_manifest(
        "baselines", config, [config["input"], config["pairs"]],
        seed=int(config.get("seed", 0)),
    )
    _finish_run(
        out_dir, manifest, [pairs_path.name, classes_path.name], started
    )
    print(
        f"baselines: {len(per_pair)} pairs over {len(per_class)} class(es) -> "
        f"{classes_path}"
    )
    return 0


# --------------------------------------------------------------------- rerun

_RUNNERS = {
    "preprocess": run_preprocess,
    "test": run_test,
    "screen": run_screen,
    "network": run_network,
    "compare": run_compare,
    "baselines": run_baselines,
}


def _rerun(args) -> int:
    manifest = read_manifest(args.manifest)
    if manifest.command not in _RUNNERS:
        raise BetscanError(f"manifest for unknown command {manifest.command!r}")
    for path, digest in manifest.inputs.items():
        if not Path(path).is_file():
            raise BetscanError(f"recorded input {path} is missing")
        if sha256_file(path) != digest:
            raise BetscanError(f"recorded input {path} has changed since the run")
    out_dir = Path(args.out) if args.out else Path(manifest.config.get("out") or ".")
    config = dict(manifest.config)
    config["out"] = str(out_dir)
    return _RUNNERS[manifest.command](config, out_dir)


# -------------------------------------------------------------------- parser


def _add_format(p) -> None:
    p.add_argument(
        "--format",
        choices=["tsv_genes_by_samples", "tsv", "csv"],
        default="tsv_genes_by_samples",
        help="matrix file layout (default: tab-separated genes by samples)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betscan",
        description="Binary expansion testing for nonlinear pairwise dependence.",
    )
    parser.add_argument("--version", action="version", version=f"betscan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="clean a count matrix for rank transforms")
    p.add_argument("input", type=Path)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    _add_format(p)
    p.add_argument("--labels", type=Path, help="CSV sample_id,label")
    p.add_argument(
        "--context",
        help="comma-separated labels to keep (requires --labels); applied last",
    )
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--zero-threshold", type=_fraction, default=0.20)
    p.add_argument(
        "--uq-target",
        type=float,
        default=None,
        help="apply approximate upper-quartile + log2(x+1) normalization first",
    )

    p = sub.add_parser("test", help="run the full test on one gene pair")
    p.add_argument("input", type=Path)
    p.add_argument("gene_a")
    p.add_argument("gene_b")
    _add_format(p)
    p.add_argument("--depth", type=_positive_int, default=2)
    p.add_argument("--mode", choices=MODES, default="exact")
    p.add_argument("--permutation-iterations", type=_positive_int, default=999)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", type=Path, default=None, help="also write report + manifest")

    p = sub.add_parser("screen", help="score every gene pair")
    p.add_argument("input", type=Path)
    p.add_argument("--out", type=Path, required=True)
    _add_format(p)
    p.add_argument("--depth", type=_positive_int, default=2)
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.add_argument(
        "--m-pairs",
        type=_positive_int,
        default=None,
        help="external Bonferroni pair count (>= pairs screened)",
    )
    p.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="scoring threads, capped at the CPU count",
    )
    p.add_argument("--mode", choices=MODES, default="exact")
    p.add_argument("--permutation-iterations", type=_positive_int, default=999)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument(
        "--bid-filter",
        type=_labels(_parse_filter),
        help="comma-separated class labels to keep in the output",
    )
    p.add_argument(
        "--emit-all",
        action="store_true",
        help="emit every pair, not only the significant ones",
    )
    p.add_argument(
        "--emit-all-bids",
        action="store_true",
        help="also write every interaction's statistic per emitted pair",
    )

    p = sub.add_parser("network", help="build the significance network")
    p.add_argument("results", type=Path, help="results.csv from screen")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--k", type=_positive_int, default=200)
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.add_argument(
        "--graph-format",
        choices=["csv_edge_list", "dot", "json"],
        default="csv_edge_list",
    )
    p.add_argument("--bid-filter", type=_labels(_parse_filter))
    p.add_argument("--min-degree", type=int, default=1)

    p = sub.add_parser(
        "compare", help="recompute one class's z-scores on a second dataset"
    )
    p.add_argument("results_a", type=Path, help="results.csv from the reference run")
    p.add_argument("matrix_b", type=Path, help="preprocessed matrix of the other run")
    p.add_argument(
        "--class", dest="bid_class", type=_labels(parse_class_label), required=True
    )
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--depth", type=_positive_int, default=2)
    _add_format(p)

    p = sub.add_parser(
        "baselines", help="compare the test with Pearson and Hoeffding's D"
    )
    p.add_argument("input", type=Path)
    p.add_argument("pairs", type=Path, help="CSV with gene_i,gene_j columns")
    p.add_argument("--out", type=Path, required=True)
    _add_format(p)
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.add_argument("--m-pairs", type=_positive_int, default=None)
    p.add_argument("--depth", type=_positive_int, default=2)
    p.add_argument("--hoeffding-iterations", type=_positive_int, default=999)
    p.add_argument("--seed", type=_seed, default=None)

    p = sub.add_parser("rerun", help="replay a recorded manifest")
    p.add_argument("manifest", type=Path)
    p.add_argument("--out", type=Path, default=None)

    return parser


def _config(args) -> dict:
    """A command's flags as its run config: paths as strings, the seed resolved."""
    config = {
        key: str(value) if isinstance(value, Path) else value
        for key, value in vars(args).items()
        if key != "command"
    }
    if "seed" in config:
        config["seed"] = _resolve_seed(config["seed"])
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "preprocess" and args.context and not args.labels:
        parser.error("--context requires --labels")
    try:
        if args.command == "rerun":
            return _rerun(args)
        return _RUNNERS[args.command](_config(args), args.out)
    except BetscanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
