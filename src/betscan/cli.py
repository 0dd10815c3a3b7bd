"""Command-line front end.

Subcommands mirror the pipeline: preprocess, test (one pair, verbose),
screen (all pairs), network, compare (cross-dataset), baselines, and
rerun (replay a recorded manifest).  Outputs are plain text, CSV, and
JSON only; every run directory gets a manifest.json, written last, that
reproduces the data outputs byte for byte (wall-time metadata aside).
Each input, a regular file, is hashed once before the run; the replay
check, the binary copy's check and the manifest share that digest.

A replay's recorded config goes through the same parser as a live run's
flags: a value that its flag refuses is a usage error (exit 2), an unknown
key is refused, a missing key takes the flag's default, and the recorded
inputs must be exactly the files that the config names, each with the
sha256 it had.  The seed, when not given with --seed, falls back to the
BETSCAN_SEED environment variable and then to 0; a replay passes its
recorded seed.
"""

from __future__ import annotations

import argparse
import csv
import os
import stat
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import __version__
from .core.bids import bid_class_of, class_members, parse_class_label
from .core.copula import MIN_SAMPLES, rank_rows
from .core.expansion import expand_rank_rows
from .core.maxbet import bonferroni, max_bet
from .core.nulls import MODES
from .core.stats import all_symmetry_statistics, cell_counts
from .errors import BetscanError, TooFewSamplesError
from .manifest import (
    atomic_open,
    read_csv,
    read_manifest,
    refused_record,
    sha256_file,
    write_csv,
    write_json,
    write_manifest,
    write_records,
)
from .preprocess import (
    FORMATS,
    ExpressionMatrix,
    _drop_constant_genes_in_place,
    check_savable,
    load_labels,
    load_matrix,
    run_pipeline,
    save_binary_copy,
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
    read_results_csv,
    screen_all_pairs,
    screen_reach,
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
_non_negative_int = _number(int, lambda x: x >= 0, "at least 0")
_alpha = _number(float, lambda x: 0 < x < 1, "in (0, 1)")
_fraction = _number(float, lambda x: 0 <= x <= 1, "in [0, 1]")
_uq_target = _number(float, lambda x: 0 < x < float("inf"), "finite and above 0")


def _labels(parse):
    """An argparse type: class label text that parse accepts, kept as written."""

    def check(text: str) -> str:
        try:
            parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text

    return check


def _parse_filter(text: str | None) -> frozenset[str] | None:
    """The class labels of comma-separated text; None for no text."""
    if not text:
        return None
    labels = frozenset(parse_class_label(tok) for tok in text.split(",") if tok.strip())
    if not labels:
        raise ValueError(f"no class label in {text!r}")
    return labels


def _enough_samples(matrix: ExpressionMatrix, where: str = "") -> ExpressionMatrix:
    """matrix, refused when it has fewer samples than a rank test takes."""
    if matrix.n_samples < MIN_SAMPLES:
        raise TooFewSamplesError(
            f"{where}need at least {MIN_SAMPLES} observations, got {matrix.n_samples}"
        )
    return matrix


def _load_matrix(config: dict, digests: dict, key: str = "input") -> ExpressionMatrix:
    """The matrix at config[key], refused if two gene rows share an id or too small."""
    path = config[key]
    matrix = load_matrix(path, config["format"], sha256=digests[path])
    seen: dict[str, int] = {}
    for row, gene in enumerate(matrix.gene_ids, start=1):
        earlier = seen.setdefault(gene, row)
        if earlier != row:
            raise BetscanError(
                f"{path}: gene id {gene!r} on gene rows {earlier} and {row}"
            )
    return _enough_samples(matrix)


def _start_run(out_dir: Path) -> None:
    """Make out_dir; drop an earlier manifest, which would mark this run complete.

    Every command calls it only once its inputs are loaded and checked, so a
    refused input leaves no directory behind and an earlier run untouched.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").unlink(missing_ok=True)


# ---------------------------------------------------------------- preprocess


def run_preprocess(config: dict, out_dir: Path, digests: dict[str, str]) -> list[str]:
    matrix = _load_matrix(config, digests)
    check_savable(matrix)
    if config["labels"]:
        matrix = matrix.with_labels(load_labels(config["labels"]))

    if config["uq_target"] is not None:
        matrix = upper_quartile_log2(matrix, config["uq_target"])

    cleaned, report = run_pipeline(
        matrix, seed=config["seed"], zero_fraction_threshold=config["zero_threshold"]
    )
    del matrix  # the uncleaned values, which the writers below need not hold

    # Context subsetting happens after jitter so every context inherits the
    # same cleaned values; ranks are taken per context downstream anyway.
    if config["context"]:
        keep = _context_labels(config["context"])
        where = f"--context {config['context']!r} keeps too few samples: "
        # a copy, so that moving its kept rows up changes no other matrix
        cleaned = _enough_samples(subset_by_labels(cleaned, keep), where)
        earlier = f"the pipeline before --context {config['context']!r}"
        cleaned = _drop_constant_genes_in_place(cleaned, report, earlier)
    # --uq-target may have scaled a finite count past the float range, in a
    # gene that the pipeline keeps; the pipeline and --context change no id
    # and make no finite value non-finite
    if config["uq_target"] is not None:
        check_savable(cleaned)

    _start_run(out_dir)
    matrix_path = out_dir / "matrix.tsv"
    digest = save_matrix(cleaned, matrix_path, "tsv_genes_by_samples")
    outputs = [matrix_path, save_binary_copy(cleaned, matrix_path, digest)]
    if cleaned.labels is not None:
        labels_path = out_dir / "labels.csv"
        rows = zip(cleaned.sample_ids, cleaned.labels)
        write_csv(labels_path, ["sample_id", "label"], rows)
        outputs.append(labels_path)
    report_path = out_dir / "preprocess_report.json"
    write_json(asdict(report), report_path)
    outputs.append(report_path)

    print(
        f"preprocess: {cleaned.n_genes} genes x {cleaned.n_samples} samples -> "
        f"{matrix_path} ({len(report.genes_dropped)} gene(s) dropped)"
    )
    return [path.name for path in outputs]


def _context_labels(value: str) -> list[str]:
    """The labels of a --context value: one record of labels.csv's dialect.

    A quoted label may hold a comma; each label is stripped, and empty ones
    are dropped.
    """
    try:
        record = next(csv.reader([value]), [])
    except csv.Error:
        raise BetscanError(
            f"--context {value!r} holds a line break outside quotes"
        ) from None
    return [label.strip() for label in record if label.strip()]


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


def run_test(config: dict, out_dir: Path | None, digests: dict[str, str]) -> list[str]:
    matrix = _load_matrix(config, digests)
    gene_a, gene_b, depth = config["gene_a"], config["gene_b"], config["depth"]

    values = matrix.values[[matrix.gene_index(gene_a), matrix.gene_index(gene_b)]]
    u, v = expand_rank_rows(rank_rows(values, [gene_a, gene_b]), depth)

    stats = all_symmetry_statistics(u, v)
    result = max_bet(
        u,
        v,
        mode=config["mode"],
        iterations=config["permutation_iterations"],
        seed=config["seed"],
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

    if out_dir is None:
        return []
    _start_run(out_dir)
    with atomic_open(out_dir / "test_report.txt") as fh:
        fh.write(report)
    return ["test_report.txt"]


# -------------------------------------------------------------------- screen


def run_screen(config: dict, out_dir: Path, digests: dict[str, str]) -> list[str]:
    depth = config["depth"]
    try:
        screen_config = ScreenConfig(
            d1=depth,
            d2=depth,
            alpha=config["alpha"],
            m_pairs=config["m_pairs"],
            bid_filter=_parse_filter(config["bid_filter"]),
            worker_count=config["workers"],
            emit_all=config["emit_all"],
            mode=config["mode"],
            permutation_iterations=config["permutation_iterations"],
            seed=config["seed"],
        )
    except ValueError as exc:
        raise BetscanError(str(exc)) from None
    matrix = _load_matrix(config, digests)
    planes = precompute_bitplanes(matrix, depth)
    results, summary = screen_all_pairs(planes, matrix.gene_ids, screen_config)

    _start_run(out_dir)
    results_path = out_dir / "results.csv"
    write_results_csv(results, results_path)
    summary_path = out_dir / "summary.json"
    write_json(summary.to_dict(), summary_path)
    outputs = [results_path.name, summary_path.name]

    if config["emit_all_bids"]:
        diag_path = out_dir / "results_all_bids.csv"
        write_diagnostics_csv(
            all_bid_diagnostics(planes, matrix.gene_ids, results), diag_path
        )
        outputs.append(diag_path.name)

    print(
        f"screen: {summary.total_pairs} pairs tested, "
        f"{summary.significant_pairs} significant at alpha={summary.alpha} "
        f"(m_pairs={summary.m_pairs}) -> {results_path}"
    )
    _, smallest = screen_reach(screen_config, summary.n_samples, summary.m_pairs)
    if smallest > summary.alpha:
        print(
            f"note: the screen can flag no pair: its smallest p_pair_adj, "
            f"{smallest:.3g}, exceeds alpha {summary.alpha}",
            file=sys.stderr,
        )
    return outputs


# ------------------------------------------------------------------- network


def run_network(config: dict, out_dir: Path, digests: dict[str, str]) -> list[str]:
    from .network import build_network, export_graph, hub_report

    results = read_results_csv(config["results"]).where(
        lambda r: r.p_pair_adjusted is not None and r.p_pair_adjusted <= config["alpha"]
    )
    class_filter = _parse_filter(config["bid_filter"])

    graph = build_network(results, top_k_genes(results, config["k"]), class_filter)
    fmt = config["graph_format"]
    ext = {"csv_edge_list": "csv", "dot": "dot", "json": "json"}[fmt]
    graph_path = out_dir / f"graph.{ext}"
    _start_run(out_dir)
    outputs = export_graph(graph, graph_path, fmt)

    hubs_path = out_dir / "hubs.csv"
    hubs = hub_report(graph, config["min_degree"])
    rows = [(gene, degree, ";".join(near)) for gene, degree, near in hubs]
    write_csv(hubs_path, ["gene", "degree", "neighbors"], rows)
    outputs.append(hubs_path)
    print(
        f"network: {len(graph.nodes)} nodes, {len(graph.edges)} edges -> {graph_path}"
    )
    return [path.name for path in outputs]


# ------------------------------------------------------------------- compare


def run_compare(config: dict, out_dir: Path, digests: dict[str, str]) -> list[str]:
    depth = config["depth"]
    try:
        class_members(config["bid_class"], depth, depth)
    except ValueError as exc:
        raise BetscanError(str(exc)) from None
    results_a = read_results_csv(config["results_a"])
    matrix_b = _load_matrix(config, digests, "matrix_b")
    # only the genes that run A names are ranked and expanded
    named = set(results_a.gene_ids)
    kept = [gene in named for gene in matrix_b.gene_ids]
    genes = [gene for gene in matrix_b.gene_ids if gene in named]
    matrix_b = ExpressionMatrix(genes, matrix_b.sample_ids, matrix_b.values[kept])
    planes_b = dict(zip(genes, precompute_bitplanes(matrix_b, depth)))
    rows = compare_runs(results_a, planes_b, config["bid_class"])
    _start_run(out_dir)
    out_path = out_dir / "compare.csv"
    write_records(rows, CompareRow, out_path)
    missing = sum(1 for r in rows if r.flag != "ok")
    print(f"compare: {len(rows)} pairs ({missing} flagged) -> {out_path}")
    return [out_path.name]


# ----------------------------------------------------------------- baselines


def run_baselines(config: dict, out_dir: Path, digests: dict[str, str]) -> list[str]:
    from .baselines import (
        MeasureClassRow,
        MeasurePairRow,
        hoeffding_pvalue_floor,
        measure_comparison,
    )

    matrix = _load_matrix(config, digests)

    records = read_csv(config["pairs"])
    # a repeated column name means its last column, as in csv.DictReader
    column = {name: k for k, name in enumerate(next(records)[1])}
    if not {"gene_i", "gene_j"} <= column.keys():
        raise BetscanError(f"{config['pairs']}: no gene_i and gene_j columns")
    i, j = column["gene_i"], column["gene_j"]
    pairs = []
    for line, row in records:
        if len(row) <= max(i, j):
            raise refused_record(config["pairs"], line, "no gene_i or gene_j cell")
        pairs.append((row[i], row[j]))
    if not pairs:
        raise BetscanError(f"no pairs found in {config['pairs']}")

    per_pair, per_class = measure_comparison(
        matrix,
        pairs,
        alpha=config["alpha"],
        m_pairs=config["m_pairs"],
        d=config["depth"],
        hoeffding_iterations=config["hoeffding_iterations"],
        seed=config["seed"],
    )

    _start_run(out_dir)
    pairs_path = out_dir / "baseline_pairs.csv"
    write_records(per_pair, MeasurePairRow, pairs_path)
    classes_path = out_dir / "baseline_classes.csv"
    write_records(per_class, MeasureClassRow, classes_path)

    print(
        f"baselines: {len(per_pair)} pairs over {len(per_class)} class(es) -> "
        f"{classes_path}"
    )
    m_pairs = len(pairs) if config["m_pairs"] is None else config["m_pairs"]
    floor = hoeffding_pvalue_floor(matrix.n_samples, config["hoeffding_iterations"])
    if bonferroni(m_pairs, floor) > config["alpha"]:
        print(
            f"note: Hoeffding's D can flag no pair: its smallest p-value, {floor:.3g}, "
            f"times {m_pairs} pairs exceeds alpha {config['alpha']}",
            file=sys.stderr,
        )
    return [pairs_path.name, classes_path.name]


# --------------------------------------------------------------------- rerun

# Each runner loads and checks its inputs, then writes its outputs into out_dir
# (None only for test) and returns their names; main writes the manifest last.
_RUNNERS = {
    "preprocess": run_preprocess,
    "test": run_test,
    "screen": run_screen,
    "network": run_network,
    "compare": run_compare,
    "baselines": run_baselines,
}


def _recorded_argv(parser, manifest, out: Path | None) -> list[str]:
    """The command line that gives manifest's config back to the parser.

    Options come as --flag=value, so that a value such as -3 stays one, and
    positionals after --, so that a gene id such as -A does.  A null is left
    out where it is the default; a key that no flag has is a usage error.
    """
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    sub = commands.choices[manifest.command]
    config = dict(manifest.config)
    if out is not None:
        config["out"] = str(out)
    options, positionals = [], []
    for action in sub._actions:
        if action.dest == "help" or action.dest not in config:
            continue
        value = config.pop(action.dest)
        flag = action.option_strings[:1]
        if action.nargs == 0:  # store_true
            if not isinstance(value, bool):
                sub.error(f"argument {flag[0]}: not true or false: {value!r}")
            options += flag if value else []
        elif value is None and action.default is None:
            continue
        elif flag:
            options.append(f"{flag[0]}={value}")
        else:
            positionals.append(str(value))
    if config:
        sub.error(f"unknown setting in the recorded config: {min(config)!r}")
    return [manifest.command, *options, "--", *positionals]


def _input_digests(paths: list[str], recorded: dict[str, str] | None) -> dict[str, str]:
    """The sha256 of each input, a regular file; a replay's must be those recorded."""
    if recorded is not None and set(recorded) != set(paths):
        raise BetscanError(
            f"recorded inputs {sorted(recorded)} are not the files that the config "
            f"names, {sorted(paths)}"
        )
    digests = {}
    for path in dict.fromkeys(paths):
        try:
            if not stat.S_ISREG(os.stat(path).st_mode):
                raise BetscanError(
                    f"{path}: not a regular file; an input is hashed, then read"
                )
            digests[path] = sha256_file(path)
        except OSError as exc:
            if recorded is not None and isinstance(exc, FileNotFoundError):
                raise BetscanError(f"recorded input {path} is missing") from None
            raise BetscanError(f"{path}: {exc.strerror or exc}") from None
        if recorded is not None and digests[path] != recorded[path]:
            raise BetscanError(f"recorded input {path} has changed since the run")
    return digests


# -------------------------------------------------------------------- parser


def _add_format(p) -> None:
    p.add_argument(
        "--format",
        choices=FORMATS,
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
        help="comma-separated labels to keep, quoted as in a CSV record "
        "(requires --labels); applied last",
    )
    p.add_argument("--seed", type=_seed)
    p.add_argument("--zero-threshold", type=_fraction, default=0.20)
    p.add_argument(
        "--uq-target",
        type=_uq_target,
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
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out", type=Path, help="also write report + manifest")

    p = sub.add_parser("screen", help="score every gene pair")
    p.add_argument("input", type=Path)
    p.add_argument("--out", type=Path, required=True)
    _add_format(p)
    p.add_argument("--depth", type=_positive_int, default=2)
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.add_argument(
        "--m-pairs",
        type=_positive_int,
        help="external Bonferroni pair count (>= pairs screened)",
    )
    p.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="kept for compatibility; scoring runs on BLAS threads, "
        "which OPENBLAS_NUM_THREADS caps",
    )
    p.add_argument("--mode", choices=MODES, default="exact")
    p.add_argument("--permutation-iterations", type=_positive_int, default=999)
    p.add_argument("--seed", type=_seed)
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
    p.add_argument("--min-degree", type=_non_negative_int, default=1)

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
    p.add_argument("--m-pairs", type=_positive_int)
    p.add_argument("--depth", type=_positive_int, default=2)
    p.add_argument("--hoeffding-iterations", type=_positive_int, default=999)
    p.add_argument("--seed", type=_seed)

    p = sub.add_parser("rerun", help="replay a recorded manifest")
    p.add_argument("manifest", type=Path)
    p.add_argument("--out", type=Path)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        recorded = None
        if args.command == "rerun":
            recorded = read_manifest(args.manifest, _RUNNERS)
            args = parser.parse_args(_recorded_argv(parser, recorded, args.out))
        if args.command == "preprocess" and args.context and not args.labels:
            parser.error("--context requires --labels")
        # the inputs are the files that the run reads: every path but --out
        paths = {k: str(v) for k, v in vars(args).items() if isinstance(v, Path)}
        config = {**vars(args), **paths}
        del config["command"]
        inputs = [path for k, path in paths.items() if k != "out"]
        if "seed" in config and config["seed"] is None:
            # a replay runs on its recorded seed, never on BETSCAN_SEED
            env = None if recorded else os.environ.get("BETSCAN_SEED")
            try:
                config["seed"] = _seed(env) if env else 0
            except argparse.ArgumentTypeError as exc:
                raise BetscanError(f"BETSCAN_SEED: {exc}") from None
        digests = _input_digests(inputs, recorded.inputs if recorded else None)
        started = time.perf_counter()
        outputs = _RUNNERS[args.command](config, args.out, digests)
        if args.out is not None:
            write_manifest(args.out, args.command, config, digests, outputs, started)
        return 0
    except BetscanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
