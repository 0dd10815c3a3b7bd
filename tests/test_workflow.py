"""End-to-end run through every CLI stage on one synthetic dataset.

The fixture imitates a published count matrix: subtype labels, genes with
zero inflation, genes whose zeros were median-imputed upstream, and two
planted relationships (one linear duplicate, one parabolic pair) riding on
otherwise independent noise.
"""

import hashlib
import json

import numpy as np

from betscan.cli import main
from betscan.preprocess import ExpressionMatrix, load_matrix, save_matrix

from ._synth import subtype_context_labels


def build_dataset(tmp_path, seed=424242):
    rng = np.random.default_rng(seed)
    n = 817
    genes = []
    rows = []

    # planted signal: a duplicated pair and a noisy parabola pair,
    # values continuous and positive like normalized log counts
    base = np.abs(rng.normal(6.0, 2.0, n)) + 1.0
    genes += ["LIN_A", "LIN_B"]
    rows += [base, base * 1.0]
    x = rng.random(n)
    y = (x - 0.5) ** 2 + rng.normal(0.0, 0.02, n)
    genes += ["PAR_A", "PAR_B"]
    rows += [10.0 * x + 1.0, 10.0 * y + 1.0]

    # background: independent continuous genes
    for g in range(18):
        genes.append(f"BG{g:02d}")
        rows.append(np.abs(rng.normal(5.0, 3.0, n)) + rng.random(n))

    # artifact genes: integer counts, zero inflation, median imputation;
    # even indices are imputed (median spike, no zeros survive), odd ones
    # keep raw zeros, and only ART01 crosses the 20% exclusion line
    zeros_plan = [380, 250, 120, 90, 70, 50, 150, 40]
    for g, n_zero in enumerate(zeros_plan):
        col = rng.choice(np.arange(1, 10**6), size=n, replace=False).astype(float)
        col[:n_zero] = 0.0
        rng.shuffle(col)
        if g % 2 == 0:
            col[col == 0.0] = np.sort(col)[n // 2]
        genes.append(f"ART{g:02d}")
        rows.append(col)

    matrix = ExpressionMatrix(
        gene_ids=genes,
        sample_ids=[f"S{j:04d}" for j in range(n)],
        values=np.array(rows),
    )
    counts_path = tmp_path / "counts.tsv"
    save_matrix(matrix, counts_path)

    labels_path = tmp_path / "labels.csv"
    lines = ["sample_id,label"]
    for sample, label in zip(matrix.sample_ids, subtype_context_labels()):
        lines.append(f"{sample},{label}")
    labels_path.write_text("\n".join(lines) + "\n")
    return counts_path, labels_path


def test_full_workflow(tmp_path):
    counts, labels = build_dataset(tmp_path)

    # ---- preprocess (full cohort) -------------------------------------
    pre = tmp_path / "pre"
    assert (
        main(
            [
                "preprocess", str(counts),
                "--labels", str(labels),
                "--out", str(pre),
                "--seed", "11",
            ]
        )
        == 0
    )
    cleaned = load_matrix(pre / "matrix.tsv")
    report = json.loads((pre / "preprocess_report.json").read_text())
    assert cleaned.n_samples == 817
    dropped = {d["gene"] for d in report["genes_dropped"]}
    assert dropped == {"ART01"}
    assert cleaned.n_genes == 29
    assert report["medians_reset"]  # imputed spikes were found and undone

    # ---- preprocess restricted to one context -------------------------
    ctx = tmp_path / "ctx"
    assert (
        main(
            [
                "preprocess", str(counts),
                "--labels", str(labels),
                "--context", "LumA",
                "--out", str(ctx),
                "--seed", "11",
            ]
        )
        == 0
    )
    context_matrix = load_matrix(ctx / "matrix.tsv")
    assert context_matrix.n_samples == 415

    # ---- screen both runs (the exact null also where 4 does not divide 817) ----
    scr = tmp_path / "scr"
    assert main(["screen", str(pre / "matrix.tsv"), "--out", str(scr)]) == 0
    results = (scr / "results.csv").read_text().splitlines()
    by_pair = {tuple(r.split(",")[:2]): r.split(",") for r in results[1:]}
    lin = by_pair[("LIN_A", "LIN_B")]
    assert lin[3] == "Linear" and lin[4] == "817"
    par = by_pair[("PAR_A", "PAR_B")]
    assert par[3] == "Parabolic"
    assert lin[10] == "hypergeometric" and lin[9] == "false"

    scr_ctx = tmp_path / "scr_ctx"
    assert main(["screen", str(ctx / "matrix.tsv"), "--out", str(scr_ctx)]) == 0
    ctx_results = (scr_ctx / "results.csv").read_text().splitlines()
    assert any(r.startswith("PAR_A,PAR_B,") for r in ctx_results[1:])

    # ---- network over the full run ------------------------------------
    net = tmp_path / "net"
    assert (
        main(
            [
                "network", str(scr / "results.csv"),
                "--out", str(net),
                "--graph-format", "json",
            ]
        )
        == 0
    )
    graph = json.loads((net / "graph.json").read_text())
    edge_pairs = {(e["gene_i"], e["gene_j"]) for e in graph["edges"]}
    assert ("LIN_A", "LIN_B") in edge_pairs
    assert ("PAR_A", "PAR_B") in edge_pairs
    colors = {(e["gene_i"], e["gene_j"]): e["color"] for e in graph["edges"]}
    assert colors[("PAR_A", "PAR_B")] == "grey"
    hubs = (net / "hubs.csv").read_text().splitlines()
    assert len(hubs) > 1

    # ---- recompute the parabolic z in the smaller context run ---------
    cmp_dir = tmp_path / "cmp"
    assert (
        main(
            [
                "compare", str(scr / "results.csv"), str(ctx / "matrix.tsv"),
                "--class", "Parabolic",
                "--out", str(cmp_dir),
            ]
        )
        == 0
    )
    rows = [
        line.split(",")
        for line in (cmp_dir / "compare.csv").read_text().splitlines()[1:]
    ]
    par_rows = [r for r in rows if (r[0], r[1]) == ("PAR_A", "PAR_B")]
    assert par_rows and par_rows[0][4] == "ok"
    # a quarter of the samples were dropped, so the recomputed z shrinks
    assert float(par_rows[0][3]) < float(par_rows[0][2])

    # ---- baseline comparison, feeding the screen results as the pairs -
    base = tmp_path / "base"
    assert (
        main(
            [
                "baselines", str(pre / "matrix.tsv"), str(scr / "results.csv"),
                "--out", str(base),
                "--hoeffding-iterations", "19",
                "--seed", "2",
            ]
        )
        == 0
    )
    table = {
        line.split(",")[0]: line.split(",")
        for line in (base / "baseline_classes.csv").read_text().splitlines()[1:]
    }
    assert "Linear" in table and "Parabolic" in table
    parab = table["Parabolic"]
    assert int(parab[2]) < int(parab[1])  # Pearson below the expansion test

    # every stage left a replayable manifest
    for out_dir in (pre, ctx, scr, scr_ctx, net, cmp_dir, base):
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["outputs"]
        assert all((out_dir / name).exists() for name in manifest["outputs"])


# sha256 of each table output of table_workflow's run; no other test pins
# these files' bytes
PINNED_TABLES = {
    "pre/labels.csv": (
        "48bf5fc836d4fc24e57ff66280a3b9b530c66199c41332eeddf952e24ba5e835"
    ),
    "net_csv/hubs.csv": (
        "07810823a7ef84c8043a4d1ddfd28066b6f9555af62898617bb50f5c2ca12a04"
    ),
    "net_csv/graph.csv": (
        "d8a342db04b6dd4f586a4f542bdece8a287a29b52454bee379f7dab2e2363b90"
    ),
    "net_csv/graph.csv.nodes.csv": (
        "0a898fba843d97e96175a46acf055b5b1e7834f989c1bd55284c6566db3d16d3"
    ),
    "net_dot/graph.dot": (
        "4ab93cb3b191227e6796cd2971e682d6c2f23d1abf5e31b33cdb7e05da5e4665"
    ),
    "net_json/graph.json": (
        "125578c993740a31313a83459a7c1b83b9bc7e4c9f2607f30e7e949593e32ee8"
    ),
    "cmp/compare.csv": (
        "56502dad094541e0685fdeac7f67bfad64fc6cb99d3d89a0890a6221dd845b49"
    ),
}


def table_workflow(tmp_path):
    """preprocess --labels, screen, network in each format and compare.

    Ids and labels with a comma make the tables quote cells.
    """
    rng = np.random.default_rng(2310)
    n = 96
    x, t = rng.random(n), rng.random(n)
    rows = [x * 1e4 + 5, x * 3e4 + 2, x * 7e3 + 9, t * 1e4 + 1]
    rows.append(np.abs((t - 0.5) ** 2 + rng.normal(0.0, 0.01, n)) * 1e5 + 7)
    for g in range(8):
        col = rng.choice(np.arange(1, 10**6), size=n, replace=False).astype(float)
        col[: 3 * g] = 0.0  # zero ties, and past the 20% filter at g = 7
        rows.append(col)
    matrix = ExpressionMatrix(
        gene_ids=["LIN,A", "LIN B", "LIN C", "PAR_A", "PAR_B"] + [f"BG{g}" for g in range(8)],
        sample_ids=[f"S{j:02d}" if j != 3 else "S,03" for j in range(n)],
        values=np.array(rows),
    )
    counts = tmp_path / "counts.tsv"
    save_matrix(matrix, counts)
    labels = tmp_path / "labels.csv"
    lines = ["sample_id,label"]
    for j, sample in enumerate(matrix.sample_ids):
        lines.append(f'"{sample}",' + ("A" if j % 4 else '"B,b"'))
    labels.write_text("\n".join(lines) + "\n")

    pre, scr = tmp_path / "pre", tmp_path / "scr"
    argvs = [
        ["preprocess", str(counts), "--labels", str(labels), "--out", str(pre),
         "--seed", "6"],
        ["screen", str(pre / "matrix.tsv"), "--out", str(scr), "--emit-all"],
        *(
            ["network", str(scr / "results.csv"), "--out", str(tmp_path / out),
             "--graph-format", fmt, "--alpha", "0.5", "--k", "6"]
            for out, fmt in (
                ("net_csv", "csv_edge_list"), ("net_dot", "dot"), ("net_json", "json")
            )
        ),
        ["compare", str(scr / "results.csv"), str(pre / "matrix.tsv"),
         "--class", "Linear", "--out", str(tmp_path / "cmp")],
    ]
    for argv in argvs:
        assert main(argv) == 0


def test_table_output_bytes_pinned(tmp_path):
    table_workflow(tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_TABLES
    }
    assert digests == PINNED_TABLES
