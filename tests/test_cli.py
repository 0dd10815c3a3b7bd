import json

import numpy as np
import pytest

from betscan.cli import main
from betscan.preprocess import ExpressionMatrix, load_matrix, save_matrix

from ._synth import make_parabola


def write_matrix(tmp_path, values, name="matrix.tsv", genes=None):
    values = np.asarray(values, dtype=float)
    m = ExpressionMatrix(
        gene_ids=genes or [f"G{i:03d}" for i in range(values.shape[0])],
        sample_ids=[f"S{j:03d}" for j in range(values.shape[1])],
        values=values,
    )
    path = tmp_path / name
    save_matrix(m, path)
    return path


def count_fixture(tmp_path, seed=0, genes=6, samples=40):
    rng = np.random.default_rng(seed)
    values = np.empty((genes, samples))
    for g in range(genes):
        col = rng.choice(np.arange(1, 5000), size=samples, replace=False).astype(float)
        col[: rng.integers(1, 5)] = 0.0
        rng.shuffle(col)
        values[g] = col
    return write_matrix(tmp_path, values)


def screened_fixture(tmp_path, seed=1, pairs=6, n=64):
    rng = np.random.default_rng(seed)
    rows, genes = [], []
    for p in range(pairs):
        x, y = make_parabola(n, rng)
        rows.extend([x, y])
        genes.extend([f"P{p:02d}x", f"P{p:02d}y"])
    rows[1] = rows[0]  # force one linear pair
    return write_matrix(tmp_path, np.array(rows), genes=genes)


# --------------------------------------------------------------- preprocess


def test_preprocess_outputs_and_determinism(tmp_path):
    matrix = count_fixture(tmp_path)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["preprocess", str(matrix), "--out", str(out1), "--seed", "7"]) == 0
    assert main(["preprocess", str(matrix), "--out", str(out2), "--seed", "7"]) == 0
    assert (out1 / "matrix.tsv").read_bytes() == (out2 / "matrix.tsv").read_bytes()
    assert (out1 / "preprocess_report.json").read_bytes() == (
        out2 / "preprocess_report.json"
    ).read_bytes()
    report = json.loads((out1 / "preprocess_report.json").read_text())
    cleaned = load_matrix(out1 / "matrix.tsv")
    assert cleaned.n_genes + len(report["genes_dropped"]) == 6
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "preprocess"
    assert manifest["seed"] == 7


def test_preprocess_context_requires_labels(tmp_path, capsys):
    matrix = count_fixture(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "preprocess", str(matrix),
                "--out", str(tmp_path / "o"),
                "--context", "LumA",
            ]
        )
    assert exc.value.code == 2
    assert "--context requires --labels" in capsys.readouterr().err


def test_preprocess_with_context(tmp_path):
    matrix = count_fixture(tmp_path)
    labels = tmp_path / "labels.csv"
    lines = ["sample_id,label"]
    for j in range(40):
        lines.append(f"S{j:03d},{'A' if j < 25 else 'B'}")
    labels.write_text("\n".join(lines) + "\n")
    out = tmp_path / "ctx"
    assert (
        main(
            [
                "preprocess", str(matrix),
                "--out", str(out),
                "--labels", str(labels),
                "--context", "A",
                "--seed", "3",
            ]
        )
        == 0
    )
    cleaned = load_matrix(out / "matrix.tsv")
    assert cleaned.n_samples == 25
    assert (out / "labels.csv").exists()


def test_env_seed_fallback(tmp_path, monkeypatch):
    matrix = count_fixture(tmp_path)
    monkeypatch.setenv("BETSCAN_SEED", "11")
    out = tmp_path / "env"
    assert main(["preprocess", str(matrix), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11


# --------------------------------------------------------------------- test


def test_single_pair_report(tmp_path, capsys):
    matrix = screened_fixture(tmp_path)
    assert main(["test", str(matrix), "P01x", "P01y"]) == 0
    out = capsys.readouterr().out
    assert "winner:" in out and "Parabolic" in out
    assert "quadrant counts" in out
    assert out.count("A1") >= 4  # the per-interaction table is present


def test_single_pair_duplicated_gene(tmp_path, capsys):
    matrix = screened_fixture(tmp_path)
    assert main(["test", str(matrix), "P00x", "P00y"]) == 0
    out = capsys.readouterr().out
    assert "winner: A1B1 (Linear)   S = 64" in out


def test_unknown_gene_named(tmp_path, capsys):
    matrix = screened_fixture(tmp_path)
    assert main(["test", str(matrix), "P00x", "NOPE"]) == 1
    assert "NOPE" in capsys.readouterr().err


def test_unknown_flag_is_hard_error(tmp_path):
    matrix = screened_fixture(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["test", str(matrix), "P00x", "P00y", "--frobnicate"])
    assert exc.value.code == 2


# ------------------------------------------------------------------- screen


def test_screen_outputs(tmp_path):
    matrix = screened_fixture(tmp_path)
    out = tmp_path / "scr"
    assert main(["screen", str(matrix), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_pairs"] == 66
    assert summary["significant_pairs"] >= 1
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].startswith("gene_i,gene_j,bid,bid_class")
    assert any(ln.startswith("P00x,P00y,A1B1,Linear,64") for ln in lines[1:])


def test_screen_hundred_gene_pair_count(tmp_path):
    rng = np.random.default_rng(42)
    matrix = write_matrix(tmp_path, np.array([rng.permutation(32) + 1.0 for _ in range(100)]))
    out = tmp_path / "scr100"
    assert main(["screen", str(matrix), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_pairs"] == 4950


def test_screen_workers_byte_identical(tmp_path):
    matrix = screened_fixture(tmp_path, seed=2)
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    assert main(["screen", str(matrix), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["screen", str(matrix), "--out", str(out8), "--workers", "8"]) == 0
    assert (out1 / "results.csv").read_bytes() == (out8 / "results.csv").read_bytes()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_screen_refuses_workers_below_one(tmp_path, capsys, workers):
    matrix = screened_fixture(tmp_path)
    out = tmp_path / "scr"
    with pytest.raises(SystemExit) as exc:
        main(["screen", str(matrix), "--out", str(out), "--workers", workers])
    assert exc.value.code == 2
    assert "--workers: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def faulty_fixture(tmp_path, fault="tie"):
    """5 x 16 ranks with a tie (or a NaN) in gene G3."""
    rng = np.random.default_rng(3)
    values = np.array([rng.permutation(16) + 1.0 for _ in range(5)])
    values[3, 1] = values[3, 0] if fault == "tie" else np.nan
    return write_matrix(tmp_path, values, genes=[f"G{i}" for i in range(5)])


def test_screen_names_the_tied_gene(tmp_path, capsys):
    matrix = faulty_fixture(tmp_path)
    assert main(["screen", str(matrix), "--out", str(tmp_path / "scr")]) == 1
    err = capsys.readouterr().err
    assert "G3" in err
    assert "tied values" in err


@pytest.mark.parametrize(
    "fault, message", [("tie", "tied values"), ("nan", "non-finite value")]
)
@pytest.mark.parametrize("command", ["test", "baselines"])
def test_pair_commands_name_the_faulty_gene(tmp_path, capsys, command, fault, message):
    matrix = faulty_fixture(tmp_path, fault)
    if command == "test":
        args = ["test", str(matrix), "G1", "G3"]
    else:
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("gene_i,gene_j\nG0,G1\nG1,G3\n")
        args = ["baselines", str(matrix), str(pairs), "--out", str(tmp_path / "b")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "gene 'G3' has " + message in err


@pytest.mark.parametrize("command", ["screen", "test"])
def test_permutation_iterations_below_one_refused(tmp_path, capsys, command):
    matrix = screened_fixture(tmp_path)
    out = tmp_path / "run"
    args = [command, str(matrix)] + (["P00x", "P00y"] if command == "test" else [])
    args += ["--out", str(out), "--mode", "permutation", "--permutation-iterations", "0"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "--permutation-iterations: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
@pytest.mark.parametrize("command", ["screen", "test"])
def test_seed_outside_64_bits_refused(tmp_path, capsys, command, seed):
    matrix = screened_fixture(tmp_path)
    out = tmp_path / "run"
    args = [command, str(matrix)] + (["P00x", "P00y"] if command == "test" else [])
    args += ["--out", str(out), "--mode", "permutation", "--seed", seed]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"--seed: must be in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value, rule",
    [
        ("screen", "--depth", "0", "must be at least 1"),
        ("test", "--depth", "-1", "must be at least 1"),
        ("screen", "--alpha", "2", "must be in (0, 1)"),
        ("network", "--alpha", "1", "must be in (0, 1)"),
        ("baselines", "--alpha", "nan", "must be in (0, 1)"),
        ("preprocess", "--zero-threshold", "2", "must be in [0, 1]"),
        ("preprocess", "--zero-threshold", "-0.5", "must be in [0, 1]"),
        ("screen", "--m-pairs", "0", "must be at least 1"),
        ("baselines", "--m-pairs", "-4", "must be at least 1"),
        ("network", "--k", "-1", "must be at least 1"),
        ("baselines", "--hoeffding-iterations", "0", "must be at least 1"),
        ("screen", "--alpha", "x", "not a number: 'x'"),
    ],
)
def test_out_of_range_flags_are_usage_errors(tmp_path, capsys, command, flag, value, rule):
    out = tmp_path / "run"
    inputs = {
        "screen": ["m.tsv"],
        "test": ["m.tsv", "A", "B"],
        "network": ["results.csv"],
        "baselines": ["m.tsv", "pairs.csv"],
        "preprocess": ["m.tsv"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, "--out", str(out), f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"{flag}: {rule}" in capsys.readouterr().err
    assert not out.exists()


def test_m_pairs_below_the_pairs_screened_is_an_error(tmp_path, capsys):
    matrix = screened_fixture(tmp_path)
    args = ["screen", str(matrix), "--out", str(tmp_path / "scr"), "--m-pairs", "65"]
    assert main(args) == 1
    assert "error: m_pairs=65 below the 66 pairs screened" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["screen", "m.tsv", "--bid-filter", "Bogus"],
        ["network", "results.csv", "--bid-filter", "Linear,Bogus"],
        ["compare", "results.csv", "m.tsv", "--class", "Bogus"],
    ],
)
def test_unknown_class_labels_are_usage_errors(tmp_path, capsys, args):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(out)])
    assert exc.value.code == 2
    assert "unknown pattern class: 'Bogus'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["rerun", "network", "compare", "preprocess", "baselines"]
)
def test_missing_input_is_an_error_naming_the_path(tmp_path, capsys, command):
    matrix = screened_fixture(tmp_path)
    missing = tmp_path / "none.csv"
    results = tmp_path / "scr" / "results.csv"
    assert main(["screen", str(matrix), "--out", str(results.parent)]) == 0
    args = {
        "rerun": ["rerun", str(missing)],
        "network": ["network", str(missing)],
        "compare": ["compare", str(results), str(missing), "--class", "Linear"],
        "preprocess": ["preprocess", str(matrix), "--labels", str(missing)],
        "baselines": ["baselines", str(matrix), str(missing)],
    }[command]
    if command != "rerun":
        args += ["--out", str(tmp_path / "run")]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"error: {missing}: No such file or directory" in err


@pytest.mark.parametrize("text", ["not json", "[]", '{"command": "screen"}'])
def test_rerun_refuses_a_file_that_is_not_a_manifest(tmp_path, capsys, text):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    assert main(["rerun", str(path)]) == 1
    assert f"error: {path}: not a run manifest" in capsys.readouterr().err


def test_baselines_refuses_pairs_without_gene_columns(tmp_path, capsys):
    matrix = screened_fixture(tmp_path)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("a,b\nP00x,P00y\n")
    args = ["baselines", str(matrix), str(pairs), "--out", str(tmp_path / "b")]
    assert main(args) == 1
    assert f"error: {pairs}: no gene_i and gene_j columns" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["screen", "test"])
def test_env_seed_outside_64_bits_refused(tmp_path, capsys, monkeypatch, command):
    matrix = screened_fixture(tmp_path)
    monkeypatch.setenv("BETSCAN_SEED", "-1")
    out = tmp_path / "run"
    args = [command, str(matrix)] + (["P00x", "P00y"] if command == "test" else [])
    assert main(args + ["--out", str(out), "--mode", "permutation"]) == 1
    err = capsys.readouterr().err
    assert "error: BETSCAN_SEED: must be in [0, 2**64), got -1" in err
    assert not out.exists()


def test_screen_zero_significant_still_exits_zero(tmp_path):
    rng = np.random.default_rng(77)
    matrix = write_matrix(tmp_path, rng.normal(size=(6, 32)))
    out = tmp_path / "null"
    assert main(["screen", str(matrix), "--out", str(out), "--alpha", "0.01"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["significant_pairs"] == 0


def test_screen_emit_all_bids_sidecar(tmp_path):
    matrix = screened_fixture(tmp_path, seed=10)
    out = tmp_path / "diag"
    assert (
        main(["screen", str(matrix), "--out", str(out), "--emit-all-bids"]) == 0
    )
    results = (out / "results.csv").read_text().splitlines()[1:]
    diag = (out / "results_all_bids.csv").read_text().splitlines()
    assert diag[0] == "gene_i,gene_j,bid,bid_class,s,z"
    assert len(diag) - 1 == 9 * len(results)


def test_failed_screen_leaves_no_manifest(tmp_path, monkeypatch):
    # a rerun into the same directory fails after results.csv: the earlier
    # manifest must not mark the new outputs complete, and the failed
    # write must leave no partial or temporary file
    from betscan import cli

    matrix = screened_fixture(tmp_path, seed=10)
    out = tmp_path / "out"
    assert main(["screen", str(matrix), "--out", str(out)]) == 0
    assert (out / "manifest.json").is_file()

    def failing_diagnostics(planes, gene_ids, results):
        yield "P00x,P00y,A1B1,Linear,0,0\n"
        raise OSError("disk full")

    monkeypatch.setattr(cli, "all_bid_diagnostics", failing_diagnostics)
    with pytest.raises(OSError, match="disk full"):
        main(["screen", str(matrix), "--out", str(out), "--emit-all-bids"])
    assert sorted(p.name for p in out.iterdir()) == ["results.csv", "summary.json"]


def test_screen_m_pairs_override_recorded(tmp_path):
    matrix = screened_fixture(tmp_path, seed=3)
    out = tmp_path / "big"
    assert (
        main(
            [
                "screen", str(matrix),
                "--out", str(out),
                "--m-pairs", "138020805",
            ]
        )
        == 0
    )
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["m_pairs"] == 138020805
    summary = json.loads((out / "summary.json").read_text())
    assert summary["m_pairs"] == 138020805


# ------------------------------------------------- network/compare/baselines


def test_network_command(tmp_path):
    matrix = screened_fixture(tmp_path, seed=4)
    scr = tmp_path / "scr"
    main(["screen", str(matrix), "--out", str(scr)])
    out = tmp_path / "net"
    assert (
        main(
            [
                "network", str(scr / "results.csv"),
                "--out", str(out),
                "--graph-format", "json",
                "--k", "5",
            ]
        )
        == 0
    )
    payload = json.loads((out / "graph.json").read_text())
    assert len(payload["nodes"]) <= 5
    assert (out / "hubs.csv").exists()


def test_network_empty_results(tmp_path):
    results = tmp_path / "empty.csv"
    results.write_text(
        "gene_i,gene_j,bid,bid_class,s,z,p_raw,p_bid_adj,p_pair_adj,approximate,method\n"
    )
    out = tmp_path / "net"
    assert main(["network", str(results), "--out", str(out)]) == 0
    assert (out / "graph.csv").read_text().splitlines() == [
        "gene_i,gene_j,bid_class,z,color"
    ]


@pytest.mark.parametrize(
    "text, fault",
    [
        ("gene_i,gene_j,score\nP00x,P00y,3\n", "header 'gene_i,gene_j,score' is not"),
        (
            "gene_i,gene_j,bid,bid_class,s,z,p_raw,p_bid_adj,p_pair_adj,approximate,"
            "method\nP00x,P00y,A1B1,Linear,64,8,1e-10,9e-10,x,false,hypergeometric\n",
            "line 2: column p_pair_adj: cannot parse 'x'",
        ),
    ],
)
@pytest.mark.parametrize("command", ["network", "compare"])
def test_malformed_results_csv_refused(tmp_path, capsys, command, text, fault):
    matrix = screened_fixture(tmp_path)
    results = tmp_path / "results.csv"
    results.write_text(text)
    args = [command, str(results), "--out", str(tmp_path / "out")]
    if command == "compare":
        args += [str(matrix), "--class", "Linear"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {results}: {fault}")


def test_compare_command_identity(tmp_path):
    matrix = screened_fixture(tmp_path, seed=5)
    scr = tmp_path / "scr"
    main(["screen", str(matrix), "--out", str(scr)])
    out = tmp_path / "cmp"
    assert (
        main(
            [
                "compare", str(scr / "results.csv"), str(matrix),
                "--class", "Parabolic",
                "--out", str(out),
            ]
        )
        == 0
    )
    rows = (out / "compare.csv").read_text().splitlines()[1:]
    assert rows
    for row in rows:
        _, _, z_a, z_b, flag = row.split(",")
        assert flag == "ok"
        assert z_a == z_b


def test_baselines_command(tmp_path):
    matrix = screened_fixture(tmp_path, seed=6)
    pairs = tmp_path / "pairs.csv"
    lines = ["gene_i,gene_j"]
    for p in range(6):
        lines.append(f"P{p:02d}x,P{p:02d}y")
    pairs.write_text("\n".join(lines) + "\n")
    out = tmp_path / "base"
    assert (
        main(
            [
                "baselines", str(matrix), str(pairs),
                "--out", str(out),
                "--hoeffding-iterations", "200",
            ]
        )
        == 0
    )
    table = (out / "baseline_classes.csv").read_text().splitlines()
    assert table[0].startswith("bid_class,bet_significant")
    body = [ln.split(",") for ln in table[1:]]
    assert any(row[0] == "Parabolic" for row in body)
    per_pair = (out / "baseline_pairs.csv").read_text().splitlines()
    assert len(per_pair) == 7


# -------------------------------------------------------------------- rerun


def test_rerun_reproduces_screen(tmp_path):
    matrix = screened_fixture(tmp_path, seed=8)
    out = tmp_path / "scr"
    main(["screen", str(matrix), "--out", str(out), "--seed", "5"])
    replay = tmp_path / "replay"
    assert main(["rerun", str(out / "manifest.json"), "--out", str(replay)]) == 0
    assert (out / "results.csv").read_bytes() == (replay / "results.csv").read_bytes()
    a = json.loads((out / "summary.json").read_text())
    b = json.loads((replay / "summary.json").read_text())
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b


def test_rerun_refuses_changed_input(tmp_path, capsys):
    matrix = screened_fixture(tmp_path, seed=8)
    out = tmp_path / "scr"
    assert main(["screen", str(matrix), "--out", str(out)]) == 0
    screened_fixture(tmp_path, seed=9)  # same path, other values
    replay = tmp_path / "replay"
    assert main(["rerun", str(out / "manifest.json"), "--out", str(replay)]) == 1
    err = capsys.readouterr().err
    assert f"recorded input {matrix} has changed" in err
    assert not replay.exists()
    matrix.unlink()
    assert main(["rerun", str(out / "manifest.json"), "--out", str(replay)]) == 1
    assert f"recorded input {matrix} is missing" in capsys.readouterr().err
    assert not replay.exists()


def test_rerun_reproduces_preprocess(tmp_path):
    matrix = count_fixture(tmp_path, seed=9)
    out = tmp_path / "pre"
    main(["preprocess", str(matrix), "--out", str(out), "--seed", "21"])
    replay = tmp_path / "replay"
    assert main(["rerun", str(out / "manifest.json"), "--out", str(replay)]) == 0
    assert (out / "matrix.tsv").read_bytes() == (replay / "matrix.tsv").read_bytes()


def test_help_for_every_subcommand(capsys):
    for cmd in ("preprocess", "test", "screen", "network", "compare", "baselines", "rerun"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out
