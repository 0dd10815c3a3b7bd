import csv
import json
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from betscan import cli, manifest as manifest_module
from betscan.cli import main
from betscan.manifest import cell, csv_line, sha256_file, tool_versions
from betscan.screen import RESULT_COLUMNS
from betscan.preprocess import ExpressionMatrix, load_labels, load_matrix, save_matrix

from ._synth import make_parabola
from .test_preprocess import (
    _PARSE_HELPER_FAULTS,
    forks_counted,
    parse_refused,
    parser_cpus,
)


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


def assert_replayed_config(manifest, replay):
    """The replay in replay records manifest's config, apart from out."""
    config = json.loads(Path(manifest).read_text())["config"]
    replayed = json.loads((replay / "manifest.json").read_text())["config"]
    assert replayed == {**config, "out": str(replay)}


def test_one_cell_format_for_every_table():
    values = [0.1 + 0.2, 2.0, np.float64(1e-300), True, np.bool_(False), None, 7, "x"]
    assert list(map(cell, values)) == ["0.3", "2", "1e-300", "true", "false", "", "7", "x"]
    assert csv_line(["a,b", 'say "hi"', "", "1.5"]) == '"a,b","say ""hi""",,1.5\n'


# --------------------------------------------------------------- preprocess


def test_preprocess_outputs_and_determinism(tmp_path):
    matrix = count_fixture(tmp_path)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["preprocess", str(matrix), "--out", str(out1), "--seed", "7"]) == 0
    assert main(["preprocess", str(matrix), "--out", str(out2), "--seed", "7"]) == 0
    for name in ("matrix.tsv", "matrix.tsv.npz"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "preprocess_report.json").read_bytes() == (
        out2 / "preprocess_report.json"
    ).read_bytes()
    report = json.loads((out1 / "preprocess_report.json").read_text())
    cleaned = load_matrix(out1 / "matrix.tsv")
    assert cleaned.n_genes + len(report["genes_dropped"]) == 6
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "preprocess"
    assert manifest["seed"] == 7
    assert manifest["outputs"] == [
        "matrix.tsv", "matrix.tsv.npz", "preprocess_report.json"
    ]


def raw_text(tmp_path, header, rows, delim):
    """A raw matrix file: the header ids, then each gene id with its counts."""
    rng = np.random.default_rng(2)
    lines = [delim.join(["gene", *header])]
    for gene in rows:
        counts = rng.choice(np.arange(1, 5000), size=len(header), replace=False)
        lines.append(delim.join([gene, *map(str, counts)]))
    path = tmp_path / "raw.tsv"
    path.write_text("\n".join(lines) + "\n", newline="")
    return path


_SAMPLES = [f"S{j:03d}" for j in range(40)]


@pytest.mark.parametrize(
    "fmt, header, gene, message",
    [
        ("tsv", _SAMPLES, '"a\tb"', "gene id 'a\\tb' holds '\\t'"),
        ("csv", _SAMPLES, "a\tb", "gene id 'a\\tb' holds '\\t'"),
        ("tsv", _SAMPLES, '"a\r\nb"', "gene id 'a\\r\\nb' holds '\\r'"),
        ("csv", _SAMPLES, '"a\nb"', "gene id 'a\\nb' holds '\\n'"),
        ("tsv", ['"S""0"', *_SAMPLES[1:]], "G", "sample id 'S\"0' holds '\"'"),
    ],
)
def test_preprocess_refuses_an_id_that_matrix_tsv_cannot_carry(
    tmp_path, capsys, fmt, header, gene, message
):
    # such an id once went into a matrix.tsv that screen could not read
    delim = "," if fmt == "csv" else "\t"
    raw = raw_text(tmp_path, header, ["G0", gene, "G2"], delim)
    out = tmp_path / "pre"
    assert main(["preprocess", str(raw), "--format", fmt, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}, which matrix.tsv cannot carry\n"
    assert not out.exists()


@pytest.mark.parametrize("uq_target", [None, "1000"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("first", [5, 2])
def test_preprocess_refuses_a_non_finite_value(tmp_path, capsys, uq_target, value, first):
    # such a value went into matrix.tsv; from column 2 on, the gene's tied
    # minimum (columns 0 and 1) had no finite value above it, and the jitter
    # looped forever
    rng = np.random.default_rng(0)
    values = rng.choice(np.arange(1, 5000), size=(6, 40)).astype(float)
    values[2, :2] = 1.0
    values[2, first : None if first == 2 else first + 1] = value
    matrix = write_matrix(tmp_path, values)
    out = tmp_path / "pre"
    args = ["preprocess", str(matrix), "--out", str(out)]
    if uq_target:
        args += ["--uq-target", uq_target]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        f"error: gene 'G002', sample 'S{first:03d}': non-finite value {value!r}\n"
    )
    assert not out.exists()


def test_commands_read_the_same_matrix_from_the_binary_copy(tmp_path):
    raw = screened_fixture(tmp_path, seed=5)
    pre = tmp_path / "pre"
    assert main(["preprocess", str(raw), "--out", str(pre)]) == 0
    matrix, copy = pre / "matrix.tsv", pre / "matrix.tsv.npz"
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("gene_i,gene_j\nP00x,P00y\nP01x,P01y\nP02x,P03y\n")

    def outputs(tag):
        out = tmp_path / tag
        for args in (
            ["screen", str(matrix), "--emit-all", "--emit-all-bids", "--out", str(out / "scr")],
            ["test", str(matrix), "P01x", "P01y", "--out", str(out / "test")],
            ["compare", str(out / "scr" / "results.csv"), str(matrix),
             "--class", "Parabolic", "--out", str(out / "cmp")],
            ["baselines", str(matrix), str(pairs), "--hoeffding-iterations", "50",
             "--out", str(out / "base")],
            ["rerun", str(out / "scr" / "manifest.json"), "--out", str(out / "replay")],
        ):
            assert main(args) == 0, args
        manifest = json.loads((out / "scr" / "manifest.json").read_text())
        assert manifest["inputs"] == {str(matrix): sha256_file(matrix)}
        assert_replayed_config(out / "scr" / "manifest.json", out / "replay")
        files = {}
        for path in sorted(out.rglob("*")):
            if path.name == "summary.json":
                summary = json.loads(path.read_text())
                summary.pop("wall_time_s")
                files[path.relative_to(out)] = summary
            elif path.name != "manifest.json" and path.is_file():
                files[path.relative_to(out)] = path.read_bytes()
        return files

    with parse_refused():
        from_copy = outputs("copy")
    copy.unlink()
    from_text = outputs("text")
    assert from_copy == from_text
    assert len(from_copy) == 10
    assert from_copy[Path("cmp/compare.csv")].count(b"\n") > 1


@pytest.mark.parametrize("command", ["preprocess", "screen"])
@pytest.mark.parametrize("fault, status", _PARSE_HELPER_FAULTS, ids=["raises", "killed"])
def test_a_failed_parse_helper_leaves_no_out(tmp_path, capsys, command, fault, status):
    # a text matrix with no binary copy, parsed by two processes
    values = np.random.default_rng(8).lognormal(size=(12, 40))
    matrix = write_matrix(tmp_path, values)
    out = tmp_path / "out"
    with parser_cpus(2) as mp:
        fault(mp, os.getpid())
        pids = forks_counted(mp)
        assert main([command, str(matrix), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: the matrix parser's helper process failed (exit status {status})\n"
    )
    assert not out.exists()
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


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


def test_preprocess_labels_with_commas_and_quotes_round_trip(tmp_path):
    matrix = count_fixture(tmp_path)
    names = ["Basal, HER2+", 'say "hi"', "LumA"]
    labels = tmp_path / "labels.csv"
    with open(labels, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "label"])
        writer.writerows((f"S{j:03d}", names[j % 3]) for j in range(40))
    out = tmp_path / "pre"
    args = ["preprocess", str(matrix), "--out", str(out), "--labels", str(labels)]
    assert main(args) == 0
    assert load_labels(out / "labels.csv") == load_labels(labels)
    lines = (out / "labels.csv").read_text().splitlines()
    assert lines[:4] == [
        "sample_id,label", 'S000,"Basal, HER2+"', 'S001,"say ""hi"""', "S002,LumA"
    ]


@pytest.mark.parametrize(
    "context, kept",
    [
        ('"B,x",A', ["A", "B,x"]),  # one CSV record, as in labels.csv
        ('"B,x"', ["B,x"]),
        (" A ,, C,", ["A", "C"]),  # unquoted: split on commas, stripped
    ],
)
def test_preprocess_context_takes_a_label_that_holds_a_comma(tmp_path, context, kept):
    matrix = count_fixture(tmp_path)
    names = ["A", "B,x", "C"]
    labels = tmp_path / "labels.csv"
    with open(labels, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "label"])
        writer.writerows((f"S{j:03d}", names[j % 3]) for j in range(40))
    out = tmp_path / "ctx"
    args = ["preprocess", str(matrix), "--labels", str(labels), "--context", context]
    assert main([*args, "--out", str(out)]) == 0
    written = load_labels(out / "labels.csv")
    assert sorted(set(written.values())) == kept
    assert sorted(written) == [f"S{j:03d}" for j in range(40) if names[j % 3] in kept]


def test_preprocess_refuses_a_context_with_a_line_break(tmp_path, capsys):
    matrix = count_fixture(tmp_path)
    labels = tmp_path / "labels.csv"
    labels.write_text("sample_id,label\n" + "".join(f"S{j:03d},A\n" for j in range(40)))
    out = tmp_path / "ctx"
    args = ["preprocess", str(matrix), "--labels", str(labels), "--context", "A\nB"]
    assert main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: --context 'A\\nB' holds a line break outside quotes\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("kept", [3, 4])
def test_preprocess_refuses_a_context_that_keeps_fewer_than_four_samples(
    tmp_path, capsys, kept
):
    matrix = count_fixture(tmp_path)
    labels = tmp_path / "labels.csv"
    rows = "".join(f"S{j:03d},{'A' if j < kept else 'B'}\n" for j in range(40))
    labels.write_text("sample_id,label\n" + rows)
    out = tmp_path / "ctx"
    args = ["preprocess", str(matrix), "--labels", str(labels), "--context", "A"]
    status = main([*args, "--out", str(out)])
    if kept == 4:
        assert status == 0 and load_matrix(out / "matrix.tsv").n_samples == 4
        return
    assert status == 1
    assert capsys.readouterr().err == (
        "error: --context 'A' keeps too few samples: "
        "need at least 4 observations, got 3\n"
    )
    assert not out.exists()


def test_preprocess_refuses_a_sample_labelled_twice(tmp_path, capsys):
    matrix = count_fixture(tmp_path)
    labels = tmp_path / "labels.csv"
    rows = "".join(f"S{j:03d},A\n" for j in range(40))
    labels.write_text("sample_id,label\n" + rows + "S000,B\n")
    out = tmp_path / "pre"
    assert main(["preprocess", str(matrix), "--labels", str(labels), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {labels}: sample 'S000' is labelled 'A' on line 2 and 'B' on line 42\n"
    )
    assert not out.exists()


def test_uq_target_names_the_first_negative_count(tmp_path, capsys):
    values = np.random.default_rng(3).integers(1, 5000, size=(4, 40)).astype(float)
    values[2, 5] = -3.0
    values[3, 1] = -1.0  # a later gene row
    matrix = write_matrix(tmp_path, values)
    out = tmp_path / "pre"
    args = ["preprocess", str(matrix), "--out", str(out), "--uq-target", "1000"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "error: gene 'G002', sample 'S005': negative count -3.0" in err
    assert not out.exists()


def test_preprocess_refuses_a_count_that_uq_target_scales_past_the_float_range(
    tmp_path, capsys
):
    # the raw values are finite, so the early check passed and matrix.tsv
    # was written before the binary copy refused the scaled inf
    values = np.random.default_rng(5).integers(1, 5000, size=(5, 12)).astype(float)
    values[2, 3] = 1e308
    genes = [f"G{g}" for g in range(5)]
    matrix = write_matrix(tmp_path, values, genes=genes)
    out = tmp_path / "pre"
    args = ["preprocess", str(matrix), "--out", str(out), "--uq-target", "1e6"]
    assert main(args) == 1  # and warns of no overflow, which pytest makes an error
    assert capsys.readouterr().err == (
        "error: gene 'G2', sample 'S003': non-finite value inf\n"
    )
    assert not out.exists()


def test_preprocess_refuses_a_tie_it_cannot_jitter(tmp_path, capsys):
    # G0's tied minimum has no double between it and its next value, where
    # the jitter once drew for ever
    values = np.random.default_rng(6).permutation(48).reshape(4, 12) + 20.0
    values[0] = [1.0, 1.0, 1.0000000000000002, *range(3, 12)]
    matrix = write_matrix(tmp_path, values, genes=[f"G{g}" for g in range(4)])
    out = tmp_path / "pre"
    assert main(["preprocess", str(matrix), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: gene 'G0': its minimum 1.0 occurs 2 times, and 0 double(s) lie "
        "between it and the next value 1.0000000000000002, too few to jitter "
        "the ties apart\n"
    )
    assert not out.exists()


def test_preprocess_keeps_no_gene_that_uq_target_scales_past_the_float_range(
    tmp_path, capsys
):
    # G2's inf is refused only if a gene that holds it reaches matrix.tsv;
    # here the zero filter drops G2 (4 zeros in 12 samples)
    values = np.random.default_rng(5).integers(1, 5000, size=(5, 12)).astype(float)
    values[2, :4] = 0.0
    values[2, 5] = 1e308
    matrix = write_matrix(tmp_path, values, genes=[f"G{g}" for g in range(5)])
    out = tmp_path / "pre"
    args = ["preprocess", str(matrix), "--out", str(out), "--uq-target", "1e6"]
    assert main(args) == 0
    assert capsys.readouterr().out.endswith("(1 gene(s) dropped)\n")
    assert "G2" not in load_matrix(out / "matrix.tsv").gene_ids


def test_rerun_refuses_a_recorded_uq_target_out_of_range(tmp_path, capsys):
    matrix = count_fixture(tmp_path)
    out = tmp_path / "pre"
    assert main(["preprocess", str(matrix), "--out", str(out), "--uq-target", "1000"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"]["uq_target"] = -5.0
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(manifest))
    replay = tmp_path / "replay"
    with pytest.raises(SystemExit) as exc:
        main(["rerun", str(edited), "--out", str(replay)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --uq-target: must be finite and above 0, got -5.0" in err
    assert not replay.exists()


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
        ("preprocess", "--uq-target", "nan", "must be finite and above 0"),
        ("preprocess", "--uq-target", "inf", "must be finite and above 0"),
        ("preprocess", "--uq-target", "0", "must be finite and above 0"),
        ("preprocess", "--uq-target", "-5", "must be finite and above 0"),
        ("screen", "--m-pairs", "0", "must be at least 1"),
        ("baselines", "--m-pairs", "-4", "must be at least 1"),
        ("network", "--k", "-1", "must be at least 1"),
        ("network", "--min-degree", "-5", "must be at least 0"),
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
    assert f"error: argument {flag}: {rule}" in capsys.readouterr().err
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


@pytest.mark.parametrize(
    "case",
    [
        "screen-missing",
        "screen-tie",
        "screen-m-pairs",
        "preprocess-missing",
        "network-missing",
        "compare-missing",
        "baselines-missing",
        "baselines-short-row",
    ],
)
def test_refused_input_leaves_no_output_directory(tmp_path, capsys, case):
    matrix = screened_fixture(tmp_path)
    missing = tmp_path / "none.tsv"
    results = tmp_path / "scr" / "results.csv"
    assert main(["screen", str(matrix), "--out", str(results.parent)]) == 0
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("gene_i,gene_j\nP00x\n")
    (tmp_path / "tied").mkdir()
    out = tmp_path / "run"
    args = {
        "screen-missing": ["screen", str(missing)],
        "screen-tie": ["screen", str(faulty_fixture(tmp_path / "tied"))],
        "screen-m-pairs": ["screen", str(matrix), "--m-pairs", "65"],
        "preprocess-missing": ["preprocess", str(missing)],
        "network-missing": ["network", str(missing)],
        "compare-missing": ["compare", str(results), str(missing), "--class", "Linear"],
        "baselines-missing": ["baselines", str(missing), str(pairs)],
        "baselines-short-row": ["baselines", str(matrix), str(pairs)],
    }[case]
    capsys.readouterr()
    assert main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        "preprocess", "labels", "test", "screen", "compare", "baselines",
        "network-results", "compare-results", "baselines-pairs",
    ],
)
def test_an_input_that_is_not_utf8_is_refused_at_its_line(tmp_path, capsys, command):
    matrix = screened_fixture(tmp_path)
    results = tmp_path / "scr" / "results.csv"
    assert main(["screen", str(matrix), "--out", str(results.parent)]) == 0
    latin = tmp_path / "latin.tsv"  # gene P01x, body line 3, as P\xe901x
    latin.write_bytes(matrix.read_bytes().replace(b"P01x", b"P\xe901x", 1))
    labels = tmp_path / "labels.csv"
    rows = [f"S{j:03d},A\n" for j in range(64)]
    rows[1] = "S001,B\xe9\n"
    labels.write_bytes(("sample_id,label\n" + "".join(rows)).encode("latin-1"))
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("gene_i,gene_j\nP00x,P00y\n")
    # the byte past the first 8 KiB, which a text file decodes at once: on
    # line 151 of a results file and on line 1502 of a pairs file
    row = "P00x,P00y,A1B1,Linear,64,8,1e-10,9e-10,1e-09,false,hypergeometric\n"
    lines = [",".join(RESULT_COLUMNS) + "\n"] + [row] * 200
    lines[150] = lines[150].replace("P00y", "P00\xe9")
    latin_results = tmp_path / "latin_results.csv"
    latin_results.write_bytes("".join(lines).encode("latin-1"))
    lines = ["gene_i,gene_j\n"] + ["P00x,P00y\n"] * 1600
    lines[1501] = "P\xe900x,P00y\n"
    latin_pairs = tmp_path / "latin_pairs.csv"
    latin_pairs.write_bytes("".join(lines).encode("latin-1"))
    for path, line in ((latin_results, 151), (latin_pairs, 1502)):
        assert path.read_bytes().index(b"\xe9") > 8192
        assert path.read_bytes().split(b"\n")[line - 1].count(b"\xe9") == 1
    args = {
        "preprocess": ["preprocess", str(latin)],
        "labels": ["preprocess", str(matrix), "--labels", str(labels)],
        "test": ["test", str(latin), "P00x", "P00y"],
        "screen": ["screen", str(latin)],
        "compare": ["compare", str(results), str(latin), "--class", "Linear"],
        "baselines": ["baselines", str(latin), str(pairs)],
        "network-results": ["network", str(latin_results)],
        "compare-results": [
            "compare", str(latin_results), str(matrix), "--class", "Linear"
        ],
        "baselines-pairs": ["baselines", str(matrix), str(latin_pairs)],
    }[command]
    out = tmp_path / "run"
    capsys.readouterr()
    assert main([*args, "--out", str(out)]) == 1
    where = {
        "labels": f"{labels}: line 3",
        "network-results": f"{latin_results}: line 151",
        "compare-results": f"{latin_results}: line 151",
        "baselines-pairs": f"{latin_pairs}: line 1502",
    }.get(command, f"{latin}: line 4, column 1")
    assert capsys.readouterr().err == f"error: {where}: byte b'\\xe9' is not UTF-8\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["preprocess", "test", "screen", "network", "compare", "baselines", "rerun"]
)
def test_input_that_is_not_a_regular_file_is_refused_unopened(tmp_path, capsys, command):
    matrix = screened_fixture(tmp_path)
    results = tmp_path / "scr" / "results.csv"
    assert main(["screen", str(matrix), "--out", str(results.parent)]) == 0
    fifo = tmp_path / "in.fifo"
    args = {
        "preprocess": ["preprocess", str(matrix), "--labels", str(fifo)],
        "test": ["test", str(fifo), "P00x", "P00y"],
        "screen": ["screen", str(fifo)],
        "network": ["network", str(fifo)],
        "compare": ["compare", str(results), str(fifo), "--class", "Linear"],
        "baselines": ["baselines", str(matrix), str(fifo)],
        "rerun": ["rerun", str(results.parent / "manifest.json")],
    }[command]
    if command == "rerun":  # the recorded input is now a FIFO
        matrix.unlink()
        fifo = matrix
    os.mkfifo(fifo)

    def release():
        # a reader blocked on the FIFO sees its end, so a fault fails, not hangs
        try:
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:
            pass

    guard = threading.Timer(10, release)
    guard.start()
    out = tmp_path / "run"
    capsys.readouterr()
    try:
        assert main([*args, "--out", str(out)]) == 1
    finally:
        guard.cancel()
    assert capsys.readouterr().err.startswith(f"error: {fifo}: not a regular file; ")
    assert not out.exists()


def test_refused_input_leaves_an_earlier_run_complete(tmp_path, capsys):
    matrix = screened_fixture(tmp_path)
    out = tmp_path / "scr"
    assert main(["screen", str(matrix), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    (tmp_path / "tied").mkdir()
    tied = faulty_fixture(tmp_path / "tied")
    assert main(["screen", str(tied), "--out", str(out)]) == 1
    assert "tied values" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_baselines_names_the_line_of_a_short_pairs_row(tmp_path, capsys):
    matrix = screened_fixture(tmp_path)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("gene_i,gene_j\nP00x,P00y\n\nP00x\n")
    args = ["baselines", str(matrix), str(pairs), "--out", str(tmp_path / "b")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: {pairs}: line 4: no gene_i or gene_j cell\n"


@pytest.mark.parametrize("row, gene", [("P00x,", ""), ("P00x,GX", "GX")])
def test_baselines_names_the_line_of_an_unknown_gene(tmp_path, capsys, row, gene):
    matrix = screened_fixture(tmp_path)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"gene_i,gene_j\nP00x,P00y\n\n{row}\nP00y,P00x\n")
    out = tmp_path / "b"
    assert main(["baselines", str(matrix), str(pairs), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {pairs}: line 4: unknown gene id {gene!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, value", [([], 7.0), (["--zero-threshold", "1"], 0.0)])
def test_preprocess_drops_a_constant_gene_that_screen_would_refuse(
    tmp_path, capsys, flags, value
):
    # integer counts, and G2 at one value in every sample: an all-zero G2
    # passes the zero filter at threshold 1
    rng = np.random.default_rng(5)
    counts = [rng.choice(np.arange(1, 5000), size=40, replace=False) for _ in range(6)]
    counts[2] = np.full(40, value)
    matrix = write_matrix(tmp_path, counts, genes=[f"G{g}" for g in range(6)])
    pre, run = tmp_path / "pre", tmp_path / "run"
    assert main(["preprocess", str(matrix), "--out", str(pre), *flags]) == 0
    assert capsys.readouterr().out.endswith("(1 gene(s) dropped)\n")
    report = json.loads((pre / "preprocess_report.json").read_text())
    assert report["genes_dropped"] == [{"gene": "G2", "reason": "constant"}]
    assert "G2" not in report["medians_reset"]
    assert load_matrix(pre / "matrix.tsv").gene_ids == ["G0", "G1", "G3", "G4", "G5"]
    assert main(["screen", str(pre / "matrix.tsv"), "--out", str(run)]) == 0


def test_preprocess_drops_a_gene_constant_on_the_context(tmp_path, capsys):
    # G2 varies over the cohort but is 1e7 in every sample labelled A: the
    # pipeline keeps it, and the context subset left it without ranks
    values = np.random.default_rng(5).integers(1, 10**6, size=(6, 60)).astype(float)
    values[2, :30] = 1e7
    matrix = write_matrix(tmp_path, values, genes=[f"G{g}" for g in range(6)])
    labels = tmp_path / "labels.csv"
    rows = "".join(f"S{j:03d},{'A' if j < 30 else 'B'}\n" for j in range(60))
    labels.write_text("sample_id,label\n" + rows)
    pre, run = tmp_path / "pre", tmp_path / "run"
    args = ["preprocess", str(matrix), "--labels", str(labels), "--context", "A"]
    assert main([*args, "--out", str(pre)]) == 0
    assert capsys.readouterr().out.endswith("(1 gene(s) dropped)\n")
    report = json.loads((pre / "preprocess_report.json").read_text())
    assert report["genes_dropped"] == [{"gene": "G2", "reason": "constant"}]
    cleaned = load_matrix(pre / "matrix.tsv")
    assert cleaned.gene_ids == ["G0", "G1", "G3", "G4", "G5"]
    assert cleaned.n_samples == 30
    assert main(["screen", str(pre / "matrix.tsv"), "--out", str(run)]) == 0


@pytest.mark.parametrize(
    "command", ["preprocess", "screen", "test", "compare", "baselines"]
)
def test_three_samples_refused_by_every_command(tmp_path, capsys, command):
    screened = screened_fixture(tmp_path)
    results = tmp_path / "scr" / "results.csv"
    assert main(["screen", str(screened), "--out", str(results.parent)]) == 0
    rng = np.random.default_rng(3)
    matrix = write_matrix(tmp_path, rng.uniform(1, 2, size=(4, 3)), name="three.tsv")
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("gene_i,gene_j\nG000,G001\n")
    args = {
        "preprocess": ["preprocess", str(matrix)],
        "screen": ["screen", str(matrix)],
        "test": ["test", str(matrix), "G000", "G001"],
        "compare": ["compare", str(results), str(matrix), "--class", "Linear"],
        "baselines": ["baselines", str(matrix), str(pairs)],
    }[command]
    out = tmp_path / "run"
    capsys.readouterr()
    assert main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: need at least 4 observations, got 3\n"
    assert not out.exists()


def test_screen_refuses_one_gene(tmp_path, capsys):
    matrix = write_matrix(tmp_path, [[1.0, 2.0, 3.0, 4.0]])
    out = tmp_path / "run"
    assert main(["screen", str(matrix), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: need at least two genes, got 1\n"
    assert not out.exists()


def test_preprocess_refuses_fewer_than_two_genes_left(tmp_path, capsys):
    matrix = tmp_path / "zeros.tsv"
    # two and three zeros in five samples: the 0.2 threshold drops both
    matrix.write_text(
        "gene\tS0\tS1\tS2\tS3\tS4\n"
        "G0\t0\t0\t3\t4\t5\n"
        "G1\t0\t1\t0\t4\t5\n"
    )
    out = tmp_path / "run"
    assert main(["preprocess", str(matrix), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: 0 gene(s) left of 2: the zero filter (zero fraction above 0.2) "
        "dropped 2 and 0 were constant; a screen needs at least 2\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["preprocess", "screen", "test", "compare", "baselines"]
)
def test_duplicate_gene_id_refused_by_every_command(tmp_path, capsys, command):
    screened = screened_fixture(tmp_path)
    results = tmp_path / "scr" / "results.csv"
    assert main(["screen", str(screened), "--out", str(results.parent)]) == 0
    rng = np.random.default_rng(5)
    matrix = write_matrix(
        tmp_path,
        rng.uniform(1, 2, size=(4, 8)),
        name="dup.tsv",
        genes=["G000", "G001", "G000", "G002"],
    )
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("gene_i,gene_j\nG001,G002\n")
    args = {
        "preprocess": ["preprocess", str(matrix)],
        "screen": ["screen", str(matrix)],
        "test": ["test", str(matrix), "G001", "G002"],
        "compare": ["compare", str(results), str(matrix), "--class", "Linear"],
        "baselines": ["baselines", str(matrix), str(pairs)],
    }[command]
    out = tmp_path / "run"
    capsys.readouterr()
    assert main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {matrix}: gene id 'G000' on gene rows 1 and 3\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("reader", ["matrix", "labels", "results", "pairs"])
def test_oversized_csv_field_is_an_error_naming_the_line(tmp_path, capsys, reader):
    huge = '"' + "x" * 200_000 + '"'
    matrix = screened_fixture(tmp_path)
    assert main(["screen", str(matrix), "--out", str(tmp_path / "scr")]) == 0
    bad = tmp_path / "bad.csv"
    text, line, args = {
        "matrix": (
            matrix.read_text() + huge + "\t1" * 64 + "\n", 14, ["screen", str(bad)]
        ),
        "labels": (
            f"sample_id,label\nS000,A\nS001,{huge}\n", 3,
            ["preprocess", str(matrix), "--labels", str(bad)],
        ),
        "results": (
            ",".join(RESULT_COLUMNS) + f"\n{huge},P00y\n", 2, ["network", str(bad)]
        ),
        "pairs": (
            f"gene_i,gene_j\nP00x,P00y\n{huge},P01x\n", 3,
            ["baselines", str(matrix), str(bad)],
        ),
    }[reader]
    bad.write_text(text)
    out = tmp_path / "run"
    capsys.readouterr()
    assert main([*args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: line {line}: field larger than field limit (131072)\n"
    assert not out.exists()


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


def test_screen_that_can_flag_no_pair_says_so(tmp_path, capsys):
    # 999 draws give p_raw >= 1/1000, and 9 interactions x 1,770 pairs put
    # every p_pair_adj at 1; the exact tails at n = 96 go far below alpha
    matrix = write_matrix(tmp_path, np.random.default_rng(61).normal(size=(60, 96)))
    out = tmp_path / "permutation"
    assert main(["screen", str(matrix), "--out", str(out), "--mode", "permutation"]) == 0
    err = capsys.readouterr().err
    assert err.count("note:") == 1
    assert (
        "note: the screen can flag no pair: its smallest p_pair_adj, 1, "
        "exceeds alpha 0.05\n"
    ) in err
    assert (out / "results.csv").read_text() == csv_line(RESULT_COLUMNS)
    assert main(["screen", str(matrix), "--out", str(tmp_path / "exact")]) == 0
    assert "note:" not in capsys.readouterr().err


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
    # a rerun into the same directory fails while it writes the diagnostics
    # band by band: the earlier manifest must not mark the new outputs
    # complete, and the failed write must leave no partial or temporary file
    from betscan import cli

    matrix = screened_fixture(tmp_path, seed=10)
    out = tmp_path / "out"
    assert main(["screen", str(matrix), "--out", str(out)]) == 0
    assert (out / "manifest.json").is_file()

    def failing_diagnostics(gene_ids, n, d1, d2):
        def lines(i, j, s):
            yield "P00x,P00y,A1B1,Linear,0,0\n"
            raise OSError("disk full")

        return lines

    monkeypatch.setattr(cli, "all_bid_diagnostics", failing_diagnostics)
    with pytest.raises(OSError, match="disk full"):
        main(["screen", str(matrix), "--out", str(out), "--emit-all-bids"])
    assert sorted(p.name for p in out.iterdir()) == ["results.csv", "summary.json"]


@pytest.mark.parametrize(
    "refused, message",
    [
        (["--m-pairs", "65"], "m_pairs=65 below the 66 pairs screened"),
        # 1 + B must stay below 2^51
        (
            ["--mode", "permutation", "--permutation-iterations", str(1 << 51)],
            f"{1 << 51} permutation iterations: at most {(1 << 51) - 2} ",
        ),
    ],
)
def test_refused_emit_all_bids_screen_leaves_no_output(
    tmp_path, capsys, refused, message
):
    # the diagnostics are written band by band, and every refusal comes
    # before the first band
    matrix = screened_fixture(tmp_path)
    args = ["screen", str(matrix), "--emit-all-bids", *refused, "--out"]
    out = tmp_path / "run"
    assert main([*args, str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()
    earlier = tmp_path / "earlier"
    assert main(["screen", str(matrix), "--emit-all-bids", "--out", str(earlier)]) == 0
    files = {p.name: p.read_bytes() for p in earlier.iterdir()}
    assert "manifest.json" in files and "results_all_bids.csv" in files
    capsys.readouterr()
    assert main([*args, str(earlier)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert {p.name: p.read_bytes() for p in earlier.iterdir()} == files


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


def test_network_hubs_keep_a_gene_id_with_a_comma(tmp_path):
    rng = np.random.default_rng(3)
    x, y = make_parabola(64, rng)
    genes = ["A,1", 'B "2"', "C"]
    # written by hand: the loader reads a quote inside an id, which
    # save_matrix refuses to write
    rows = [["gene_id", *(f"S{j:03d}" for j in range(64))]]
    rows += [[g, *map(repr, v.tolist())] for g, v in zip(genes, [x, y, rng.normal(size=64)])]
    matrix = tmp_path / "matrix.tsv"
    matrix.write_text("".join("\t".join(row) + "\n" for row in rows))
    scr, net = tmp_path / "scr", tmp_path / "net"
    assert main(["screen", str(matrix), "--out", str(scr)]) == 0
    assert main(["network", str(scr / "results.csv"), "--out", str(net)]) == 0
    with open(net / "hubs.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [
        ["gene", "degree", "neighbors"], ["A,1", "1", 'B "2"'], ['B "2"', "1", "A,1"]
    ]


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


@pytest.mark.parametrize("label", ["Parabolic", "W"])
def test_compare_refuses_a_class_absent_at_depth(tmp_path, capsys, label):
    # run A has Parabolic rows and no W row; neither class exists at depth 1
    matrix = screened_fixture(tmp_path, seed=5)
    scr = tmp_path / "scr"
    assert main(["screen", str(matrix), "--out", str(scr)]) == 0
    with open(scr / "results.csv", newline="") as fh:
        classes = {row[3] for row in csv.reader(fh)}
    assert "Parabolic" in classes and "W" not in classes
    out = tmp_path / "cmp"
    capsys.readouterr()
    args = ["compare", str(scr / "results.csv"), str(matrix), "--class", label]
    assert main([*args, "--depth", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: no class labelled {label!r} at depths (1, 1)\n"
    )
    assert not out.exists()


def test_screen_refuses_a_bid_filter_class_absent_at_depth(tmp_path, capsys):
    # W has no member at depth 1, so such a screen could keep no pair
    matrix = screened_fixture(tmp_path)
    scr = tmp_path / "scr"
    assert main(["screen", str(matrix), "--bid-filter", "W", "--out", str(scr)]) == 0
    manifest = json.loads((scr / "manifest.json").read_text())
    edited = tmp_path / "edited.json"
    edited.write_text(
        json.dumps({**manifest, "config": {**manifest["config"], "depth": 1}})
    )
    out = tmp_path / "run"
    capsys.readouterr()
    args = ["screen", str(matrix), "--depth", "1", "--bid-filter", "Linear,W"]
    for argv in (args, ["rerun", str(edited)]):
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: bid_filter: no class labelled 'W' at depths (1, 1)\n"
        )
        assert not out.exists()


@pytest.mark.parametrize("fault", ["tie", "nan"])
def test_compare_ignores_a_faulty_gene_that_run_a_never_names(tmp_path, fault):
    # only the genes that run A names are ranked, so a tie or NaN in
    # another gene of matrix B no longer refuses compare
    matrix = screened_fixture(tmp_path, seed=5)
    scr = tmp_path / "scr"
    assert main(["screen", str(matrix), "--out", str(scr)]) == 0
    values = load_matrix(matrix)
    extra = np.arange(64, dtype=float)
    extra[1] = extra[0] if fault == "tie" else np.nan
    faulty = write_matrix(
        tmp_path,
        np.vstack([values.values, extra]),
        name="faulty.tsv",
        genes=[*values.gene_ids, "EXTRA"],
    )
    results = str(scr / "results.csv")
    for path, out in ((matrix, "clean"), (faulty, "faulty")):
        args = ["compare", results, str(path), "--class", "Parabolic"]
        assert main([*args, "--out", str(tmp_path / out)]) == 0
    compared = [
        (tmp_path / out / "compare.csv").read_bytes() for out in ("clean", "faulty")
    ]
    assert compared[0] == compared[1]
    assert compared[0].count(b"\n") > 1


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


@pytest.mark.parametrize(
    "n, flags, note",
    [
        (64, [], None),
        (64, ["--m-pairs", "10"], None),  # 10 / 201 <= 0.05
        (64, ["--m-pairs", "11"], "smallest p-value, 0.00498, times 11 pairs"),
        (8, ["--m-pairs", "2000"], None),  # 2000 / 8! <= 0.05
        (8, ["--m-pairs", "2100"], "smallest p-value, 2.48e-05, times 2100 pairs"),
    ],
)
def test_baselines_notes_when_hoeffdings_d_can_flag_no_pair(
    tmp_path, capsys, n, flags, note
):
    matrix = screened_fixture(tmp_path, seed=6, pairs=2, n=n)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("gene_i,gene_j\nP00x,P00y\nP01x,P01y\n")
    out = tmp_path / "base"
    args = ["baselines", str(matrix), str(pairs), "--out", str(out)]
    assert main([*args, "--hoeffding-iterations", "200", *flags]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("baselines: 2 pairs over ")
    if note is None:
        assert captured.err == ""
    else:
        assert captured.err == (
            f"note: Hoeffding's D can flag no pair: its {note} exceeds alpha 0.05\n"
        )
        rows = list(csv.DictReader((out / "baseline_pairs.csv").read_text().splitlines()))
        assert [row["hoeffding_significant"] for row in rows] == ["false", "false"]


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
    assert_replayed_config(out / "manifest.json", replay)


def test_rerun_replays_a_manifest_without_a_blas_version(tmp_path):
    assert tool_versions()["blas"]
    matrix = screened_fixture(tmp_path, seed=8)
    out = tmp_path / "scr"
    assert main(["screen", str(matrix), "--out", str(out), "--seed", "5"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["versions"]["blas"] == tool_versions()["blas"]
    del manifest["versions"]["blas"]  # as written before the key existed
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest))
    replay = tmp_path / "replay"
    assert main(["rerun", str(old), "--out", str(replay)]) == 0
    assert (out / "results.csv").read_bytes() == (replay / "results.csv").read_bytes()
    assert_replayed_config(old, replay)


def test_screen_bytes_identical_for_one_and_two_blas_threads(tmp_path):
    # the products are exact integers, so no BLAS summation order shows
    rng = np.random.default_rng(12)
    values = rng.normal(size=(200, 256))
    values[1] = values[0] ** 2
    values[3] = -values[2]
    matrix = write_matrix(tmp_path, values)
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "betscan.cli", "screen", str(matrix), "--out",
             str(out), "--emit-all", "--emit-all-bids"],
            env=env, check=True, capture_output=True,
        )
        outputs.append(
            [(out / name).read_bytes() for name in ("results.csv", "results_all_bids.csv")]
        )
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"\n") == 1 + 200 * 199 // 2


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


def test_rerun_refuses_a_preprocess_that_overwrote_its_input(tmp_path, capsys):
    matrix = count_fixture(tmp_path, seed=4)
    before = sha256_file(matrix)
    args = ["preprocess", str(matrix), "--out", str(tmp_path), "--uq-target", "1000"]
    assert main(args) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["inputs"] == {str(matrix): before}
    assert sha256_file(matrix) != before  # preprocess overwrote its input
    replay = tmp_path / "replay"
    capsys.readouterr()
    assert main(["rerun", str(tmp_path / "manifest.json"), "--out", str(replay)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: recorded input {matrix} has changed since the run\n"
    assert not replay.exists()


def test_each_input_is_hashed_once_and_the_manifest_hashes_none(tmp_path, monkeypatch):
    hashed = Counter()
    original = manifest_module.sha256_file

    def counted(path):
        hashed[str(path)] += 1
        return original(path)

    for name, module in list(sys.modules.items()):
        if name.startswith("betscan") and getattr(module, "sha256_file", None) is original:
            monkeypatch.setattr(module, "sha256_file", counted)

    real_write_manifest = cli.write_manifest

    def write_manifest(*args):
        before = hashed.copy()
        real_write_manifest(*args)
        assert hashed == before, "write_manifest hashed a file"

    monkeypatch.setattr(cli, "write_manifest", write_manifest)

    def assert_hashed_once(args, inputs):
        hashed.clear()
        assert main(list(map(str, args))) == 0, args
        assert hashed == Counter(map(str, inputs)), args

    (tmp_path / "raw").mkdir()
    raw = count_fixture(tmp_path / "raw")
    labels = tmp_path / "labels.csv"
    labels.write_text("sample_id,label\n" + "".join(f"S{j:03d},A\n" for j in range(40)))
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("gene_i,gene_j\nG000,G001\n")
    pre, runs = tmp_path / "pre", tmp_path / "runs"
    matrix, results = pre / "matrix.tsv", runs / "screen" / "results.csv"
    # preprocess takes the digest of matrix.tsv for its binary copy while it
    # writes the text, and reads no output back
    assert_hashed_once(["preprocess", raw, "--labels", labels, "--out", pre], [raw, labels])
    with parse_refused():  # every later command reads the copy, vouched for by main
        for args, inputs in (
            (["test", matrix, "G000", "G001", "--out", runs / "test"], [matrix]),
            (["screen", matrix, "--emit-all", "--out", runs / "screen"], [matrix]),
            (["network", results, "--out", runs / "network"], [results]),
            (["compare", results, matrix, "--class", "Linear", "--out", runs / "cmp"],
             [results, matrix]),
            (["baselines", matrix, pairs, "--hoeffding-iterations", "20",
              "--out", runs / "base"], [matrix, pairs]),
            (["rerun", runs / "screen" / "manifest.json", "--out", runs / "replay"],
             [matrix]),
        ):
            assert_hashed_once(args, inputs)


def test_rerun_reproduces_preprocess(tmp_path):
    matrix = count_fixture(tmp_path, seed=9)
    out = tmp_path / "pre"
    main(["preprocess", str(matrix), "--out", str(out), "--seed", "21"])
    replay = tmp_path / "replay"
    assert main(["rerun", str(out / "manifest.json"), "--out", str(replay)]) == 0
    for name in ("matrix.tsv", "matrix.tsv.npz"):
        assert (out / name).read_bytes() == (replay / name).read_bytes()
    assert_replayed_config(out / "manifest.json", replay)


@pytest.mark.parametrize("text", [",", " , "])
@pytest.mark.parametrize("command", ["screen", "network"])
def test_a_bid_filter_with_no_class_label_is_a_usage_error(tmp_path, capsys, command, text):
    matrix = screened_fixture(tmp_path)
    scr = tmp_path / "scr"
    assert main(["screen", str(matrix), "--bid-filter", "Linear", "--out", str(scr)]) == 0
    run = ["network", str(scr / "results.csv"), "--bid-filter", "Linear"]
    assert main([*run, "--out", str(tmp_path / "net")]) == 0
    args = {
        "screen": ["screen", str(matrix), "--emit-all"],
        "network": run[:2],
    }[command]
    out = tmp_path / "run"
    manifest = json.loads((tmp_path / command[:3] / "manifest.json").read_text())
    edited = tmp_path / "edited.json"
    edited.write_text(
        json.dumps({**manifest, "config": {**manifest["config"], "bid_filter": text}})
    )
    capsys.readouterr()
    for argv in ([*args, "--bid-filter", text], ["rerun", str(edited)]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --bid-filter: no class label in {text!r}\n" in err
        assert not out.exists()


def test_an_empty_bid_filter_keeps_every_class(tmp_path):
    matrix = screened_fixture(tmp_path)
    runs = {}
    for name, extra in (("all", []), ("empty", ["--bid-filter", ""])):
        out = tmp_path / name
        assert main(["screen", str(matrix), "--emit-all", *extra, "--out", str(out)]) == 0
        runs[name] = (out / "results.csv").read_bytes()
    assert runs["all"] == runs["empty"]
    assert runs["all"].count(b"\n") == 1 + 12 * 11 // 2


def record_every_command(tmp_path):
    """A manifest of a run of every command that rerun replays, by command."""
    (tmp_path / "raw").mkdir()
    counts = count_fixture(tmp_path / "raw")
    labels = tmp_path / "labels.csv"
    rows = "".join(f"S{j:03d},{'A' if j < 25 else 'B'}\n" for j in range(40))
    labels.write_text("sample_id,label\n" + rows)
    matrix = screened_fixture(tmp_path)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("gene_i,gene_j\nP00x,P00y\n")
    runs = tmp_path / "runs"
    results = runs / "screen" / "results.csv"
    for args in (
        ["preprocess", counts, "--labels", labels, "--context", "A", "--uq-target", "500"],
        ["test", matrix, "P01x", "P01y"],
        ["screen", matrix, "--emit-all", "--emit-all-bids", "--bid-filter", "Linear"],
        ["network", results, "--bid-filter", "Linear"],
        ["compare", results, matrix, "--class", "Parabolic"],
        ["baselines", matrix, pairs, "--hoeffding-iterations", "20"],
    ):
        assert main([*map(str, args), "--out", str(runs / args[0])]) == 0, args
    return {path.name: path / "manifest.json" for path in runs.iterdir()}


# a value that each recorded option's flag refuses, by key
REFUSED = {
    "alpha": 2.0, "bid_class": "Nope", "bid_filter": "Nope", "depth": 0,
    "emit_all": "no", "emit_all_bids": 1, "format": "xlsx", "graph_format": "png",
    "hoeffding_iterations": 0, "k": 0, "m_pairs": 0, "min_degree": -1,
    "mode": "bogus", "permutation_iterations": "many", "seed": -3, "workers": 0,
    "uq_target": "abc", "zero_threshold": 5.0,
}
# keys whose flags take any text: paths, gene ids and --context
FREE_TEXT = {
    "context", "gene_a", "gene_b", "input", "labels", "matrix_b", "out", "pairs",
    "results", "results_a",
}


@pytest.mark.parametrize(
    "command", ["preprocess", "test", "screen", "network", "compare", "baselines"]
)
def test_rerun_refuses_a_recorded_value_as_its_flag_does(tmp_path, capsys, command):
    manifest = json.loads(record_every_command(tmp_path)[command].read_text())
    config = manifest["config"]
    assert set(config) <= set(REFUSED) | FREE_TEXT
    cases = {
        f"{key}={value!r}": {key: value} for key, value in REFUSED.items() if key in config
    }
    cases["unknown key"] = {"bogus_key": 1}
    positional = {"network": "results", "compare": "results_a"}.get(command, "input")
    cases["no positional"] = {positional: None}
    if command == "preprocess":
        cases["context without labels"] = {"labels": None}
    edited, replay = tmp_path / "edited.json", tmp_path / "replay"
    capsys.readouterr()
    for case, change in cases.items():
        edited.write_text(json.dumps({**manifest, "config": {**config, **change}}))
        with pytest.raises(SystemExit) as exc:
            main(["rerun", str(edited), "--out", str(replay)])
        assert exc.value.code == 2, case
        err = capsys.readouterr().err
        assert "error: " in err, case
        if case.split("=")[0] in REFUSED:
            assert "error: argument --" in err, case
        assert not replay.exists(), case


@pytest.mark.parametrize(
    "edit, fault",
    [
        ({"config": [1]}, "config is not an object"),
        ({"inputs": ["a"]}, "inputs is not an object of path to digest strings"),
        ({"inputs": {"a": 1}}, "inputs is not an object of path to digest strings"),
        ({"outputs": "results.csv"}, "outputs is not a list of strings"),
        ({"command": ["screen"]}, "unknown command ['screen']"),
        ({"command": "rerun"}, "unknown command 'rerun'"),
    ],
)
def test_rerun_refuses_a_manifest_with_a_field_of_the_wrong_type(
    tmp_path, capsys, edit, fault
):
    matrix = screened_fixture(tmp_path)
    out = tmp_path / "scr"
    assert main(["screen", str(matrix), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    edited, replay = tmp_path / "edited.json", tmp_path / "replay"
    edited.write_text(json.dumps({**manifest, **edit}))
    assert main(["rerun", str(edited), "--out", str(replay)]) == 1
    assert capsys.readouterr().err == f"error: {edited}: not a run manifest: {fault}\n"
    assert not replay.exists()


def test_rerun_refuses_inputs_that_are_not_the_configs(tmp_path, capsys):
    matrix = count_fixture(tmp_path)
    other = write_matrix(tmp_path, np.arange(1.0, 161.0).reshape(4, 40), "other.tsv")
    out = tmp_path / "pre"
    assert main(["preprocess", str(matrix), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    edited, replay = tmp_path / "edited.json", tmp_path / "replay"
    for config, inputs in (
        ({"input": str(other)}, manifest["inputs"]),  # no digest vouches for other
        ({}, {**manifest["inputs"], str(other): sha256_file(other)}),
    ):
        config = {**manifest["config"], **config}
        edited.write_text(json.dumps({**manifest, "config": config, "inputs": inputs}))
        capsys.readouterr()
        assert main(["rerun", str(edited), "--out", str(replay)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: recorded inputs ") and "are not the files" in err
        assert not replay.exists()


def test_rerun_keeps_a_gene_id_that_starts_with_a_dash(tmp_path):
    rng = np.random.default_rng(6)
    x, y = make_parabola(64, rng)
    matrix = write_matrix(tmp_path, np.array([x, y]), genes=["-A", "-B"])
    out, replay = tmp_path / "test", tmp_path / "replay"
    assert main(["test", str(matrix), "--out", str(out), "--", "-A", "-B"]) == 0
    assert main(["rerun", str(out / "manifest.json"), "--out", str(replay)]) == 0
    report = (replay / "test_report.txt").read_text()
    assert report == (out / "test_report.txt").read_text()
    assert report.startswith("pair: -A x -B")
    assert_replayed_config(out / "manifest.json", replay)


def test_rerun_runs_on_the_recorded_seed_not_betscan_seed(tmp_path, monkeypatch):
    matrix = count_fixture(tmp_path, seed=9)
    out = tmp_path / "pre"
    assert main(["preprocess", str(matrix), "--out", str(out), "--seed", "21"]) == 0
    monkeypatch.setenv("BETSCAN_SEED", "4")
    replay = tmp_path / "replay"
    assert main(["rerun", str(out / "manifest.json"), "--out", str(replay)]) == 0
    assert (out / "matrix.tsv").read_bytes() == (replay / "matrix.tsv").read_bytes()
    assert json.loads((replay / "manifest.json").read_text())["seed"] == 21
    # a manifest without a seed takes the flag's default, not BETSCAN_SEED
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["config"]["seed"]
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(manifest))
    assert main(["rerun", str(edited), "--out", str(replay)]) == 0
    assert json.loads((replay / "manifest.json").read_text())["seed"] == 0


def test_help_for_every_subcommand(capsys):
    for cmd in ("preprocess", "test", "screen", "network", "compare", "baselines", "rerun"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out
