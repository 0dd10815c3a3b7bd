import csv
import itertools
import math
import os
import signal
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betscan.core import empirical_copula
from betscan.errors import (
    BetscanError,
    DegenerateColumnError,
    DegenerateSampleError,
    MatrixParseError,
    NonFiniteError,
    TiesPresentError,
    TooFewSamplesError,
    UnknownLabelError,
)
from betscan.manifest import sha256_file
from betscan.preprocess import (
    ExpressionMatrix,
    PreprocessReport,
    check_savable,
    drop_constant_genes,
    filter_zero_heavy,
    gene_stream_key,
    jitter_minimum_ties,
    load_labels,
    load_matrix,
    reset_median_imputed,
    run_pipeline,
    save_binary_copy,
    save_matrix,
    subset_by_labels,
    upper_quartile_log2,
)

from betscan import preprocess

from ._oracles import parse_matrix_oracle, run_pipeline_oracle
from ._synth import subtype_context_labels


def small_matrix(values, labels=None):
    values = np.asarray(values, dtype=float)
    return ExpressionMatrix(
        gene_ids=[f"G{i}" for i in range(values.shape[0])],
        sample_ids=[f"S{j}" for j in range(values.shape[1])],
        values=values,
        labels=labels,
    )


# ------------------------------------------------------------------ file io


def test_load_fixture(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text(
        "gene_id\tS0\tS1\tS2\tS3\n"
        "GA\t1\t2\t3\t4\n"
        "GB\t5\t6\t7\t8\n"
        "GC\t9\t10\t11\t12\n"
    )
    m = load_matrix(path)
    assert m.values.shape == (3, 4)
    assert m.gene_ids == ["GA", "GB", "GC"]
    assert m.sample_ids == ["S0", "S1", "S2", "S3"]


def test_parse_error_names_cell(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("gene_id\tS0\tS1\nGA\t1\toops\n")
    with pytest.raises(MatrixParseError) as err:
        load_matrix(path)
    assert err.value.line == 2
    assert err.value.column == 3
    assert "oops" in str(err.value)


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = small_matrix(rng.normal(size=(5, 7)) * 1e-3)
    path = tmp_path / "m.tsv"
    save_matrix(m, path)
    again = load_matrix(path)
    assert np.array_equal(again.values, m.values)
    save_matrix(again, tmp_path / "m2.tsv")
    assert (tmp_path / "m.tsv").read_bytes() == (tmp_path / "m2.tsv").read_bytes()


def outcome(read):
    """read()'s matrix, or the error it raises, as comparable data."""
    try:
        m = read()
    except MatrixParseError as exc:
        return ("MatrixParseError", exc.line, exc.column, str(exc))
    except Exception as exc:  # the same failure, whatever it is
        return (type(exc).__name__, str(exc))
    return m.gene_ids, m.sample_ids, m.values.shape, m.values.view(np.uint64).tobytes()


# load_matrix's blocks, patched small, so that a short file makes several
_PARSE_LINES = 3


@contextmanager
def parser_cpus(count, lines=_PARSE_LINES):
    """A context in which load_matrix sees `count` CPUs and blocks of `lines` lines."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(preprocess, "_BLOCK_LINES", lines)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        yield mp


def _body_line_count(path, delim):
    """The lines after the header record, split as a text file with newline=""."""
    with open(path, encoding="utf-8", newline="") as fh:
        next(csv.reader(fh, delimiter=delim))
        return sum(1 for _ in fh)


def piped_outcome(path, *args):
    """The outcome of load_matrix on path's bytes, which a thread writes into
    a new FIFO, with the FIFO's name in a message put back to path's."""
    fifo = path.with_name(path.name + ".fifo")
    os.mkfifo(fifo)
    writer = threading.Thread(
        target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True
    )
    writer.start()
    try:
        got = outcome(lambda: load_matrix(fifo, *args))
    finally:
        writer.join(timeout=10)
        fifo.unlink()
    assert not writer.is_alive()
    return tuple(
        part.replace(str(fifo), str(path)) if isinstance(part, str) else part
        for part in got
    )


def assert_matches_oracle(path, fmt="tsv"):
    """load_matrix reads path, and its bytes through a FIFO, as the row oracle
    reads path: as it is, and with small blocks on one CPU and on two, where
    it forks once for an accepted file of two blocks or more, and reaps what
    it forks."""
    delim = "," if fmt == "csv" else "\t"

    def oracle():
        with open(path, encoding="utf-8", newline="") as fh:
            return parse_matrix_oracle(fh, path, delim)

    expected = outcome(oracle)
    assert outcome(lambda: load_matrix(path, fmt)) == expected
    settings = ((1, _PARSE_LINES), (2, _PARSE_LINES), (2, 1))
    for (count, lines), pipe in itertools.product(settings, (False, True)):
        with parser_cpus(count, lines) as mp:
            pids = forks_counted(mp)
            if pipe:
                got = piped_outcome(path, fmt)
            else:
                got = outcome(lambda: load_matrix(path, fmt))
            assert got == expected, (count, lines, pipe)
        if isinstance(expected[0], list):  # accepted
            blocks = -(-_body_line_count(path, delim) // lines)
            assert len(pids) == (count == 2 and blocks > 1)
        assert len(pids) <= 1
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


_SPECIAL_CELLS = [
    "nan", "NaN", "-nan", "inf", "-Infinity", "+INF", "1e22", "1E-310", "5e-324",
    "-0.0", ".5", "+3.",
]
# cells that float() takes and loadtxt refuses, that neither takes, or
# that only csv.reader reads
_ODD_CELLS = [
    "1_000", "\u0661", "0x10", "1,5", "oops", "", " ", "1 2", "\x00", '"2.5"',
    '"1\n2"', '"a""b"',
]
_ODD_LINES = ["", "   ", " \x0c "]
# gene ids that csv.reader reads (before Python 3.11 it refuses a NUL);
# the last two add a cell in one format
_ODD_IDS = ['a"b', '"G"', '"x\ty"', '"x,y"', "", " G ", "G\x00", "x\ty", "x,y"]
_PADS = [" ", "  ", "\x0c", "\u2000"]


def _cell(rng, odd: int) -> str:
    """A number as a matrix file may write it, or an odd cell odd times in 1000."""
    if rng.integers(1000) < odd:
        return str(rng.choice(_ODD_CELLS))
    x = float(rng.lognormal()) * 10.0 ** int(rng.integers(-300, 300))
    kind = rng.integers(5)
    if kind == 0:
        return str(rng.choice(_SPECIAL_CELLS))
    if kind == 1:
        return str(int(rng.integers(-(10**6), 10**6)))
    return f"{x:.6g}" if kind == 2 else repr(-x if kind == 3 else x)


@st.composite
def matrix_texts(draw):
    """Matrix text with quotes, CRLF, blank lines, padding and bad cells."""
    delim = draw(st.sampled_from(["\t", ","]))
    width = draw(st.integers(1, 4))
    genes = draw(st.integers(1, 2 * preprocess._BLOCK_LINES + 8))
    # per 1000: odd cells and rows of the wrong length, which are mostly
    # faults; blank and padded rows; odd gene ids, mostly quoted
    odd_cells = draw(st.sampled_from([0, 3, 30, 300]))
    odd_rows = draw(st.sampled_from([0, 30, 300]))
    odd_ids = draw(st.sampled_from([0, 10, 100]))
    breaks = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    ids = _ODD_IDS if odd_cells == 300 else ["a", "b_c", '"S 1"']
    lines = [delim.join(str(rng.choice(ids)) for _ in range(width + 1))]
    for g in range(genes):
        cells = [_cell(rng, odd_cells) for _ in range(width)]
        gene = f"G{g}"
        if rng.integers(1000) < odd_cells:
            cells = cells[: rng.integers(width + 1)] + ["1"] * rng.integers(3)
        kind = rng.integers(1000)
        if kind < odd_rows // 2:
            lines.append(str(rng.choice([*_ODD_LINES, delim, delim + " "])))
            continue
        if kind < odd_rows:
            pad = str(rng.choice(_PADS))
            cells = [pad + c + pad for c in cells]
        if rng.integers(1000) < odd_ids:
            gene = str(rng.choice(_ODD_IDS[:7]))
        lines.append(delim.join([gene, *cells]))
    ends = [
        str(rng.choice(["\n", "\r\n", "\r"])) if breaks == "mixed" else breaks
        for _ in lines
    ]
    if draw(st.booleans()):  # some files end without a line break
        ends[-1] = ""
    return delim, "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=300, deadline=None)
@given(matrix_texts())
def test_block_loader_matches_the_row_oracle(tmp_path_factory, sample):
    delim, text = sample
    path = tmp_path_factory.mktemp("m") / ("m.csv" if delim == "," else "m.tsv")
    path.write_bytes(text.encode("utf-8"))
    fmt = "csv" if delim == "," else "tsv"
    assert_matches_oracle(path, fmt)


@pytest.mark.parametrize(
    "text",
    ["", "\n", "gene_id\n", "gene_id\tS0\n", "gene_id\tS0\n\n \n",
     "gene_id\tS0\nG0\t1"],
)
def test_block_loader_edge_files_match_the_oracle(tmp_path, text):
    path = tmp_path / "m.tsv"
    path.write_text(text)
    assert_matches_oracle(path)


@pytest.mark.parametrize("genes", [1, 31, 32, 33, 64, 65, 100])
def test_block_loader_matches_the_oracle_across_blocks(tmp_path, genes, monkeypatch):
    rng = np.random.default_rng(genes)
    scales = 10.0 ** rng.integers(-300, 300, (genes, 7))
    values = rng.lognormal(size=(genes, 7)) * scales
    values[rng.random(values.shape) < 0.05] = np.nan
    m = small_matrix(values)
    path = tmp_path / "m.tsv"
    save_matrix(m, path)
    assert_matches_oracle(path)
    # a clean file never needs csv.reader
    monkeypatch.setattr(preprocess, "_parse_records", None)
    assert np.array_equal(load_matrix(path).values, m.values, equal_nan=True)


@pytest.mark.parametrize(
    "fault, line, column",
    [
        ("G40\t1\t2\t3\n", 42, 4),  # a missing cell
        ("G40\t1\t2\t3\t4\t5\n", 42, 6),  # an extra cell, which usecols would drop
        ("G40\t1\t2\tx\t4\n", 42, 4),
        ('G40\t1\t2\t"3\n4"\t5\n', 42, 4),  # a quoted cell spanning two lines
    ],
)
def test_block_loader_names_the_fault_in_a_later_block(tmp_path, fault, line, column):
    body = "".join(f"G{g}\t{g}\t1\t2\t3\n" for g in range(40))
    path = tmp_path / "m.tsv"
    path.write_text("gene_id\tS0\tS1\tS2\tS3\n" + body + fault + "G41\t0\t1\t2\t3\n")
    with pytest.raises(MatrixParseError) as err:
        load_matrix(path)
    assert (err.value.line, err.value.column) == (line, column)
    assert_matches_oracle(path)


# a quoted cell past csv's field size limit
_HUGE = '"' + "x" * 200_000 + '"'


@pytest.mark.parametrize(
    "record, line, two_line_record",
    [(0, 1, False), (1, 2, False), (34, 35, False), (40, 41, False), (40, 41, True)],
)
def test_block_loader_names_the_line_of_an_oversized_field(
    tmp_path, record, line, two_line_record
):
    lines = ["gene_id\tS0\tS1"] + [f"G{g}\t{g}\t1" for g in range(50)]
    if two_line_record:  # lines count csv records, as in MatrixParseError
        lines[30] = '"G\n29"\t29\t1'
    lines[record] = f"{_HUGE}\tS0\tS1" if record == 0 else f"G\t{_HUGE}\t1"
    path = tmp_path / "m.tsv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(BetscanError) as err:
        load_matrix(path)
    assert str(err.value) == (
        f"{path}: line {line}: field larger than field limit (131072)"
    )
    assert_matches_oracle(path)


def test_block_loader_reads_what_loadtxt_refuses(tmp_path):
    # '1_000' and quoted cells pass float() but not the bulk parse; a
    # quoted cell with a line break spans two blocks
    rows = [f"G{g}\t{g}\t1_000" for g in range(60)]
    rows[31] = 'G31\t"31\n"\t2'
    path = tmp_path / "m.tsv"
    path.write_text("gene_id\tS0\tS1\n" + "\n".join(rows) + "\n")
    m = load_matrix(path)
    assert m.gene_ids == [f"G{g}" for g in range(60)]
    assert m.values[:, 1].tolist() == [1000.0] * 31 + [2.0] + [1000.0] * 28
    assert m.values[:, 0].tolist() == list(range(60))
    assert_matches_oracle(path)


@pytest.mark.parametrize("mark", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
def test_lines_end_only_at_line_breaks(tmp_path, mark):
    # str.splitlines ends a line at each mark too, and would read the line
    # 'G5<tab>5<mark>G6<tab>6' as two rows, which loadtxt takes
    rows = [f"G{g}\t{g}" for g in range(12)]
    rows[5] = f"G5\t5{mark}G6\t6"
    path = tmp_path / "m.tsv"
    path.write_text("gene_id\tS0\n" + "\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(MatrixParseError) as err:
        load_matrix(path)
    assert (err.value.line, err.value.column) == (7, 3)
    assert_matches_oracle(path)


def test_crlf_split_between_read_chunks(tmp_path):
    # the lines of a file are counted 1 MiB at a time; put a line end across,
    # its first '\r' the last byte of a read, and after it, past a few blocks,
    # a quoted id, from which csv.reader reads the rest of the file
    chunk = 1 << 20
    for end in ["\r\n", "\r\r\n", "\r\r\r\n"]:
        rows, size, g = ["gene_id\tS0\r\n"], 12, 0
        while size < chunk - 2000:
            rows.append(f"G{g}\t{' ' * 1000}{g}\r\n")
            size += len(rows[-1])
            g += 1
        head = f"G{g}\t{g}"
        rows.append(head + " " * (chunk - 1 - size - len(head)) + end)
        after = 3 * preprocess._BLOCK_LINES
        rows += [f"G{g + k}\t{g + k}\r\n" for k in range(1, after)]
        rows += [f'"G{g + after}"\t{g + after}\r\n', f"G{g + after + 1}\t{g + after + 1}"]
        text = "".join(rows)
        assert text[chunk - 1 : chunk - 1 + len(end)] == end
        path = tmp_path / "m.tsv"
        path.write_bytes(text.encode())
        m = load_matrix(path)
        assert m.values[:, 0].tolist() == list(range(g + after + 2)), end
        assert m.gene_ids[-2:] == [f"G{g + after}", f"G{g + after + 1}"]
        assert_matches_oracle(path)


@pytest.mark.parametrize("end", ["\r\n", "\r\r\n"])
def test_a_line_end_split_between_reads_keeps_the_line_numbers(tmp_path, end):
    # a line end across the first 1 MiB read, as above, then a bad cell three
    # blocks later: a line end counted twice would shift the error's line
    chunk = 1 << 20
    rows = ["gene_id\tS0\r\n"]
    while sum(map(len, rows)) < chunk - 2000:
        rows.append(f"G{len(rows)}\t{' ' * 1000}1\r\n")
    size, head = sum(map(len, rows)), f"G{len(rows)}\t1"
    rows.append(head + " " * (chunk - 1 - size - len(head)) + end)
    after = range(len(rows), len(rows) + 3 * preprocess._BLOCK_LINES)
    rows += [f"G{g}\t1\r\n" for g in after]
    rows.append("Gbad\tx\r\n")
    path = tmp_path / "m.tsv"
    path.write_bytes("".join(rows).encode())
    with pytest.raises(MatrixParseError) as err:
        load_matrix(path)
    # the lone '\r' of '\r\r\n' ends a blank line
    assert (err.value.line, err.value.column) == (len(rows) + len(end) - 2, 2)
    assert_matches_oracle(path)


def test_load_matrix_reads_a_pipe(tmp_path):
    # a pipe cannot be read twice, so its lines are counted in memory
    text = "gene_id\tS0\tS1\n" + "".join(f"G{g}\t{g}\t-{g}\n\n" for g in range(70))
    fifo = tmp_path / "m.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        m = load_matrix(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert m.gene_ids == [f"G{g}" for g in range(70)]
    assert m.values.tolist() == [[g, -g] for g in range(70)]


def test_save_matrix_bytes_pinned(tmp_path):
    m = small_matrix(
        [[math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e22, 0.1, -2.5e-300]]
    )
    path = tmp_path / "m.tsv"
    save_matrix(m, path)
    assert path.read_text() == (
        "gene_id\tS0\tS1\tS2\tS3\tS4\tS5\tS6\tS7\n"
        "G0\tnan\tinf\t-inf\t-0.0\t5e-324\t1e+22\t0.1\t-2.5e-300\n"
    )
    save_matrix(m, tmp_path / "m.csv", "csv")
    assert (tmp_path / "m.csv").read_text() == (
        "gene_id,S0,S1,S2,S3,S4,S5,S6,S7\n"
        "G0,nan,inf,-inf,-0.0,5e-324,1e+22,0.1,-2.5e-300\n"
    )
    again = load_matrix(path).values
    assert np.array_equal(again.view(np.uint64), m.values.view(np.uint64))


def _refused_by_save_matrix(tmp_path, gene, sample, fmt):
    """save_matrix's message for an unsavable id, having checked it wrote nothing."""
    m = ExpressionMatrix([gene, "G1"], [sample, "S1"], [[1.0, math.nan], [2.0, 3.0]])
    path = tmp_path / "m.txt"
    with pytest.raises(BetscanError) as err:
        save_matrix(m, path, fmt)
    assert list(tmp_path.iterdir()) == []
    return str(err.value)


@pytest.mark.parametrize(
    "gene, sample, message",
    [
        ("A,B", "S0", "gene id 'A,B' holds ','"),
        ("A", 'S"0', "sample id 'S\"0' holds '\"'"),
        ("A\nB", "S0", "gene id 'A\\nB' holds '\\n'"),
        ("A ", "S0", "gene id 'A ' starts or ends with whitespace"),
    ],
)
def test_save_matrix_refuses_an_id_the_csv_layout_cannot_carry(
    tmp_path, gene, sample, message
):
    got = _refused_by_save_matrix(tmp_path, gene, sample, "csv")
    assert got == message + ", which m.txt cannot carry"


@pytest.mark.parametrize("fmt", ["tsv_genes_by_samples", "tsv"])
@pytest.mark.parametrize(
    "gene, sample, message",
    [
        ("A\tB", "S0", "gene id 'A\\tB' holds '\\t'"),
        ("A", "S0\r", "sample id 'S0\\r' holds '\\r'"),
        ("A\0", "S0", "gene id 'A\\x00' holds '\\x00'"),
    ],
)
def test_save_matrix_refuses_an_id_the_tab_layout_cannot_carry(
    tmp_path, fmt, gene, sample, message
):
    got = _refused_by_save_matrix(tmp_path, gene, sample, fmt)
    assert got == message + ", which m.txt cannot carry"


@pytest.mark.parametrize("fmt, gene", [("csv", "A\tB"), ("tsv", "A,B")])
def test_save_matrix_writes_the_other_layouts_delimiter_in_an_id(tmp_path, fmt, gene):
    # a value that is not finite is written too: repr reloads it
    m = ExpressionMatrix([gene, "G1"], ["S0", "S1"], [[1.0, math.nan], [2.0, math.inf]])
    save_matrix(m, tmp_path / "m.txt", fmt)
    again = load_matrix(tmp_path / "m.txt", fmt)
    assert again.gene_ids == [gene, "G1"]
    assert again.values.tobytes() == m.values.tobytes()


# save_matrix's blocks, patched small: one row, a block less one, a block, a
# block and one, and odd gene counts of several blocks each
_ROWS = 4


@contextmanager
def writer_cpus(count):
    """A context in which save_matrix sees `count` CPUs, with small blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(preprocess, "_WRITE_ROWS", _ROWS)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        yield mp


def forks_counted(mp):
    """Count os.fork calls under mp; returns the list of forked pids."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    mp.setattr(os, "fork", fork)
    return pids


@pytest.mark.parametrize(
    "genes", [1, 2, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 1, 5 * _ROWS + 3]
)
@pytest.mark.parametrize("fmt", ["tsv_genes_by_samples", "csv"])
def test_save_matrix_writes_the_same_bytes_from_one_and_two_processes(
    tmp_path, genes, fmt
):
    rng = np.random.default_rng(genes)
    scale = 10.0 ** rng.integers(-300, 300, (genes, 3))
    m = ExpressionMatrix(
        gene_ids=[f"gène{g}·β" if g % 2 else f"G{g}" for g in range(genes)],
        sample_ids=["S0", "échantillon 1", "S2"],
        values=rng.lognormal(size=(genes, 3)) * scale,
    )
    written = {}
    for count in (1, 2):
        path = tmp_path / f"m{count}.txt"
        with writer_cpus(count) as mp:
            pids = forks_counted(mp)
            digest = save_matrix(m, path, fmt)
        assert len(pids) == (count == 2 and genes > _ROWS)
        assert digest == sha256_file(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [*(f"m{c}.txt" for c in written), path.name]
        )
        written[count] = path.read_bytes()
    assert written[1] == written[2]
    delim = "," if fmt == "csv" else "\t"
    lines = written[1].decode().splitlines()
    assert lines[0] == delim.join(["gene_id", *m.sample_ids])
    rows = zip(m.gene_ids, m.values.tolist())
    assert lines[1:] == [delim.join([gene, *map(repr, row)]) for gene, row in rows]


def test_save_matrix_digest_is_that_of_the_file(tmp_path):
    m = small_matrix(np.random.default_rng(2).normal(size=(3 * _ROWS, 5)))
    for count in (1, 2):
        with writer_cpus(count):
            assert save_matrix(m, tmp_path / "m.tsv") == sha256_file(tmp_path / "m.tsv")


def _fail_in_the_helper(mp, parent):
    """Make the formatter raise in any process but parent."""

    def failing_repr(value):
        if os.getpid() != parent:
            raise RuntimeError("helper fault")
        return repr(value)

    mp.setattr(preprocess, "repr", failing_repr, raising=False)


def _kill_the_helper(mp, parent):
    """Make the helper kill itself before it sends a block.

    Killed from the parent, a helper could send its few small blocks first.
    """

    def killing_repr(value):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return repr(value)

    mp.setattr(preprocess, "repr", killing_repr, raising=False)


@pytest.mark.parametrize(
    "fault, status", [(_fail_in_the_helper, 1), (_kill_the_helper, -signal.SIGKILL)]
)
def test_a_failed_helper_leaves_no_file_and_no_process(tmp_path, fault, status):
    m = small_matrix(np.random.default_rng(3).normal(size=(4 * _ROWS, 5)))
    path = tmp_path / "m.tsv"
    with writer_cpus(2) as mp:
        fault(mp, os.getpid())
        pids = forks_counted(mp)
        with pytest.raises(BetscanError) as failed:
            save_matrix(m, path)
    assert str(failed.value) == (
        f"the matrix writer's helper process failed (exit status {status})"
    )
    assert list(tmp_path.iterdir()) == []
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):  # reaped
        os.waitpid(pids[0], os.WNOHANG)


@pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()])
def test_an_error_in_the_writer_kills_and_reaps_the_helper(tmp_path, error):
    m = small_matrix(np.random.default_rng(4).normal(size=(6 * _ROWS, 5)))
    path = tmp_path / "m.tsv"
    real_open = preprocess.atomic_open

    @contextmanager
    def failing_open(target, binary=False):
        with real_open(target, binary) as fh:
            writes = 0

            def write(data):
                nonlocal writes
                writes += 1
                if writes == 3:  # the header, the parent's first block, the helper's
                    raise error
                return fh.write(data)

            yield type("Failing", (), {"write": staticmethod(write)})()

    with writer_cpus(2) as mp:
        mp.setattr(preprocess, "atomic_open", failing_open)
        pids = forks_counted(mp)
        with pytest.raises(type(error)):
            save_matrix(m, path)
    assert list(tmp_path.iterdir()) == []
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


# load_matrix's blocks in the tests below: 6 of 4 lines each, where this
# process parses blocks 0, 2 and 4 and the helper blocks 1, 3 and 5
_LINES = 4


def _parsed_file(tmp_path, row=None, text=None):
    """A file of 6 blocks of 3 cells a line, with `text` as body line `row`."""
    rows = [f"G{g}\t{g}\t{-g}\t{g / 8}" for g in range(6 * _LINES)]
    if row is not None:
        rows[row] = text
    path = tmp_path / "m.tsv"
    path.write_text("gene_id\tS0\tS1\tS2\n" + "\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("block", [1, 2])  # the helper's, this process's
@pytest.mark.parametrize(
    "text, fault",  # fault: the column of the MatrixParseError
    [
        ('"G{g}"\t{g}\t1_000\t0', None),  # a quote, and a cell loadtxt refuses
        ('G{g}\t"{g}\n"\t1\t0', None),  # a cell that spans two lines
        ("G{g}\t{g}\t1", 3),  # a missing cell: 3 cells found
        ("G{g}\t{g}\tx\t0", 3),
        ("G{g}\t\0\t1\t0", 2),
    ],
)
def test_the_first_declined_block_is_read_on_by_this_process(
    tmp_path, block, text, fault
):
    row = block * _LINES + 1
    path = _parsed_file(tmp_path, row, text.format(g=row))
    real = preprocess._parse_records
    starts = []

    def parse_records(records, lines, path, line_no, *rest):
        starts.append(line_no)
        return real(records, lines, path, line_no, *rest)

    with parser_cpus(2, _LINES) as mp:
        pids = forks_counted(mp)
        mp.setattr(preprocess, "_parse_records", parse_records)
        got = outcome(lambda: load_matrix(path))
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):  # killed and reaped
        os.waitpid(pids[0], os.WNOHANG)
    # the csv path starts at the declined block's first record
    assert starts[0] == 2 + block * _LINES
    if fault is None:
        assert got[0] == [f"G{g}" for g in range(6 * _LINES)]
    else:
        assert got[:3] == ("MatrixParseError", 2 + row, fault)
    assert_matches_oracle(path)


# a quoted cell of two lines, from which csv.reader reads on
_TWO_LINES = b'G9\t"9\n"\t-9\t1.125'


@pytest.mark.parametrize(
    "rows, line, column, byte",
    [
        ({-1: b"gene_id\tS0\tS\xe91\tS2"}, 1, 3, b"\xe9"),  # the header
        ({0: b"G\xe90\t0\t0\t0"}, 2, 1, b"\xe9"),  # in the header's text chunk
        ({5: b"G5\t5\t-5\t0.6\xe925"}, 7, 4, b"\xe9"),  # the helper's block
        ({23: b"G23\t23\t-23\t2.875\xc3"}, 25, 4, b"\xc3"),  # half a character
        # lines count records: after a record of two lines, in its block,
        # which csv.reader reads, and in the next, which loadtxt would
        ({9: _TWO_LINES, 10: b"G10\t10\t-1\xe90\t1.25"}, 12, 3, b"\xe9"),
        ({9: _TWO_LINES, 13: b"G13\t13\t-13\t1.6\xff25"}, 15, 4, b"\xff"),
    ],
)
def test_bytes_that_are_not_utf8_are_refused(tmp_path, rows, line, column, byte):
    path = _parsed_file(tmp_path)
    lines = path.read_bytes().split(b"\n")
    for row, text in rows.items():
        lines[1 + row] = text
    path.write_bytes(b"\n".join(lines))
    expected = outcome(lambda: load_matrix(path))
    message = f"{path}: line {line}, column {column}: byte {byte!r} is not UTF-8"
    assert expected == ("MatrixParseError", line, column, message)
    for count in (1, 2):
        with parser_cpus(count, _LINES):
            assert outcome(lambda: load_matrix(path)) == expected
            assert piped_outcome(path) == expected


def test_a_pipe_is_parsed_by_two_processes(tmp_path):
    path = _parsed_file(tmp_path)  # 6 blocks
    with parser_cpus(2, _LINES) as mp:
        pids = forks_counted(mp)
        got = piped_outcome(path)
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):  # reaped
        os.waitpid(pids[0], os.WNOHANG)
    assert got == outcome(lambda: load_matrix(path))


def _in_the_parse_helper(fault):
    """A fault that makes the block parse call fault() in any process but parent."""

    def patch(mp, parent):
        real = preprocess._parse_block

        def failing(*args):
            if os.getpid() != parent:
                fault()
            return real(*args)

        mp.setattr(preprocess, "_parse_block", failing)

    return patch


def _raise():
    raise RuntimeError("helper fault")


# the helper raises, or is killed before it sends a block (killed from the
# parent, a helper could send its few small blocks first)
_PARSE_HELPER_FAULTS = [
    (_in_the_parse_helper(_raise), 1),
    (_in_the_parse_helper(lambda: os.kill(os.getpid(), signal.SIGKILL)), -signal.SIGKILL),
]


@pytest.mark.parametrize("fault, status", _PARSE_HELPER_FAULTS, ids=["raises", "killed"])
def test_a_failed_parse_helper_is_named_and_reaped(tmp_path, fault, status):
    path = _parsed_file(tmp_path)
    with parser_cpus(2, _LINES) as mp:
        fault(mp, os.getpid())
        pids = forks_counted(mp)
        with pytest.raises(BetscanError) as failed:
            load_matrix(path)
    assert str(failed.value) == (
        f"the matrix parser's helper process failed (exit status {status})"
    )
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


def test_an_interrupt_in_the_parser_kills_and_reaps_the_helper(tmp_path):
    path = _parsed_file(tmp_path)
    parent, calls = os.getpid(), 0
    real = preprocess._parse_block

    def interrupted(*args):
        nonlocal calls
        if os.getpid() == parent:
            calls += 1
            if calls == 2:  # this process's second block, block 2
                raise KeyboardInterrupt
        return real(*args)

    with parser_cpus(2, _LINES) as mp:
        mp.setattr(preprocess, "_parse_block", interrupted)
        pids = forks_counted(mp)
        with pytest.raises(KeyboardInterrupt):
            load_matrix(path)
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


# --------------------------------------------------------------- binary copy


def copy_of(path):
    return path.with_name(path.name + ".npz")


@contextmanager
def parse_refused():
    """A context in which load_matrix may not parse text, so only a copy serves."""

    def refuse(fh, path, delim):
        raise AssertionError(f"{path} was parsed, not read from its copy")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(preprocess, "_parse_matrix", refuse)
        yield


# ids that matrix.tsv carries: no tab, quote, line end or NUL, and no
# padding, which the parse strips (the ids of a parsed matrix have none)
_savable_ids = st.text(
    st.characters(blacklist_characters='\t"\r\n\0', blacklist_categories=("Cs",)),
    max_size=6,
).map(str.strip)
_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300,
                     -1e300, 1e-300, -1e-300]),
)


@st.composite
def savable_matrices(draw):
    genes, samples = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    values = draw(st.lists(_finite, min_size=genes * samples, max_size=genes * samples))
    return ExpressionMatrix(
        gene_ids=draw(st.lists(_savable_ids, min_size=genes, max_size=genes)),
        sample_ids=draw(st.lists(_savable_ids, min_size=samples, max_size=samples)),
        values=np.reshape(values, (genes, samples)),
    )


@settings(max_examples=150, deadline=None)
@given(savable_matrices())
def test_binary_copy_returns_what_the_parse_returns(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("m") / "matrix.tsv"
    save_matrix(matrix, path)
    assert not copy_of(path).exists()  # save_matrix writes no copy
    parsed = outcome(lambda: load_matrix(path))
    save_binary_copy(matrix, path)
    with parse_refused():
        for fmt in ("tsv_genes_by_samples", "tsv"):
            hit = load_matrix(path, fmt)
            assert outcome(lambda: hit) == parsed
            assert all(type(i) is str for i in hit.gene_ids + hit.sample_ids)
    assert parsed[2] == matrix.values.shape
    assert parsed[3] == matrix.values.view(np.uint64).tobytes()


def saved_with_copy(tmp_path):
    rng = np.random.default_rng(4)
    m = ExpressionMatrix(
        gene_ids=["GA", "gène B", ""], sample_ids=["S0", "S 1", "S,2", "S3"],
        values=rng.normal(size=(3, 4)) * 1e-200,
    )
    path = tmp_path / "matrix.tsv"
    save_matrix(m, path)
    assert save_binary_copy(m, path) == copy_of(path)
    with np.load(copy_of(path)) as arrays:
        return path, {key: arrays[key] for key in arrays.files}


def test_binary_copy_bytes_are_the_same_for_the_same_matrix(tmp_path, monkeypatch):
    path, arrays = saved_with_copy(tmp_path)
    first = copy_of(path).read_bytes()
    m = load_matrix(path)
    now = time.time()
    # a day later: a copy that dated its members by the clock would differ
    monkeypatch.setattr(time, "time", lambda: now + 86400)
    save_binary_copy(m, path)
    assert copy_of(path).read_bytes() == first
    assert sorted(arrays) == ["gene_ids", "sample_ids", "sha256", "values"]
    assert arrays["gene_ids"].dtype.kind == arrays["sample_ids"].dtype.kind == "U"


# each case rewrites the copy so that it may not stand for the text; where
# it still holds every key with the right digest its values differ by one,
# so a copy used in error shows
@pytest.mark.parametrize(
    "case",
    ["stale-digest", "text-edited", "pickled-ids", "float32-values", "one-id-more",
     "no-gene-rows", "missing-key", "extra-key", "digest-as-list",
     "truncated", "foreign-npz", "lone-npy", "empty", "directory"],
)
def test_an_unusable_binary_copy_is_ignored(tmp_path, case):
    path, arrays = saved_with_copy(tmp_path)
    copy = copy_of(path)
    arrays["values"] = arrays["values"] + 1.0
    genes = arrays["gene_ids"]
    changed = {
        "stale-digest": {"sha256": np.array("0" * 64)},
        "text-edited": {},
        "pickled-ids": {"gene_ids": genes.astype(object)},
        "float32-values": {"values": arrays["values"].astype(np.float32)},
        "one-id-more": {"gene_ids": np.append(genes, "GX")},
        "no-gene-rows": {"values": arrays["values"][:0], "gene_ids": genes[:0]},
        "digest-as-list": {"sha256": arrays["sha256"].reshape(1)},
        "extra-key": {"other": np.arange(3)},
    }
    if case in changed:
        np.savez(copy, **{**arrays, **changed[case]})
    elif case == "missing-key":
        np.savez(copy, **{k: v for k, v in arrays.items() if k != "sha256"})
    elif case == "truncated":
        copy.write_bytes(copy.read_bytes()[: copy.stat().st_size // 2])
    elif case == "foreign-npz":
        np.savez(copy, x=np.arange(3))
    elif case == "lone-npy":
        with open(copy, "wb") as fh:  # np.save would add ".npy" to the name
            np.save(fh, arrays["values"])
    elif case == "empty":
        copy.write_bytes(b"")
    elif case == "directory":
        copy.unlink()
        copy.mkdir()
    if case == "text-edited":
        # one byte of a value, so the copy is stale and the text still parses
        text = path.read_bytes()
        at = text.index(b"e-2")
        path.write_bytes(text[:at] + b"e-1" + text[at + 3:])
    assert_matches_oracle(path)
    # the same whether load_matrix hashes the text or its caller passes the digest
    for digest in (None, sha256_file(path)):
        assert load_matrix(path, sha256=digest).values.tolist() != arrays["values"].tolist()


@pytest.mark.parametrize(
    "gene, sample, value, message",
    [(" GA", "S0", 1.0, "gene id ' GA' starts or ends with whitespace"),
     ("GA", "S,0\t", 1.0, "sample id 'S,0\\t' holds '\\t'"),
     ("GA", "S0", math.nan, "gene 'GA', sample 'S0': non-finite value nan")],
)
def test_save_binary_copy_refuses_a_matrix_the_parse_would_change(
    tmp_path, gene, sample, value, message
):
    # ids that the text would parse to other ids, which save_matrix refuses
    # to write as well, or a value that every command refuses
    values = np.array([[value, 2.0], [3.0, 4.0]])
    m = ExpressionMatrix([gene, "GB"], [sample, "S1"], values)
    path = tmp_path / "matrix.tsv"
    path.write_text("gene_id\n")
    with pytest.raises(BetscanError) as err:
        save_binary_copy(m, path)
    assert str(err.value).startswith(message)
    assert not copy_of(path).exists()


def test_binary_copy_is_not_used_for_csv(tmp_path):
    path, _ = saved_with_copy(tmp_path)
    # the sample id "S,2" makes a csv header of two cells; gene rows have one
    with pytest.raises(MatrixParseError, match="expected 2 cells, found 1"):
        load_matrix(path, "csv")
    assert_matches_oracle(path, "csv")


def test_binary_copy_keeps_the_parse_error_of_a_faulty_text(tmp_path):
    path, _ = saved_with_copy(tmp_path)
    path.write_text(path.read_text().replace("GA\t", "GA\toops", 1))
    with pytest.raises(MatrixParseError, match="'oops"):
        load_matrix(path)
    assert_matches_oracle(path)


def test_binary_copy_is_not_read_for_a_pipe(tmp_path):
    # a pipe has no digest to check without consuming it, so it is parsed
    path, arrays = saved_with_copy(tmp_path)
    fifo = tmp_path / "m.fifo"
    os.mkfifo(fifo)
    # the digest of the text that the pipe carries, and other values
    np.savez(copy_of(fifo), **{**arrays, "values": arrays["values"] + 1.0})
    expected = load_matrix(path)
    text = path.read_text()
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        m = load_matrix(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert outcome(lambda: m) == outcome(lambda: expected)


@pytest.mark.parametrize(
    "gene, sample, message",
    [
        ("a\tb", "S0", "gene id 'a\\tb' holds '\\t'"),
        ("a\rb", "S0", "gene id 'a\\rb' holds '\\r'"),
        ("ab\n", "S0", "gene id 'ab\\n' holds '\\n'"),
        ("ab\0", "S0", "gene id 'ab\\x00' holds '\\x00'"),
        ("ab", 'S"0', "sample id 'S\"0' holds '\"'"),
        (" ab", "S0", "gene id ' ab' starts or ends with whitespace"),
        ("ab", "S0\u00a0", "sample id 'S0\\xa0' starts or ends with whitespace"),
    ],
)
def test_check_savable_names_an_id_the_text_cannot_carry(gene, sample, message):
    m = ExpressionMatrix([gene], [sample], np.ones((1, 1)))
    with pytest.raises(BetscanError) as err:
        check_savable(m)
    assert str(err.value) == message + ", which matrix.tsv cannot carry"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_check_savable_names_a_non_finite_value(value):
    m = small_matrix([[1.0, 2.0], [3.0, value]])
    with pytest.raises(BetscanError) as err:
        check_savable(m)
    assert str(err.value) == f"gene 'G1', sample 'S1': non-finite value {value!r}"


def test_labels_file(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("sample_id,label\nS0,A\nS1,B\n")
    assert load_labels(path) == {"S0": "A", "S1": "B"}
    bad = tmp_path / "bad.csv"
    bad.write_text("sample,group\nS0,A\n")
    with pytest.raises(MatrixParseError):
        load_labels(bad)
    huge = tmp_path / "huge.csv"
    huge.write_text(f"sample_id,label\nS0,A\nS1,{_HUGE}\n")
    with pytest.raises(BetscanError) as err:
        load_labels(huge)
    assert str(err.value) == f"{huge}: line 3: field larger than field limit (131072)"


def test_labels_file_refuses_a_sample_with_two_labels(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("sample_id,label\nS0,A\nS1,B\n\nS0,B\n")
    with pytest.raises(BetscanError) as err:
        load_labels(path)
    assert str(err.value) == (
        f"{path}: sample 'S0' is labelled 'A' on line 2 and 'B' on line 5"
    )
    # the same label again is no conflict, as stripped cells compare
    path.write_text("sample_id,label\nS0,A\nS1,B\n S0 , A\n")
    assert load_labels(path) == {"S0": "A", "S1": "B"}


# ------------------------------------------------------------------- filter


def test_filter_zero_heavy_strict_boundary():
    m = small_matrix(
        [
            [0, 0, 0, 1, 2, 3, 4, 5, 6, 7],   # 3/10 zeros -> dropped
            [0, 0, 1, 2, 3, 4, 5, 6, 7, 8],   # 2/10 zeros -> kept
            [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],  # untouched
        ]
    )
    kept, report = filter_zero_heavy(m, 0.20)
    assert kept.gene_ids == ["G1", "G2"]
    assert [d["gene"] for d in report.genes_dropped] == ["G0"]


def test_filter_all_nonzero_unchanged_and_idempotent():
    m = small_matrix([[1, 2, 3, 4], [5, 6, 7, 8]])
    kept, report = filter_zero_heavy(m)
    assert kept.gene_ids == m.gene_ids
    assert np.array_equal(kept.values, m.values)
    again, report2 = filter_zero_heavy(kept)
    assert again.gene_ids == kept.gene_ids
    assert not report2.genes_dropped


# -------------------------------------------------------------------- reset


def test_reset_median_literal_example():
    assert reset_median_imputed([5, 7, 7, 7, 9]).tolist() == [5, 7, 5, 5, 9]


def test_reset_median_unique_median_untouched():
    assert reset_median_imputed([1, 2, 3, 4]).tolist() == [1, 2, 3, 4]


def test_reset_median_equal_to_min():
    # median == min: duplicates beyond the first already sit at the min
    col = [1, 1, 1, 1, 5, 9]
    out = reset_median_imputed(col)
    assert out.tolist() == [1, 1, 1, 1, 5, 9]


# ------------------------------------------------------------------- jitter


def test_jitter_range_and_untouched_uppers():
    col = np.array([0.0, 0.0, 0.0, 5.0, 9.0])
    out = jitter_minimum_ties(col, seed=7)
    assert out[0] == 0.0  # holdout keeps the exact minimum
    assert np.all(out[1:3] > 0.0) and np.all(out[1:3] < 5.0)
    assert out[3] == 5.0 and out[4] == 9.0
    assert len(np.unique(out[:3])) == 3


def test_jitter_deterministic():
    col = np.array([0.0, 0.0, 0.0, 5.0, 9.0])
    a = jitter_minimum_ties(col, seed=123)
    b = jitter_minimum_ties(col, seed=123)
    assert np.array_equal(a, b)
    c = jitter_minimum_ties(col, seed=124)
    assert not np.array_equal(a, c)


def test_jitter_rank_safety_property():
    rng = np.random.default_rng(31)
    for trial in range(200):
        uniques = rng.choice(np.arange(1, 500), size=12, replace=False).astype(float)
        col = np.concatenate([np.zeros(rng.integers(2, 6)), uniques])
        rng.shuffle(col)
        out = jitter_minimum_ties(col, seed=trial)
        nonmin = col > 0
        # pairwise order of all non-minimum values is untouched
        assert np.array_equal(out[nonmin], col[nonmin])
        assert out[nonmin].min() > out[~nonmin].max()
        empirical_copula(out)  # must not raise


def test_jitter_degenerate():
    with pytest.raises(DegenerateColumnError):
        jitter_minimum_ties(np.ones(6), seed=0)


def _jitter_outcome(column, seed):
    """jitter_minimum_ties(column, seed), or its error, in at most 10 s."""
    outcome = []

    def jitter():
        try:
            outcome.append(jitter_minimum_ties(column, seed))
        except BetscanError as exc:
            outcome.append(exc)

    worker = threading.Thread(target=jitter, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    return outcome[0]


@pytest.mark.parametrize(
    "column, room",
    [
        ([0.0, 0.0, 5e-324], 0),
        ([1.0, 1.0, 1.0000000000000002], 0),
        ([-0.0, 0.0, 5e-324], 0),
        ([3.0, 3.0, 3.0, 3.0 + 2 * 2.0**-51], 1),
    ],
)
def test_jitter_refuses_a_gap_too_narrow_for_the_ties(column, room):
    # the draws once looped forever here: no distinct values fit the gap
    exc = _jitter_outcome(column, 1)
    assert isinstance(exc, DegenerateColumnError)
    low, second, ties = repr(column[0]), repr(column[-1]), len(column) - 1
    assert str(exc) == (
        f"its minimum {low} occurs {ties} times, and {room} double(s) lie between "
        f"it and the next value {second}, too few to jitter the ties apart"
    )


def test_jitter_refuses_after_rejected_draws():
    # 20 ties to move and 20 doubles between: every draw repeats one
    second = 1.0 + 21 * 2.0**-52
    exc = _jitter_outcome([1.0] * 21 + [second], 3)
    assert isinstance(exc, DegenerateColumnError)
    assert str(exc) == (
        "its minimum 1.0 occurs 21 times, and 100 draws found no distinct values "
        f"for the ties between it and the next value {second!r}"
    )


def test_jitter_fills_a_narrow_gap_it_can_fill():
    second = 1.0 + 4 * 2.0**-52
    out = _jitter_outcome([1.0, 1.0, 1.0, second], 0)
    assert out[0] == 1.0 and out[3] == second
    assert 1.0 < out[1] < second and 1.0 < out[2] < second and out[1] != out[2]


@pytest.mark.parametrize(
    "column, at",
    [([1.0, 1.0, math.inf, math.inf], 2), ([1.0, 1.0, math.nan, math.nan], 2),
     ([2.0, -math.inf, -math.inf, 3.0], 1)],
)
def test_jitter_refuses_a_non_finite_gap(column, at):
    # the draws once looped forever: no value falls below inf or nan
    exc = _jitter_outcome(column, 1)
    assert isinstance(exc, NonFiniteError) and exc.index == at


@pytest.mark.parametrize(
    "column", [[-math.inf, 1.0, 2.0], [1.0, math.nan, math.nan], [1.0, 2.0, math.inf]]
)
def test_jitter_leaves_an_untied_minimum_with_non_finite_values(column):
    out = jitter_minimum_ties(column, seed=1)
    assert out.tobytes() == np.array(column).tobytes()


def test_jitter_no_duplicate_minimum_is_noop():
    col = np.array([1.0, 4.0, 2.0, 8.0])
    assert np.array_equal(jitter_minimum_ties(col, seed=5), col)


# ------------------------------------------------------------------- subset


def test_subset_identity_and_counts():
    m = small_matrix(np.arange(10.0).reshape(2, 5), labels=["A", "A", "A", "B", "B"])
    assert subset_by_labels(m, {"A", "B"}).n_samples == 5
    sub = subset_by_labels(m, {"A"})
    assert sub.n_samples == 3
    assert sub.labels == ["A", "A", "A"]
    assert np.array_equal(sub.values, m.values[:, :3])


def test_with_labels_shares_the_values():
    m = small_matrix(np.arange(8.0).reshape(2, 4))
    labelled = m.with_labels({"S0": "A", "S1": "A", "S2": "B", "S3": "B"})
    assert labelled.labels == ["A", "A", "B", "B"] and m.labels is None
    assert np.shares_memory(labelled.values, m.values)


def test_drop_constant_genes_on_a_context():
    # G1 varies over the cohort but not on A, and only G1 varies on B
    m = small_matrix(
        [[1, 2, 3, 4, 5, 5], [7, 7, 7, 7, 1, 2], [7, 7, 7, 8, 7, 7]],
        labels=["A", "A", "A", "A", "B", "B"],
    )
    # the public step leaves its matrix, and one that shares its values, as
    # they were
    own = small_matrix([[1, 2, 3], [4, 4, 4], [5, 6, 7], [8, 9, 9]])
    shared = own.with_labels({"S0": "A", "S1": "A", "S2": "B"})
    before = own.values.copy()
    kept = drop_constant_genes(shared, PreprocessReport(), "the pipeline")
    assert kept.gene_ids == ["G0", "G2", "G3"] and kept.labels == ["A", "A", "B"]
    assert np.array_equal(kept.values, before[[0, 2, 3]])
    assert np.array_equal(own.values, before)
    assert not np.shares_memory(kept.values, own.values)

    before = m.values.copy()
    report = PreprocessReport(genes_dropped=[{"gene": "G9", "reason": "constant"}])
    context = subset_by_labels(m, {"A"})
    # the subset is a copy, so moving its kept rows up leaves m as it was
    assert not np.shares_memory(context.values, m.values)
    kept = preprocess._drop_constant_genes_in_place(context, report, "the pipeline")
    assert np.shares_memory(kept.values, context.values)
    assert kept.gene_ids == ["G0", "G2"] and kept.labels == ["A"] * 4
    assert np.array_equal(kept.values, before[[0, 2], :4])
    assert np.array_equal(m.values, before)
    assert report.genes_dropped[1:] == [{"gene": "G1", "reason": "constant"}]
    # nothing constant: the matrix itself comes back
    assert drop_constant_genes(kept, report, "the pipeline") is kept
    assert len(report.genes_dropped) == 2
    with pytest.raises(BetscanError) as refused:
        drop_constant_genes(subset_by_labels(m, {"B"}), report, "the pipeline")
    assert str(refused.value) == (
        "1 gene(s) left of 5: the pipeline dropped 2 and 2 were constant; "
        "a screen needs at least 2"
    )


def test_subset_unknown_label():
    m = small_matrix(np.arange(8.0).reshape(2, 4), labels=["A", "A", "B", "B"])
    with pytest.raises(UnknownLabelError) as err:
        subset_by_labels(m, {"A", "C"})
    assert err.value.names == ["C"]


def test_subset_contexts_match_published_sizes():
    labels = subtype_context_labels()
    m = small_matrix(np.arange(2 * 817, dtype=float).reshape(2, 817), labels=labels)
    assert subset_by_labels(m, {"LumA"}).n_samples == 415
    assert subset_by_labels(m, {"Her2", "LumB"}).n_samples == 241
    assert subset_by_labels(m, {"LumA", "LumB", "Her2"}).n_samples == 656
    assert m.n_samples == 817


# ------------------------------------------------------ upper-quartile log2


def test_uq_log2_identity_scale():
    m = small_matrix([[1.0], [2.0], [3.0], [4.0]])
    out = upper_quartile_log2(m, target_quartile=np.percentile([1, 2, 3, 4], 75))
    assert np.allclose(out.values[:, 0], np.log2(np.array([1, 2, 3, 4]) + 1.0))


def test_uq_log2_scale_invariance():
    rng = np.random.default_rng(8)
    counts = rng.integers(0, 100, size=(6, 3)).astype(float)
    counts[0] = [5, 10, 20]
    m = small_matrix(counts)
    doubled = small_matrix(counts * 2.0)
    a = upper_quartile_log2(m, 10.0)
    b = upper_quartile_log2(doubled, 10.0)
    assert np.allclose(a.values, b.values)


def test_uq_log2_hand_computed():
    col = np.array([0.0, 2.0, 4.0, 6.0, 8.0])
    m = small_matrix(col.reshape(5, 1))
    out = upper_quartile_log2(m, target_quartile=3.0)
    q = np.percentile([2.0, 4.0, 6.0, 8.0], 75)  # nonzero values only
    assert np.allclose(out.values[:, 0], np.log2(col * (3.0 / q) + 1.0))


def test_uq_log2_scales_an_overflowing_count_to_inf_without_a_warning():
    m = small_matrix([[1.0, 5.0], [2.0, 1e308], [3.0, 6.0], [4.0, 7.0], [5.0, 8.0]])
    out = upper_quartile_log2(m, 1e6)  # pytest makes a warning an error
    assert np.isposinf(out.values[1, 1])
    assert np.isfinite(np.delete(out.values.ravel(), 3)).all()


def test_uq_log2_degenerate_sample():
    m = small_matrix([[0.0], [0.0], [0.0], [0.0]])
    with pytest.raises(DegenerateSampleError):
        upper_quartile_log2(m, 10.0)


# ----------------------------------------------------------------- pipeline


def _count_fixture(rng, n_genes=8, n_samples=40):
    """Integer counts: distinct nonzero values, some zeros, median spikes."""
    values = np.empty((n_genes, n_samples))
    for g in range(n_genes):
        uniques = rng.choice(np.arange(1, 20000), size=n_samples, replace=False)
        col = uniques.astype(float)
        n_zero = rng.integers(0, n_samples // 3)
        col[:n_zero] = 0.0
        rng.shuffle(col)
        if g % 2 == 0:
            # half the genes got their zeros median-imputed upstream; the
            # middle order statistic stays the median once the zeros move
            # onto it, so the spike the reset step looks for really forms
            col[col == 0.0] = np.sort(col)[n_samples // 2]
        values[g] = col
    return values


def test_pipeline_yields_tie_free_columns():
    rng = np.random.default_rng(77)
    for rep in range(25):
        m = ExpressionMatrix(
            gene_ids=[f"G{i}" for i in range(8)],
            sample_ids=[f"S{j}" for j in range(40)],
            values=_count_fixture(rng),
        )
        cleaned, report = run_pipeline(m, seed=rep)
        for g in range(cleaned.n_genes):
            empirical_copula(cleaned.values[g])  # raises on any tie


def test_pipeline_deterministic():
    rng = np.random.default_rng(78)
    values = _count_fixture(rng)
    m = ExpressionMatrix(
        gene_ids=[f"G{i}" for i in range(8)],
        sample_ids=[f"S{j}" for j in range(40)],
        values=values,
    )
    a, _ = run_pipeline(m, seed=5)
    b, _ = run_pipeline(m, seed=5)
    assert np.array_equal(a.values, b.values)
    c, _ = run_pipeline(m, seed=6)
    assert not np.array_equal(a.values, c.values)


def test_pipeline_report_contents():
    m = small_matrix(
        [
            [0, 0, 0, 0, 0, 1, 2, 3, 4, 5],          # 50% zeros -> dropped
            [0, 5, 7, 7, 7, 7, 11, 13, 15, 19],      # median spike + zero
            [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        ]
    )
    cleaned, report = run_pipeline(m, seed=3)
    assert [d["gene"] for d in report.genes_dropped] == ["G0"]
    assert report.medians_reset.get("G1") == 3  # three of four 7s moved
    assert "G1" in report.jitter_widths
    assert report.jitter_seed == 3
    for g in range(cleaned.n_genes):
        empirical_copula(cleaned.values[g])


def test_pipeline_drops_constant_genes_after_the_jitter():
    # genes 1 and 4 constant, an all-zero one among them, against the same
    # matrix with them varying: every other gene keeps its row index, its
    # jitter stream and its values
    varying = _count_fixture(np.random.default_rng(79))
    varying[[1, 4]] = np.arange(1, 41)
    constant = varying.copy()
    constant[1], constant[4] = 7.0, 0.0
    a, report_a = run_pipeline(small_matrix(varying), 5, zero_fraction_threshold=1)
    b, report_b = run_pipeline(small_matrix(constant), 5, zero_fraction_threshold=1)
    kept = [0, 2, 3, 5, 6, 7]
    assert b.gene_ids == [f"G{g}" for g in kept]
    assert np.array_equal(b.values, a.values[kept])
    assert report_b.genes_dropped == [
        {"gene": "G1", "reason": "constant"},
        {"gene": "G4", "reason": "constant"},
    ]
    # the constant genes' median spikes are not reported as reset
    assert report_b.medians_reset == report_a.medians_reset
    assert report_b.jitter_widths == report_a.jitter_widths


def test_pipeline_refuses_fewer_than_two_genes_naming_both_causes():
    m = small_matrix([[0, 0, 0, 1, 2], [7, 7, 7, 7, 7], [1, 2, 3, 4, 5]])
    with pytest.raises(BetscanError) as refused:
        run_pipeline(m, seed=3)
    assert str(refused.value) == (
        "1 gene(s) left of 3: the zero filter (zero fraction above 0.2) "
        "dropped 1 and 1 were constant; a screen needs at least 2"
    )


def _pipeline_outcome(run):
    """run()'s cleaned matrix and report, or the error it raises, as comparable data."""
    try:
        cleaned, report = run()
    except Exception as exc:  # the same failure, whatever it is
        return type(exc).__name__, str(exc)
    # repr compares a nan jitter width as equal
    return cleaned.gene_ids, cleaned.values.tobytes(), repr(asdict(report))


# gene rows: draws from few values, so that medians and minima tie, with
# zeros, a nan or -inf now and then, and constant and all-zero genes.  The
# other values lie on a grid of 1/64, so that most tied minima leave the
# jitter room; the --uq-target cases also bring genes whose minimum and
# next value lie a few floats apart, which the jitter refuses
_cells = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, 7.0, 7.0, 7.0, 50.0, -0.0]),
    st.integers(-(2**26), 2**26).map(lambda k: k / 64),
    st.sampled_from([math.nan, -math.inf]),
)


@st.composite
def pipeline_matrices(draw):
    genes, samples = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    rows = []
    for _ in range(genes):
        kind = draw(st.sampled_from(["cells", "cells", "cells", "constant", "zero"]))
        if kind == "cells":
            rows.append(draw(st.lists(_cells, min_size=samples, max_size=samples)))
        else:
            rows.append([0.0 if kind == "zero" else draw(_cells)] * samples)
    return small_matrix(rows)


@settings(max_examples=300, deadline=None)
@given(
    pipeline_matrices(),
    st.integers(0, 2**64),
    st.floats(0.0, 1.0),
    st.integers(1, 3),
    st.booleans(),
)
def test_pipeline_matches_the_gene_by_gene_oracle(matrix, seed, threshold, blocks, uq):
    if uq:  # the --uq-target path: counts scaled and logged first
        matrix = small_matrix(np.abs(np.nan_to_num(matrix.values, neginf=3.0)))
        try:
            matrix = upper_quartile_log2(matrix, 1000.0)
        except DegenerateSampleError:
            return
    rows = max(1, -(-matrix.n_genes // blocks))  # so that the genes take 1-3 blocks
    expected = _pipeline_outcome(lambda: run_pipeline_oracle(matrix, seed, threshold))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(preprocess, "_PIPELINE_ROWS", rows)
        got = _pipeline_outcome(lambda: run_pipeline(matrix, seed, threshold))
    assert got == expected


def test_pipeline_matches_the_oracle_on_counts_with_spikes():
    rng = np.random.default_rng(80)
    m = small_matrix(np.concatenate([_count_fixture(rng, 300, 97) for _ in range(2)]))
    expected = _pipeline_outcome(lambda: run_pipeline_oracle(m, 11))
    assert _pipeline_outcome(lambda: run_pipeline(m, 11)) == expected
    _, report = run_pipeline(m, 11)
    assert len(report.medians_reset) > 100 and len(report.jitter_widths) > 100


def test_pipeline_holds_the_matrix_about_once():
    # run_pipeline cleans the filtered copy in place, a block of genes at a
    # time, so its traced peak stays near one copy of the filtered matrix
    rng = np.random.default_rng(81)
    values = rng.lognormal(size=(2000, 1096))
    values[rng.random(values.shape) < 0.05] = 0.0
    values[::5, :300] = np.median(values[::5], axis=1, keepdims=True)
    m = small_matrix(values)
    filtered, _ = filter_zero_heavy(m)
    tracemalloc.start()
    try:
        cleaned, report = run_pipeline(m, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.medians_reset and report.jitter_widths
    assert peak <= 1.5 * filtered.values.nbytes, (peak, filtered.values.nbytes)


def test_pipeline_drops_a_constant_gene_without_a_copy():
    # the constant gene's row is dropped by moving the kept rows up within
    # the filtered copy
    rng = np.random.default_rng(82)
    values = rng.lognormal(size=(2000, 1096))
    values[700] = 3.0
    m = small_matrix(values)
    filtered, _ = filter_zero_heavy(m)
    tracemalloc.start()
    try:
        cleaned, report = run_pipeline(m, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.genes_dropped == [{"gene": "G700", "reason": "constant"}]
    assert cleaned.gene_ids == [g for g in m.gene_ids if g != "G700"]
    assert np.array_equal(cleaned.values, np.delete(values, 700, axis=0))
    assert peak <= 1.5 * filtered.values.nbytes, (peak, filtered.values.nbytes)


def test_gene_stream_keys_distinct():
    keys = {gene_stream_key(9, g) for g in range(100)}
    assert len(keys) == 100
    assert gene_stream_key(9, 1) != gene_stream_key(10, 0)


def test_raw_matrix_with_ties_fails_copula():
    with pytest.raises(TiesPresentError):
        empirical_copula([1.0, 2.0, 2.0, 3.0, 4.0])
