import math
import os
import threading
import time
from contextlib import contextmanager

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
    check_savable,
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

from ._oracles import parse_matrix_oracle
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


def assert_matches_oracle(path, fmt="tsv"):
    def oracle():
        with open(path, encoding="utf-8", newline="") as fh:
            return parse_matrix_oracle(fh, path, "," if fmt == "csv" else "\t")

    assert outcome(lambda: load_matrix(path, fmt)) == outcome(oracle)


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


def test_crlf_split_between_read_chunks(tmp_path):
    # the lines of a file are counted 1 MiB at a time; put a '\r\n' across
    chunk = 1 << 20
    rows, size, g = ["gene_id\tS0\r\n"], 12, 0
    while size < chunk - 2000:
        rows.append(f"G{g}\t{' ' * 1000}{g}\r\n")
        size += len(rows[-1])
        g += 1
    head = f"G{g}\t{g}"
    rows.append(head + " " * (chunk - 1 - size - len(head)) + "\r\n")
    rows += [f"G{g + 1}\t{g + 1}\r\n", f"G{g + 2}\t{g + 2}"]
    text = "".join(rows)
    assert text[chunk - 1 : chunk + 1] == "\r\n"
    path = tmp_path / "m.tsv"
    path.write_bytes(text.encode())
    m = load_matrix(path)
    assert m.values[:, 0].tolist() == list(range(g + 3))
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
    save_binary_copy(m, path)
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
    # the text that save_matrix writes for these parses to other ids, or is
    # refused by every command
    values = np.array([[value, 2.0], [3.0, 4.0]])
    m = ExpressionMatrix([gene, "GB"], [sample, "S1"], values)
    path = tmp_path / "matrix.tsv"
    save_matrix(m, path)
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


@pytest.mark.parametrize(
    "column, at",
    [([1.0, 1.0, math.inf, math.inf], 2), ([1.0, 1.0, math.nan, math.nan], 2),
     ([2.0, -math.inf, -math.inf, 3.0], 1)],
)
def test_jitter_refuses_a_non_finite_gap(column, at):
    # the draws once looped forever: no value falls below inf or nan
    caught = []

    def jitter():
        try:
            jitter_minimum_ties(column, seed=1)
        except NonFiniteError as exc:
            caught.append(exc)

    worker = threading.Thread(target=jitter, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert [exc.index for exc in caught] == [at]


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


def test_gene_stream_keys_distinct():
    keys = {gene_stream_key(9, g) for g in range(100)}
    assert len(keys) == 100
    assert gene_stream_key(9, 1) != gene_stream_key(10, 0)


def test_raw_matrix_with_ties_fails_copula():
    with pytest.raises(TiesPresentError):
        empirical_copula([1.0, 2.0, 2.0, 3.0, 4.0])
