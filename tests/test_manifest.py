"""read_csv against csv.reader over open_input, the reader it stands for."""

from __future__ import annotations

import csv
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betscan import manifest
from betscan.errors import BetscanError
from betscan.manifest import open_input, read_csv

# plain cell text, non-ASCII included; "\x85", "\x1c" and "\u2028" end a
# line for str.splitlines but not for a file opened with newline=""
_PLAIN = ["a", "b c", " ", "é", "€", "😀", "\x85", "\x1c", "\u2028", "\x0c"]
_ENDS = ["\n", "\r", "\r\n"]


@st.composite
def csv_texts(draw) -> str:
    """CSV text: LF, CR and CRLF line ends, blank lines, quoted cells that
    hold delimiters, quotes and line breaks, and non-ASCII characters.
    """
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        cells = []
        for _ in range(draw(st.integers(1, 4))):
            parts = draw(st.lists(st.sampled_from(_PLAIN), max_size=4))
            if draw(st.booleans()):  # quoted, so it may span lines
                extra = draw(st.lists(st.sampled_from([",", '""', *_ENDS]), max_size=3))
                parts = ['"', *draw(st.permutations(parts + extra)), '"']
            cells.append("".join(parts))
        lines.append(",".join(cells) + draw(st.sampled_from(_ENDS)))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(_ENDS)))  # a blank line
    text = "".join(lines)
    if text and draw(st.booleans()):  # some files end without a line break
        text = text.rstrip("\r\n")
    return text


def _oracle(path) -> list[tuple[int, list[str]]]:
    """csv.reader's first record, [] at line 0 if none, then the others
    that are not blank, each with its line_num.
    """
    with open_input(path) as fh:
        reader = csv.reader(fh)
        records = [(reader.line_num, row) for row in reader]
    return (records[:1] or [(0, [])]) + [(n, row) for n, row in records[1:] if row]


def _read_until_refused(path) -> tuple[list, str | None]:
    """The records that read_csv yields, and its refusal, if any."""
    records = []
    try:
        for record in read_csv(path):
            records.append(record)
    except BetscanError as exc:
        return records, str(exc)
    return records, None


@settings(max_examples=300, deadline=None)
@given(
    text=csv_texts(),
    check_chars=st.sampled_from([1, 7, 64, manifest._CHECK_CHARS]),
    data=st.data(),
)
def test_read_csv_matches_csv_reader(tmp_path_factory, text, check_chars, data):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _oracle(path)
    # small runs put run boundaries inside quoted records that span lines
    with mock.patch.object(manifest, "_CHECK_CHARS", check_chars):
        assert _read_until_refused(path) == (expected, None)

        # a Latin-1 byte between two characters, not inside a CR LF
        places = [
            k for k in range(len(text) + 1) if text[k - 1 : k + 1] != "\r\n"
        ]
        at = data.draw(st.sampled_from(places))
        byte = data.draw(st.sampled_from([b"\xe9", b"\xa0", b"\xc3", b"\xff"]))
        line = 1 + len(re.findall("\r\n|\r|\n", text[:at]))
        raw = text[:at].encode("utf-8") + byte + text[at:].encode("utf-8")
        path.write_bytes(raw)
        refusal = f"{path}: line {line}: byte {byte!r} is not UTF-8"
        before = [(n, row) for n, row in expected if 0 < n < line]
        assert _read_until_refused(path) == (before, refusal)


@pytest.mark.parametrize(
    "text, records",
    [
        ("", [(0, [])]),
        ("\r\n", [(1, [])]),
        ("\na,b\n\n \nc,d", [(1, []), (2, ["a", "b"]), (4, [" "]), (5, ["c", "d"])]),
    ],
)
def test_read_csv_yields_the_header_even_when_blank_and_skips_later_blanks(
    tmp_path, text, records
):
    path = tmp_path / "t.csv"
    path.write_text(text, newline="")
    assert list(read_csv(path)) == records


def test_read_csv_names_the_line_of_a_record_that_csv_reader_refuses(tmp_path):
    path = tmp_path / "t.csv"
    huge = "x" * (csv.field_size_limit() + 1)
    path.write_text(f'a,b\n"1\n2",3\n\nc,{huge}\n')
    records, refusal = _read_until_refused(path)
    assert records == [(1, ["a", "b"]), (3, ["1\n2", "3"])]
    assert refusal == f"{path}: line 5: field larger than field limit (131072)"

