"""Run manifests: enough recorded state to reproduce a run byte for byte.

Every CLI command writes one next to its outputs, last, so a manifest
marks a run that completed.  The manifest captures the resolved
configuration (every flag after defaulting), the sha256 that each input
file had before the run, the seed, and tool versions; `betscan rerun`
replays a manifest and must reproduce the recorded outputs exactly (wall
time is metadata and exempt).  Every output goes through `atomic_open`,
so none is left partly written, and every table cell through `cell`.
Every CSV input (labels, a screen's results, a baselines pairs file) is
read through `read_csv`, which names the line of each record it refuses,
a byte that is not UTF-8 included.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path
from typing import IO, Iterable, Iterator, TextIO

import numpy as np

from .errors import BetscanError


def open_input(path, errors: str = "strict") -> TextIO:
    """Open a text input; a missing or unreadable file is a BetscanError."""
    try:
        return open(path, "r", encoding="utf-8", errors=errors, newline="")
    except OSError as exc:
        raise BetscanError(f"{path}: {exc.strerror or exc}") from None


def refused_record(path, line: int, reason) -> BetscanError:
    """The refusal of an input's record at a line: "<path>: line <line>: <reason>"."""
    return BetscanError(f"{path}: line {line}: {reason}")


# the characters of a run of lines that read_csv checks at once
_CHECK_CHARS = 1 << 16


def _not_utf8(byte: bytes) -> str:
    """Why an input is refused for a byte that is not UTF-8."""
    return f"byte {byte!r} is not UTF-8"


def _escaped_byte(exc: UnicodeEncodeError) -> bytes:
    """The byte that errors="surrogateescape" decoded to the character that
    exc could not encode."""
    return exc.object[exc.start].encode(errors="surrogateescape")


def read_csv(path) -> Iterator[tuple[int, list[str]]]:
    """Each record of a CSV input, with its last line as csv.reader counts.

    The header comes even when blank ([] for an empty input); later blank
    records are skipped.  A line that holds a byte that is not UTF-8, or a
    record that csv.reader refuses, raises refused_record naming that line.
    """
    with open_input(path, errors="surrogateescape") as fh:
        # a run of lines that is all ASCII costs one isascii call; in another,
        # str.encode, true for every line, refuses the escape of a bad byte
        runs = iter(lambda: fh.readlines(_CHECK_CHARS), [])
        lines = (r if "".join(r).isascii() else filter(str.encode, r) for r in runs)
        reader = csv.reader(itertools.chain.from_iterable(lines))
        try:
            for row in itertools.chain([next(reader, [])], filter(None, reader)):
                yield reader.line_num, row
        except csv.Error as exc:
            raise refused_record(path, reader.line_num, exc) from None
        except UnicodeEncodeError as exc:  # in the line after those read
            byte = _escaped_byte(exc)
            raise refused_record(path, reader.line_num + 1, _not_utf8(byte)) from None


@contextmanager
def atomic_open(path, binary: bool = False) -> Iterator[IO]:
    """Write a temporary file beside path, renamed over it once the block completes.

    The file takes UTF-8 text, or bytes when binary.  A failed write leaves
    the earlier file, if any, in place.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = {} if binary else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, "wb" if binary else "w", **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(payload, path) -> None:
    """Write payload as indented JSON with sorted keys, atomically."""
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cell(value) -> str:
    """A table cell: a float to 12 significant digits, a bool true/false, None empty."""
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return "" if value is None else str(value)


def csv_line(cells: Iterable[str]) -> str:
    """The cells as a line of csv.writer, which quotes as the reader needs."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def write_csv(path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write header, then each row's values as cells, as CSV lines, atomically."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(cell, row) for row in rows)


def write_records(records: Iterable, cls, path) -> None:
    """Write dataclass records as CSV below cls's field names, atomically."""
    write_csv(path, [f.name for f in fields(cls)], map(astuple, records))


@dataclass
class RunManifest:
    command: str
    config: dict
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    seed: int | None = None
    versions: dict = field(default_factory=dict)
    wall_time_s: float = 0.0


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _blas_version() -> str:
    """Name and version of the BLAS that numpy was built with, else "unknown".

    The screen's matrix products run there.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def tool_versions() -> dict:
    import scipy

    from . import __version__

    return {
        "betscan": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(),
    }


def write_manifest(out_dir, command, config: dict, inputs, outputs, started) -> None:
    """Write out_dir's manifest.json, last, as it marks the run complete.

    inputs maps each input path to the sha256 that cli.main took before the
    run.  The wall time runs from started, a time.perf_counter() reading.
    """
    manifest = RunManifest(command, config, inputs, sorted(outputs), config.get("seed"))
    manifest.versions = tool_versions()
    manifest.wall_time_s = time.perf_counter() - started
    write_json(asdict(manifest), Path(out_dir) / "manifest.json")


def read_manifest(path, commands) -> RunManifest:
    """The manifest at path, refused unless a replay of one of commands can use it."""
    with open_input(path) as fh:
        try:
            manifest = RunManifest(**json.load(fh))
            command = manifest.command
            if not (isinstance(command, str) and command in commands):
                raise ValueError(f"unknown command {command!r}")
            if not isinstance(manifest.config, dict):
                raise ValueError("config is not an object")
            # JSON object keys are always strings
            if not isinstance(manifest.inputs, dict) or not all(
                isinstance(v, str) for v in manifest.inputs.values()
            ):
                raise ValueError("inputs is not an object of path to digest strings")
            if not isinstance(manifest.outputs, list) or not all(
                isinstance(v, str) for v in manifest.outputs
            ):
                raise ValueError("outputs is not a list of strings")
        except (ValueError, TypeError) as exc:
            raise BetscanError(f"{path}: not a run manifest: {exc}") from None
    return manifest
