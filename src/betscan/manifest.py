"""Run manifests: enough recorded state to reproduce a run byte for byte.

Every CLI command writes one next to its outputs, last, so a manifest
marks a run that completed.  The manifest captures the resolved
configuration (every flag after defaulting), the sha256 of each input
file, the seed, and tool versions; `betscan rerun` replays a manifest and
must reproduce the recorded outputs exactly (wall time is metadata and
exempt).  Every output goes through `atomic_open`, so none is left
partly written.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import BetscanError


def open_input(path) -> TextIO:
    """Open a text input; a missing or unreadable file is a BetscanError."""
    try:
        return open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise BetscanError(f"{path}: {exc.strerror or exc}") from None


@contextmanager
def atomic_open(path) -> Iterator[TextIO]:
    """Write a temporary file beside path, renamed over it once the block completes.

    A failed write leaves the earlier file, if any, in place.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
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


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def write_records(records: Iterable, cls, path) -> None:
    """Write dataclass records as CSV below cls's field names, atomically.

    Floats are written at 12 significant digits, booleans as true/false.
    """
    names = [f.name for f in fields(cls)]
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for record in records:
            writer.writerow([_cell(getattr(record, name)) for name in names])


@dataclass
class RunManifest:
    command: str
    config: dict
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    seed: int | None = None
    versions: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tool_versions() -> dict:
    import numpy
    import scipy

    from . import __version__

    return {
        "betscan": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def new_manifest(command: str, config: dict, input_paths, seed=None) -> RunManifest:
    return RunManifest(
        command=command,
        config=config,
        inputs={str(p): sha256_file(p) for p in input_paths},
        seed=seed,
        versions=tool_versions(),
    )


def read_manifest(path) -> RunManifest:
    with open_input(path) as fh:
        try:
            return RunManifest(**json.load(fh))
        except (ValueError, TypeError) as exc:
            raise BetscanError(f"{path}: not a run manifest: {exc}") from None
