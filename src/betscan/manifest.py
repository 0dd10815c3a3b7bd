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

import hashlib
import json
import os
import platform
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, TextIO


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
        return {
            "command": self.command,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "seed": self.seed,
            "versions": self.versions,
            "wall_time_s": self.wall_time_s,
        }


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
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return RunManifest(
        command=payload["command"],
        config=payload["config"],
        inputs=payload.get("inputs", {}),
        outputs=payload.get("outputs", []),
        seed=payload.get("seed"),
        versions=payload.get("versions", {}),
        wall_time_s=payload.get("wall_time_s", 0.0),
    )
