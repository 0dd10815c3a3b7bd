"""In-memory spans recorded around the benchmark's calls into betscan.

A span has a name "<layer>.<call>", start and end (perf_counter seconds),
the index of its parent span, and a run id shared by the spans of one
set-up, one screen iteration or one probe pass.  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

LAYERS = (
    "preprocess",
    "copula",
    "expansion",
    "stats",
    "nulls",
    "bids",
    "maxbet",
    "screen",
    "manifest",
    "cli",
)


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id = ""

    @contextmanager
    def span(self, name: str, **counts):
        """Time the body; `counts` are stored with the span as work done."""
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            **counts,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def self_times(self, run_ids) -> dict[str, float]:
        """Self time per layer over the spans of the given runs.

        A span's self time is its duration minus the time its children
        cover; children of one parent run one after another, so their
        durations add up.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = {layer: 0.0 for layer in LAYERS}
        for s, covered in zip(self.spans, child_time):
            layer = s["name"].split(".", 1)[0]
            if layer in out and s["run_id"] in run_ids:
                out[layer] += s["end"] - s["start"] - covered
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh, indent=1)
            fh.write("\n")
