"""A fixed pure-Python task that measures how fast the host runs right now.

On a shared host the same code can run 1.7 times slower from one second to
the next, and such phases last long enough to move whole runs.  The
benchmark runs this task between its timed sections and scales its
end-to-end times by NOMINAL_S / (median time of this task in the run).

The task mixes the kinds of work the screen does: integer arithmetic in a
tight loop, allocation and sorting of small objects, and XOR + popcount of
1096-bit integers.  It uses no betscan code, so a change to the program
cannot change it.  It adds about 5 MB to the benchmark process's peak
resident set, the same on every commit.
"""

from __future__ import annotations

import random
import time
from array import array

NOMINAL_S = 0.1  # roughly its median time on the 2-vCPU Intel Xeon host it was tuned on

_rng = random.Random(20260817)
_BIG = [_rng.getrandbits(1096) for _ in range(1000)]
_LEFT = array("H", (_rng.randrange(1000) for _ in range(60_000)))
_RIGHT = array("H", (_rng.randrange(1000) for _ in range(60_000)))


def reference_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc ^= (i * 2654435761).bit_count()
    for _ in range(6):
        items = [(i * 7919 % 10007, str(i)) for i in range(10_000)]
        items.sort()
    for i, j in zip(_LEFT, _RIGHT):
        acc += (_BIG[i] ^ _BIG[j]).bit_count()
    return time.perf_counter() - t0
