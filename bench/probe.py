"""A reference kernel that measures how fast the machine runs during a run.

On a shared VM the CPU runs the same code up to about 1.8 times slower
while neighbours are busy, and how busy they are drifts over minutes.  A
wall-clock figure then moves by 20-40% between runs of the same code.

``SpeedProbe`` is the benchmark's own fixed code; it never calls countcp.
After every timed block of a run (each set-up and each operation) it runs
whole chunks of its kernel for 15% of the block's wall time, so that
it samples the machine in the same stretches of time as the work.  The
run's speed factor is ::

    speed = REFERENCE_CHUNK_S / (mean chunk time over the whole run)

and every end-to-end time is reported as ``wall * speed``: the time at the
speed at which one chunk takes ``REFERENCE_CHUNK_S``.  A change that makes
countcp faster lowers the scaled time by the same share as the wall time;
only the machine's speed is divided out.

One chunk mixes the two kinds of work countcp does: a row gather from a
12.8 MB matrix with a weighted ``bincount`` scatter (the sweeps), and a
Python parse-and-count loop over text lines (ingest).  Four kernels were
timed beside the workloads' rounds: these two, a small matmul and
``exp(digamma(x))``.  Over 30-second windows from two stretches of about
two minutes each, twenty minutes apart, the log of the median round time
rose with the log of this chunk's mean time at a slope of 0.96 on ``fit``,
0.95 on ``eval`` and 1.06 on ``io``, where 1 is an exact match.  With the
matmul and ``digamma`` added, ``io`` rose at 1.18, and neither of those
alone tracked any workload as closely.  Scaling by this chunk cut the
spread of the window medians from 0.50 to 0.05 (``fit``), 0.10 to 0.04
(``eval``) and 0.39 to 0.04 (``io``).
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_CHUNK_S = 0.010
# probe time after each timed block, as a share of the block's wall time
PROBE_SHARE = 0.15
MIN_CHUNKS = 2


class SpeedProbe:
    ROWS, COLUMNS, GATHERED = 100_000, 16, 50_000

    def __init__(self):
        rng = np.random.default_rng(20150611)  # fixed: the probe never depends on --seed
        self.matrix = rng.random((self.ROWS, self.COLUMNS))
        self.index = rng.integers(0, self.ROWS, size=self.GATHERED)
        self.weights = rng.random(self.GATHERED)
        self.lines = [
            f"a{i % 97},b{i % 89},t{i % 13},2001-01-{1 + i % 28:02d}" for i in range(7500)
        ]
        self.seconds, self.chunks = 0.0, 0

    def chunk(self) -> None:
        gathered = self.matrix[self.index].sum(axis=1)
        np.bincount(self.index, weights=gathered * self.weights, minlength=self.ROWS)
        counts = {}
        for line in self.lines:
            sender, receiver, action, stamp = line.split(",")
            key = (sender, receiver, action, int(stamp[8:10]))
            counts[key] = counts.get(key, 0) + 1

    def after(self, wall: float) -> None:
        """Run whole chunks for ``PROBE_SHARE * wall`` and at least ``MIN_CHUNKS``."""
        start, chunks = time.perf_counter(), 0
        while True:
            self.chunk()
            chunks += 1
            elapsed = time.perf_counter() - start
            if chunks >= MIN_CHUNKS and elapsed >= PROBE_SHARE * wall:
                break
        self.seconds += elapsed
        self.chunks += chunks

    def speed(self) -> float:
        """Reference chunk time over the mean chunk time so far."""
        return REFERENCE_CHUNK_S * self.chunks / self.seconds
