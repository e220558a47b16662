"""A fixed yardstick kernel that measures how fast the box runs right now.

On a shared host the same code runs 10-30 % slower for tens of seconds at a
time while neighbours load the cores (CPU time slows with wall time, so it
is contention, not descheduling). The benchmark runs a short slice of this
kernel between cells and around each set-up, and scales every time it
reports by REFERENCE_S / (the slices' time around it): times read as on the
box at the speed it had when REFERENCE_S was measured, and a slow phase of
the host no longer reads as a slow program.

The kernel imports nothing from netprox, so no change to the package moves
it. It mixes what a netprox round does per node: small matrix-vector
products on a 2 x 200 block, vector updates and a soft-threshold on 200
entries, a dot product, and Python list plumbing over 50 nodes.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NODES, ROWS, DIM = 50, 2, 200
REPS = 170  # one slice takes about 0.1 s on the box REFERENCE_S was measured on
WARM_REPS = 20  # untimed, so what a cell left in the caches does not count
# a typical slice time on a 2-core shared x86-64 box (python 3.11, numpy
# 2.4, OpenBLAS 0.3.31 pinned to one thread), where the median over a run
# moved between 0.07 and 0.11 s with the neighbours' load
REFERENCE_S = 0.085

_rng = np.random.default_rng(20151226)
_A = [_rng.standard_normal((ROWS, DIM)) for _ in range(NODES)]
_b = [_rng.standard_normal(ROWS) for _ in range(NODES)]


def _kernel(reps: int) -> float:
    xs = [np.zeros(DIM) for _ in range(NODES)]
    acc = 0.0
    for _ in range(reps):
        for i in range(NODES):
            A = _A[i]
            g = A.T @ (A @ xs[i] - _b[i])
            z = xs[i] - 0.01 * g
            xs[i] = np.sign(z) * np.maximum(np.abs(z) - 1e-3, 0.0)
            acc += float(z @ z)
    return acc


class SpeedMeter:
    """Slices of the yardstick taken during a run, and the scale they give."""

    NEAREST = 2  # a window holds at least this many slices on each side

    def __init__(self):
        self.slices: list[float] = []  # slice durations
        self.times: list[float] = []  # perf_counter() when each slice ended

    def sample(self) -> None:
        _kernel(WARM_REPS)
        t = perf_counter()
        _kernel(REPS)
        self.times.append(perf_counter())
        self.slices.append(self.times[-1] - t)

    def scale(self, start: float, end: float) -> float:
        """The factor that turns the wall time from `start` to `end` into
        reference seconds: REFERENCE_S over the mean of the slices taken
        within one interval length of it, and at least the NEAREST slices on
        each side. A long interval thus takes the speed of a long stretch
        of the run around it, not just of its two ends."""
        span = end - start
        before = [i for i, t in enumerate(self.times) if t <= start]
        after = [i for i, t in enumerate(self.times) if t > end]
        near = {i for i in before + after if start - span <= self.times[i] <= end + span}
        window = near.union(before[-self.NEAREST:], after[:self.NEAREST])
        return REFERENCE_S / (sum(self.slices[i] for i in window) / len(window))

    def run_scale(self) -> float:
        """The scale over every slice of the run."""
        return REFERENCE_S / (sum(self.slices) / len(self.slices))
