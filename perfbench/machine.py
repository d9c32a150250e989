"""Machine-speed probe: puts timings from a drifting machine on one scale.

On the shared 2-core VM the bounds were set on, the same code runs up to
50% slower for stretches of 4-30 s, whatever the process does: over 4 s
windows of one process, the dispatch_bound median ranged 0.73-1.29 ms.
No median within a run removes a drift that outlasts the run.

The probe is a fixed piece of work that does not touch the program: a
pure-Python loop and a few small numpy matmuls, the same mix the
executor's steps are made of. It is sampled throughout each timed window
and around each set-up. A timing ``t`` measured while the probe's median
was ``p`` is reported as ``t * PROBE_REFERENCE_S / p``: what it would
have read on the machine at its reference speed. Over the same runs,
the probe-scaled dispatch_bound median ranged +-6% where the raw one
ranged +-25%. The raw figures are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

# The probe's median on the reference machine (the 2-core VM above, in
# its fast state). Scaled timings are in seconds of that machine.
PROBE_REFERENCE_S = 0.25e-3

# Closed loops probe after a request once this long has passed.
PROBE_EVERY_S = 0.02

_MATRIX = np.random.default_rng(0).standard_normal((32, 32))


def probe() -> float:
    """Run the fixed probe once; returns its wall seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i
    x = _MATRIX
    for _ in range(10):
        x = np.tanh(x @ _MATRIX)
    return time.perf_counter() - start


class Speed:
    """Probe samples over one stretch of a run."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent_s = 0.0      # wall time the probes took
        self._last = 0.0

    def sample(self, count: int = 1) -> None:
        start = time.perf_counter()
        for _ in range(count):
            self.samples.append(probe())
        self._last = time.perf_counter()
        self.spent_s += self._last - start

    def maybe_sample(self) -> None:
        """Sample once if ``PROBE_EVERY_S`` passed since the last sample."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    @property
    def probe_s(self) -> float:
        return statistics.median(self.samples)

    @property
    def scale(self) -> float:
        """Multiply a timing by this to put it at the reference speed."""
        return PROBE_REFERENCE_S / self.probe_s
