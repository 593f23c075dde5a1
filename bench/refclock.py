"""Reference clock: expresses measured times at one fixed machine speed.

On small shared machines the speed of pure-Python exact arithmetic drifts
by tens of percent within seconds as neighbouring load comes and goes,
which swamps differences between two versions of the program. A fixed
`Fraction` kernel, independent of `conedom`, runs between queries after
every EVERY_S of query time and measures the speed at which those queries
ran. Each latency is multiplied by NOMINAL_S over the median kernel time
of the samples around it: the result is the latency in "reference
seconds", the time on a machine that runs the kernel in NOMINAL_S.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# Median kernel time on the calibration machine (see pins.json).
NOMINAL_S = 0.00025
EVERY_S = 0.01
WINDOW = 4  # kernel samples on each side of a query


def kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i % 7 + 1, i % 5 + 1) * Fraction(3, i % 11 + 1)
    return acc


class RefClock:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.at: list[int] = []  # queries completed when each sample was taken
        self._queries = 0
        self._due = 0.0
        self.sample()

    def sample(self) -> None:
        t = time.perf_counter()
        if kernel() <= 0:
            raise RuntimeError("reference kernel lost its value")
        self.samples.append(time.perf_counter() - t)
        self.at.append(self._queries)

    def tick(self, latency: float) -> None:
        """Record one finished query; sample the kernel when one is due."""
        self._queries += 1
        self._due += latency
        if self._due >= EVERY_S:
            self._due = 0.0
            self.sample()

    def scale(self, latencies: list[float]) -> list[float]:
        """Latencies (in tick order) in reference seconds."""
        self.sample()
        local: dict[int, float] = {}
        out = []
        for i, lat in enumerate(latencies):
            j = bisect.bisect_right(self.at, i)
            if j not in local:
                window = self.samples[max(0, j - WINDOW) : j + WINDOW]
                local[j] = statistics.median(window)
            out.append(lat * NOMINAL_S / local[j])
        return out

    def speed(self) -> float:
        """Median kernel time over NOMINAL_S: above 1 means a slower machine."""
        return statistics.median(self.samples) / NOMINAL_S
