"""A fixed pure-Python reference load that measures how fast the machine
is running right now.

On a shared machine the speed of the whole host drifts, by up to half
between a quiet and a busy neighbour, over seconds to minutes. Wall time
and CPU time drift alike, so medians within one run cannot remove it. The
benchmark times this load about a dozen times during every pass, outside
the pass's timed window, and scales the time between two samples to the
nominal machine on which the load takes NOMINAL_SECONDS. The load never
calls prymcheck, so a change to the package moves the scaled times as it
moves the raw ones.

The load mimics the package's hot paths: small exact integer determinants
(fraction-free Bareiss), tuple and list building, and dict and set churn.
"""

from __future__ import annotations

import itertools
import statistics
from time import perf_counter

# Roughly the time of one `load()` in the quiet state of a 2-CPU x86_64
# container with Python 3.11.7; only the unit of the scaled times depends
# on it.
NOMINAL_SECONDS = 0.020
SAMPLES = 3

_ROWS = [[((i * 7 + j * 3) % 5) - 2 for j in range(6)] for i in range(13)]


def _det(m) -> int:
    n = len(m)
    a = [list(r) for r in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def load() -> int:
    """The reference load; returns a checksum so nothing is optimised away."""
    total = 0
    seen = {}
    for subset in itertools.combinations(range(len(_ROWS)), 6):
        total += abs(_det([_ROWS[i] for i in subset]))
        key = frozenset(subset[:3])
        seen[key] = seen.get(key, 0) + 1
    return total + len(seen)


def sample() -> float:
    """One timing of the reference load, in seconds."""
    t0 = perf_counter()
    load()
    return perf_counter() - t0


def scale_now() -> float:
    """Factor that turns times measured right now into times on the nominal
    machine: the median of SAMPLES timings."""
    return NOMINAL_SECONDS / statistics.median(sample() for _ in range(SAMPLES))


class PassClock:
    """Wall clock of one pass, cut into segments by a reference sample after
    every `every` graphs (None: only at the start and the end).  The time
    the samples take is not counted; each segment is scaled by the mean of
    the samples at its two ends."""

    def __init__(self, every: int | None):
        self.every = every

    def start(self) -> None:
        self.samples = [sample()]
        self.segments: list[float] = []
        self.count = 0
        self._t = perf_counter()

    def tick(self) -> None:
        """Call once after each graph."""
        self.count += 1
        if self.every and self.count % self.every == 0:
            self._cut()

    def _cut(self) -> None:
        self.segments.append(perf_counter() - self._t)
        self.samples.append(sample())
        self._t = perf_counter()

    def stop(self) -> None:
        self._cut()
        self.scales = [2 * NOMINAL_SECONDS / (a + b)
                       for a, b in zip(self.samples, self.samples[1:])]

    @property
    def seconds(self) -> float:
        return sum(self.segments)

    @property
    def scaled_seconds(self) -> float:
        return sum(t * k for t, k in zip(self.segments, self.scales))

    def scale_of(self, index: int) -> float:
        """Scale of the segment that holds the graph ticked at `index`."""
        segment = index // self.every if self.every else 0
        return self.scales[min(segment, len(self.scales) - 1)]
