"""The reference kernel: fixed numpy and Python work, independent of ctalign,
whose time says how fast the CPU runs at the moment.

On a shared host the speed of one CPU moves by up to a third within seconds
(a fixed 70 ms numpy kernel measured 0.061-0.086 s as the median of
successive 5-s windows on a 2-CPU host), and CPU time moves with wall time,
so the run is not descheduled: the core itself runs slower while its
neighbours are busy.  Medians over a 30-s run do not average that out.  The
benchmark therefore times this kernel between every two calls and divides
each call's wall time by the reference time around it (bench.run_pass);
pass_ref sums those ratios.

The kernel has three parts (26, 14 and 7 ms on a 2-CPU x86-64 host)
because contention slows them by different amounts: an FFT with interpolation and a sort (cache-resident
arithmetic, like the fan estimators), a random gather over a 2 MB volume
(like trilinear detector sampling) and a pure-Python dict loop (like the
CLI's per-call overhead).  Its time is the geometric mean of the three.
"""

import math
import time

import numpy as np

GATHER_REPEATS = 3
PYTHON_ITERATIONS = 40_000


class Reference:
    """Inputs of the reference kernel, built once, with a warm-up sample."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.image = rng.random((256, 256))
        self.grid = np.arange(100_000.0)
        self.points = rng.random(100_000) * 90_000.0
        self.volume = rng.random(64**3)
        self.index = rng.integers(0, self.volume.size - 1, 200_000)
        self.weight = rng.random(200_000)
        self.sample()

    def _fft(self):
        np.fft.fft2(self.image)
        np.interp(self.points, self.grid, self.grid)
        np.sort(self.points)

    def _gather(self):
        v, i, w = self.volume, self.index, self.weight
        for _ in range(GATHER_REPEATS):
            (v[i] * w + v[i + 1] * (1.0 - w)).sum()

    def _python(self):
        counts = {}
        for i in range(PYTHON_ITERATIONS):
            counts[i % 97] = counts.get(i % 97, 0) + i

    def sample(self):
        """Seconds of one run of the kernel: the geometric mean of its parts."""
        logs = 0.0
        parts = (self._fft, self._gather, self._python)
        for part in parts:
            start = time.perf_counter()
            part()
            logs += math.log(time.perf_counter() - start)
        return math.exp(logs / len(parts))
