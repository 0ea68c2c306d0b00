"""Reference kernel that tracks how fast the host is running right now.

On a shared host the same work can take 40% longer a minute later, and that
drift moves small-call Python code and BLAS alike. The benchmark times this
fixed kernel around every stage and reports stage times in reference
seconds: wall seconds times ``REFERENCE_S / kernel seconds``. The kernel
uses numpy only, never medrank, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the reference host (2-core x86_64 Xeon, OpenBLAS
# 0.3.31, one BLAS thread). It only scales the reported numbers.
REFERENCE_S = 0.009
PASSES = 5


class HostSpeed:
    """Times the kernel on demand; each sample is the median of a few passes."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._map = rng.standard_normal((8, 5, 5))
        self._kernel = rng.standard_normal((6, 8, 3, 3))
        # Small arrays, so the kernel adds little to the run's peak RSS.
        self._matrix = rng.standard_normal((256, 512))
        self._block = rng.standard_normal((512, 32))
        self._stream = rng.standard_normal(1 << 17)

    def _pass(self) -> float:
        started = time.perf_counter()
        for _ in range(100):  # many tiny calls, like the scaled-down encoder
            padded = np.pad(self._map, ((0, 0), (1, 1), (1, 1)))
            windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(1, 2))
            np.tensordot(self._kernel, windows, axes=([1, 2, 3], [0, 3, 4]))
        for _ in range(8):  # dense BLAS and a memory-bound sweep
            self._matrix @ self._block
            self._stream * 1.0001
        return time.perf_counter() - started

    def sample(self) -> float:
        return statistics.median(self._pass() for _ in range(PASSES))
