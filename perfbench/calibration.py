"""A fixed piece of work whose time tracks the speed of the machine.

The benchmark runs on a few cores of a shared host. Other tenants' load
changes the speed of every process by a quarter or more, in phases that
last minutes, so two runs of the same code a few minutes apart can differ
by more than any change worth measuring. The benchmark times this kernel
next to each round of operations, and scales every time it reports to the
speed at which the kernel takes REFERENCE_MS. A change to pointgen moves
the scaled times as it moves the wall times; the kernel does not depend on
pointgen, so it cannot hide such a change.
"""

from __future__ import annotations

import math
import mmap
import statistics
import time

import numpy as np

REFERENCE_MS = 20.0  # about the kernel's time on the machine of README.md


class Calibration:
    """Times the kernel; keeps every measurement of the run."""

    def __init__(self, reps: int = 7):
        rng = np.random.default_rng(0)  # the same inputs in every run
        self.x = rng.standard_normal((2048, 128))
        self.weights = rng.standard_normal((128, 128)) * 0.08
        self.reps = reps
        self.samples_ms: list[float] = []
        self._measured_at = -math.inf
        self._kernel()  # loads the BLAS kernels before the first measurement

    def _kernel(self) -> None:
        """Four layers of a small MLP's forward pass, each into freshly mapped memory.

        BLAS, elementwise passes and first-touch page faults, as in the
        workloads. The memory comes from mmap, not malloc: malloc's reuse of
        freed memory depends on the sizes pointgen has allocated before, and
        would make the kernel's time depend on pointgen.
        """
        x = self.x
        maps = []
        for _ in range(4):
            maps.append(mmap.mmap(-1, self.x.nbytes))
            y = np.frombuffer(maps[-1], dtype=self.x.dtype).reshape(self.x.shape)
            np.matmul(x, self.weights, out=y)
            np.maximum(y, 0.0, out=y)
            y += 0.01
            x = y
        del x, y  # the views must go before their mappings are closed
        for mapped in maps:
            mapped.close()

    def measure(self) -> float:
        """The median milliseconds of `reps` runs of the kernel."""
        times = []
        for _ in range(self.reps):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        ms = 1e3 * statistics.median(times)
        self.samples_ms.append(ms)
        self._measured_at = time.perf_counter()
        return ms

    def latest(self, max_age: float) -> float:
        """The last measurement if it is at most `max_age` seconds old, else a new one."""
        if time.perf_counter() - self._measured_at <= max_age:
            return self.samples_ms[-1]
        return self.measure()

    @staticmethod
    def scale(before_ms: float, after_ms: float) -> float:
        """The factor that takes a time measured between two measurements to reference speed."""
        return REFERENCE_MS / (0.5 * (before_ms + after_ms))
