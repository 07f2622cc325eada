"""Host-speed calibration of the end-to-end timings.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
15-30 % over seconds to minutes, in CPU time as well as wall time, so raw
seconds measured minutes apart differ by more than any bound worth setting.
A fixed reference kernel, which never calls entnoise, is timed in the same
process next to the work it calibrates, and the work's seconds are scaled by
``NOMINAL_S / measured``. The result reads as seconds on a host where the
kernel takes ``NOMINAL_S``. A change to entnoise moves it as it moves raw
seconds, since the kernel does not change with the program.

The kernel is batched 4x4 linear algebra on a stack of 10k matrices: numpy
call overhead plus small LAPACK calls over a working set of about 1 MB, the
kind of work the Gaussian core does. Interleaved with ``certify`` and
``noise`` items, the ratio of item time to kernel time varied by 1-2 % over
runs whose raw item times varied by 14-18 %. No kernel tried (this one,
argparse/CSV work, complex 400x400 products) tracked the large BLAS products
of ``oracle``: a kernel timed between oracle items ran about twice as slowly
as one timed after set-up, and calibrated oracle rates spread more than raw
ones. So ``oracle`` is not calibrated (see ``Raw``).
"""

import statistics
import time

import numpy as np

# the kernel's seconds per call, about its time on the 2-vCPU OpenBLAS host
# the benchmark was tuned on, with one BLAS thread
NOMINAL_S = 16.0e-3


class Reference:
    """Times the reference kernel; ``scale(r)`` turns seconds into nominal seconds."""

    kind = "batched 4x4 products and eigvalsh, 10k stack"
    nominal = NOMINAL_S

    def __init__(self, shots=3, batch=10_000):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((batch, 4, 4))
        self.a = m @ m.transpose(0, 2, 1) + np.eye(4)
        self.s = rng.standard_normal((4, 4)) / 4
        self.shots = shots
        self.kernel()  # the first call pays for lazy set-up

    def kernel(self):
        np.linalg.eigvalsh(self.s @ self.a @ self.s.T + self.a)

    def measure(self, shots=None):
        """Median seconds of one kernel call over ``shots`` back-to-back calls."""
        times = []
        for _ in range(shots or self.shots):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def scale(self, measured):
        return self.nominal / measured


class Raw:
    """No calibration: seconds stay as measured and no kernel runs."""

    def measure(self, shots=None):
        return 1.0

    def scale(self, measured):
        return 1.0
