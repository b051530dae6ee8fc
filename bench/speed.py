"""Machine-speed probe: a fixed kernel, timed again and again during a run.

The benchmark runs on a few cores of a shared host, whose speed moves by
tens of percent over tens of seconds as other tenants come and go.  Process
CPU time moves with it, so no clock inside the process is steady.  The probe
times a fixed kernel, which is the benchmark's own code and never the
program's, right before and after each op and every `period_s` during it (a
SIGALRM handler, so the samples come from the same thread and core as the
op).  An op's calibrated time is

    (op wall time - probe time inside it) * ref_s / mean kernel time

over the samples taken from just before the op to just after it: the op's
time on a machine on which the kernel takes `ref_s`.

The kernel must slow down as much as the op does when the host is busy, so
each workload names one that does the same kind of work as its dominant
step (workloads.py).  `MIXED` does the program's three kinds of work at
small sizes: a LAPACK Hermitian eigensolve, small NumPy calls from a Python
loop, and plain Python arithmetic.  `EIGH512` is one complex Hermitian
eigendecomposition with eigenvectors at the size of the reference scenario's
covariance.  Measured over 28 multiuser_ref ops, op times moved 0.47 to 0.81
times as much as those of MIXED and of smaller eigensolves, and 1.03 times as
much as those of EIGH512.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Kernel:
    name: str
    # Size of the complex Hermitian matrix eigendecomposed (with vectors).
    eigh_size: int
    # Small NumPy calls made from a Python loop.
    numpy_calls: int
    # Steps of plain Python integer arithmetic.
    python_steps: int
    # The kernel time that defines a calibrated second: about what the kernel
    # takes on the 2-vCPU Xeon host of the baseline when it is quiet, so that
    # calibrated times read close to wall times there.
    ref_s: float
    # Seconds between samples during an op.  A sample is due only between
    # two Python bytecodes, so a long native call delays it.
    period_s: float


MIXED = Kernel("mixed", eigh_size=48, numpy_calls=150, python_steps=3000, ref_s=2.0e-3,
               period_s=0.1)
EIGH512 = Kernel("eigh512", eigh_size=512, numpy_calls=0, python_steps=0, ref_s=0.17,
                 period_s=1.5)


class SpeedProbe:
    """Times one kernel; `samples` holds (start, seconds) pairs."""

    def __init__(self, kernel: Kernel) -> None:
        # Imported here, so that a caller can pin the BLAS threads first.
        import numpy as np

        self.kernel = kernel
        self._np = np
        rng = np.random.default_rng(20250)
        n = kernel.eigh_size
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        self._herm = a @ a.conj().T
        self._vec = rng.standard_normal(8)
        self.samples: list[tuple[float, float]] = []
        self._busy = False
        # End of the last boundary sample after an op, and its index.
        self._after = (float("-inf"), 0)
        for _ in range(3):  # first calls: page faults, LAPACK work buffers
            self._run_kernel()

    def _run_kernel(self) -> float:
        np = self._np
        np.linalg.eigh(self._herm)
        acc = 0.0
        for i in range(self.kernel.numpy_calls):
            acc += float(np.sum(np.log1p(self._vec * self._vec * i)))
        total = 0
        for i in range(self.kernel.python_steps):
            total += i * i % 7
        return acc + total

    def sample(self) -> None:
        if self._busy:  # a timer signal that arrived during a sample
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self._run_kernel()
            self.samples.append((t0, time.perf_counter() - t0))
        finally:
            self._busy = False

    def start(self) -> None:
        """Sample every period_s until stop()."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.kernel.period_s, self.kernel.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, call):
        """Run `call()` between two boundary samples.  Returns (its result,
        wall seconds without probe time, mean kernel seconds around it).

        The sample after one op is also the sample before the next, when the
        next starts within period_s of it.
        """
        end, index = self._after
        if time.perf_counter() - end > self.kernel.period_s:
            index = len(self.samples)
            self.sample()
        t0 = time.perf_counter()
        result = call()
        t1 = time.perf_counter()
        probe_s = sum(s for start, s in self.samples[index:] if t0 <= start < t1)
        after = len(self.samples)
        self.sample()
        self._after = (time.perf_counter(), after)
        kernel_s = statistics.fmean(s for _, s in self.samples[index:])
        return result, t1 - t0 - probe_s, kernel_s


def calibrated(seconds: float, kernel_s: float, kernel: Kernel) -> float:
    """Wall `seconds` measured while `kernel` took `kernel_s`, in seconds at
    the reference speed."""
    return seconds * kernel.ref_s / kernel_s
