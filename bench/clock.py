"""Wall time corrected for the host's drifting speed.

On the shared 2-core machine the benchmark was built on, the process's
own core runs up to 1.7x slower at times, switching within a fraction of
a second and sometimes staying slow for tens of seconds.  A probe on the
other core does not see it, so the correction samples the same core
during the timed interval: a timer signal every ``INTERVAL_S`` runs a
fixed kernel and times it.  The interval's ``nominal`` duration is its
wall time scaled by the kernel's nominal time over its mean sampled
time, i.e. the time the interval would have taken had the core run at
the speed where the kernel takes its nominal time (about its fast-spell
median on the reference machine: 2-core KVM Intel Xeon, Python 3.11).

Interpreter-bound code and code streaming megabyte arrays through numpy
slow by different factors, so there are two kernels, one of each kind;
a workload is timed with the kernel that resembles its own work.  The
samples cost 1.5% (``interpreter``) or 3% (``stream``) of the interval
and are part of its wall time.  Only the main thread is sampled; Python
retries system calls the signal interrupts.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
MIN_SAMPLES = 3


def _interpreter() -> None:
    acc = 0.0
    table = {}
    for i in range(2000):
        acc += (i * 0.5) % 7.0
        table[i & 255] = acc


def _stream() -> None:
    # numpy is imported here, not at module level, so that timing
    # ``import stepdown`` with the interpreter kernel includes numpy.
    import numpy as np

    grid = np.linspace(-8.0, 8.0, 512)
    diff = grid[:256, None] - grid[None, :]
    np.exp(-0.5 * diff * diff) @ grid


# kernel name -> (kernel, nominal seconds per call)
KERNELS = {"interpreter": (_interpreter, 2.5e-4), "stream": (_stream, 6e-4)}


class SpeedClock:
    """Context manager timing its body in wall and nominal seconds."""

    def __init__(self, kernel: str = "interpreter") -> None:
        self._kernel, self._kernel_nominal = KERNELS[kernel]
        self.samples: list[float] = []
        self.wall = 0.0
        self.nominal = 0.0

    def _sample(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def __enter__(self) -> "SpeedClock":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        # Too short an interval for the timer: sample right after it.
        while len(self.samples) < MIN_SAMPLES:
            self._sample()
        speed = self._kernel_nominal * len(self.samples) / sum(self.samples)
        self.nominal = self.wall * speed
