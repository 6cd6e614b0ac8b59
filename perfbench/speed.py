"""Machine-speed sampling, to take the host's speed drift out of timings.

The benchmark shares its host: the same pass of a workload varies by about
±25% from one minute to the next, and a fixed loop of small numpy calls
varies the same way. So while a workload runs, a timer interrupts it every
half second and times a fixed calibration kernel (small-array numpy calls, the
same kind of work the package does). A timing is then reported at a fixed
reference speed: the interval's wall time, kernels excluded, with each
moment weighted by ``REFERENCE_S`` over the kernel time sampled nearest it.

The kernel runs in a signal handler on the main thread, between bytecodes
of the measured code, so it needs no hook in the package.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REFERENCE_S = 0.025      # kernel time that defines the reference speed
INTERVAL_S = 0.5         # seconds between kernel samples (5% of the time)
KERNEL_REPS = 500


def kernel() -> float:
    """Time one run of the calibration kernel."""
    t = time.perf_counter()
    acc = 0.0
    for i in range(KERNEL_REPS):
        xs = np.linspace(0.0, 1.0 + i * 1e-9, 5)
        gx, gy = np.meshgrid(xs, xs)
        pts = np.stack([gx, gy], axis=-1).reshape(-1, 2)
        h = np.hypot(pts[:, 0], pts[:, 1])
        acc += float(np.diff(h).max())
    return time.perf_counter() - t


class SpeedSampler:
    """Samples the kernel on a wall-clock timer while active.

    ``samples`` holds (midpoint, kernel seconds) in time order. Between
    samples the speed is taken as that of the nearest sample. ``on_sample``,
    when set, is told how long each sample took, so a tracer can keep that
    time out of the span it interrupted.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.on_sample = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        took = kernel()
        self.samples.append((t0 + 0.5 * took, took))
        if self.on_sample is not None:
            self.on_sample(time.perf_counter() - t0)

    def start(self) -> None:
        self.sample_now()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample_now()

    def sample_now(self) -> None:
        self._tick(None, None)

    def raw(self, start: float, end: float) -> float:
        """Wall time of [start, end] minus the kernels run inside it."""
        return end - start - sum(took for mid, took in self.samples if start <= mid <= end)

    def normalized(self, start: float, end: float) -> float:
        """Time [start, end] would take at the reference speed, kernels excluded.

        Integrates REFERENCE_S / kernel time over the interval, the kernel
        time being that of the nearest sample; each kernel run inside the
        interval integrates to exactly REFERENCE_S and is taken off.
        """
        mids, took = np.array(self.samples).T
        rate = REFERENCE_S / took
        cuts = 0.5 * (mids[1:] + mids[:-1])
        lo = np.maximum(start, np.concatenate([[-np.inf], cuts]))
        hi = np.minimum(end, np.concatenate([cuts, [np.inf]]))
        inside = np.count_nonzero((mids >= start) & (mids <= end))
        return float(np.sum(rate * np.clip(hi - lo, 0.0, None))) - REFERENCE_S * inside
