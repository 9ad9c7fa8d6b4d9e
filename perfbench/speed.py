"""Host-speed sampling, so that a pass reports times at a fixed host speed.

The benchmark runs on shared virtual machines whose speed drifts: on the
2-vCPU machine it was written on, a fixed loop took anywhere from one to two
and a half times its fastest time, in stretches lasting from under a second
to minutes, and its CPU time grew with its wall time (so the host was not
idle-stealing the CPU, it ran the loop slower).  Medians over passes cannot
remove stretches longer than a run, so a pass measures the host's speed while
it works and scales its times by it.

``sample()`` times a fixed loop of about a millisecond shaped like the
package's hot paths: merging weighted atoms in a dict, sorting, building
small arrays from Python lists, 12 x 12 distance matrices and matrix-vector
products.  ``SAMPLE_REF_S`` is that loop's fastest time on the machine above;
``SAMPLE_REF_S / duration`` is the host's relative speed at that moment.  A
job's scaled time is the integral of the relative speed over its own time
(minus the time spent sampling): the work it did, in seconds at the
reference speed.  The constant sets only the scale: comparisons between
commits divide it out.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

SAMPLE_REF_S = 0.0011
PERIOD_S = 0.05  # while a job runs, one sample per 50 ms of wall time
BURST = 8  # samples taken between jobs

# The loop reuses these, so that it allocates nothing larger than 512 bytes:
# CPython and numpy serve such blocks from their own pools, and the loop
# leaves the C heap, and with it the package's peak memory, as it found it.
_ATOMS = tuple((i % 37, 1.0 / (i + 1)) for i in range(600))
_MERGED = dict.fromkeys(range(37), 0.0)
_KERNEL = np.full((12, 12), 1.0 / 12.0)
_DIFF = np.empty((12, 12, 3))
_DIST = np.empty((12, 12))


def sample() -> float:
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    merged = _MERGED
    for point in merged:
        merged[point] = 0.0
    for point, weight in _ATOMS:
        merged[point] = merged[point] + weight
    items = sorted(merged.items(), key=lambda kv: -kv[1])[:12]
    v = np.array([w for _, w in items])
    for _ in range(60):
        pts = np.array([[p, 0.5 * p, 1.0] for p, _ in items])
        np.subtract(pts[:, None], pts[None, :], out=_DIFF)
        np.multiply(_DIFF, _DIFF, out=_DIFF)
        np.sqrt(np.sum(_DIFF, axis=-1, out=_DIST), out=_DIST)
        v = _KERNEL @ v + 1e-3 * _DIST[0]
        v = v / v.sum()
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the host's speed between jobs and, from a SIGALRM timer, during them."""

    def __init__(self, during_jobs: bool):
        self.during_jobs = during_jobs
        self.count = 0  # samples taken
        self.handler_s = 0.0  # seconds spent sampling inside jobs
        self._points: list[tuple[float, float]] = []
        self._job_start = 0.0

    def _relative_speed(self) -> float:
        self.count += 1
        return SAMPLE_REF_S / sample()

    def burst(self) -> float:
        """Mean relative speed over ``BURST`` samples taken now."""
        return statistics.fmean(self._relative_speed() for _ in range(BURST))

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        at = start - self._job_start - self.handler_s
        self._points.append((at, self._relative_speed()))
        self.handler_s += time.perf_counter() - start

    def time_job(self, fn, speed_before: float):
        """Run ``fn()``; returns (outcome, raw seconds, scaled seconds, speed after).

        The outcome is ``(True, result)`` or ``(False, exception)``.  Raw
        seconds exclude the time spent sampling.  Scaled seconds integrate
        the relative speed over the job's time, by the trapezoid rule through
        ``speed_before`` at its start, the timer's samples (which a long call
        into compiled code delays and merges) and a burst at its end.
        """
        self.handler_s = 0.0
        self._points = [(0.0, speed_before)]
        if self.during_jobs:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._job_start = time.perf_counter()
        try:
            outcome = (True, fn())
        except Exception as exc:  # a failing job is counted, not fatal
            outcome = (False, exc)
        finally:
            raw_s = time.perf_counter() - self._job_start - self.handler_s
            if self.during_jobs:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, previous)
        speed_after = self.burst()
        points = self._points + [(raw_s, speed_after)]
        scaled_s = sum((t1 - t0) * (s0 + s1) / 2.0
                       for (t0, s0), (t1, s1) in zip(points, points[1:]))
        return outcome, raw_s, scaled_s, speed_after
