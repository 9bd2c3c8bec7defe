"""A probe of the host's momentary speed, so that times share one scale.

The benchmark runs on shared hosts whose speed drifts by a quarter within
seconds and by up to 2x over minutes.  A process's CPU time drifts with its
wall time, so the drift is the host's, not the scheduler's, and no choice of
repetitions inside one run removes it.  `SpeedProbe` measures it instead: it
times a fixed pure-Python loop (the probe) in CPU time of the thread that
runs it, once before the measured code, every INTERVAL_S while it runs (from
a thread, which takes the GIL in turns with the measured code) and once
after it.  `adjusted` divides the measured time by the mean probe time over
NOMINAL_S: the result is in reference seconds, seconds at the host speed at
which the probe takes exactly NOMINAL_S.  The shared 2-vCPU Xeon the
benchmark was written on runs the probe in about NOMINAL_S, so reference
seconds are close to its wall-clock seconds.

The probe pauses the measured code for about PROBE_LOOPS iterations every
INTERVAL_S (2% of its time); `adjusted` subtracts those pauses.  Pin the
process to one CPU first (`pin_to_one_cpu`), so that the probe measures the
CPU the measured code runs on.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PROBE_LOOPS = 3000
NOMINAL_S = 1e-3
INTERVAL_S = 0.05
_TABLE = [(7 * i + 3) % 729 for i in range(729)]


def probe_once() -> float:
    """CPU seconds of this thread for one fixed loop of lookups, dict and int work."""
    start = time.thread_time()
    acc = 1
    counts = [0, 0, 0]
    seen: dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        v = _TABLE[(5 * i + acc) % 729]
        counts[v % 3] += 1
        seen[v] = seen.get(v, 0) + 1
        acc = (31 * acc + v) & 0xFFFF
    return time.thread_time() - start


def pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def adjusted(elapsed_s: float, paused_s: float, samples: list[float]) -> float:
    """Reference seconds of `elapsed_s`, less the probe's pauses, at the probed speed."""
    return (elapsed_s - paused_s) * NOMINAL_S / statistics.fmean(samples)


class SpeedProbe:
    """Context manager: probes the speed before, during and after its body."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.paused_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            start = time.perf_counter()
            self.samples.append(probe_once())
            self.paused_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        probe_once()  # warms the interpreter's specialisation of the loop
        self.samples.append(probe_once())
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append(probe_once())

    @property
    def slowness(self) -> float:
        """Mean probe time over NOMINAL_S: 1.0 at reference speed, 2.0 at half of it."""
        return statistics.fmean(self.samples) / NOMINAL_S

    def adjusted(self, elapsed_s: float) -> float:
        return adjusted(elapsed_s, self.paused_s, self.samples)
