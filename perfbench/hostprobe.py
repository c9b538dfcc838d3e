"""Host-speed reference, measured on the worker's own core while it runs.

On a shared host the speed of a core moves by up to 1.8x, in spells of a
few seconds to over a minute, with no steal time to show for it: the same
command takes 1.9 s in one minute and 3.5 s of CPU time in the next.  No
number of passes inside one run averages that away.  So the benchmark pins
the run to one core and runs ``HostProbe`` there beside the worker: a thread
that runs a fixed pure-Python loop over and over, resting ``REST_RATIO``
times as long as each call took (so it takes about a sixteenth of the core),
and records the thread CPU time each call took.  The loop is the benchmark's
own code, never changes with the program under test, and touches almost no
memory, so it measures the core rather than the caches the worker left
behind.

``HostProbe.slowness(start, end)`` is the loop's mean CPU time in that
window divided by ``REFERENCE_MS``: 1.0 on a host as fast as the reference,
about 1.6 in a slow spell.  A CPU time measured in the window, divided by
it, is the time the work would take at the reference speed.  The reference
time is about the loop's median on an idle core of a 2-vCPU Intel Xeon VM;
it fixes the scale of the figures and does not need to match the machine a
run is made on.
"""
from __future__ import annotations

import bisect
import statistics
import threading
import time

REST_RATIO = 15.0
# A window shorter than this is widened about its centre to this length.
MIN_WINDOW_S = 0.3
REFERENCE_MS = 1.0


def _loop() -> int:
    total = 0
    for k in range(10_500):
        total += k * k
    return total


class HostProbe:
    """Background thread sampling the speed of the core it shares."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.cpu_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-probe", daemon=True)

    def __enter__(self) -> "HostProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        cpu = 1e-3
        while not self._stop.wait(REST_RATIO * cpu):
            t0, cpu0 = time.monotonic(), time.thread_time()
            _loop()
            cpu = time.thread_time() - cpu0
            self.times.append(0.5 * (t0 + time.monotonic()))
            self.cpu_s.append(cpu)

    def slowness(self, start: float, end: float) -> float:
        """Host slowness over [start, end] of the monotonic clock."""
        if not self.times:
            raise RuntimeError("the host probe took no samples")
        half = max(0.0, 0.5 * (MIN_WINDOW_S - (end - start)))
        while True:
            lo = bisect.bisect_left(self.times, start - half)
            hi = bisect.bisect_right(self.times, end + half)
            if hi > lo:
                break
            half += 0.1
        return statistics.fmean(self.cpu_s[lo:hi]) * 1e3 / REFERENCE_MS

    def summary(self) -> dict:
        """The loop's median ms over the whole run and the sample count."""
        return {
            "samples": len(self.cpu_s),
            "median_ms": statistics.median(self.cpu_s) * 1e3 if self.cpu_s else None,
        }
