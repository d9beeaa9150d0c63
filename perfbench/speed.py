"""Host-speed normalisation of the benchmark's times.

The benchmark host is shared.  Other tenants slow every instruction this
process runs by 1.5-2.4x, in spells that change within one operation, and
CPU time grows with wall time, so neither clock alone is steady from one
run to the next.  A probe times a fixed piece of reference work that does
not touch the library, and each measured interval is rescaled to the
reference speed:

    normalised = raw * REFERENCE_S / mean probe cost

with the mean taken over the probes within ``WINDOW_S`` of the interval,
always including the probe just before it and the one just after it.  A
change to the library moves the raw time and not the probe, so it shows in
full; a host slowdown moves both and cancels.

The probe samples in two ways, for two purposes:

* ``sample``, every ``INTERVAL_S`` from a timer signal, also inside the
  operations, normalises the times (wall, parts, set-up).  Sampled only
  between operations, the host's speed was followed so loosely that the K8
  verifier's normalised time spread 0.157 (quartiles over median) against
  0.036 sampled inside it (2-core Intel Xeon VM, Python 3.11).  So that
  the program's own load is not divided out, the sample runs with the
  garbage collector off and its cost is the thread's CPU time: time the
  probe waits for a core that the program's own threads or processes hold
  does not count.  What still reaches it is a slowdown of the core itself
  by the program's work on the other core (a busy process there slowed it
  by a median 6%, quartiles 0-23%, on that machine); ``cpu_s`` covers
  that case.
* ``idle``, only between operations while the program is idle, for
  ``SHARE`` of the time since its last call, so that over a run it weighs
  each stretch of time alike; ``idle_factor()`` normalises ``cpu_s`` over
  the whole run.  Nothing the program does can reach it, so a program that
  buys wall time with more CPU time shows it in ``cpu_s``.  The timer is
  paused meanwhile: a timed sample taken amid the idle sample's reference
  work would find its caches warm, and read faster than one taken amid an
  operation.
"""

from __future__ import annotations

import gc
import signal
import time
from array import array
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.05
WINDOW_S = 0.1
SHARE = 0.25
# one reference_work() on an uncontended core of the machine the benchmark
# was defined on (Intel Xeon, Python 3.11); it only sets the scale
REFERENCE_S = 0.00055


def _step(a: int, b: int) -> int:
    return a + b


def reference_work() -> int:
    """Integer, dict, set, list and call work typical of the library's
    pure-Python loops."""
    total = 0
    for j in range(4000):
        total += j
    counts: dict[int, int] = {}
    for j in range(2000):
        counts[j & 255] = counts.get(j & 255, 0) + j
    seen: set[int] = set()
    order: list[int] = []
    for j in range(1200):
        k = _step(j, 3) & 127
        if k in seen:
            seen.discard(k)
        else:
            seen.add(k)
        order.append(k)
    return total + len(counts) + len(order)


class Probe:
    """Samples of the host's speed.  ``stolen`` is the wall time spent in
    timed samples, so that callers can take it out of the intervals they
    time."""

    def __init__(self):
        self.times = array("d")
        self.costs = array("d")
        self.stolen = 0.0
        self.idle_repeats = 0
        self.idle_cpu = 0.0
        self.idle_last: float | None = None

    @staticmethod
    def _work(seconds: float) -> tuple[float, float, float, int]:
        """Run the reference work at least once and for at least
        ``seconds``: (wall start, wall end, thread CPU time, repeats)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0, c0 = time.perf_counter(), time.thread_time()
            repeats = 0
            while not repeats or time.perf_counter() - t0 < seconds:
                reference_work()
                repeats += 1
            c1, t1 = time.thread_time(), time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        return t0, t1, c1 - c0, repeats

    def sample(self, *_signal_args) -> None:
        t0, t1, cpu, _ = self._work(0.0)
        self.times.append(t1)
        self.costs.append(cpu)
        self.stolen += t1 - t0

    def idle(self) -> None:
        """Sample for SHARE of the time since the last call (the first
        call: of a second), with the timer paused; not at all if that is
        under INTERVAL_S ago."""
        now = time.perf_counter()
        since = 1.0 if self.idle_last is None else now - self.idle_last
        if since < INTERVAL_S:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        _, self.idle_last, cpu, repeats = self._work(SHARE * since)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.idle_cpu += cpu
        self.idle_repeats += repeats

    def idle_factor(self) -> float:
        """REFERENCE_S over the mean cost of all the idle samples' work."""
        return REFERENCE_S * self.idle_repeats / self.idle_cpu

    def __enter__(self) -> "Probe":
        """Sample every INTERVAL_S from a timer signal until the block ends."""
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean probe cost near [start, end]."""
        i = bisect_left(self.times, start - WINDOW_S)
        j = bisect_right(self.times, end + WINDOW_S)
        i = min(i, max(bisect_right(self.times, start) - 1, 0))
        j = max(j, min(bisect_left(self.times, end) + 1, len(self.times)))
        costs = self.costs[i:j]
        return REFERENCE_S * len(costs) / sum(costs)
