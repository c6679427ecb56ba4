"""How fast the host is right now, from a fixed piece of pure-Python work.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes, while other tenants come and go.  Every timed item is
therefore paired with the time of a *reference routine* measured just
before it in the same process: fixed integer, dict and list work of the
kind the program does, run with the garbage collector off so that its time
depends on the host and not on how much memory the program holds.  An
item's latency divided by the median reference time of its pass is its
cost in *reference units* (``ref``), which stays put when the host as a
whole slows down or speeds up.  The reference is benchmark code: no change
to the program moves it.
"""

from __future__ import annotations

import gc
import math
import random
import time

__all__ = ["HostGauge", "reference_seconds"]

_clock = time.perf_counter
_DATA = [random.Random(20151).getrandbits(48) for _ in range(1024)]
_ROUNDS = 5
_BURSTS = 3


def _burst() -> float:
    table = dict.fromkeys(range(256), 0)
    acc = 0
    start = _clock()
    for _ in range(_ROUNDS):
        for x in _DATA:
            key = x & 255
            table[key] = table[key] ^ (x >> 8)
            acc += x % 7
    return _clock() - start


def reference_seconds() -> float:
    """The fastest of a few bursts of the reference routine, in seconds.

    A burst that a preemption or another process hits only gets slower, so
    the fastest burst measures the host's current speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_burst() for _ in range(_BURSTS))
    finally:
        if enabled:
            gc.enable()


class HostGauge:
    """The reference time, measured again once ``interval`` seconds have passed."""

    def __init__(self, interval: float = 0.2) -> None:
        self.interval = interval
        self.measured_at = -math.inf
        self.seconds = 0.0

    def now(self) -> float:
        if _clock() - self.measured_at >= self.interval:
            self.seconds = reference_seconds()
            self.measured_at = _clock()
        return self.seconds
