"""Host speed, measured with a fixed reference computation.

On a shared host the speed of the CPU drifts by a fifth or more over
tens of seconds, in CPU time as much as in wall time, so two runs of
the same code minutes apart differ by more than a change worth
measuring.  Each run therefore times a fixed reference computation
(pure-Python heap and dict work plus SHA-256, no program code) right
before and right after every timed phase, and scales the phase's wall
time by ``NOMINAL_S`` over the mean reference chunk time: the time the
phase would have taken on a host where one chunk takes ``NOMINAL_S``.
On the reference host, over 81 alternating population rounds, this cut
the coefficient of variation of four-round medians from 11 % raw to
2.4-3.9 % scaled.  ``bench/run.py`` prints the raw times next to the
scaled ones.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import statistics
import time

#: Reference chunk time that scaled times are expressed at: about the
#: chunk's median on a 2-CPU Xeon cloud host with Python 3.11.
NOMINAL_S = 0.009
#: Chunks per measurement, about 0.2 s; one chunk alone swings 6-10 ms.
CHUNKS = 25
#: A measurement this recent serves as the next phase's "before".
REUSE_S = 1.0


def _reference_chunk() -> None:
    queue: list = []
    counts: dict = {}
    for i in range(6000):
        heapq.heappush(queue, ((i * 7919) % 6000, i))
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
    while queue:
        heapq.heappop(queue)
    digest = b""
    for _ in range(1500):
        digest = hashlib.sha256(digest).digest()


class HostSpeed:
    def __init__(self):
        #: mean chunk time of every measurement, in order
        self.reference_s: list[float] = []
        self._last: tuple[float, float] | None = None

    def factor(self, reuse: bool = False) -> float:
        """The factor that scales wall time to nominal speed, measured
        now, or taken from a measurement less than ``REUSE_S`` old."""
        if reuse and self._last and time.perf_counter() - self._last[0] < REUSE_S:
            return self._last[1]
        # The collector stays off while the chunks run: a collection
        # inside them would scan the program's heap, and the reference
        # must measure the host alone.
        enabled = gc.isenabled()
        gc.disable()
        times = []
        try:
            for _ in range(CHUNKS):
                start = time.perf_counter()
                _reference_chunk()
                times.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        reference = statistics.mean(times)
        self.reference_s.append(reference)
        self._last = (time.perf_counter(), NOMINAL_S / reference)
        return self._last[1]


class Phase:
    """``with Phase(speed) as phase:`` times a block of work.

    ``phase.raw_s`` is its wall time, ``phase.factor`` the mean of the
    host-speed factors measured just before and just after it, and
    ``phase.scaled_s`` the product: the block's time at nominal speed.
    """

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.factor = 1.0
        self.raw_s = 0.0

    def __enter__(self) -> "Phase":
        self._before = self.speed.factor(reuse=True)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.raw_s = time.perf_counter() - self._start
        self.factor = (self._before + self.speed.factor()) / 2

    @property
    def scaled_s(self) -> float:
        return self.raw_s * self.factor
