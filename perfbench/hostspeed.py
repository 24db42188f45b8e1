"""The host's speed while a round runs, from a fixed reference loop.

The benchmark runs on shared machines whose speed drifts: the same round
ran at 167 to 357 commits/s within seven minutes on a shared 2-vCPU Xeon
host (2.0 GHz), and process CPU time drifts with it, so neither wall nor
CPU time alone tells a slower program from a slower host.  :class:`HostProbe` times a fixed pure-Python
loop (heap, generators, dicts: no code of the program) every
:data:`INTERVAL` seconds of the timed phase, from a ``SIGALRM`` handler,
and at both ends of it.  The mean loop rate over :data:`REFERENCE_RATE` is
the host's speed; the runner divides wall-clock throughput by it.  The
probe's own time is taken out of the phase's wall and CPU time.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time
from typing import List, Tuple

#: seconds between samples inside the timed phase
INTERVAL = 0.5
#: loop iterations per sample (about 20 ms)
LOOP_STEPS = 12000
#: loop runs per second on the reference host, where the speed is 1.0
REFERENCE_RATE = 60.0


def reference_loop() -> int:
    """Fixed interpreter work shaped like an event loop; independent of
    the program under test."""
    rng = random.Random(7)
    heap: List[Tuple[float, int, int]] = []
    state = {}

    def process(key: int):
        total = 0
        while True:
            value = yield
            total += value
            state[key] = (total, [value, key])

    processes = [process(key) for key in range(64)]
    for body in processes:
        next(body)
    for step in range(LOOP_STEPS):
        heapq.heappush(heap, (rng.random(), step, step & 63))
        if len(heap) > 256:
            processes[heapq.heappop(heap)[2]].send(step)
    return len(state)


class HostProbe:
    """Samples the host's speed through one timed phase.

    Call :meth:`sample` just before the phase, :meth:`arm` as it starts,
    :meth:`disarm` as it ends, then :meth:`sample` again.  ``wall_s`` and
    ``cpu_s`` are what the samples taken while armed cost the phase.
    """

    def __init__(self):
        self.rates: List[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._previous = None

    def sample(self) -> Tuple[float, float]:
        """Run the loop once; returns its (wall, CPU) seconds."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        reference_loop()
        wall = time.perf_counter() - wall0
        self.rates.append(1.0 / wall)
        return wall, time.process_time() - cpu0

    def _tick(self, signum, frame) -> None:
        wall, cpu = self.sample()
        self.wall_s += wall
        self.cpu_s += cpu

    def arm(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def speed(self) -> float:
        """Mean sampled rate over :data:`REFERENCE_RATE`."""
        return statistics.fmean(self.rates) / REFERENCE_RATE
