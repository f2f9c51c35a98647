"""How fast the machine runs right now, from a fixed reference kernel.

On a shared host the speed of one core drifts, by 15 to 30% over seconds
to minutes on the reference machine, and a pure-Python loop that shares no
code with the library drifts with it.  The benchmark times such a loop
(the kernel) between the items it measures and reports every time scaled
to a machine on which one kernel takes ``REF_MS``:

    reported = measured * REF_MS / mean(kernel times around it)

A change to the library cannot move the kernel: the kernel calls none of
it, runs outside every timed item, and runs with the garbage collector off
so that the size of the library's heap does not reach it.
"""

from __future__ import annotations

import gc
import os
import random
import select
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Iterator

REF_MS = 1.0  # the reported times are those of a machine where a kernel takes 1 ms
TICK_S = 0.05  # least time between two kernel timings among the items
BESIDE_S = 0.1  # time between two kernel timings beside a process pool


_GRAPH_RNG = random.Random(7)
_N = 12
_ADJ: list[list[int]] = [[] for _ in range(_N)]
for _u in range(_N):
    for _v in range(_u + 1, _N):
        if _GRAPH_RNG.random() < 0.5:
            _ADJ[_u].append(_v)
            _ADJ[_v].append(_u)
_CHIPS = [[_GRAPH_RNG.randrange(3) for _ in range(_N)] for _ in range(40)]


def kernel() -> int:
    """Interpreter-bound work of the library's kind: burning tests (lists,
    a bytearray, a stack) on a fixed 12-vertex graph, keyed into a dict."""
    seen: dict[tuple[int, ...], int] = {}
    for _ in range(3):
        for chips in _CHIPS:
            burnt_nbrs = [0] * _N
            burnt = bytearray(_N)
            burnt[0] = 1
            stack = [0]
            while stack:
                u = stack.pop()
                for w in _ADJ[u]:
                    if not burnt[w]:
                        burnt_nbrs[w] += 1
                        if burnt_nbrs[w] > chips[w]:
                            burnt[w] = 1
                            stack.append(w)
            key = tuple(v for v in range(_N) if not burnt[v])
            seen[key] = seen.get(key, 0) + 1
    return len(seen)


def time_kernel(clock=time.perf_counter) -> float:
    """Milliseconds for one kernel, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        kernel()
        return (clock() - t0) * 1000.0
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Kernel timings taken between items, at most one per ``TICK_S``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        if time.perf_counter() - self._last >= TICK_S:
            self.sample()

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(time_kernel())
        self._last = time.perf_counter()

    @contextmanager
    def beside(self) -> Iterator[None]:
        """Sample from a child process while the caller runs a process pool.

        A process, not a thread: the pool forks its workers, and a fork in
        the middle of a kernel would hand them the kernel's disabled garbage
        collector.  The workers hold the cores, so the child times the
        kernel with its CPU clock: time spent waiting for a core is not the
        core's speed.
        """
        child = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            yield
        finally:
            try:
                out, _ = child.communicate(timeout=30)  # closes its stdin, so it stops
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
                raise
        self.samples.extend(float(line) for line in out.split())

    def scale(self) -> float:
        """Factor that turns a time measured here into reference time.  The
        mean, not the median: a slow moment slows the items beside it too."""
        return REF_MS / statistics.fmean(self.samples)


def _sample_until_stdin_closes() -> None:
    """The child of ``Speedometer.beside``: a kernel timing every
    ``BESIDE_S`` on standard output until standard input closes."""
    while True:
        print(f"{time_kernel(time.process_time):.6f}", flush=True)
        readable, _, _ = select.select([sys.stdin], [], [], BESIDE_S)
        if readable:
            return


if __name__ == "__main__":
    _sample_until_stdin_closes()
