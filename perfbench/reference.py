"""A fixed reference computation that uses no metricgraph code.

The benchmark host (2 cores of a shared x86_64 machine) changes speed by
up to half within seconds, for CPU time as much as for wall time: the same
verify-ensemble pass took 8.0 s of CPU time in one minute and 15.2 s a few
minutes earlier. Timing this computation every half CPU-second while the
workload runs measures the speed it ran at, so that a pass's cost can be
given in multiples of it. The mix is the workload's: a heap-based Dijkstra
over dicts and lists in Python, and small numpy min-plus products.
"""

from __future__ import annotations

import heapq
import signal
import time

import numpy as np


class Reference:
    """Deterministic input built once; cpu_s() runs the computation."""

    def __init__(self, nodes: int = 200, degree: int = 3, matrix: int = 60) -> None:
        rng = np.random.default_rng(0)
        self.adj = [[] for _ in range(nodes)]
        for u in range(nodes):
            for v in rng.integers(0, nodes, degree):
                w = float(rng.random())
                self.adj[u].append((int(v), w))
                self.adj[int(v)].append((u, w))
        self.matrix = rng.random((matrix, matrix))

    def _dijkstra(self, source: int) -> float:
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self.adj[u]:
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return sum(dist.values())

    def run(self) -> float:
        total = sum(self._dijkstra(s) for s in range(0, len(self.adj), 3))
        M = self.matrix
        for _ in range(10):
            M = np.minimum(M, (M[:, :, None] + M[None, :, :]).min(axis=1))
        return total + float(M.sum())

    def cpu_s(self) -> float:
        """CPU seconds of one run()."""
        c0 = time.process_time()
        self.run()
        return time.process_time() - c0


class SpeedSampler:
    """While active, interrupts the program every ``interval_s`` of CPU time
    (SIGVTALRM) to time the reference, and charges the CPU time between two
    samples at the mean of their reference times. cost() is the CPU time
    charged so far in reference units; ref_cpu_s and ref_wall_s are the time
    the samples themselves took, which callers subtract from their own
    timings, and intervals holds each sample's (start, end) wall clock."""

    def __init__(self, reference: Reference, interval_s: float = 0.5) -> None:
        self.reference = reference
        self.interval_s = interval_s
        self.ref_cpu_s = 0.0
        self.ref_wall_s = 0.0
        self.intervals = []
        self._cost = 0.0
        self._busy = False

    def _sample(self) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        r = self.reference.cpu_s()
        self._cost += (c0 - self._last) / (0.5 * (self._r + r))
        self._r = r
        self._last = time.process_time()
        self.ref_cpu_s += self._last - c0
        t1 = time.perf_counter()
        self.ref_wall_s += t1 - t0
        self.intervals.append((t0, t1))

    def _handler(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            try:
                self._sample()
            finally:
                self._busy = False

    def cost(self) -> float:
        """Cost so far, the open slice charged at the latest sample."""
        return self._cost + (time.process_time() - self._last) / self._r

    def __enter__(self) -> "SpeedSampler":
        self._r = self.reference.cpu_s()
        self._last = time.process_time()
        self._previous = signal.signal(signal.SIGVTALRM, self._handler)
        signal.setitimer(signal.ITIMER_VIRTUAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        self._busy = True  # a signal still pending finds the handler busy
        self._sample()
        signal.signal(signal.SIGVTALRM, self._previous)
