"""A fixed reference kernel that tracks how fast the host is right now.

On a shared host the speed of one core drifts by 20-40% over tens of
seconds, as neighbours come and go; a median over one run cannot average
that away.  The benchmark runs this kernel between its timed samples and
scales every sample by ``NOMINAL_S`` over the mean of the two kernel times
that bracket it, so the reported times read as if measured on a host where
the kernel takes ``NOMINAL_S``.  On a 2-vCPU shared VM this took the
spread between the medians of 25 s windows of ``tree-overlay`` from 32% to
4%.

The kernel is a small discrete-event loop in pure Python (a heap of
events, per-node dict state, payload list copies), the same kinds of work
the simulator does, so it slows down with the host the way the simulator
does.  It imports nothing from the simulator: no change to the program
can change its speed.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: Reference kernel time the scaled samples are expressed at.
NOMINAL_S = 0.25

_NODES = 256
_EVENTS = 60_000


class _Event:
    __slots__ = ("node", "kind", "payload")

    def __init__(self, node: int, kind: int, payload: list[int]) -> None:
        self.node = node
        self.kind = kind
        self.payload = payload


def kernel() -> int:
    """Process a fixed stream of events; returns the count (always ``_EVENTS``)."""
    rng = random.Random(7)
    state: list[dict] = [{} for _ in range(_NODES)]
    heap: list[tuple] = []
    seq = 0
    for i in range(2000):
        heapq.heappush(heap, (rng.random(), seq, _Event(rng.randrange(_NODES), i % 4, [i] * 8)))
        seq += 1
    done = 0
    while heap and done < _EVENTS:
        now, _, event = heapq.heappop(heap)
        done += 1
        node_state = state[event.node]
        key = (event.kind, event.payload[0] & 1023)
        node_state[key] = node_state.get(key, 0) + 1
        if len(heap) < 4000:
            for _ in range(2):
                child = _Event(rng.randrange(_NODES), (event.kind + 1) % 4, list(event.payload))
                heapq.heappush(heap, (now + rng.random(), seq, child))
                seq += 1
    return done


def kernel_seconds() -> float:
    gc.collect()
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


class HostSpeed:
    """Scales host seconds by the reference kernel runs around them.

    Call :meth:`scale` right after each timed sample (or block of samples);
    the kernel runs once per call, and once at construction.
    """

    def __init__(self) -> None:
        self.last = kernel_seconds()
        self.kernels = [self.last]

    def scale(self, samples: list[float]) -> list[float]:
        before, self.last = self.last, kernel_seconds()
        self.kernels.append(self.last)
        factor = NOMINAL_S / ((before + self.last) / 2)
        return [sample * factor for sample in samples]
