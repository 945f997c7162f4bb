"""Host-speed calibration for the wall-clock metrics.

On a shared host a small VM's CPU speed changes by up to 2x over minutes
(other tenants' load), and process CPU time moves with wall time, so it
does not remove the change. :func:`kernel` is a fixed pure-Python workload
shaped like the program's own work (objects, method calls, dict state over
a few MB, deque, bisect, heap); it never touches the program, so a change
to the program cannot change it. Timing it right before and right after a
repetition tells how fast the host ran during that repetition, and
:func:`reference_seconds` converts the repetition's wall time to the time
it would have taken on a host where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import random
import time
from collections import deque

# The kernel's typical time on a 2-vCPU VM with Python 3.11.7, where the
# benchmark was first run. It only sets the scale: comparisons between runs
# do not depend on its value.
REFERENCE_S = 0.100

_KEYS = [f"key-{i}" for i in range(20_000)]
_PARTS = 16


class _Record:
    def __init__(self, key, value, ts, headers):
        self.key = key
        self.value = value
        self.ts = ts
        self.headers = headers


class _Partition:
    def __init__(self):
        self.log = []
        self.state = {}

    def append(self, record) -> int:
        self.log.append(record)
        return len(self.log) - 1

    def read(self, start: int, n: int):
        return self.log[start:start + n]


def kernel(n: int = 30_000) -> float:
    """Wall seconds one fixed round of interpreter work takes now."""
    gc.collect()
    rng = random.Random(7)
    start = time.perf_counter()
    parts = [_Partition() for _ in range(_PARTS)]
    pending = deque()
    heap = []
    stamps = []
    for i in range(n):
        k = rng.randrange(len(_KEYS))
        key = _KEYS[k]
        part = parts[k % _PARTS]
        record = _Record(key, 1, i * 0.1, {"created_at": i * 0.1})
        offset = part.append(record)
        state = part.state
        state[key] = state.get(key, 0) + record.value
        pending.append((offset, part))
        if len(pending) > 64:
            offset, part = pending.popleft()
            for r in part.read(offset, 4):
                stamps.append(r.headers["created_at"])
        if i % 50 == 0:
            heapq.heappush(heap, (rng.random(), i))
            if len(heap) > 100:
                heapq.heappop(heap)
            if len(stamps) < 1000:
                bisect.insort(stamps, i * 0.05)
            else:
                stamps.clear()
    return time.perf_counter() - start


def reference_seconds(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` measured between two kernel timings, on the reference host."""
    return seconds * REFERENCE_S / (kernel_before * kernel_after) ** 0.5
