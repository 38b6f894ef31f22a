"""Machine-speed reference for normalizing host times on a shared host.

Other tenants of a shared machine slow every process on it by a factor
that drifts over minutes.  A fixed pure-Python loop, timed just before each
simulated run, samples that factor; dividing a pass's host time by the mean
reference time of the same pass and multiplying by `NOMINAL_S` reports the
pass at one fixed machine speed.  The loop mixes what the simulator does
most: float geometry, tuple heap pushes, dict updates, frozen-dataclass
attribute reads and f-string formatting.  It touches no simulator code.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

# The loop's typical time on the machine the reference figures come from.
NOMINAL_S = 0.05
# One extra reference sample per this much host time of the run it follows.
SAMPLE_EVERY_S = 0.5


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


_POINTS = [_Point((i * 37) % 1000 / 7.0, (i * 91) % 1000 / 3.0) for i in range(400)]


def reference_loop(n: int = 12000) -> float:
    """Host seconds of one fixed unit of interpreter work."""
    start = time.perf_counter()
    heap: list = []
    table: dict = {}
    below = 0
    for i in range(n):
        a = _POINTS[i % 400]
        b = _POINTS[(i * 7) % 400]
        dist = math.hypot(a.x - b.x, a.y - b.y)
        heapq.heappush(heap, (dist, i, a))
        if len(heap) > 200:
            heapq.heappop(heap)
        key = (i % 503, i % 7)
        table[key] = table.get(key, 0.0) + dist
        below += sum(1 for p in _POINTS[:8] if p.x <= a.x)
        _ = f"{dist:.6f}\t{i}"
    return time.perf_counter() - start


class SpeedMeter:
    """Reference samples taken in one pass; gives that pass's scale factor."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, run_s: float = 0.0) -> None:
        for _ in range(1 + int(run_s / SAMPLE_EVERY_S)):
            self.samples.append(reference_loop())

    def factor(self) -> float:
        """Multiply a host time by this to express it at the nominal speed."""
        return NOMINAL_S * len(self.samples) / sum(self.samples)
