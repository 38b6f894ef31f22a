"""Helpers shared by the test modules."""

import random


class ScriptedRandom(random.Random):
    """A seeded generator whose first uniform draws are scripted.

    WaypointPlan draws each leg as a uniform x, a uniform y and a uniform
    speed, so legs = [((x, y), speed), ...] fixes a plan's first legs; the
    draws after them come from the generator's own seeded state.
    """

    def __init__(self, seed, legs):
        super().__init__(seed)
        self.script = [v for (x, y), speed in legs for v in (x, y, speed)]

    def uniform(self, a, b):
        return self.script.pop(0) if self.script else super().uniform(a, b)


def assert_partitions(timeline, window):
    """timeline runs from the window start to its end, each segment starting
    where the one before it ends; only a one-instant window has a
    zero-length segment, and then it is the only one."""
    t0, t_end = window
    assert timeline[0][1][0] == t0
    assert timeline[-1][1][1] == t_end
    for (_, (_, b)), (_, (a, _)) in zip(timeline, timeline[1:]):
        assert a == b
    if t0 < t_end:
        assert all(a < b for _, (a, b) in timeline)
    else:
        assert len(timeline) == 1
