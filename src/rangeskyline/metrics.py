"""Ground-truth timelines and accuracy scoring for query results.

The oracle recomputes the true range-skyline from complete trajectory
knowledge.  It splits the monitoring window at every leg change, then within
each constant-velocity epoch reuses the same segment machinery the protocol
uses for predictions, but fed with exact states, so its change points cover
range crossings and distance-order flips as well.

Precision and recall compare a realized result timeline against the oracle
instant by instant and integrate over the window.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass

from rangeskyline.netsim import NodeRuntime
from rangeskyline.protocols import Timeline, extend_timeline, predict_timeline
from rangeskyline.skyline import DataObject


def oracle_timeline(
    nodes: list[NodeRuntime],
    issuer_id: int,
    range_R: float,
    window: tuple[float, float],
) -> Timeline:
    """True per-segment range-skylines over the window, as id frozensets."""
    t0, t_end = window
    issuer = next(n for n in nodes if n.id == issuer_id)
    sensors = [n for n in nodes if n.attrs is not None and n.id != issuer_id]
    epochs = {t0, t_end}
    for n in [issuer, *sensors]:
        for t in n.plan.leg_change_times(t0, t_end):
            epochs.add(t)
    marks = sorted(epochs)
    out: Timeline = []
    # a snapshot window is the one epoch [t0, t0]
    for a, b in list(zip(marks, marks[1:])) or [(t0, t_end)]:
        for sky, span in _epoch_segments(issuer, sensors, range_R, a, b):
            extend_timeline(out, frozenset(o.id for o in sky), *span)
    return out


def _epoch_segments(issuer, sensors, range_R, a, b):
    center = issuer.plan.motion_state_at(a)
    objs = []
    for n in sensors:
        state = n.plan.motion_state_at(a)
        objs.append(DataObject(n.id, state.position, state.velocity, n.attrs, a))
    return predict_timeline(center, range_R, objs, (a, b), a)


def timeline_ids(timeline: Timeline) -> Timeline:
    """Normalize a timeline of object sets into one of id sets."""
    out: Timeline = []
    for sky, (a, b) in timeline:
        ids = frozenset(o.id if isinstance(o, DataObject) else o for o in sky)
        extend_timeline(out, ids, a, b)
    return out


def timeline_lookup(timeline: Timeline) -> Callable[[float], frozenset]:
    """The set an ordered timeline holds at any instant t.

    That is the set of the first segment whose closed span holds t; before
    the timeline it is the first set, and in a gap or after the end the last
    set.  Bisection on the segment ends finds it.
    """
    ends = [b for _, (_, b) in timeline]

    def value_at(t: float) -> frozenset:
        i = bisect_left(ends, t)
        if i < len(ends) and timeline[i][1][0] <= t:
            return timeline[i][0]
        if not timeline:
            return frozenset()
        return timeline[0][0] if i == 0 else timeline[-1][0]

    return value_at


def _elementary_intervals(result: Timeline, oracle: Timeline, window: tuple[float, float]):
    """(a, b, result set, oracle set) for each piece of the window between
    consecutive segment boundaries of either timeline."""
    t0, t_end = window
    cuts = {t0, t_end}
    for tl in (result, oracle):
        for _, (a, b) in tl:
            if t0 < a < t_end:
                cuts.add(a)
            if t0 < b < t_end:
                cuts.add(b)
    marks = sorted(cuts)
    res_at = timeline_lookup(result)
    orc_at = timeline_lookup(oracle)
    for a, b in zip(marks, marks[1:]):
        mid = (a + b) / 2.0
        yield a, b, res_at(mid), orc_at(mid)


@dataclass(frozen=True)
class Accuracy:
    precision: float
    recall: float


def precision_recall(
    result: Timeline, oracle: Timeline, window: tuple[float, float]
) -> Accuracy:
    """Time-weighted set precision and recall of a result timeline.

    At each instant: precision is |result ∩ truth| / |result| (1 when both
    empty, 0 when only the result is empty), recall is |result ∩ truth| /
    |truth| (1 when the truth is empty).  Both integrate over the window.
    Degenerate windows compare the two sets at the single instant.  Both
    timelines hold id sets, as oracle_timeline and timeline_ids make them.
    """
    t0, t_end = window
    if t0 == t_end:
        got = timeline_lookup(result)(t0)
        p, r = _instant_scores(got, timeline_lookup(oracle)(t0))
        return Accuracy(p, r)
    p_area = 0.0
    r_area = 0.0
    for a, b, got, truth in _elementary_intervals(result, oracle, window):
        p, r = _instant_scores(got, truth)
        p_area += p * (b - a)
        r_area += r * (b - a)
    span = t_end - t0
    return Accuracy(p_area / span, r_area / span)


def _instant_scores(got: frozenset, truth: frozenset) -> tuple[float, float]:
    inter = len(got & truth)
    if got:
        precision = inter / len(got)
    else:
        precision = 1.0 if not truth else 0.0
    recall = inter / len(truth) if truth else 1.0
    return precision, recall

