"""Ground-truth timelines and accuracy scoring for query results.

The oracle recomputes the true range-skyline from complete trajectory
knowledge.  It splits the monitoring window at every leg change, then within
each constant-velocity epoch reuses the same segment machinery the protocol
uses for predictions, but fed with exact states, so its change points cover
range crossings and distance-order flips as well.

Precision and recall compare a realized result timeline against the oracle
instant by instant and integrate over the window.  Every timeline partitions
its window: from its start to its end, each segment begins where one ends.
"""

from __future__ import annotations

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
        extend_timeline(out, frozenset(o.id for o in sky), a, b)
    return out


def _elementary_intervals(result: Timeline, oracle: Timeline, window: tuple[float, float]):
    """(a, b, result set, oracle set) for each piece of the window between
    consecutive segment boundaries of either timeline; both partition a span
    holding the window, so one merge walk over their segment ends finds them."""
    t0, t_end = window
    i = j = 0
    a = t0
    while a < t_end:
        while result[i][1][1] <= a:
            i += 1
        while oracle[j][1][1] <= a:
            j += 1
        b = min(result[i][1][1], oracle[j][1][1], t_end)
        yield a, b, result[i][0], oracle[j][0]
        a = b


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
    A degenerate window compares the sets of the first segments that end at
    or after its instant.  Both timelines hold id sets, as oracle_timeline
    and timeline_ids make them, and partition the window.
    """
    t0, t_end = window
    if t0 == t_end:
        got, truth = (next(sky for sky, (_, b) in tl if b >= t0) for tl in (result, oracle))
        return Accuracy(*_instant_scores(got, truth))
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

