import math
import random
from bisect import bisect_left
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rangeskyline.harness import build_world, query_windows, scenario2, world_horizon
from rangeskyline.kinematics import MotionState, WaypointPlan
from rangeskyline.metrics import (
    _elementary_intervals,
    _instant_scores,
    oracle_timeline,
    precision_recall,
    timeline_ids,
)
from rangeskyline.netsim import LinkModel, NodeRuntime, Simulator
from rangeskyline.protocols import QueryDescriptor, QueryProtocol
from rangeskyline.skyline import AttributeVector, DataObject, QuerySnapshot, range_skyline

from helpers import ScriptedRandom, assert_partitions


def static_node(nid, x, y, attr=None):
    plan = WaypointPlan((float(x), float(y)), (500.0, 500.0), (0.0, 0.0), 60.0, random.Random(0))
    attrs = None if attr is None else AttributeVector((float(attr),))
    return NodeRuntime(nid, plan, attrs)


def truth_at(nodes, issuer_id, R, t):
    issuer = next(n for n in nodes if n.id == issuer_id)
    q = QuerySnapshot(issuer.plan.position_at(t), R)
    objs = {
        DataObject(n.id, n.plan.position_at(t), (0.0, 0.0), n.attrs, t)
        for n in nodes
        if n.attrs is not None and n.id != issuer_id
    }
    return frozenset(o.id for o in range_skyline(q, objs))


def value_at(timeline, t):
    for sky, (a, b) in timeline:
        if a <= t <= b:
            return sky
    return timeline[-1][0]


# ---------------------------------------------------------------------------
# oracle timelines
# ---------------------------------------------------------------------------

def test_static_world_gives_single_interval():
    nodes = [static_node(0, 250, 250)] + [
        static_node(i, 200 + 10 * i, 250, attr=i) for i in range(1, 5)
    ]
    tl = oracle_timeline(nodes, 0, 100.0, (0.0, 10.0))
    assert len(tl) == 1
    assert tl[0][1] == (0.0, 10.0)
    assert tl[0][0] == truth_at(nodes, 0, 100.0, 5.0)


def test_oracle_matches_dense_sampling_on_random_mobile_world():
    scen = replace(scenario2(), node_count=20)
    for seed in range(4):
        nodes = build_world(scen, f"oracle:{seed}")
        issuer = next(n for n in nodes if n.attrs is None)
        window = (5.0, 15.0)
        tl = oracle_timeline(nodes, issuer.id, scen.query_range, window)
        others = [n for n in nodes if n.id != issuer.id]
        t = window[0] + 0.005
        while t < window[1]:
            got = value_at(tl, t)
            want = truth_at(nodes, issuer.id, scen.query_range, t)
            assert got == want, f"seed {seed} t {t}"
            t += 0.01


def test_oracle_reads_plans_a_finished_simulator_left_at_later_instants():
    # each plan's leg cursor sits where the run last read it; read again from
    # the window start, or from 0, the plans give a fresh world's timeline
    scen = replace(scenario2(), node_count=40)
    for seed in ("golden:0", "golden:1"):
        nodes = build_world(scen, seed)
        (window,) = query_windows(scen, seed)
        issuer = scen.node_count
        link = LinkModel(transmission_range=scen.transmission_range)
        sim = Simulator(nodes, link, horizon=world_horizon(scen, seed))
        origin = MotionState((0.0, 0.0), (0.0, 0.0), window[0])
        desc = QueryDescriptor(1, issuer, origin, scen.query_range, window, 3)
        QueryProtocol(sim).issue(desc, window[0])
        sim.run()
        assert any(n.plan.entry[0] > window[0] for n in nodes)
        for span in (window, (0.0, window[1])):
            fresh = oracle_timeline(build_world(scen, seed), issuer, scen.query_range, span)
            assert len(fresh) > 1
            assert oracle_timeline(nodes, issuer, scen.query_range, span) == fresh, (seed, span)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 999).map(lambda k: f"cover:{k}"),
    st.sampled_from([0.0, 2.0, 7.5]),
    st.sampled_from([0.0, 3.0, 10.0]),
)
@example("cover", 2.0, 10.0)
def test_oracle_covers_window_contiguously(seed, start, length):
    scen = replace(scenario2(), node_count=30)
    nodes = build_world(scen, seed)
    issuer = next(n for n in nodes if n.attrs is None)
    window = (start, start + length)
    assert_partitions(oracle_timeline(nodes, issuer.id, scen.query_range, window), window)


# ---------------------------------------------------------------------------
# precision / recall
# ---------------------------------------------------------------------------

def test_identical_timelines_score_perfectly():
    tl = [(frozenset({1, 2}), (0.0, 5.0)), (frozenset({2}), (5.0, 10.0))]
    acc = precision_recall(tl, tl, (0.0, 10.0))
    assert acc.precision == 1.0
    assert acc.recall == 1.0


def test_empty_result_against_nonempty_oracle_scores_zero():
    res = [(frozenset(), (0.0, 10.0))]
    orc = [(frozenset({1}), (0.0, 10.0))]
    acc = precision_recall(res, orc, (0.0, 10.0))
    assert acc.precision == 0.0
    assert acc.recall == 0.0


def test_half_window_correct_scores_half():
    res = [(frozenset({1}), (0.0, 5.0)), (frozenset(), (5.0, 10.0))]
    orc = [(frozenset({1}), (0.0, 10.0))]
    acc = precision_recall(res, orc, (0.0, 10.0))
    assert acc.precision == pytest.approx(0.5)
    assert acc.recall == pytest.approx(0.5)


def test_both_empty_counts_as_correct():
    res = [(frozenset(), (0.0, 10.0))]
    acc = precision_recall(res, res, (0.0, 10.0))
    assert acc.precision == 1.0
    assert acc.recall == 1.0


def test_snapshot_window_compares_single_sets():
    res = [(frozenset({1, 2}), (3.0, 3.0))]
    orc = [(frozenset({1, 3}), (3.0, 3.0))]
    acc = precision_recall(res, orc, (3.0, 3.0))
    assert acc.precision == pytest.approx(0.5)
    assert acc.recall == pytest.approx(0.5)


def test_oracle_self_consistency_on_random_world():
    scen = replace(scenario2(), node_count=24)
    nodes = build_world(scen, "self")
    issuer = next(n for n in nodes if n.attrs is None)
    tl = oracle_timeline(nodes, issuer.id, scen.query_range, (3.0, 13.0))
    acc = precision_recall(tl, tl, (3.0, 13.0))
    assert acc.precision == 1.0
    assert acc.recall == 1.0


def test_timeline_ids_normalizes_objects():
    obj = DataObject(7, (0.0, 0.0), (0.0, 0.0), AttributeVector((1.0,)), 0.0)
    tl = timeline_ids([(frozenset({obj}), (0.0, 1.0))])
    assert tl == [(frozenset({7}), (0.0, 1.0))]


def test_three_interval_oracle_ends_with_lone_survivor():
    # two members drop out in sequence; the late entrant alone closes the
    # window: the timeline contracts to a single-member tail segment
    issuer = static_node(0, 0, 0)
    leaver1 = NodeRuntime(
        1,
        WaypointPlan((90.0, 0.0), (500.0, 500.0), (5.0, 5.0), 60.0,
                     ScriptedRandom(0, [((400.0, 0.0), 5.0)])),
        AttributeVector((1.0,)),
    )
    leaver2 = NodeRuntime(
        2,
        WaypointPlan((0.0, 80.0), (500.0, 500.0), (5.0, 5.0), 60.0,
                     ScriptedRandom(0, [((0.0, 400.0), 5.0)])),
        AttributeVector((2.0,)),
    )
    entrant = NodeRuntime(
        8,
        WaypointPlan((130.0, 0.0), (500.0, 500.0), (5.0, 5.0), 60.0,
                     ScriptedRandom(0, [((-400.0, 0.0), 5.0)])),
        AttributeVector((0.5,)),
    )
    tl = oracle_timeline([issuer, leaver1, leaver2, entrant], 0, 100.0, (0.0, 10.0))
    assert len(tl) >= 3
    assert tl[-1][0] == frozenset({8})
    assert tl[-1][1][1] == 10.0


# ---------------------------------------------------------------------------
# the merge walk against the lookup it replaced
# ---------------------------------------------------------------------------

def frozen_lookup(timeline):
    """The set a timeline holds at t, by bisection: a frozen copy of the
    lookup the merge walk replaced, fallbacks for gaps included."""
    ends = [b for _, (_, b) in timeline]

    def value_at(t):
        i = bisect_left(ends, t)
        if i < len(ends) and timeline[i][1][0] <= t:
            return timeline[i][0]
        if not timeline:
            return frozenset()
        return timeline[0][0] if i == 0 else timeline[-1][0]

    return value_at


def frozen_elementary_intervals(result, oracle, window):
    """Frozen copy of the lookup-based pieces: sorted cuts, sets at midpoints."""
    t0, t_end = window
    cuts = {t0, t_end}
    for tl in (result, oracle):
        for _, (a, b) in tl:
            if t0 < a < t_end:
                cuts.add(a)
            if t0 < b < t_end:
                cuts.add(b)
    marks = sorted(cuts)
    res_at = frozen_lookup(result)
    orc_at = frozen_lookup(oracle)
    for a, b in zip(marks, marks[1:]):
        mid = (a + b) / 2.0
        yield a, b, res_at(mid), orc_at(mid)


def frozen_precision_recall(result, oracle, window):
    """Frozen copy of the lookup-based scoring, as (precision, recall)."""
    t0, t_end = window
    if t0 == t_end:
        return _instant_scores(frozen_lookup(result)(t0), frozen_lookup(oracle)(t0))
    p_area = 0.0
    r_area = 0.0
    for a, b, got, truth in frozen_elementary_intervals(result, oracle, window):
        p, r = _instant_scores(got, truth)
        p_area += p * (b - a)
        r_area += r * (b - a)
    span = t_end - t0
    return p_area / span, r_area / span


@st.composite
def partitions_and_windows(draw):
    """Two partitions of one span and a window, on a 1/8-second grid.

    The window is the span, a sub-window that starts inside or at the edge
    of a segment (as divergence_intervals in test_acceptance cuts one), or
    one instant of the span.  Sets come from a pool of four, so neighbours
    may repeat.  On the grid every midpoint is exact, so the lookup reads
    the segment that holds each piece.
    """
    pool = (frozenset(), frozenset({1}), frozenset({1, 2}), frozenset({2}))
    first = draw(st.integers(0, 16))
    last = first + draw(st.integers(1, 40))

    def partition():
        inner = draw(st.sets(st.integers(first + 1, last), max_size=8)) - {last}
        marks = [first, *sorted(inner), last]
        return [(draw(st.sampled_from(pool)), (a / 8, b / 8)) for a, b in zip(marks, marks[1:])]

    result, oracle = partition(), partition()
    kind = draw(st.sampled_from(["span", "sub-window", "instant"]))
    if kind == "span":
        window = (first / 8, last / 8)
    elif kind == "sub-window":
        window = (draw(st.integers(first, last - 1)) / 8, last / 8)
    else:
        t = draw(st.integers(first, last)) / 8
        window = (t, t)
    return result, oracle, window


@settings(max_examples=600, deadline=None)
@given(partitions_and_windows())
def test_merge_walk_equals_the_frozen_lookup(case):
    result, oracle, window = case
    got = list(_elementary_intervals(result, oracle, window))
    assert got == list(frozen_elementary_intervals(result, oracle, window))
    acc = precision_recall(result, oracle, window)
    assert (acc.precision, acc.recall) == frozen_precision_recall(result, oracle, window)


def test_a_one_ulp_piece_takes_the_set_of_the_segment_holding_it():
    # cuts one ulp apart, as a realized and an oracle cut of one crossing can
    # be: the midpoint of the piece between them rounds onto its start, so
    # the lookup read the segment before the piece; the walk reads the one
    # that holds it
    a = 30.264746457844055
    b = math.nextafter(a, math.inf)
    assert (a + b) / 2.0 == a
    result = [(frozenset({1}), (0.0, a)), (frozenset({2}), (a, 40.0))]
    oracle = [(frozenset({1}), (0.0, b)), (frozenset({2}), (b, 40.0))]
    one, two = frozenset({1}), frozenset({2})
    pieces = list(_elementary_intervals(result, oracle, (0.0, 40.0)))
    assert pieces == [(0.0, a, one, one), (a, b, two, one), (b, 40.0, two, two)]
    frozen = list(frozen_elementary_intervals(result, oracle, (0.0, 40.0)))
    assert frozen[1] == (a, b, one, one)
