import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangeskyline.harness import build_world, query_windows, scenario2, world_horizon
from rangeskyline.kinematics import MotionState, WaypointPlan
from rangeskyline.metrics import (
    oracle_timeline,
    precision_recall,
    timeline_ids,
    timeline_lookup,
)
from rangeskyline.netsim import LinkModel, NodeRuntime, Simulator
from rangeskyline.protocols import QueryDescriptor, QueryProtocol
from rangeskyline.skyline import AttributeVector, DataObject, QuerySnapshot, range_skyline


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


def test_oracle_covers_window_contiguously():
    scen = replace(scenario2(), node_count=30)
    nodes = build_world(scen, "cover")
    issuer = next(n for n in nodes if n.attrs is None)
    window = (2.0, 12.0)
    tl = oracle_timeline(nodes, issuer.id, scen.query_range, window)
    assert tl[0][1][0] == window[0]
    assert tl[-1][1][1] == window[1]
    for (_, (_, b)), (_, (a2, _)) in zip(tl, tl[1:]):
        assert a2 == b


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
                     random.Random(0), waypoints=[(400.0, 0.0)], speeds=[5.0]),
        AttributeVector((1.0,)),
    )
    leaver2 = NodeRuntime(
        2,
        WaypointPlan((0.0, 80.0), (500.0, 500.0), (5.0, 5.0), 60.0,
                     random.Random(0), waypoints=[(0.0, 400.0)], speeds=[5.0]),
        AttributeVector((2.0,)),
    )
    entrant = NodeRuntime(
        8,
        WaypointPlan((130.0, 0.0), (500.0, 500.0), (5.0, 5.0), 60.0,
                     random.Random(0), waypoints=[(-400.0, 0.0)], speeds=[5.0]),
        AttributeVector((0.5,)),
    )
    tl = oracle_timeline([issuer, leaver1, leaver2, entrant], 0, 100.0, (0.0, 10.0))
    assert len(tl) >= 3
    assert tl[-1][0] == frozenset({8})
    assert tl[-1][1][1] == 10.0


# ---------------------------------------------------------------------------
# set lookup
# ---------------------------------------------------------------------------

def linear_value_at(timeline, t):
    """Reference: the linear scan the bisect lookup replaced."""
    for sky, (a, b) in timeline:
        if a <= t <= b:
            return sky
    if timeline:
        if t < timeline[0][1][0]:
            return timeline[0][0]
        return timeline[-1][0]
    return frozenset()


@st.composite
def ordered_timelines(draw):
    """Ordered segments on a coarse grid: gaps, zero-length spans, shared ends."""
    t = draw(st.integers(0, 3))
    out = []
    for k in range(draw(st.integers(0, 6))):
        a = t + draw(st.sampled_from([0, 0, 1, 2]))
        b = a + draw(st.sampled_from([0, 1, 2]))
        out.append((frozenset({k}), (a / 2.0, b / 2.0)))
        t = b
    return out


@settings(max_examples=500, deadline=None)
@given(ordered_timelines(), st.lists(st.integers(-2, 40), max_size=10))
def test_timeline_lookup_matches_linear_scan(timeline, quarter_steps):
    at = timeline_lookup(timeline)
    bounds = [x for _, span in timeline for x in span]
    for t in bounds + [q / 4.0 for q in quarter_steps]:
        assert at(t) == linear_value_at(timeline, t)
