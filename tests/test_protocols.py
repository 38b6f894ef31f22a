import math
import random
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rangeskyline.harness import (
    build_world,
    query_windows,
    run_scenario,
    scenario2,
    world_horizon,
)
from rangeskyline.kinematics import (
    MotionState,
    WaypointPlan,
    position_at,
    safe_interval,
)
from rangeskyline.netsim import (
    EVENT_RECOMPUTE,
    EVENT_SAFE_TIME,
    LinkModel,
    MSG_REPLY,
    MSG_UPDATE,
    NodeRuntime,
    Simulator,
)
from rangeskyline import protocols
from rangeskyline.protocols import (
    MODE_CENTRALIZED,
    MODE_DISTRIBUTED,
    QueryDescriptor,
    QueryOutcome,
    QueryProtocol,
    SensorQueryState,
    extend_timeline,
    predict_timeline,
    relevant_union,
)
from rangeskyline.skyline import (
    AttributeVector,
    DataObject,
    QuerySnapshot,
    keep_newest,
    range_skyline,
)

from helpers import ScriptedRandom, assert_partitions


AREA = (1000.0, 1000.0)


def static_plan(x, y, horizon=60.0):
    return WaypointPlan((float(x), float(y)), AREA, (0.0, 0.0), horizon, random.Random(0))


def moving_plan(x, y, target, speed, horizon=60.0):
    return WaypointPlan(
        (float(x), float(y)), AREA, (speed, speed), horizon, ScriptedRandom(0, [(target, speed)])
    )


def sensor(node_id, plan, attr):
    return NodeRuntime(node_id, plan, AttributeVector((float(attr),)))


def query_node(node_id, plan):
    return NodeRuntime(node_id, plan, None)


def carried(node_id, x, y, vx, vy, attr, observed_at=0.0):
    return DataObject(node_id, (float(x), float(y)), (float(vx), float(vy)),
                      AttributeVector((float(attr),)), observed_at)


def run_query(nodes, issuer_id, R, ttl, mode, r=60.0, p=1.0, seed=0, window=None,
              horizon=60.0):
    link = LinkModel(transmission_range=r, delivery_prob=p)
    sim = Simulator(nodes, link, seed=seed, horizon=horizon)
    proto = QueryProtocol(sim, mode=mode)
    issue_at = 1.0
    win = (issue_at, issue_at) if window is None else (issue_at, issue_at + window)
    desc = QueryDescriptor(
        query_id=1, issuer=issuer_id,
        issuer_state=MotionState((0.0, 0.0), (0.0, 0.0), issue_at),
        range_R=R, window=win, ttl=ttl,
    )
    proto.issue(desc, issue_at)
    sim.run()
    return sim, proto, proto.outcomes[1]


def oracle_snapshot(nodes, issuer_id, R, t):
    issuer = next(n for n in nodes if n.id == issuer_id)
    q = QuerySnapshot(issuer.plan.position_at(t), R)
    objs = {
        DataObject(n.id, n.plan.position_at(t), (0.0, 0.0), n.attrs, t)
        for n in nodes
        if n.attrs is not None
    }
    return {o.id for o in range_skyline(q, objs)}


# ---------------------------------------------------------------------------
# sensor-side merging under dominance (snapshot path)
# ---------------------------------------------------------------------------

def test_intermediate_merges_and_prunes_received_sets():
    # leaves reply themselves; the relay keeps itself and the undominated
    # leaf, prunes the leaf it dominates and the one its neighbor dominates
    nodes = [
        query_node(0, static_plan(0, 0)),
        sensor(4, static_plan(50, 0), 2.0),     # relay, incomparable with 5
        sensor(3, static_plan(100, 10), 3.0),   # dominated by 5
        sensor(5, static_plan(95, 0), 1.0),     # kept
        sensor(11, static_plan(105, -5), 9.0),  # dominated by 4
    ]
    sim, proto, outcome = run_query(nodes, 0, R=120.0, ttl=1, mode=MODE_DISTRIBUTED, r=60.0)
    assert outcome.response_time is not None
    assert {o.id for o in outcome.realized[0][0]} == {4, 5}
    # the relay forwarded exactly its two skyline members
    assert outcome.accessed_objects == 2


def test_end_node_with_no_neighbors_reports_itself():
    nodes = [query_node(0, static_plan(0, 0)), sensor(1, static_plan(40, 0), 5.0)]
    sim, proto, outcome = run_query(nodes, 0, R=80.0, ttl=0, mode=MODE_DISTRIBUTED, r=60.0)
    assert {o.id for o in outcome.realized[0][0]} == {1}


def test_dominated_self_is_excluded_from_reply():
    # merge step: a received object that dominates the node's own record
    # keeps the node out of its reported set
    state_known = {
        1: carried(1, 50, 0, 0, 0, attr=9.0),  # own record, dominated
        2: carried(2, 45, 5, 0, 0, attr=1.0),  # received, dominating
    }
    desc = QueryDescriptor(
        1, 0, MotionState((0.0, 0.0), (0.0, 0.0), 0.0), 100.0, (0.0, 0.0), 1
    )
    from rangeskyline.protocols import SensorQueryState
    state = SensorQueryState(descriptor=desc, known=state_known)
    batch = QueryProtocol._compose_batch(None, state, 0.0)
    assert [o.id for o in batch] == [2]


def test_out_of_range_candidate_filtered_at_issuer():
    # a far object with great attrs survives local merging but not the final
    # range check at the query node
    nodes = [
        query_node(0, static_plan(0, 0)),
        sensor(1, static_plan(50, 0), 5.0),
        sensor(2, static_plan(100, 0), 0.5),  # outside R=80
    ]
    sim, proto, outcome = run_query(nodes, 0, R=80.0, ttl=1, mode=MODE_DISTRIBUTED, r=60.0)
    assert {o.id for o in outcome.realized[0][0]} == {1}


# ---------------------------------------------------------------------------
# snapshot end-to-end vs oracle
# ---------------------------------------------------------------------------

def random_static_world(rng, n, span=300.0):
    nodes = [query_node(0, static_plan(span / 2, span / 2))]
    for i in range(1, n + 1):
        nodes.append(
            sensor(i, static_plan(rng.uniform(0, span), rng.uniform(0, span)),
                   rng.uniform(0, 10))
        )
    return nodes


def test_distributed_snapshot_equals_oracle_on_random_static_worlds():
    rng = random.Random(1001)
    for trial in range(10):
        nodes = random_static_world(rng, 30)
        sim, proto, outcome = run_query(nodes, 0, R=100.0, ttl=2, mode=MODE_DISTRIBUTED, r=90.0, seed=trial)
        expected = oracle_snapshot(nodes, 0, 100.0, 1.0)
        assert {o.id for o in outcome.realized[0][0]} == expected


def test_centralized_snapshot_matches_distributed_and_oracle():
    rng = random.Random(77)
    nodes = random_static_world(rng, 25)
    _, _, dist_out = run_query(nodes, 0, R=100.0, ttl=2, mode=MODE_DISTRIBUTED, r=90.0)
    nodes2 = random_static_world(random.Random(77), 25)
    sim_c, _, cent_out = run_query(nodes2, 0, R=100.0, ttl=5, mode=MODE_CENTRALIZED, r=90.0)
    expected = oracle_snapshot(nodes, 0, 100.0, 1.0)
    assert {o.id for o in dist_out.realized[0][0]} == expected
    assert {o.id for o in cent_out.realized[0][0]} == expected


def test_distributed_sends_fewer_messages_than_centralized():
    rng = random.Random(31)
    nodes = random_static_world(rng, 40)
    sim_d, _, _ = run_query(nodes, 0, R=100.0, ttl=2, mode=MODE_DISTRIBUTED, r=90.0)
    nodes2 = random_static_world(random.Random(31), 40)
    sim_c, _, _ = run_query(nodes2, 0, R=100.0, ttl=5, mode=MODE_CENTRALIZED, r=90.0)
    assert sum(sim_d.stats.sent.values()) < sum(sim_c.stats.sent.values())


def test_centralized_reply_count_matches_hand_count():
    # line: issuer - a - b; a replies 1 hop, b replies 2 hops: 3 reply sends
    nodes = [
        query_node(0, static_plan(0, 0)),
        sensor(1, static_plan(50, 0), 1.0),
        sensor(2, static_plan(100, 0), 2.0),
    ]
    sim, proto, outcome = run_query(nodes, 0, R=150.0, ttl=5, mode=MODE_CENTRALIZED, r=60.0)
    assert sim.stats.sent[MSG_REPLY] == 3
    assert outcome.accessed_objects == 2


def test_response_time_is_positive_and_bounded():
    rng = random.Random(5)
    nodes = random_static_world(rng, 20)
    sim, proto, outcome = run_query(nodes, 0, R=100.0, ttl=2, mode=MODE_DISTRIBUTED, r=90.0)
    bound = 4.0 * 3 * sim.link.hop_delay
    assert outcome.response_time is not None
    assert 0.0 < outcome.response_time <= bound + 1e-9


# ---------------------------------------------------------------------------
# predicted timelines
# ---------------------------------------------------------------------------

def test_timeline_validity_ends_at_predicted_leave_time():
    center = MotionState((0.0, 0.0), (0.0, 0.0), 0.0)
    leaver = carried(7, 80, 0, 10, 0, attr=1.0)
    tl = predict_timeline(center, 100.0, [leaver], (0.0, 10.0), 0.0)
    assert [({o.id for o in sky}, span) for sky, span in tl] == [
        ({7}, (0.0, 2.0)),
        (set(), (2.0, 10.0)),
    ]


def test_timeline_of_departing_and_entering_candidates():
    # two fast candidates exit the range at t=1 while two others enter;
    # the per-segment skylines swap wholesale at the crossing instant
    center = MotionState((0.0, 0.0), (0.0, 0.0), 0.0)
    objs = [
        carried(4, 88, 0, 12, 0, attr=1.0),
        carried(5, 76, 0, 24, 0, attr=2.0),
        carried(3, 105, 0, -5, 0, attr=4.0),
        carried(11, 0, 103, 0, -3, attr=3.0),
    ]
    tl = predict_timeline(center, 100.0, objs, (0.0, 3.0), 0.0)
    got = [({o.id for o in sky}, span) for sky, span in tl]
    assert got == [({4, 5}, (0.0, 1.0)), ({3, 11}, (1.0, 3.0))]


def test_timeline_distance_flip_changes_skyline_mid_window():
    # b starts closer; a overtakes at t=2 and dominates from then on
    center = MotionState((0.0, 0.0), (0.0, 0.0), 0.0)
    a = carried(1, 60, 0, -10, 0, attr=1.0)
    b = carried(2, 40, 0, 0, 0, attr=2.0)
    tl = predict_timeline(center, 100.0, [a, b], (0.0, 4.0), 0.0)
    got = [({o.id for o in sky}, span) for sky, span in tl]
    assert got == [({1, 2}, (0.0, 2.0)), ({1}, (2.0, 4.0))]


def test_a_grazing_tie_at_a_segment_midpoint_does_not_decide_the_segment():
    # b grazes the circle through a (radius 50) at t = 5, the window's
    # midpoint: equally far there, b dominates a by its attribute, but at
    # every other instant a is closer and both are in the skyline.  The
    # double root is a cut, so the tie instant is no segment's midpoint.
    center = MotionState((0.0, 0.0), (0.0, 0.0), 0.0)
    a = carried(0, 50, 0, 0, 0, attr=1.0)
    b = carried(1, -30, 50, 6, 0, attr=0.0)
    tl = predict_timeline(center, 60.0, [a, b], (0.0, 10.0), 0.0)
    assert _id_segments(tl) == [({0, 1}, (0.0, 10.0))]


def test_snapshot_window_degenerates_to_range_skyline():
    center = MotionState((0.0, 0.0), (0.0, 0.0), 0.0)
    near = carried(1, 10, 0, 0, 0, attr=5.0)
    far = carried(2, 200, 0, 0, 0, attr=1.0)
    tl = predict_timeline(center, 50.0, [near, far], (2.0, 2.0), 0.0)
    assert len(tl) == 1
    assert {o.id for o in tl[0][0]} == {1}


def test_relevant_union_collects_all_segment_members():
    center = MotionState((0.0, 0.0), (0.0, 0.0), 0.0)
    objs = [
        carried(1, 80, 0, 10, 0, attr=1.0),
        carried(2, 40, 0, 0, 0, attr=2.0),
    ]
    tl = predict_timeline(center, 100.0, objs, (0.0, 10.0), 0.0)
    assert {o.id for o in relevant_union(tl)} == {1, 2}


# ---------------------------------------------------------------------------
# continuous end-to-end
# ---------------------------------------------------------------------------

def test_static_continuous_timeline_is_single_interval_equal_oracle():
    rng = random.Random(2002)
    nodes = random_static_world(rng, 20)
    sim, proto, outcome = run_query(
        nodes, 0, R=100.0, ttl=2, mode=MODE_DISTRIBUTED, r=90.0, window=8.0
    )
    expected = oracle_snapshot(nodes, 0, 100.0, 1.0)
    realized = outcome.realized
    # after the collection delay the realized sets must all equal the oracle
    settled = [seg for seg in realized if seg[1][0] >= 1.0 + outcome.response_time]
    assert settled, "no settled segment found"
    for sky, _ in settled:
        assert {o.id for o in sky} == expected


def test_static_continuous_sends_no_update_messages():
    rng = random.Random(303)
    nodes = random_static_world(rng, 20)
    sim, proto, outcome = run_query(
        nodes, 0, R=100.0, ttl=2, mode=MODE_DISTRIBUTED, r=90.0, window=8.0
    )
    assert sim.stats.sent.get(MSG_UPDATE, 0) == 0


def test_relay_known_entrant_appears_in_predicted_result():
    # the entrant sits outside R but inside the relay's radio range at issue
    # time; the relay's prediction announces its entry ahead of time
    entrant_plan = moving_plan(150, 0, (20.0, 0.0), speed=10.0)
    nodes = [
        query_node(0, static_plan(0, 0)),
        sensor(1, static_plan(95, 0), 5.0),           # relay, inside R=100
        NodeRuntime(8, entrant_plan, AttributeVector((1.0,))),
    ]
    sim, proto, outcome = run_query(
        nodes, 0, R=100.0, ttl=1, mode=MODE_DISTRIBUTED, r=100.0, window=8.0
    )
    # entrant at x=150-10t crosses R=100 at t=5, i.e. 4 s into the window;
    # it overtakes and dominates the relay from t=5.5
    realized = outcome.realized
    at_entry = [sky for sky, (a, b) in realized if a <= 6.5 <= b]
    assert at_entry and any(o.id == 8 for o in at_entry[0])
    before = [sky for sky, (a, b) in realized if a <= 3.0 <= b]
    assert before and all(o.id != 8 for o in before[0])


def test_centralized_continuous_runs_report_rounds():
    nodes = [
        query_node(0, static_plan(0, 0)),
        sensor(1, static_plan(40, 0), 1.0),
        sensor(2, static_plan(80, 0), 2.0),
    ]
    sim, proto, outcome = run_query(
        nodes, 0, R=100.0, ttl=5, mode=MODE_CENTRALIZED, r=60.0, window=10.0
    )
    # initial reports plus nine re-report rounds, two sensors each: the far
    # sensor's report costs two hops
    assert sim.stats.sent[MSG_REPLY] == 3
    assert sim.stats.sent[MSG_UPDATE] == 9 * 3
    assert outcome.accessed_objects == 10 * 2


def test_same_seed_identical_protocol_trace():
    def one(seed):
        rng = random.Random(404)
        nodes = random_static_world(rng, 15)
        sim, _, _ = run_query(nodes, 0, R=100.0, ttl=2, mode=MODE_DISTRIBUTED, r=90.0, seed=seed, p=0.8)
        return sim.trace

    assert one(9) == one(9)


def test_unreached_region_yields_empty_result_without_crash():
    nodes = [query_node(0, static_plan(0, 0)), sensor(1, static_plan(500, 500), 1.0)]
    sim, proto, outcome = run_query(nodes, 0, R=80.0, ttl=2, mode=MODE_DISTRIBUTED, r=30.0)
    # settled at the timeout, empty
    assert outcome.response_time is not None
    assert outcome.realized == [(frozenset(), (1.0, 1.0))]


def test_local_pruning_never_discards_a_global_skyline_member():
    # dominance against the query is global: partition the in-range objects
    # into arbitrary local groups, prune each, and the union of survivors
    # must still contain the full range-skyline
    from rangeskyline.skyline import point_skyline, range_skyline
    rng = random.Random(717)
    for _ in range(30):
        q = QuerySnapshot((0.0, 0.0), 100.0)
        pool = set()
        for i in range(rng.randint(2, 18)):
            ang = rng.uniform(0, 2 * math.pi)
            d = rng.uniform(0, 100)
            pool.add(
                carried(i, d * math.cos(ang), d * math.sin(ang), 0, 0,
                        attr=rng.uniform(0, 10))
            )
        groups = {}
        for o in pool:
            groups.setdefault(rng.randint(0, 3), set()).add(o)
        survivors = set()
        for g in groups.values():
            survivors |= point_skyline(q, g)
        assert range_skyline(q, pool) <= survivors


def test_empty_collection_is_flagged_low_confidence():
    # low confidence, nothing received at all, reads as accessed_objects == 0
    nodes = [query_node(0, static_plan(0, 0)), sensor(1, static_plan(500, 500), 1.0)]
    _, _, outcome = run_query(nodes, 0, R=80.0, ttl=2, mode=MODE_DISTRIBUTED, r=30.0)
    assert outcome.accessed_objects == 0 and not outcome.known
    # settled at the timeout, empty
    assert outcome.response_time is not None
    assert outcome.realized == [(frozenset(), (1.0, 1.0))]
    nodes2 = [query_node(0, static_plan(0, 0)), sensor(1, static_plan(40, 0), 1.0)]
    _, _, ok = run_query(nodes2, 0, R=80.0, ttl=1, mode=MODE_DISTRIBUTED, r=60.0)
    assert ok.accessed_objects > 0


# ---------------------------------------------------------------------------
# the issuer's belief
# ---------------------------------------------------------------------------

def replayed_timeline(window, history):
    """The realized timeline replayed from the issuer's (instant, timeline) history.

    A frozen copy of the replay that QueryOutcome.believe replaced: each
    recomputed timeline holds from its instant until the next one.
    """
    t0, t_end = window
    out = []

    def push(sky, a, b):
        if b > a:
            extend_timeline(out, sky, a, b)

    edits = [(t, tl) for t, tl in history if t <= t_end]
    cursor = t0
    for i, (t_known, tl) in enumerate(edits):
        upper = edits[i + 1][0] if i + 1 < len(edits) else t_end
        lower = max(t_known, t0)
        if lower > cursor:
            push(frozenset(), cursor, lower)
            cursor = lower
        for sky, (a, b) in tl:
            a2, b2 = max(a, lower), min(b, upper)
            push(sky, a2, b2)
            cursor = max(cursor, b2)
    if cursor < t_end:
        push(out[-1][0] if out else frozenset(), cursor, t_end)
    return out or [(frozenset(), (t0, t_end))]


@st.composite
def recompute_histories(draw):
    """A window and the timelines its issuer recomputes, on a quarter-second grid.

    On the grid, instants repeat and fall on t0, t_end and each other's cuts,
    and repeated cuts give zero-length segments; sets come from a pool of
    three, so neighbours repeat.  About half the timelines are the single
    segment of a centralized recompute.
    """
    pool = (frozenset(), frozenset({1}), frozenset({1, 2}))
    first = draw(st.integers(0, 4))
    last = first + draw(st.integers(1, 16))
    window = (first / 4, last / 4)
    history = []
    for k in sorted(draw(st.lists(st.integers(first, last), max_size=6))):
        cuts = [] if draw(st.booleans()) else draw(st.lists(st.integers(k, last), max_size=5))
        marks = [k / 4, *(c / 4 for c in sorted(cuts)), window[1]]
        timeline = [(draw(st.sampled_from(pool)), seg) for seg in zip(marks, marks[1:])]
        history.append((k / 4, timeline))
    return window, history


@settings(max_examples=500, deadline=None)
@given(recompute_histories())
def test_belief_equals_the_replay_of_the_recompute_history(case):
    window, history = case
    desc = QueryDescriptor(1, 0, MotionState((0.0, 0.0), (0.0, 0.0)), 10.0, window, ttl=1)
    outcome = QueryOutcome(desc, window[0])
    for t, timeline in history:
        outcome.believe(t, timeline)
    assert outcome.realized == replayed_timeline(window, history)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 999).map(lambda k: f"partition:{k}"),
    st.sampled_from([MODE_DISTRIBUTED, MODE_CENTRALIZED]),
    st.booleans(),
)
def test_a_runs_realized_timeline_partitions_its_window(seed, mode, snapshot):
    scen = replace(scenario2(), node_count=30)
    nodes = build_world(scen, seed)
    (window,) = query_windows(scen, seed)
    if snapshot:
        window = (window[0], window[0])
    link = LinkModel(transmission_range=scen.transmission_range)
    sim = Simulator(nodes, link, horizon=world_horizon(scen, seed))
    origin = MotionState((0.0, 0.0), (0.0, 0.0), window[0])
    desc = QueryDescriptor(1, scen.node_count, origin, scen.query_range, window, 3)
    assert QueryOutcome(desc, window[0]).realized == [(frozenset(), window)]
    proto = QueryProtocol(sim, mode=mode)
    proto.issue(desc, window[0])
    sim.run()
    assert_partitions(proto.outcomes[1].realized, window)


# ---------------------------------------------------------------------------
# contact triggers as kinetic certificates
# ---------------------------------------------------------------------------

def contact_triggers(sim):
    return sorted((e[0], e[3]) for e in sim._heap if e[2] == EVENT_SAFE_TIME)


def continuous_query(issuer, window):
    return QueryDescriptor(
        query_id=1, issuer=issuer,
        issuer_state=MotionState((0.0, 0.0), (0.0, 0.0), window[0]),
        range_R=100.0, window=window, ttl=1,
    )


def test_contact_at_a_leg_end_schedules_no_trigger():
    # the mover reaches (25, 0), exactly the range 75 from the static node,
    # at the instant its first leg ends: a trigger there would fire on the
    # next leg, so none is scheduled
    for target, expected in (((25.0, 0.0), []), ((30.0, 0.0), [(25.0, {"a": 0, "b": 1})])):
        mover = sensor(0, moving_plan(0, 0, target, 1.0), 1.0)
        nodes = [mover, sensor(1, static_plan(100, 0), 1.0)]
        sim = Simulator(nodes, LinkModel(transmission_range=75.0), horizon=60.0)
        proto = QueryProtocol(sim)
        proto.issue(continuous_query(1, (0.0, 30.0)), 0.0)
        proto.schedule_contacts()
        assert contact_triggers(sim) == expected


def test_resensing_builds_a_record_only_for_a_new_leg(monkeypatch):
    # node 1 has one leg [0, 5) and then holds still; node 2 turns at t = 3
    # and keeps its next leg until t = 12
    nodes = [
        sensor(0, static_plan(0, 0), 0.5),
        sensor(1, moving_plan(10, 0, (60.0, 0.0), 10.0, horizon=5.0), 0.2),
        sensor(2, WaypointPlan((10.0, 10.0), AREA, (10.0, 10.0), 60.0,
                               ScriptedRandom(0, [((40.0, 10.0), 10.0), ((40.0, 100.0), 10.0)])),
               0.7),
        query_node(3, static_plan(5, 5)),
    ]
    sim = Simulator(nodes, LinkModel(transmission_range=5000.0), horizon=60.0)
    proto = QueryProtocol(sim)
    state = SensorQueryState(descriptor=continuous_query(3, (1.0, 11.0)))
    built = []

    def counted(*args):
        built.append(args[0])
        return DataObject(*args)

    monkeypatch.setattr(protocols, "DataObject", counted)

    def sense(t):
        built.clear()
        before = dict(state.known)
        proto._sense_neighborhood(0, state, t)
        return before

    sense(1.0)
    assert sorted(built) == [0, 1, 2]
    leg = nodes[1].plan.leg_entry(1.0)[-1]
    assert state.known[1].position is leg.origin and state.known[1].velocity is leg.velocity
    assert state.known[1].observed_at == 0.0

    before = sense(2.0)
    assert built == []
    assert all(state.known[nid] is before[nid] for nid in (0, 1, 2))

    before = sense(4.0)
    assert built == [2]
    assert state.known[0] is before[0] and state.known[1] is before[1]
    assert state.known[2].observed_at == 3.0
    assert state.known[2].position is nodes[2].plan.leg_entry(4.0)[-1].origin

    before = sense(7.0)
    assert built == [1]
    held = state.known[1]
    assert (held.position, held.velocity, held.observed_at) == ((60.0, 0.0), (0.0, 0.0), 5.0)
    assert held.position == nodes[1].plan.position_at(7.0)

    sense(8.0)
    assert built == []
    assert state.known[1] is held


def contact_world(seed):
    """Twelve nodes on several random-waypoint legs each before t = 18."""
    rng = random.Random(seed)
    return [
        sensor(
            i,
            WaypointPlan((rng.uniform(0, 150), rng.uniform(0, 150)), (150.0, 150.0),
                         (5.0, 10.0), 60.0, random.Random(f"{seed}:{i}")),
            rng.uniform(0, 1),
        )
        for i in range(12)
    ]


def pending_contacts(sim):
    return sorted(
        (e[0], e[3]["a"], e[3]["b"])
        for e in sim._heap
        if e[2] == EVENT_SAFE_TIME
    )


def test_late_certification_schedules_the_triggers_of_one_from_time_zero():
    # run from t = 0 (certify every pair, re-certify at each waypoint) up to
    # a later clock, then certify a fresh copy of the world at that clock:
    # the same pairs are due at the same floats
    for seed, later in (("late:0", 17.9), ("late:1", 29.3), ("late:2", 41.1)):
        link = LinkModel(transmission_range=30.0)
        sim = Simulator(contact_world(seed), link, horizon=60.0)
        proto = QueryProtocol(sim)
        proto.issue(continuous_query(0, (0.0, 60.0)), 0.0)
        sim.run(until=later)
        expected = pending_contacts(sim)
        # some due pair sits on legs that began after t = 0
        assert any(
            sim.nodes[n].plan.leg_entry(later)[-1].t_start > 0.0
            for _, a, b in expected
            for n in (a, b)
        )

        fresh = Simulator(contact_world(seed), link, horizon=60.0)
        late = QueryProtocol(fresh)
        late.issue(continuous_query(0, (0.0, 60.0)), 0.0)
        fresh.clock = later
        late.schedule_contacts()
        assert pending_contacts(fresh) == expected


# Frozen copy of the per-pair certification as first written: the leg at t,
# then motion_state_at, then kinematics.safe_interval.  The certification reads
# the two legs' floats instead and must schedule the same floats.

def reference_pair_contact(sim, a, b, t, span_end):
    pa, pb = sim.nodes[a].plan, sim.nodes[b].plan
    leg_end = min(pa.leg_entry(t)[-1].t_end, pb.leg_entry(t)[-1].t_end)
    if min(leg_end, sim.horizon) <= t:
        return None
    si = safe_interval(
        pa.motion_state_at(t), pb.motion_state_at(t), sim.link.transmission_range, t
    )
    if si.enter > si.leave or not t < si.enter < leg_end:
        return None
    if not sim.clock <= si.enter <= min(span_end, sim.horizon):
        return None
    return si.enter


def reference_contacts(sim, span_end):
    """(fire_at, a, b) of every trigger due at sim.clock, in scheduling order."""
    ids = sorted(sim.nodes)
    start = {nid: sim.nodes[nid].plan.leg_entry(sim.clock)[-1].t_start for nid in ids}
    out = []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            enter = reference_pair_contact(sim, a, b, max(start[a], start[b]), span_end)
            if enter is not None:
                out.append((enter, a, b))
    return out


def scheduled_contacts(sim):
    """(fire_at, a, b) of every pending contact trigger, in scheduling order."""
    return [
        (e[0], e[3]["a"], e[3]["b"])
        for e in sorted(sim._heap, key=lambda e: e[1])
        if e[2] == EVENT_SAFE_TIME
    ]


def certify_at(nodes, link, horizon, window, clock):
    """Pending triggers after schedule_contacts() at clock, and the copy's list."""
    sim = Simulator(nodes, link, horizon=horizon)
    proto = QueryProtocol(sim)
    proto.issue(continuous_query(nodes[0].id, window), window[0])
    sim.clock = clock
    proto.schedule_contacts()
    return scheduled_contacts(sim), reference_contacts(sim, window[1])


@st.composite
def contact_pairs(draw):
    """Four nodes on a few legs each, some static, with a clock and a window."""
    coord = st.one_of(st.integers(0, 40).map(float), st.floats(0.0, 40.0))
    nodes = []
    for nid in range(4):
        speed = draw(st.sampled_from([0.0, 2.5, 10.0]))
        waypoints = draw(st.lists(st.tuples(coord, coord), max_size=4))
        plan = WaypointPlan(
            (draw(coord), draw(coord)), (40.0, 40.0), (min(1.0, speed), speed),
            draw(st.sampled_from([20.0, 60.0])),
            ScriptedRandom(draw(st.integers(0, 99)), [(w, speed) for w in waypoints]),
        )
        nodes.append(sensor(nid, plan, 1.0))
    # the clock often sits exactly at a leg start, and sometimes past the
    # final leg of a plan
    starts = [leg.t_start for n in nodes for leg in n.plan.legs]
    clock = draw(st.one_of(st.sampled_from(starts), st.floats(0.0, 30.0)))
    span_end = draw(st.one_of(st.just(60.0), st.floats(0.0, 60.0)))
    R = draw(st.sampled_from([5.0, 10.0, 20.0]))
    return nodes, LinkModel(transmission_range=R), clock, span_end


@settings(max_examples=400, deadline=None)
@given(contact_pairs())
def test_certification_equals_the_per_pair_reference(case):
    nodes, link, clock, span_end = case
    got, expected = certify_at(nodes, link, 60.0, (0.0, span_end), clock)
    assert got == expected


def test_certification_equals_the_per_pair_reference_on_scenario2_worlds():
    for n, seed in ((60, "golden:0"), (120, "continuous:0")):
        scen = replace(scenario2(), node_count=n)
        (t0, t_end), = query_windows(scen, seed)
        horizon = world_horizon(scen, seed)
        link = LinkModel(transmission_range=scen.transmission_range)
        nodes = build_world(scen, seed)
        # the first issue, later clocks, and the first leg starts inside the window
        legs = sorted(
            leg.t_start for node in nodes for leg in node.plan.legs if t0 < leg.t_start < t_end
        )
        for clock in [t0, t0 + 2.5, (t0 + t_end) / 2.0] + legs[:2]:
            got, expected = certify_at(nodes, link, horizon, (t0, t_end), clock)
            assert len(expected) >= 5, (n, seed, clock)
            assert got == expected, (n, seed, clock)


def test_contact_triggers_fire_only_inside_the_query_span(monkeypatch):
    fired = []
    arrived = []
    on_contact = QueryProtocol._on_contact
    on_waypoint = QueryProtocol._on_waypoint

    def record_contact(proto, payload, t):
        fired.append(t)
        on_contact(proto, payload, t)

    def record_waypoint(proto, payload, t):
        arrived.append(t)
        on_waypoint(proto, payload, t)

    monkeypatch.setattr(QueryProtocol, "_on_contact", record_contact)
    monkeypatch.setattr(QueryProtocol, "_on_waypoint", record_waypoint)
    dense = replace(scenario2(), node_count=90, query_count=2)
    for scen, seed in ((scenario2(), "golden:0"), (dense, "golden:1")):
        fired.clear()
        arrived.clear()
        windows = query_windows(scen, seed)
        first = min(t0 for t0, _ in windows)
        last = max(t_end for _, t_end in windows)
        run_scenario(scen, seed, "dcrsq")
        assert fired
        assert all(first <= t <= last for t in fired), (seed, min(fired), max(fired))
        assert arrived
        assert all(first < t <= last for t in arrived), (seed, min(arrived), max(arrived))


def test_centralized_runs_schedule_recomputes_but_no_contact_trigger(monkeypatch):
    kinds = []
    schedule = Simulator.schedule

    def record_schedule(sim, fire_at, kind, payload=None, hop=None):
        kinds.append(kind)
        schedule(sim, fire_at, kind, payload, hop)

    monkeypatch.setattr(Simulator, "schedule", record_schedule)
    run_scenario(scenario2(), "golden:0", "centralized")
    assert EVENT_SAFE_TIME not in kinds
    assert EVENT_RECOMPUTE in kinds


def test_contact_triggers_fire_on_the_legs_they_were_computed_from(monkeypatch):
    scheduled = []
    fired = []
    schedule = Simulator.schedule
    on_contact = QueryProtocol._on_contact

    def record_schedule(sim, fire_at, kind, payload=None, hop=None):
        if kind == EVENT_SAFE_TIME:
            scheduled.append((sim, sim.clock, fire_at, payload))
        schedule(sim, fire_at, kind, payload, hop)

    def record_contact(proto, payload, t):
        fired.append((payload, t))
        on_contact(proto, payload, t)

    monkeypatch.setattr(Simulator, "schedule", record_schedule)
    monkeypatch.setattr(QueryProtocol, "_on_contact", record_contact)
    run_scenario(scenario2(), "golden:0", "dcrsq")
    # every trigger is scheduled within the horizon, so every one fires
    fired_at = {id(payload): t for payload, t in fired}
    assert fired and len(fired_at) == len(scheduled)
    for sim, t_sched, fire_at, payload in scheduled:
        assert fired_at[id(payload)] == fire_at
        for nid in (payload["a"], payload["b"]):
            plan = sim.nodes[nid].plan
            leg = plan.leg_entry(fire_at)[-1]
            assert leg is plan.leg_entry(t_sched)[-1], (nid, t_sched, fire_at)


def test_predicted_segments_match_direct_skyline_at_samples():
    # per-segment sets must equal the plain range-skyline of extrapolated
    # positions at any instant inside the segment
    from rangeskyline.skyline import range_skyline
    rng = random.Random(808)
    for _ in range(40):
        center = MotionState(
            (rng.uniform(-20, 20), rng.uniform(-20, 20)),
            (rng.uniform(-3, 3), rng.uniform(-3, 3)),
        )
        objs = [
            carried(
                i,
                rng.uniform(-150, 150), rng.uniform(-150, 150),
                rng.uniform(-6, 6), rng.uniform(-6, 6),
                attr=rng.uniform(0, 5),
            )
            for i in range(rng.randint(1, 8))
        ]
        R = rng.uniform(40, 120)
        window = (0.0, rng.uniform(2.0, 12.0))
        tl = predict_timeline(center, R, objs, window, 0.0)
        # coverage: segments tile the window in order
        assert tl[0][1][0] == window[0]
        assert tl[-1][1][1] == window[1]
        for (_, (_, b)), (_, (a2, _)) in zip(tl, tl[1:]):
            assert a2 == b
        for sky, (a, b) in tl:
            for frac in (0.25, 0.5, 0.75):
                t = a + (b - a) * frac
                cx = center.position[0] + center.velocity[0] * t
                cy = center.position[1] + center.velocity[1] * t
                q = QuerySnapshot((cx, cy), R)
                moved = {
                    DataObject(o.id, position_at(o, t), o.velocity, o.attrs, t)
                    for o in objs
                }
                want = {o.id for o in range_skyline(q, moved)}
                assert {o.id for o in sky} == want, (a, b, t)


# ---------------------------------------------------------------------------
# Reference prediction: the object-level formulation the float kernel of
# predict_timeline replaced.  Every distance, root, cut and midpoint of the
# kernel must come out bit-identical to this one.
# ---------------------------------------------------------------------------

def _reference_center_offsets(center, obj, at):
    cx, cy = position_at(center, at)
    ox, oy = position_at(obj, at)
    return (
        (ox - cx, oy - cy),
        (obj.velocity[0] - center.velocity[0], obj.velocity[1] - center.velocity[1]),
    )


def _reference_distance_flip_times(center, a, b, lo, hi):
    (pax, pay), (vax, vay) = _reference_center_offsets(center, a, lo)
    (pbx, pby), (vbx, vby) = _reference_center_offsets(center, b, lo)
    c2 = (vax * vax + vay * vay) - (vbx * vbx + vby * vby)
    c1 = 2.0 * ((pax * vax + pay * vay) - (pbx * vbx + pby * vby))
    c0 = (pax * pax + pay * pay) - (pbx * pbx + pby * pby)
    span = hi - lo
    roots = []
    if c2 == 0.0:
        if c1 != 0.0:
            roots.append(-c0 / c1)
    else:
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc >= 0.0:
            sq = math.sqrt(disc)
            roots.extend(((-c1 - sq) / (2.0 * c2), (-c1 + sq) / (2.0 * c2)))
    return [lo + t for t in roots if 0.0 < t < span]


def _reference_skyline_at(center, range_R, objects, t, pre_filtered=False):
    cx, cy = position_at(center, t)
    rows = []
    for o in objects:
        ox, oy = position_at(o, t)
        d = math.hypot(ox - cx, oy - cy)
        if pre_filtered or d <= range_R:
            rows.append((d, o.attrs.canonical(), o))
    # sort-filter skyline over every key length
    kept = []
    for row in sorted(rows, key=lambda r: (r[0], r[1])):
        d, key, _ = row
        if not any(
            all(x <= y for x, y in zip(key2, key)) and (d2 < d or key2 != key)
            for d2, key2, _ in kept
        ):
            kept.append(row)
    return frozenset(o for _, _, o in kept)


def reference_predict_timeline(center, range_R, objects, window, now):
    lo = max(window[0], now)
    hi = window[1]
    if lo > hi:
        return []
    objs = sorted(objects, key=lambda o: o.id)
    if lo == hi:
        return [(_reference_skyline_at(center, range_R, objs, lo), (lo, hi))]
    spans = {}
    cuts = {lo, hi}
    for o in objs:
        si = safe_interval(
            center, MotionState(o.position, o.velocity, o.observed_at), range_R, lo
        )
        enter, leave = max(si.enter, lo), min(si.leave, hi)
        if enter > leave:
            continue
        spans[o.id] = (enter, leave)
        cuts.add(enter)
        cuts.add(min(leave, hi))
    live = [o for o in objs if o.id in spans]
    for i, a in enumerate(live):
        for b in live[i + 1:]:
            enter = max(spans[a.id][0], spans[b.id][0])
            leave = min(spans[a.id][1], spans[b.id][1])
            if enter > leave:
                continue
            for t in _reference_distance_flip_times(center, a, b, lo, hi):
                if enter < t < min(leave, hi):
                    cuts.add(t)
    marks = sorted(cuts)
    out = []
    for a, b in zip(marks, marks[1:]):
        mid = (a + b) / 2.0
        members = [o for o in live if spans[o.id][0] <= mid <= spans[o.id][1]]
        sky = _reference_skyline_at(center, range_R, members, mid, pre_filtered=True)
        extend_timeline(out, sky, a, b)
    return out or [(frozenset(), (lo, hi))]


# Grid-snapped motion makes exact distance ties, tangent crossings, equal
# velocities (no quadratic term) and repeated attribute keys common; the
# off-grid values make rounding depend on the order of evaluation.
coords = st.one_of(
    st.integers(-12, 12).map(lambda k: k * 10.0),
    st.integers(-10**6, 10**6).map(lambda k: k / 8191.0),
)
speeds = st.one_of(
    st.integers(-6, 6).map(float),
    st.integers(-50000, 50000).map(lambda k: k / 8191.0),
)


@st.composite
def prediction_inputs(draw):
    dims = draw(st.sampled_from([1, 3]))
    directions = ("min",) if dims == 1 else ("min", "max", "min")
    start = draw(st.sampled_from([0.0, 1.0, 2.5]))
    end = start + draw(st.sampled_from([0.0, 0.0, 0.5, 4.0, 10.0]))
    now = draw(st.sampled_from([0.0, start, start + 1.5]))
    # anchors at or before the window start, hence at or before lo
    anchor = st.sampled_from([0.0, start / 2.0, start])
    center = MotionState(
        (draw(coords), draw(coords)),
        (draw(speeds), draw(speeds)),
        draw(anchor),
    )
    n = draw(st.integers(0, 12))
    ids = draw(st.permutations(range(n)))
    attr = st.tuples(*[st.sampled_from([0.0, 1.0, 2.0])] * dims)
    objs = [
        DataObject(
            i,
            (draw(coords), draw(coords)),
            (draw(speeds), draw(speeds)),
            AttributeVector(draw(attr), directions),
            draw(anchor),
        )
        for i in ids
    ]
    range_R = draw(st.sampled_from([30.0, 60.0, 100.0]))
    return center, range_R, objs, (start, end), now


def _id_segments(timeline):
    return [({o.id for o in sky}, span) for sky, span in timeline]


@settings(max_examples=400, deadline=None)
@given(prediction_inputs())
@example(  # the grazing tie of the midpoint test above: a double root cuts
    (
        MotionState((0.0, 0.0), (0.0, 0.0), 0.0),
        60.0,
        [carried(0, 50, 0, 0, 0, attr=1.0), carried(1, -30, 50, 6, 0, attr=0.0)],
        (0.0, 10.0),
        0.0,
    )
)
def test_predict_timeline_equals_reference_bit_for_bit(inputs):
    # float bounds compare under ==, so a shifted cut fails
    got = _id_segments(predict_timeline(*inputs))
    assert got == _id_segments(reference_predict_timeline(*inputs))


@settings(max_examples=400, deadline=None)
@given(prediction_inputs())
def test_predict_timeline_partitions_its_window(inputs):
    _, _, _, (start, end), now = inputs
    timeline = predict_timeline(*inputs)
    lo = max(start, now)
    if lo > end:
        assert timeline == []
    else:
        assert_partitions(timeline, (lo, end))


# ---------------------------------------------------------------------------
# sensor-side reuse of the last prediction
# ---------------------------------------------------------------------------

def sensor_state(center, range_R, objs, window):
    desc = QueryDescriptor(
        query_id=1, issuer=99, issuer_state=center, range_R=range_R, window=window, ttl=0
    )
    return SensorQueryState(descriptor=desc, known={o.id: o for o in objs})


def held_from(timeline, obj_id, t):
    """Total time from t on that the timeline holds obj_id in its skyline."""
    return sum(
        max(0.0, b - max(a, t)) for sky, (a, b) in timeline if obj_id in {o.id for o in sky}
    )


@settings(max_examples=400, deadline=None)
@given(prediction_inputs(), st.data())
def test_reused_prediction_differs_from_a_fresh_one_only_in_slivers(inputs, data):
    center, range_R, objs, window, now = inputs
    lo, hi = max(window[0], now), window[1]
    if not lo < hi:
        return
    state = sensor_state(center, range_R, objs, window)
    state.relevant_at(now)
    kept = state.prediction
    cuts = sorted({x for _, span in kept[2] for x in span})
    # a later instant at a kept cut, a few ulps or a tiny offset from one,
    # or anywhere in the window
    later = data.draw(st.sampled_from(cuts))
    for _ in range(data.draw(st.integers(-3, 3)) % 4):
        later = math.nextafter(later, hi)
    later += data.draw(st.sampled_from([0.0, 0.0, 1e-9, -1e-9, 1e-7, -1e-7]))
    if data.draw(st.booleans()):
        later = data.draw(st.floats(lo, hi))
    if not lo <= later < hi:
        return

    reused = state.relevant_at(later)
    assert state.prediction is kept
    fresh_timeline = predict_timeline(center, range_R, objs, window, later)
    fresh = relevant_union(fresh_timeline)
    # an object in one batch only is held from `later` on by the timeline
    # that gave that batch, and only for a sliver
    for o in reused ^ fresh:
        holder = kept[2] if o in reused else fresh_timeline
        assert 0.0 < held_from(holder, o.id, later) < 1e-4


def test_new_record_or_reannouncement_forces_a_fresh_prediction(monkeypatch):
    calls = []
    predict = protocols.predict_timeline

    def counting(*args):
        calls.append(args[-1])
        return predict(*args)

    monkeypatch.setattr(protocols, "predict_timeline", counting)
    center = MotionState((0.0, 0.0), (0.0, 0.0))
    state = sensor_state(
        center, 100.0, [carried(1, 50, 0, 0, 0, 2.0), carried(2, 150, 0, -10, 0, 1.0)], (0.0, 10.0)
    )
    assert {o.id for o in state.relevant_at(1.0)} == {1, 2}
    assert {o.id for o in state.relevant_at(2.0)} == {1, 2}
    assert calls == [1.0]
    # a newer record of a known object
    keep_newest(state.known, carried(2, 130, 0, 10, 0, 1.0, observed_at=2.5))
    assert {o.id for o in state.relevant_at(3.0)} == {1}
    state.relevant_at(4.0)
    assert calls == [1.0, 3.0]
    # a re-announcement replaces the descriptor, even with equal fields
    state.descriptor = replace(state.descriptor)
    state.relevant_at(5.0)
    state.relevant_at(6.0)
    # the window end is always computed fresh
    state.relevant_at(10.0)
    assert calls == [1.0, 3.0, 5.0, 10.0]
