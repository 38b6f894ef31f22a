import math
import random
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from rangeskyline.kinematics import WaypointPlan
from rangeskyline.netsim import (
    BROADCAST,
    EVENT_MESSAGE,
    EVENT_MESSAGE_LOST,
    EVENT_QUERY_ISSUE,
    LinkModel,
    Message,
    MSG_QUERY,
    MSG_REPLY,
    MSG_UPDATE,
    NodeRuntime,
    Simulator,
)
from rangeskyline.skyline import AttributeVector


def static_node(node_id, x, y):
    plan = WaypointPlan((float(x), float(y)), (1000.0, 1000.0), (0.0, 0.0), 60.0, random.Random(0))
    return NodeRuntime(node_id, plan, AttributeVector((1.0,)))


def build_sim(coords, r, p=1.0, seed=0):
    nodes = [static_node(i, x, y) for i, (x, y) in enumerate(coords)]
    link = LinkModel(transmission_range=r, delivery_prob=p)
    return Simulator(nodes, link, seed=seed, horizon=60.0)


def query_msg(ttl, qid=1, initial=False):
    return Message(MSG_QUERY, ttl, qid, payload=None, initial=initial)


def traced_hops(sim, kind, msg_type):
    """(src, dst) columns of the trace lines of one event kind and message type."""
    return [
        (int(f[2]), int(f[3]))
        for f in (line.split("\t") for line in sim.trace)
        if f[1] == kind and f[4] == msg_type
    ]


# ---------------------------------------------------------------------------
# Independent BFS oracle over the static geometric graph.
# ---------------------------------------------------------------------------

def bfs_depths(coords, r, origin=0):
    n = len(coords)
    adj = [
        [j for j in range(n) if j != i and math.dist(coords[i], coords[j]) <= r]
        for i in range(n)
    ]
    depth = {origin: 0}
    dq = deque([origin])
    while dq:
        v = dq.popleft()
        for w in adj[v]:
            if w not in depth:
                depth[w] = depth[v] + 1
                dq.append(w)
    return depth, adj


def run_flood(sim, ttl, qid=1, until=None):
    received = set()
    sim.on_message = lambda node, msg, t: received.add(node)
    sim.schedule(0.0, EVENT_QUERY_ISSUE, {"node": 0, "query_id": qid})
    sim.register(
        EVENT_QUERY_ISSUE,
        lambda payload, t: sim.flood(payload["node"], query_msg(ttl, qid)),
    )
    sim.run(until)
    return received


# ---------------------------------------------------------------------------
# flooding
# ---------------------------------------------------------------------------

def test_flood_ttl_zero_reaches_one_hop_only():
    coords = [(0, 0), (10, 0), (20, 0), (30, 0)]
    sim = build_sim(coords, r=12.0)
    received = run_flood(sim, ttl=0)
    assert received == {1}


def test_flood_line_topology_ttl_two():
    # origin plus four nodes in a line; ttl=2 reaches three of them
    coords = [(0, 0), (10, 0), (20, 0), (30, 0), (40, 0)]
    sim = build_sim(coords, r=12.0)
    received = run_flood(sim, ttl=2)
    assert received == {1, 2, 3}


def test_flood_matches_bfs_within_ttl_plus_one():
    rng = random.Random(8)
    for trial in range(10):
        coords = [(rng.uniform(0, 200), rng.uniform(0, 200)) for _ in range(25)]
        r = 60.0
        ttl = rng.randint(0, 3)
        depth, _ = bfs_depths(coords, r)
        expected = {v for v, d in depth.items() if 1 <= d <= ttl + 1}
        sim = build_sim(coords, r, seed=trial)
        assert run_flood(sim, ttl) == expected


def test_flood_processes_each_node_once():
    coords = [(0, 0), (10, 0), (10, 10), (20, 5), (30, 5)]
    sim = build_sim(coords, r=16.0)
    hits = []
    sim.on_message = lambda node, msg, t: hits.append((msg.generation, node))
    sim.register(
        EVENT_QUERY_ISSUE,
        lambda payload, t: sim.flood(0, replace(query_msg(5), generation=payload["generation"])),
    )
    # two generations of the same query from the same origin
    sim.schedule(0.0, EVENT_QUERY_ISSUE, {"node": 0, "generation": 0})
    sim.schedule(1.0, EVENT_QUERY_ISSUE, {"node": 0, "generation": 1})
    sim.run()
    assert len(hits) == len(set(hits))
    # every other node processes each generation; the origin, which marks
    # its own floods as seen, processes neither
    assert sorted(hits) == [(g, n) for g in (0, 1) for n in range(1, len(coords))]


def test_reverse_parent_is_recorded_toward_origin():
    coords = [(0, 0), (10, 0), (20, 0), (30, 0)]
    sim = build_sim(coords, r=12.0)
    run_flood(sim, ttl=3)
    assert sim.reverse_parent[(1, 1)] == 0
    assert sim.reverse_parent[(2, 1)] == 1
    assert sim.reverse_parent[(3, 1)] == 2


# ---------------------------------------------------------------------------
# reverse-path replies
# ---------------------------------------------------------------------------

def relay_replies_to_origin(sim, origin=0):
    def on_message(node, msg, t):
        if msg.msg_type == MSG_REPLY and node != origin:
            sim.reverse_forward(node, msg)

    sim.on_message = on_message


def test_reply_three_hops_costs_three_messages():
    coords = [(0, 0), (10, 0), (20, 0), (30, 0)]
    sim = build_sim(coords, r=12.0)
    run_flood(sim, ttl=3)
    relay_replies_to_origin(sim)
    obj = static_node(99, 30, 0)
    sim.reverse_forward(3, Message(MSG_REPLY, 0, 1, payload=None))
    sim.run()
    assert sim.stats.sent[MSG_REPLY] == 3
    assert sim.stats.delivered[MSG_REPLY] == 3


def test_reply_four_objects_two_hops_costs_eight():
    coords = [(0, 0), (10, 0), (20, 0)]
    sim = build_sim(coords, r=12.0)
    run_flood(sim, ttl=2)
    relay_replies_to_origin(sim)
    for _ in range(4):
        sim.reverse_forward(2, Message(MSG_REPLY, 0, 1, payload=None))
    sim.run()
    assert sim.stats.sent[MSG_REPLY] == 8


def test_reply_without_parent_is_dropped_as_loss():
    coords = [(0, 0), (10, 0)]
    sim = build_sim(coords, r=12.0)
    ok = sim.reverse_forward(1, Message(MSG_REPLY, 0, 7, payload=None))
    assert not ok
    assert sim.stats.lost[MSG_REPLY] == 1
    assert traced_hops(sim, EVENT_MESSAGE_LOST, MSG_REPLY) == [(1, BROADCAST)]
    assert sim.stats.delivered.get(MSG_REPLY, 0) == 0


def test_trace_names_each_hop_sender_and_receiver():
    # one message object travels every hop; the trace reads the hop, not the message
    coords = [(0, 0), (10, 0), (20, 0), (30, 0)]
    sim = build_sim(coords, r=12.0)
    run_flood(sim, ttl=3)
    assert traced_hops(sim, EVENT_MESSAGE, MSG_QUERY) == [
        (0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)
    ]
    relay_replies_to_origin(sim)
    sim.reverse_forward(3, Message(MSG_REPLY, 0, 1, payload=None))
    sim.run()
    assert traced_hops(sim, EVENT_MESSAGE, MSG_REPLY) == [(3, 2), (2, 1), (1, 0)]

    star = build_sim([(0, 0), (10, 0), (0, 10), (-10, 0)], r=12.0)
    star.broadcast(0, Message(MSG_UPDATE, 0, 1, payload=None))
    star.run()
    assert traced_hops(star, EVENT_MESSAGE, MSG_UPDATE) == [(0, 1), (0, 2), (0, 3)]


def test_pending_deliveries_carry_the_message_at_heap_slot_three():
    # benchmarks/run.py counts messages still in flight when run() returns as
    # e[3].msg_type of every heap entry e whose e[2] is a message delivery
    sim = build_sim([(0, 0), (10, 0), (0, 10), (-10, 0)], r=12.0)
    update = Message(MSG_UPDATE, 0, 1, payload=None)
    reply = Message(MSG_REPLY, 0, 1, payload=None)
    sim.broadcast(0, update)
    sim.unicast(0, 2, reply)
    sim.schedule(0.002, EVENT_QUERY_ISSUE, {"node": 0})
    sim.run(until=0.001)
    assert len(sim._heap) == 5
    pending = sorted(e for e in sim._heap if e[2] == EVENT_MESSAGE)
    assert [e[3] for e in pending] == [update, update, update, reply]
    assert pending[0][3] is pending[1][3] is pending[2][3]
    assert Counter(e[3].msg_type for e in pending) == {MSG_UPDATE: 3, MSG_REPLY: 1}


def test_loss_model_delivery_ratio():
    coords = [(0, 0), (10, 0)]
    sim = build_sim(coords, r=12.0, p=0.9, seed=123)
    run_flood(sim, ttl=0)
    for _ in range(1000):
        sim.unicast(0, 1, Message(MSG_REPLY, 0, 1, payload=None))
    sim.run()
    ratio = sim.stats.delivered[MSG_REPLY] / 1000
    assert abs(ratio - 0.9) <= 0.03


# ---------------------------------------------------------------------------
# neighbor tables
# ---------------------------------------------------------------------------

def test_isolated_node_has_empty_table():
    sim = build_sim([(0, 0), (500, 500)], r=50.0)
    assert sim.neighbors_of(0, 0.0) == []


def test_nodes_at_exact_range_are_mutual_neighbors():
    sim = build_sim([(0, 0), (75, 0)], r=75.0)
    assert list(sim.neighbors_of(0, 0.0)) == [1]
    assert list(sim.neighbors_of(1, 0.0)) == [0]


def test_neighbor_table_matches_distance_oracle():
    rng = random.Random(31)
    coords = [(rng.uniform(0, 300), rng.uniform(0, 300)) for _ in range(40)]
    r = 80.0
    sim = build_sim(coords, r)
    for i in range(40):
        expected = {
            j for j in range(40) if j != i and math.dist(coords[i], coords[j]) <= r
        }
        assert sim.neighbors_of(i, 0.0) == sorted(expected)


def test_neighbor_tables_follow_moving_nodes_across_interleaved_instants():
    # positions are kept per instant: a table asked at t1, then t2, then t1
    # again, from different nodes, must match the geometry at each instant
    rng = random.Random(47)
    ids = [7, 3, 11, 0, 5, 9, 2, 14, 6, 1, 12, 4]
    nodes = [
        NodeRuntime(
            nid,
            WaypointPlan(
                (rng.uniform(0, 300), rng.uniform(0, 300)), (300.0, 300.0), (5.0, 15.0), 60.0, rng
            ),
            AttributeVector((1.0,)),
        )
        for nid in ids
    ]
    r = 80.0
    sim = Simulator(nodes, LinkModel(transmission_range=r), horizon=60.0)
    plans = {n.id: n.plan for n in nodes}

    def oracle(i, t):
        xi, yi = plans[i].position_at(t)
        return [
            j
            for j in sorted(plans)
            if j != i
            and (plans[j].position_at(t)[0] - xi) ** 2 + (plans[j].position_at(t)[1] - yi) ** 2
            <= r * r
        ]

    t1, t2 = 3.25, 17.5
    assert any(oracle(i, t1) != oracle(i, t2) for i in ids)
    for i, j in zip(ids, ids[1:]):
        for node, t in ((i, t1), (j, t2), (i, t1), (j, t1), (i, t2)):
            assert sim.neighbors_of(node, t) == oracle(node, t), (node, t)


def cursor_world(seed):
    """Two random-waypoint nodes and one stationary node (one leg up to inf)."""
    rng = random.Random(seed)
    plans = [
        WaypointPlan(
            (rng.uniform(0, 300), rng.uniform(0, 300)), (300.0, 300.0), (5.0, 15.0), 60.0, rng
        )
        for _ in range(2)
    ]
    plans.append(WaypointPlan((10.0, 20.0), (300.0, 300.0), (0.0, 0.0), 60.0, rng))
    return {nid: plan for nid, plan in zip((4, 1, 9), plans)}


def fresh_leg(plan, t):
    """Reference: the plan's leg at t from a bisect of its own, no cursor."""
    starts = [leg.t_start for leg in plan.legs]
    return plan.legs[max(bisect_right(starts, t) - 1, 0)]


def fresh_position(plan, t):
    leg = fresh_leg(plan, t)
    dt = min(t, leg.t_end) - leg.t_start
    return (leg.origin[0] + leg.velocity[0] * dt, leg.origin[1] + leg.velocity[1] * dt)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_plan_cursor_equals_a_fresh_bisect_at_any_order_of_instants(data):
    plans = cursor_world(data.draw(st.integers(0, 2**16), label="seed"))
    nodes = [NodeRuntime(nid, plan, AttributeVector((1.0,))) for nid, plan in plans.items()]
    r = 80.0
    # the simulator's neighbour snapshots move the same cursors
    sim = Simulator(nodes, LinkModel(transmission_range=r), horizon=60.0)
    # leg starts, instants before the first leg, and past the final leg's end
    edges = {0.0, -2.5}
    for plan in plans.values():
        edges.update(leg.t_start for leg in plan.legs)
        if math.isfinite(plan.legs[-1].t_end):
            edges.update((plan.legs[-1].t_end, plan.legs[-1].t_end + 7.5))
    instant = st.one_of(st.floats(-10.0, 120.0), st.sampled_from(sorted(edges)))
    steps = data.draw(st.lists(st.tuples(st.sampled_from(sorted(plans)), instant), min_size=1))
    # replayed backward: every instant repeats, and earlier ones follow later ones
    for nid, t in steps + steps[::-1]:
        plan = plans[nid]
        leg = fresh_leg(plan, t)
        entry = plan.leg_entry(t)
        assert entry is plan.entry
        lo, hi, t_start, t_end, x, y, vx, vy, got = entry
        assert got is leg
        assert (t_start, t_end, (x, y), (vx, vy)) == (
            leg.t_start, leg.t_end, leg.origin, leg.velocity
        )
        # [lo, hi) is exactly the span of instants that pick this leg
        assert lo <= t < hi
        assert lo == -math.inf or fresh_leg(plan, lo) is leg
        assert hi == math.inf or fresh_leg(plan, hi) is not leg
        assert plan.position_at(t) == fresh_position(plan, t)
        mx, my = fresh_position(plan, t)
        assert sim.neighbors_of(nid, t) == [
            j
            for j in sorted(plans)
            if j != nid
            and (fresh_position(plans[j], t)[0] - mx) ** 2
            + (fresh_position(plans[j], t)[1] - my) ** 2
            <= r * r
        ]


# ---------------------------------------------------------------------------
# accounting and determinism
# ---------------------------------------------------------------------------

def test_conservation_sent_equals_delivered_plus_lost():
    rng = random.Random(77)
    coords = [(rng.uniform(0, 150), rng.uniform(0, 150)) for _ in range(15)]
    sim = build_sim(coords, r=60.0, p=0.7, seed=5)
    relay_replies_to_origin(sim)
    run_flood(sim, ttl=3)
    for node in range(1, 15):
        if (node, 1) in sim.reverse_parent:
            sim.reverse_forward(node, Message(MSG_REPLY, 0, 1, payload=None))
    sim.run()
    stats = sim.stats
    sent, delivered, lost = (sum(c.values()) for c in (stats.sent, stats.delivered, stats.lost))
    assert sent == delivered + lost
    assert sent > 0


def test_same_seed_gives_identical_trace():
    rng = random.Random(55)
    coords = [(rng.uniform(0, 150), rng.uniform(0, 150)) for _ in range(12)]

    def one_run():
        sim = build_sim(coords, r=70.0, p=0.8, seed=99)
        relay_replies_to_origin(sim)
        run_flood(sim, ttl=2)
        sim.run()
        return sim.trace

    assert one_run() == one_run()


def test_trace_read_mid_run_holds_every_line_after_resume():
    rng = random.Random(55)
    coords = [(rng.uniform(0, 150), rng.uniform(0, 150)) for _ in range(12)]
    whole_run = build_sim(coords, r=70.0, p=0.8, seed=99)
    run_flood(whole_run, ttl=2)
    whole = whole_run.trace
    # stop before the last instant, so the resume traces that instant's events
    stop = sorted({float(line.split("\t")[0]) for line in whole})[-2]

    sim = build_sim(coords, r=70.0, p=0.8, seed=99)
    run_flood(sim, ttl=2, until=stop)
    first = sim.trace
    read = len(first)
    sim.run()
    assert len(first) == read  # an earlier read is a snapshot that the resume leaves alone
    assert 0 < read < len(whole)
    assert first == whole[:read]
    assert sim.trace == whole


def test_empty_node_set_produces_empty_trace():
    sim = Simulator([], LinkModel(transmission_range=10.0), seed=0, horizon=1.0)
    sim.run()
    assert sim.trace == []


def test_hand_traced_message_count_on_frozen_topology():
    # everyone-replies-own-object pattern: flood cost is one message per
    # (forwarder, neighbor) pair, replies cost one message per hop of depth
    rng = random.Random(4242)
    coords = [(rng.uniform(0, 120), rng.uniform(0, 120)) for _ in range(10)]
    r = 55.0
    ttl = 2
    depth, adj = bfs_depths(coords, r)
    assert len(depth) == 10, "frozen topology must be connected"

    expected_flood = sum(len(adj[v]) for v, d in depth.items() if d <= ttl)
    repliers = {v: d for v, d in depth.items() if 1 <= d <= ttl + 1}
    expected_reply = sum(repliers.values())

    sim = build_sim(coords, r)

    def on_message(node, msg, t):
        if msg.msg_type == MSG_QUERY:
            sim.reverse_forward(node, Message(MSG_REPLY, 0, 1, payload=None))
        elif msg.msg_type == MSG_REPLY and node != 0:
            sim.reverse_forward(node, msg)

    sim.on_message = on_message
    sim.register(EVENT_QUERY_ISSUE, lambda payload, t: sim.flood(0, query_msg(ttl)))
    sim.schedule(0.0, EVENT_QUERY_ISSUE, {"node": 0})
    sim.run()

    assert sim.stats.sent[MSG_QUERY] == expected_flood
    assert sim.stats.sent[MSG_REPLY] == expected_reply


def test_query_buffer_is_bounded():
    node = static_node(1, 0, 0)
    node.buffer_limit = 2
    assert node.store_query(1, "q1")
    assert node.store_query(2, "q2")
    assert not node.store_query(3, "q3")
    assert node.store_query(1, "q1-refresh")  # refresh of a held query is fine
    assert set(node.query_buffer) == {1, 2}


def test_transmit_queue_serializes_bursts():
    sim = build_sim([(0, 0), (10, 0)], r=12.0)
    run_flood(sim, ttl=0)
    base = sim.clock
    for _ in range(3):
        sim.unicast(0, 1, Message(MSG_REPLY, 0, 1, payload=None))
    sim.run()
    arrivals = [
        float(line.split("\t")[0])
        for line in sim.trace
        if "RSQ_REPLY" in line and "message-delivery" in line
    ]
    assert len(arrivals) == 3
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    assert all(abs(g - sim.link.tx_time) < 1e-12 for g in gaps)
