"""Cooperative range-skyline query processing on mobile nodes.

Three approaches share one driver:

* distributed snapshot: the query floods with a derived TTL; leaf nodes
  report themselves, intermediate nodes merge received objects with their own
  record under dominance checks and forward one batch along the reverse path;
  the issuer merges and prunes the candidates.
* distributed continuous: nodes additionally predict, from carried motion
  states, when each candidate enters and leaves the query range, keep a
  per-segment skyline timeline over the monitoring window, and send updates
  only when their relevant object set changes.
* centralized: the query floods everywhere with a fixed TTL, every receiver
  reports its own record hop by hop with no pruning, re-reporting every
  round for continuous queries; the issuer computes skylines from raw
  reports without motion extrapolation.

Carried object states are anchored at leg starts, so every observer of the
same leg produces an identical record, change detection compares exact
anchors, and re-sensing an unchanged neighbor never triggers an update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from rangeskyline.kinematics import (
    INF,
    MotionState,
    crossing_window,
    position_at,
    quadratic_roots,
    safe_interval,
)
from rangeskyline.netsim import (
    EVENT_PERIODIC,
    EVENT_QUERY_EXPIRE,
    EVENT_QUERY_ISSUE,
    EVENT_RECOMPUTE,
    EVENT_REPLY_DEADLINE,
    EVENT_SAFE_TIME,
    EVENT_WAYPOINT,
    MSG_QUERY,
    MSG_REPLY,
    MSG_UPDATE,
    Message,
    Simulator,
)
from rangeskyline.skyline import (
    DataObject,
    QuerySnapshot,
    keep_newest,
    merge_prune,
    point_skyline,
    skyline_rows,
)

MODE_DISTRIBUTED = "distributed"
MODE_CENTRALIZED = "centralized"

# Intermediate nodes hold their first reply until the replies of a TTL-deep
# subtree can drain: two hop delays per remaining level plus slack.
HOLD_FACTOR = 2.2
# The issuer gives up on stragglers after this many hop delays per flood level,
# or at the run's end if that comes first.
TIMEOUT_FACTOR = 4.0
# The issuer recomputes its global timeline at most once per this interval.
RECOMPUTE_INTERVAL = 0.1


@dataclass(frozen=True)
class QueryDescriptor:
    """Everything a sensor needs to serve one query."""

    query_id: int
    issuer: int
    issuer_state: MotionState
    range_R: float
    window: tuple[float, float]
    ttl: int
    generation: int = 0

    def __post_init__(self) -> None:
        if self.window[0] > self.window[1]:
            raise ValueError("window start exceeds window end")
        if self.range_R <= 0:
            raise ValueError("range must be > 0")

    @property
    def is_snapshot(self) -> bool:
        return self.window[0] == self.window[1]


Timeline = list[tuple[frozenset, tuple[float, float]]]


def extend_timeline(out: Timeline, sky: frozenset, a: float, b: float) -> None:
    """Append the segment (sky, (a, b)) to out.

    It is merged into the last segment when that holds the same set and ends
    exactly at a; zero-length segments are kept like any other.
    """
    if out and out[-1][0] == sky and out[-1][1][1] == a:
        prev, (pa, _) = out[-1]
        out[-1] = (prev, (pa, b))
    else:
        out.append((sky, (a, b)))


def _carried(o: DataObject) -> tuple:
    """The fields of o that the row builder reads, unpacked once per call."""
    return (
        o.position[0], o.position[1], o.velocity[0], o.velocity[1],
        o.observed_at, o.attrs.canonical(), o,
    )


def _skyline_at(center: MotionState, range_R: float, cands: list[tuple], t: float) -> frozenset:
    """Range-skyline of the _carried candidates with positions advanced to t.

    Builds the (distance, canonical attrs) rows for the shared skyline kernel;
    the hot inner loop of every segment evaluation.
    """
    cx, cy = position_at(center, t)
    rows: list[tuple[float, tuple[float, ...], DataObject]] = []
    for x, y, ux, uy, obs, key, o in cands:
        d = math.hypot(x + ux * (t - obs) - cx, y + uy * (t - obs) - cy)
        if d <= range_R:
            rows.append((d, key, o))
    return frozenset(skyline_rows(rows))


def predict_timeline(
    center: MotionState,
    range_R: float,
    objects: list[DataObject],
    window: tuple[float, float],
    now: float,
) -> Timeline:
    """Per-segment range-skylines over the window under linear motion.

    Segments break where a candidate's predicted in-range interval starts or
    ends and where two live candidates tie in distance to the center; within
    a segment the skyline is constant, so it is evaluated at the midpoint.
    Returns (frozenset of carried objects, (start, end)) pairs partitioning
    [max(now, window start), window end], coalescing equal neighbours.
    """
    lo = max(window[0], now)
    hi = window[1]
    if lo > hi:
        return []
    if lo == hi:
        return [(_skyline_at(center, range_R, [_carried(o) for o in objects], lo), (lo, hi))]

    cuts: set[float] = {lo, hi}
    # Offset p and velocity v of each live candidate relative to the center
    # at lo; their squared distance is |p|^2 + 2(p.v)t + |v|^2 t^2.
    live: list[tuple[float, float, float, float, float, tuple]] = []
    cx, cy = position_at(center, lo)
    cvx, cvy = center.velocity
    for o in objects:
        si = safe_interval(center, o, range_R, lo)
        # clipped to the window, so leave <= hi
        enter = max(si.enter, lo)
        leave = min(si.leave, hi)
        if enter > leave:
            continue
        cuts.add(enter)
        cuts.add(leave)
        px = o.position[0] + o.velocity[0] * (lo - o.observed_at) - cx
        py = o.position[1] + o.velocity[1] * (lo - o.observed_at) - cy
        vx = o.velocity[0] - cvx
        vy = o.velocity[1] - cvy
        live.append(
            (enter, leave, vx * vx + vy * vy, px * vx + py * vy, px * px + py * py, _carried(o))
        )

    # Distance ties of two candidates while both are live cut the window.
    span = hi - lo
    for i, (ea, la, va2, pva, p2a, _) in enumerate(live):
        for eb, lb, vb2, pvb, p2b, _ in live[i + 1:]:
            start = max(ea, eb)
            stop = min(la, lb)
            if start >= stop:
                continue
            # |pa + va*t|^2 - |pb + vb*t|^2 as c2*t^2 + c1*t + c0, t relative to lo
            c2 = va2 - vb2
            c1 = 2.0 * (pva - pvb)
            c0 = p2a - p2b
            if c2 != 0.0:
                roots = quadratic_roots(c2, c1, c0) or ()
            elif c1 != 0.0:
                roots = (-c0 / c1,)
            else:
                continue
            for r in roots:
                if 0.0 < r < span:
                    t = lo + r
                    if start < t < stop:
                        cuts.add(t)

    marks = sorted(cuts)
    out: Timeline = []
    for a, b in zip(marks, marks[1:]):
        mid = (a + b) / 2.0
        members = [row for enter, leave, _, _, _, row in live if enter <= mid <= leave]
        # members are in range by their safe intervals
        extend_timeline(out, _skyline_at(center, INF, members, mid), a, b)
    return out


def _contact_enter(la: tuple, lb: tuple, R: float) -> float:
    """When the nodes on legs la and lb (WaypointPlan.leg_entry) come within R.

    Certified at t, the later leg start, so it is the same float whenever it
    runs and in either order of the legs: the crossing is kept only when
    t < enter < the earlier leg end, and is +inf otherwise.  Legs cover
    [t_start, t_end), so a trigger fires on the legs it was computed from
    and needs no leg stamp (a kinetic certificate).  The floats are those of
    safe_interval on the motion states of a and b at t: its zero-dt
    extrapolation adds v * 0.0 = ±0.0, which leaves a coordinate unchanged
    unless it is -0.0, and a leg position never is: leg origins are the
    start and the waypoints, uniform draws from [0, side] in a generated
    world, and a float sum is -0.0 only if both terms are.
    """
    _, _, sa, ea, ax, ay, avx, avy, _ = la
    _, _, sb, eb, bx, by, bvx, bvy, _ = lb
    t = max(sa, sb)
    leg_end = min(ea, eb)
    if leg_end <= t:
        return INF
    qx = ax + avx * (t - sa)
    qy = ay + avy * (t - sa)
    px = bx + bvx * (t - sb)
    py = by + bvy * (t - sb)
    enter, _ = crossing_window(px - qx, py - qy, bvx - avx, bvy - avy, R, t)
    return enter if t < enter < leg_end else INF


def relevant_union(timeline: Timeline) -> frozenset:
    """Every object appearing in at least one segment's skyline."""
    out: set = set()
    for sky, _ in timeline:
        out |= sky
    return frozenset(out)


def signature(objects) -> frozenset:
    """Change-detection key: object identity plus its motion anchor."""
    return frozenset((o.id, o.observed_at) for o in objects)


@dataclass
class SensorQueryState:
    """What one sensor tracks for one buffered query."""

    descriptor: QueryDescriptor
    known: dict[int, DataObject] = field(default_factory=dict)
    replied: bool = False
    last_sent: frozenset = frozenset()
    # (descriptor, signature(known), timeline) of the last fresh prediction
    prediction: tuple[QueryDescriptor, frozenset, Timeline] | None = None

    def relevant_at(self, t: float) -> frozenset:
        """relevant_union of the predicted timeline from t to the window end.

        The last fresh prediction is reused while the descriptor is the same
        object and known has the same signature.  A fresh call re-solves
        every crossing from t, so a cut can move by ulps (up to ~1e-7 s near
        tangency): only an object held for about that long can differ.
        """
        desc = self.descriptor
        sig = signature(self.known.values())
        kept = self.prediction
        if kept is not None and kept[0] is desc and kept[1] == sig and t < desc.window[1]:
            return relevant_union([seg for seg in kept[2] if seg[1][1] > t])
        timeline = predict_timeline(
            desc.issuer_state, desc.range_R, list(self.known.values()), desc.window, t
        )
        self.prediction = (desc, sig, timeline)
        return relevant_union(timeline)


@dataclass
class QueryOutcome:
    """Issuer-side record of one query's lifetime, consumed by the harness."""

    descriptor: QueryDescriptor
    issue_time: float
    response_time: float | None = None
    accessed_objects: int = 0
    known: dict[int, DataObject] = field(default_factory=dict)
    # what the issuer believed at each instant of the window, as of its last
    # recompute: the empty set until the first one
    realized: Timeline = field(init=False)
    last_recompute: float = -INF
    recompute_scheduled: bool = False

    def __post_init__(self) -> None:
        self.realized = [(frozenset(), self.descriptor.window)]

    def believe(self, t: float, timeline: Timeline) -> None:
        """Make timeline, recomputed at t, the issuer's belief from t on.

        timeline covers [max(t, t0), t_end].  The belief before t stays:
        segments starting at or after t are dropped and the last one is cut
        at t.  Zero-length segments are not kept.
        """
        out = self.realized
        while out and out[-1][1][0] >= t:
            out.pop()
        if out:
            out[-1] = (out[-1][0], (out[-1][1][0], t))
        for sky, (a, b) in timeline:
            if b > a:
                extend_timeline(out, sky, a, b)


class QueryProtocol:
    """Event handlers wiring one processing approach into a simulator."""

    def __init__(
        self,
        sim: Simulator,
        mode: str = MODE_DISTRIBUTED,
        report_interval: float = 1.0,
    ) -> None:
        if mode not in (MODE_DISTRIBUTED, MODE_CENTRALIZED):
            raise ValueError(f"unknown mode {mode!r}")
        self.sim = sim
        self.mode = mode
        self.report_interval = report_interval
        self.outcomes: dict[int, QueryOutcome] = {}
        # last window end of a continuous query: after it no node holds one,
        # so no waypoint or contact trigger is due
        self._span_end = -INF
        sim.on_message = self._on_message
        sim.on_collection_complete = self._on_collection_complete
        sim.register(EVENT_QUERY_ISSUE, self._on_issue)
        sim.register(EVENT_REPLY_DEADLINE, self._on_deadline)
        sim.register(EVENT_WAYPOINT, self._on_waypoint)
        sim.register(EVENT_SAFE_TIME, self._on_contact)
        sim.register(EVENT_RECOMPUTE, self._on_recompute)
        sim.register(EVENT_PERIODIC, self._on_periodic_round)
        sim.register(EVENT_QUERY_EXPIRE, self._on_expire)

    # -- setup ---------------------------------------------------------------

    def issue(self, descriptor: QueryDescriptor, at: float) -> None:
        """Schedule the issue; a continuous one widens the span to its window end.

        Issue every query before Simulator.run: the first continuous issue
        schedules the kinetic events up to the span end as it stands then.
        """
        if not descriptor.is_snapshot:
            self._span_end = max(self._span_end, descriptor.window[1])
        self.sim.schedule(
            at,
            EVENT_QUERY_ISSUE,
            {"query_id": descriptor.query_id, "node": descriptor.issuer, "descriptor": descriptor},
        )

    def schedule_contacts(self) -> None:
        """Range-crossing triggers for all node pairs on their current legs."""
        ids = list(self.sim.nodes)
        for i, a in enumerate(ids):
            self._certify(a, ids[i + 1:])

    def _certify(self, a: int, others: list[int]) -> None:
        """Contact trigger for a and each of others, in order, on their legs now.

        Only a crossing from the clock to the span end is scheduled (see
        _contact_enter), with the lower id as "a".
        """
        nodes = self.sim.nodes
        R = self.sim.link.transmission_range
        clock = self.sim.clock
        last = min(self._span_end, self.sim.horizon)
        la = nodes[a].plan.leg_entry(clock)
        for b in others:
            enter = _contact_enter(la, nodes[b].plan.leg_entry(clock), R)
            if clock <= enter <= last:
                self.sim.schedule(enter, EVENT_SAFE_TIME, {"a": min(a, b), "b": max(a, b)})

    # -- sensing ---------------------------------------------------------------

    def _sense(self, node_id: int, t: float) -> DataObject:
        """The node's own record of its position and velocity at t."""
        node = self.sim.nodes[node_id]
        state = node.plan.motion_state_at(t)
        return DataObject(node_id, state.position, state.velocity, node.attrs, t)

    def _sense_neighborhood(self, node_id: int, state: SensorQueryState, t: float) -> None:
        """Record the node and its neighbours as anchored on their current legs.

        A record anchors at its leg start and shares the leg's origin and
        velocity; past the final leg it holds still at the leg end.  None is
        built when known holds one at least as new, which keep_newest drops.
        """
        sim = self.sim
        known = state.known
        for nid in [node_id] + sim.neighbors_of(node_id, t):
            node = sim.nodes[nid]
            attrs, plan = node.attrs, node.plan
            if attrs is None:
                continue
            _, _, t_start, t_end, _, _, _, _, leg = plan.leg_entry(t)
            stopped = t >= t_end
            kept = known.get(nid)
            if kept is not None and kept.observed_at >= (t_end if stopped else t_start):
                continue
            if stopped:
                record = DataObject(nid, plan.position_at(t_end), (0.0, 0.0), attrs, t_end)
            else:
                record = DataObject(nid, leg.origin, leg.velocity, attrs, t_start)
            keep_newest(known, record)

    # -- query issue and dissemination -------------------------------------------

    def _on_issue(self, payload: dict, t: float) -> None:
        desc = payload["descriptor"]
        if (
            self.mode == MODE_DISTRIBUTED
            and not desc.is_snapshot
            and all(o.descriptor.is_snapshot for o in self.outcomes.values())
        ):
            # kinetic events matter only while a continuous query is live: the
            # first one schedules every leg change in (t, span end], then contacts
            last = min(self._span_end, self.sim.horizon)
            for nid, node in self.sim.nodes.items():
                for w in node.plan.leg_change_times(t, last):
                    self.sim.schedule(w, EVENT_WAYPOINT, {"node": nid})
            self.schedule_contacts()
        desc = self._announce(desc, t)
        qid = desc.query_id
        self.outcomes[qid] = QueryOutcome(descriptor=desc, issue_time=t)
        hop_delay = self.sim.link.hop_delay
        timeout = min(t + TIMEOUT_FACTOR * (desc.ttl + 1) * hop_delay, self.sim.horizon)
        self.sim.schedule(timeout, EVENT_QUERY_EXPIRE, {"query_id": qid, "reason": "timeout"})
        if not desc.is_snapshot:
            if self.mode == MODE_CENTRALIZED:
                self.sim.schedule(t + self.report_interval, EVENT_PERIODIC, {"query_id": qid})
            self.sim.schedule(
                desc.window[1], EVENT_QUERY_EXPIRE, {"query_id": qid, "reason": "window-end"}
            )

    def _reflood(self, qid: int, t: float) -> None:
        outcome = self.outcomes[qid]
        outcome.descriptor = self._announce(
            replace(outcome.descriptor, generation=outcome.descriptor.generation + 1), t
        )

    def _announce(self, desc: QueryDescriptor, t: float) -> QueryDescriptor:
        """Flood desc with the issuer's motion at t; returns what was flooded.

        Generation 0 is the initial wave, whose collection the engine tracks.
        """
        issuer = self.sim.nodes[desc.issuer]
        desc = replace(desc, issuer_state=issuer.plan.motion_state_at(t))
        issuer.store_query(desc.query_id, SensorQueryState(descriptor=desc))
        self.sim.flood(
            desc.issuer,
            Message(MSG_QUERY, desc.ttl, desc.query_id, payload=desc,
                    generation=desc.generation, initial=desc.generation == 0),
        )
        return desc

    # -- message dispatch ----------------------------------------------------------

    def _on_message(self, node_id: int, msg: Message, t: float) -> None:
        if msg.msg_type == MSG_QUERY:
            self._on_query_received(node_id, msg, t)
            return
        if self._is_issuer(node_id, msg.query_id):
            self._issuer_receive(self.outcomes[msg.query_id], msg, t)
        else:
            self._sensor_receive(node_id, msg, t)

    def _on_query_received(self, node_id: int, msg: Message, t: float) -> None:
        desc: QueryDescriptor = msg.payload
        qid = desc.query_id
        # the issuer never gets here: the engine marks its own floods as seen
        if self._expired(desc, t):
            return
        node = self.sim.nodes[node_id]
        state = node.query_buffer.get(qid)
        if state is not None:
            # re-announcement: the center trajectory changed
            state.descriptor = desc
            if self.mode == MODE_DISTRIBUTED:
                self._monitor_tick(node_id, state, t)
            return
        state = SensorQueryState(descriptor=desc)
        if not node.store_query(qid, state):
            return
        if self.mode == MODE_CENTRALIZED:
            if node.attrs is not None:
                record = self._sense(node_id, t)
                self._send_up(node_id, qid, [record], MSG_REPLY, initial=msg.initial)
            return
        if desc.is_snapshot:
            if node.attrs is not None:
                keep_newest(state.known, self._sense(node_id, t))
        else:
            self._sense_neighborhood(node_id, state, t)
        if msg.ttl > 0:
            deadline = t + HOLD_FACTOR * msg.ttl * self.sim.link.hop_delay
            self.sim.schedule_initial(
                deadline, EVENT_REPLY_DEADLINE, qid, {"node": node_id, "query_id": qid}
            )
        else:
            state.replied = True
            self._recompute_and_send(node_id, state, t, MSG_REPLY, initial=msg.initial)

    def _on_deadline(self, payload: dict, t: float) -> None:
        node_id, qid = payload["node"], payload["query_id"]
        state = self.sim.nodes[node_id].query_buffer.get(qid)
        if state is not None and not state.replied:
            state.replied = True
            self._recompute_and_send(node_id, state, t, MSG_REPLY, initial=True)
        self.sim.settle_initial(qid)

    def _sensor_receive(self, node_id: int, msg: Message, t: float) -> None:
        state = self.sim.nodes[node_id].query_buffer.get(msg.query_id)
        if state is None:
            # plain relay on the reverse path, no local processing
            self.sim.reverse_forward(node_id, msg)
            return
        if self.mode == MODE_CENTRALIZED:
            # no pruning: relay every report toward the issuer
            self.sim.reverse_forward(node_id, msg)
            return
        keep_newest(state.known, msg.payload)
        if not state.replied:
            return
        self._recompute_and_send(
            node_id, state, t,
            msg_type=MSG_REPLY if msg.initial else MSG_UPDATE,
            initial=msg.initial,
        )

    def _issuer_receive(self, outcome: QueryOutcome, msg: Message, t: float) -> None:
        outcome.accessed_objects += 1
        keep_newest(outcome.known, msg.payload)
        if not outcome.descriptor.is_snapshot:
            self._schedule_issuer_recompute(outcome, t)

    # -- sensor-side computation ------------------------------------------------

    def _compose_batch(self, state: SensorQueryState, t: float) -> list[DataObject]:
        desc = state.descriptor
        if desc.is_snapshot:
            q = QuerySnapshot(position_at(desc.issuer_state, desc.window[0]), desc.range_R)
            return sorted(point_skyline(q, state.known.values()), key=lambda o: o.id)
        return sorted(state.relevant_at(t), key=lambda o: o.id)

    def _recompute_and_send(
        self, node_id: int, state: SensorQueryState, t: float, msg_type: str, initial: bool
    ) -> None:
        batch = self._compose_batch(state, t)
        sig = signature(batch)
        if sig == state.last_sent:
            return
        state.last_sent = sig
        if batch:
            self._send_up(node_id, state.descriptor.query_id, batch, msg_type, initial=initial)

    def _monitor_tick(self, node_id: int, state: SensorQueryState, t: float) -> None:
        """Refresh neighborhood knowledge and report prediction changes."""
        if state.descriptor.is_snapshot:
            return
        self._sense_neighborhood(node_id, state, t)
        if state.replied:
            self._recompute_and_send(node_id, state, t, MSG_UPDATE, initial=False)

    # -- transport ----------------------------------------------------------------

    def _send_up(
        self, node_id: int, qid: int, objects: list[DataObject], msg_type: str, initial: bool
    ) -> None:
        for obj in objects:
            self.sim.reverse_forward(
                node_id, Message(msg_type, 0, qid, payload=obj, initial=initial)
            )

    # -- issuer-side computation -----------------------------------------------------

    def _schedule_issuer_recompute(self, outcome: QueryOutcome, t: float) -> None:
        if outcome.recompute_scheduled:
            return
        due = outcome.last_recompute + RECOMPUTE_INTERVAL
        if due <= t:
            self._issuer_recompute(outcome, t)
        else:
            outcome.recompute_scheduled = True
            self.sim.schedule(due, EVENT_RECOMPUTE, {"query_id": outcome.descriptor.query_id})

    def _on_recompute(self, payload: dict, t: float) -> None:
        self._issuer_recompute(self.outcomes[payload["query_id"]], t)

    def _issuer_recompute(self, outcome: QueryOutcome, t: float) -> None:
        outcome.last_recompute = t
        outcome.recompute_scheduled = False
        desc = outcome.descriptor
        if self._expired(desc, t):
            return
        t0, t_end = desc.window
        center = self.sim.nodes[desc.issuer].plan.motion_state_at(t)
        if self.mode == MODE_CENTRALIZED:
            # raw reported positions, no extrapolation
            sky = self._raw_skyline(outcome, center.position)
            outcome.believe(t, [(sky, (max(t, t0), t_end))])
            return
        timeline = predict_timeline(
            center, desc.range_R, list(outcome.known.values()), desc.window, t
        )
        outcome.believe(t, timeline)

    @staticmethod
    def _raw_skyline(outcome: QueryOutcome, position: tuple[float, float]) -> frozenset:
        """Range-skyline about position of the records as the issuer holds them."""
        q = QuerySnapshot(position, outcome.descriptor.range_R)
        return frozenset(merge_prune(q, [set(outcome.known.values())]))

    def _settle(self, outcome: QueryOutcome, t: float, again: bool = False) -> None:
        """Answer when the initial collection completes or times out.

        The first call stamps the response time.  A snapshot is answered once,
        by one zero-length segment; a continuous query again when asked.
        """
        desc = outcome.descriptor
        if outcome.response_time is None:
            outcome.response_time = t - outcome.issue_time
        elif not again or desc.is_snapshot:
            return
        if desc.is_snapshot:
            t0 = desc.window[0]
            sky = self._raw_skyline(outcome, position_at(desc.issuer_state, t0))
            outcome.realized = [(sky, (t0, t0))]
        else:
            self._issuer_recompute(outcome, t)

    def _on_collection_complete(self, qid: int, t: float) -> None:
        self._settle(self.outcomes[qid], t, again=True)

    # -- mobility, contacts, rounds ------------------------------------------------

    def _on_waypoint(self, payload: dict, t: float) -> None:
        moved = payload["node"]
        for qid in sorted(self.outcomes):
            outcome = self.outcomes[qid]
            desc = outcome.descriptor
            if desc.issuer == moved and not desc.is_snapshot and not self._expired(desc, t):
                self._reflood(qid, t)
                self._schedule_issuer_recompute(outcome, t)
        self._touch_holders_near(moved, t)
        self._certify(moved, [nid for nid in self.sim.nodes if nid != moved])

    def _touch_holders_near(self, moved: int, t: float) -> None:
        for nid in self.sim.neighbors_of(moved, t) + [moved]:
            self._tick_held_queries(nid, t)

    def _tick_held_queries(self, nid: int, t: float) -> None:
        """Monitor tick for every query nid holds as a sensor, not as issuer."""
        node = self.sim.nodes[nid]
        for qid in sorted(node.query_buffer):
            if not self._is_issuer(nid, qid):
                self._monitor_tick(nid, node.query_buffer[qid], t)

    def _on_contact(self, payload: dict, t: float) -> None:
        a, b = payload["a"], payload["b"]
        self._piggyback(a, b, t)
        self._piggyback(b, a, t)
        for nid in (a, b):
            self._tick_held_queries(nid, t)

    def _piggyback(self, holder: int, learner: int, t: float) -> None:
        """A node entering a holder's range learns its active queries free."""
        giver = self.sim.nodes[holder]
        taker = self.sim.nodes[learner]
        for qid in sorted(giver.query_buffer):
            desc = giver.query_buffer[qid].descriptor
            if desc.is_snapshot or qid in taker.query_buffer or learner == desc.issuer:
                continue
            state = SensorQueryState(descriptor=desc, replied=True)
            if not taker.store_query(qid, state):
                continue
            self.sim.reverse_parent.setdefault((learner, qid), holder)
            self._monitor_tick(learner, state, t)

    def _on_periodic_round(self, payload: dict, t: float) -> None:
        qid = payload["query_id"]
        desc = self.outcomes[qid].descriptor
        if self._expired(desc, t):
            return
        self._reflood(qid, t)
        for nid, node in self.sim.nodes.items():
            if qid in node.query_buffer and nid != desc.issuer and node.attrs is not None:
                record = self._sense(nid, t)
                self._send_up(nid, qid, [record], MSG_UPDATE, initial=False)
        nxt = t + self.report_interval
        if not self._expired(desc, nxt):
            self.sim.schedule(nxt, EVENT_PERIODIC, {"query_id": qid})

    def _on_expire(self, payload: dict, t: float) -> None:
        qid = payload["query_id"]
        outcome = self.outcomes[qid]
        if payload["reason"] == "timeout":
            self._settle(outcome, t)
            if not outcome.descriptor.is_snapshot:
                return
        for node in self.sim.nodes.values():
            node.query_buffer.pop(qid, None)

    def _is_issuer(self, node_id: int, qid: int) -> bool:
        outcome = self.outcomes.get(qid)
        return outcome is not None and node_id == outcome.descriptor.issuer

    @staticmethod
    def _expired(desc: QueryDescriptor, t: float) -> bool:
        """A continuous query is over from its window end on; a snapshot never expires.

        The one end rule: no node stores a query from then on, and the
        window-end event empties every buffer, so a held query is live.
        """
        return not desc.is_snapshot and t >= desc.window[1]
