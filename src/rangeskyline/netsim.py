"""Deterministic discrete-event simulation of a multi-hop wireless network.

One event heap drives the run; events are totally ordered by (time, sequence
number), so a (scenario, seed) pair always replays the identical trace.  The
radio layer is a closed disk: nodes hear each other iff their distance is at
most the transmission range at the send instant.  Every transmitted packet is
one message; a broadcast counts one message per in-range receiver.  Each
attempt independently succeeds with the configured per-hop probability, and
delivery lands after the packet's serialization time plus a fixed per-hop
latency.  Senders own a FIFO transmit queue, so bursts serialize.

Query dissemination is TTL-limited flooding with reverse-path recording:
the first copy of a query a node hears fixes its upstream parent, duplicates
are dropped, and a positive TTL is decremented and re-broadcast.  Replies
travel hop by hop along recorded parents.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable

from rangeskyline.kinematics import WaypointPlan
from rangeskyline.skyline import AttributeVector, DataObject

MSG_QUERY = "RSQ"
MSG_REPLY = "RSQ_REPLY"
MSG_UPDATE = "UPDATE"

BROADCAST = -1

EVENT_MESSAGE = "message-delivery"
EVENT_MESSAGE_LOST = "message-lost"
EVENT_WAYPOINT = "waypoint-arrival"
EVENT_PERIODIC = "periodic-report"
EVENT_SAFE_TIME = "safe-time-trigger"
EVENT_RECOMPUTE = "issuer-recompute"
EVENT_QUERY_ISSUE = "query-issue"
EVENT_QUERY_EXPIRE = "query-expire"
EVENT_REPLY_DEADLINE = "reply-deadline"


@dataclass(frozen=True)
class LinkModel:
    """Radio parameters shared by every node."""

    transmission_range: float
    delivery_prob: float = 1.0
    bandwidth_bps: float = 2_000_000.0
    packet_size_bits: float = 1024.0
    per_hop_latency: float = 0.001

    def __post_init__(self) -> None:
        if self.transmission_range <= 0:
            raise ValueError("transmission_range must be > 0")
        if not 0.0 < self.delivery_prob <= 1.0:
            raise ValueError("delivery_prob must lie in (0, 1]")
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be > 0")
        if self.packet_size_bits <= 0:
            raise ValueError("packet_size_bits must be > 0")
        if self.per_hop_latency < 0:
            raise ValueError("per_hop_latency must be >= 0")

    @property
    def tx_time(self) -> float:
        return self.packet_size_bits / self.bandwidth_bps

    @property
    def hop_delay(self) -> float:
        return self.tx_time + self.per_hop_latency


@dataclass(frozen=True, slots=True)
class Message:
    """One network packet carrying exactly one object or one query descriptor.

    The hop it travels is not part of it: the delivery event carries the
    (sender, receiver) pair, so one object passes unchanged from hop to hop.
    """

    msg_type: str
    ttl: int
    query_id: int
    payload: object = None
    generation: int = 0
    initial: bool = False


class NodeRuntime:
    """Per-node simulation state: motion plan, sensed data, query buffer.

    The query buffer maps query ids to whatever per-query entry the protocol
    keeps; the engine only bounds how many distinct queries a node holds.
    """

    buffer_limit = 32

    def __init__(
        self,
        node_id: int,
        plan: WaypointPlan,
        attrs: AttributeVector | None = None,
    ) -> None:
        self.id = node_id
        self.plan = plan
        self.attrs = attrs
        self.query_buffer: dict[int, object] = {}
        self.tx_busy_until = 0.0

    def store_query(self, query_id: int, entry: object) -> bool:
        """Buffer a query's entry; refuses new queries past the limit."""
        if query_id not in self.query_buffer and len(self.query_buffer) >= self.buffer_limit:
            return False
        self.query_buffer[query_id] = entry
        return True


@dataclass
class MessageStats:
    """Per-run message accounting, split by message type."""

    sent: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    delivered: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    lost: dict[str, int] = field(default_factory=lambda: defaultdict(int))


def trace_line(record: tuple) -> str:
    """The tab-separated trace line of one record.

    A message record is (clock, kind, Message, sender, receiver); any other
    event's is (clock, kind, payload), whose line names the node and query
    of a dict payload.
    """
    if len(record) == 5:
        clock, kind, msg, sender, receiver = record
        oid = msg.payload.id if isinstance(msg.payload, DataObject) else "-"
        return (
            f"{clock:.9f}\t{kind}\t{sender}\t{receiver}\t{msg.msg_type}"
            f"\t{msg.ttl}\t{msg.query_id}\t{oid}"
        )
    clock, kind, payload = record
    node = qid = "-"
    if isinstance(payload, dict):
        node = payload.get("node", "-")
        qid = payload.get("query_id", "-")
    return f"{clock:.9f}\t{kind}\t{node}\t-\t-\t-\t{qid}\t-"


class TraceLog:
    """A run's trace records, each turned into its line in place when first read.

    Recording is one append to `records`; no line is built unless the trace
    is read.  A read replaces each new record by its line, which frees the
    record, so `records` holds the lines read so far and then the records
    still unread.  A record keeps a reference to its payload, which nothing
    mutates once it is scheduled.
    """

    def __init__(self) -> None:
        self.records: list = []
        self._formatted = 0

    def lines(self) -> list[str]:
        """Every line so far, formatting the records added since the last read."""
        records = self.records
        for i in range(self._formatted, len(records)):
            records[i] = trace_line(records[i])
        self._formatted = len(records)
        return records


class Simulator:
    """Single-threaded deterministic event loop over a set of mobile nodes.

    Protocol logic attaches through handler callbacks registered per event
    kind; the engine owns transmission, loss, flood forwarding, reverse-path
    bookkeeping, tracing, and per-query completion detection.  `nodes` maps
    ids to nodes in ascending id order, whatever the order they were given in.
    """

    def __init__(
        self,
        nodes: list[NodeRuntime],
        link: LinkModel,
        seed: int = 0,
        horizon: float = 60.0,
    ) -> None:
        self.nodes: dict[int, NodeRuntime] = {n.id: n for n in sorted(nodes, key=lambda n: n.id)}
        if len(self.nodes) != len(nodes):
            raise ValueError("duplicate node ids")
        self.link = link
        self.horizon = horizon
        self.clock = 0.0
        self.stats = MessageStats()
        self.trace_log = TraceLog()
        self._heap: list = []
        self._seq = itertools.count()
        self._handlers: dict[str, Callable] = {}
        self._loss_rng: dict[int, random.Random] = {
            nid: random.Random(f"{seed}:loss:{nid}") for nid in self.nodes
        }
        self.reverse_parent: dict[tuple[int, int], int] = {}
        self._seen_floods: dict[int, set[tuple[int, int]]] = defaultdict(set)
        self._pending_initial: dict[int, int] = defaultdict(int)
        self._collection_done: set[int] = set()
        self.on_collection_complete: Callable[[int, float], None] | None = None
        self.on_message: Callable[[int, Message, float], None] | None = None
        self._range2 = link.transmission_range**2
        # (id, plan) in id order, and each id's place in it and in _snapshot
        self._plans = [(nid, n.plan) for nid, n in self.nodes.items()]
        self._slot = {nid: i for i, (nid, _) in enumerate(self._plans)}
        self._snapshot_t: float | None = None
        self._snapshot: list[tuple[int, float, float]] = []

    # -- event machinery ----------------------------------------------------

    def register(self, kind: str, handler: Callable) -> None:
        self._handlers[kind] = handler

    def schedule(
        self, fire_at: float, kind: str, payload: object = None, hop: tuple[int, int] | None = None
    ) -> None:
        """Queue an event; a message delivery also carries its (sender, receiver) hop."""
        if fire_at < self.clock:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._heap, (fire_at, next(self._seq), kind, payload, hop))

    def schedule_initial(self, fire_at: float, kind: str, query_id: int, payload: object) -> None:
        """Schedule work that belongs to a query's first collection wave.

        The event's handler calls settle_initial(query_id) once it has run.
        """
        self._pending_initial[query_id] += 1
        self.schedule(fire_at, kind, payload)

    def run(self, until: float | None = None) -> None:
        """Process events in (time, sequence) order up to the stop time.

        The clock stays at the last processed event, so callers can inject
        more work and resume.
        """
        stop = self.horizon if until is None else until
        while self._heap and self._heap[0][0] <= stop:
            fire_at, _, kind, payload, hop = heapq.heappop(self._heap)
            self.clock = fire_at
            if kind == EVENT_MESSAGE:
                self._deliver(payload, *hop)
            else:
                self._trace_event(kind, payload)
                handler = self._handlers.get(kind)
                if handler is not None:
                    handler(payload, fire_at)

    # -- geometry oracle ----------------------------------------------------

    def neighbors_of(self, node_id: int, t: float) -> list[int]:
        """Ascending ids of all nodes within the transmission range (closed ball) at t."""
        if self._snapshot_t != t:
            # (id, x, y) of every node, kept for the latest instant asked:
            # plan.position_at(t) inlined, so no call per node
            snapshot = []
            for nid, plan in self._plans:
                lo, hi, t_start, t_end, x, y, vx, vy, _ = plan.entry
                if not lo <= t < hi:
                    _, _, t_start, t_end, x, y, vx, vy, _ = plan.leg_entry(t)
                dt = min(t, t_end) - t_start
                snapshot.append((nid, x + vx * dt, y + vy * dt))
            self._snapshot = snapshot
            self._snapshot_t = t
        _, mx, my = self._snapshot[self._slot[node_id]]
        r2 = self._range2
        return [
            nid
            for nid, ox, oy in self._snapshot
            if nid != node_id and (ox - mx) ** 2 + (oy - my) ** 2 <= r2
        ]

    def in_contact(self, a: int, b: int, t: float) -> bool:
        ax, ay = self.nodes[a].plan.position_at(t)
        bx, by = self.nodes[b].plan.position_at(t)
        return (ax - bx) ** 2 + (ay - by) ** 2 <= self._range2

    # -- transmission -------------------------------------------------------

    def _transmit(self, sender: int, receiver: int, msg: Message, arrive: float) -> bool:
        if self._loss_rng[sender].random() >= self.link.delivery_prob:
            return self._drop(msg, sender, receiver)
        self.stats.sent[msg.msg_type] += 1
        if msg.initial:
            self._pending_initial[msg.query_id] += 1
        self.schedule(arrive, EVENT_MESSAGE, msg, (sender, receiver))
        return True

    def _drop(self, msg: Message, sender: int, receiver: int) -> bool:
        """Count and trace a message that was sent but never arrives."""
        self.stats.sent[msg.msg_type] += 1
        self.stats.lost[msg.msg_type] += 1
        self._trace_msg(EVENT_MESSAGE_LOST, msg, sender, receiver)
        return False

    def _next_slot(self, sender: int) -> float:
        """Queue one packet on the sender's transmitter; returns its arrival time."""
        node = self.nodes[sender]
        node.tx_busy_until = max(self.clock, node.tx_busy_until) + self.link.tx_time
        return node.tx_busy_until + self.link.per_hop_latency

    def broadcast(self, sender: int, msg: Message) -> int:
        """Send one packet to every current neighbor; returns receiver count."""
        receivers = self.neighbors_of(sender, self.clock)
        if not receivers:
            return 0
        arrive = self._next_slot(sender)
        for rid in receivers:
            self._transmit(sender, rid, msg, arrive)
        return len(receivers)

    def unicast(self, sender: int, receiver: int, msg: Message) -> bool:
        """Send one packet to a specific node; drops if it moved out of range."""
        if receiver not in self.nodes or not self.in_contact(sender, receiver, self.clock):
            return self._drop(msg, sender, receiver)
        return self._transmit(sender, receiver, msg, self._next_slot(sender))

    # -- flooding and reverse paths ------------------------------------------

    def flood(self, origin: int, msg: Message) -> None:
        """Start a TTL-limited flood of a query message from its origin."""
        self._seen_floods[origin].add((msg.query_id, msg.generation))
        self.broadcast(origin, msg)

    def reverse_forward(self, sender: int, msg: Message) -> bool:
        """Unicast toward the query origin along the recorded reverse path."""
        parent = self.reverse_parent.get((sender, msg.query_id))
        if parent is None:
            return self._drop(msg, sender, BROADCAST)
        return self.unicast(sender, parent, msg)

    def _deliver(self, msg: Message, sender: int, receiver: int) -> None:
        self.stats.delivered[msg.msg_type] += 1
        self._trace_msg(EVENT_MESSAGE, msg, sender, receiver)
        fresh = True
        if msg.msg_type == MSG_QUERY:
            key = (msg.query_id, msg.generation)
            seen = self._seen_floods[receiver]
            fresh = key not in seen
            if fresh:
                seen.add(key)
                self.reverse_parent.setdefault((receiver, msg.query_id), sender)
                if msg.ttl > 0:
                    self.broadcast(receiver, replace(msg, ttl=msg.ttl - 1))
        if fresh and self.on_message is not None:
            self.on_message(receiver, msg, self.clock)
        if msg.initial:
            self.settle_initial(msg.query_id)

    # -- per-query completion ------------------------------------------------

    def settle_initial(self, query_id: int) -> None:
        """One counted unit of a query's first collection wave is done.

        The engine settles each initial message it delivers; the handler of
        an event scheduled through schedule_initial settles that event.
        """
        self._pending_initial[query_id] -= 1
        if (
            self._pending_initial[query_id] == 0
            and query_id not in self._collection_done
        ):
            self._collection_done.add(query_id)
            if self.on_collection_complete is not None:
                self.on_collection_complete(query_id, self.clock)

    # -- tracing ---------------------------------------------------------------

    @property
    def trace(self) -> list[str]:
        """A copy of the trace lines so far; read it again after a resume for the new ones."""
        return list(self.trace_log.lines())

    def _trace_msg(self, kind: str, msg: Message, sender: int, receiver: int) -> None:
        # the hop as two fields: keeping the delivery's hop tuple alive would
        # cost more memory per record than the line it replaces
        self.trace_log.records.append((self.clock, kind, msg, sender, receiver))

    def _trace_event(self, kind: str, payload: object) -> None:
        self.trace_log.records.append((self.clock, kind, payload))
