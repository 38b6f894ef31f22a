"""Scenario configuration, experiment runs, sweeps, and CSV metrics.

Two named presets ship with the package: a snapshot workload on a 400 m
square with 100 nodes, and a continuous-monitoring workload on a 500 m
square with 60 nodes, ten-second query windows, and faster movement.  Every
run derives all randomness from one seed string, so the same (scenario,
seed) pair reproduces byte-identical metrics and traces, and different
approaches compared under one seed observe identical placements,
trajectories, attribute draws, and query windows.
"""

from __future__ import annotations

import math
import random
import re
import statistics
from dataclasses import dataclass, field, fields, replace

from rangeskyline.analysis import CostParams, derive_ttl
from rangeskyline.kinematics import MotionState, WaypointPlan
from rangeskyline.metrics import oracle_timeline, precision_recall, timeline_ids
from rangeskyline.netsim import (
    LinkModel,
    MSG_QUERY,
    MSG_REPLY,
    MSG_UPDATE,
    NodeRuntime,
    Simulator,
    TraceLog,
)
from rangeskyline.protocols import (
    MODE_CENTRALIZED,
    MODE_DISTRIBUTED,
    QueryDescriptor,
    QueryProtocol,
)
from rangeskyline.skyline import MAXIMIZE, MINIMIZE, AttributeVector

APPROACHES = ("centralized", "drsq", "dcrsq")

CSV_HEADER = (
    "scenario,approach,param,value,rep,response_time_s,msgs_total,"
    "msgs_flood,msgs_reply,msgs_update,accessed_objects,precision,recall"
)


@dataclass(frozen=True)
class Scenario:
    """One experiment configuration; field names double as config-file keys."""

    name: str = "custom"
    area_width: float = 400.0
    area_height: float = 400.0
    node_count: int = 100
    query_count: int = 1
    query_range: float = 80.0
    transmission_range: float = 75.0
    speed_min: float = 2.0
    speed_max: float = 2.0
    delta_t: float = 0.0
    report_interval: float = 1.0
    ttl_centralized: int = 5
    ttl_cap: int = 5
    delivery_prob: float = 0.95
    bandwidth_bps: float = 2_000_000.0
    packet_size_bits: float = 1024.0
    per_hop_latency: float = 0.001
    attr_dims: int = 1
    attr_directions: str = ""
    sim_horizon: float = 60.0
    seed: int = 1
    replications: int = 20

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not isinstance(value, int):
                raise ValueError(f"{f.name} must be an integer")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        if self.area_width <= 0:
            raise ValueError("area_width must be > 0")
        if self.area_height <= 0:
            raise ValueError("area_height must be > 0")
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if self.query_count < 1:
            raise ValueError("query_count must be >= 1")
        if self.report_interval <= 0:
            raise ValueError("report_interval must be > 0")
        if self.speed_min < 0:
            raise ValueError("speed_min must be >= 0")
        if self.speed_min > self.speed_max:
            raise ValueError("speed_min must not exceed speed_max")
        if self.ttl_cap < 0:
            raise ValueError("ttl_cap must be >= 0")
        if self.ttl_centralized < 0:
            raise ValueError("ttl_centralized must be >= 0")
        if self.delta_t < 0:
            raise ValueError("delta_t must be >= 0")
        # query_windows draws starts up to 50 s; a window there must end after
        # it starts, or the continuous query is a snapshot
        if 0 < self.delta_t and 50.0 + self.delta_t == 50.0:
            raise ValueError("delta_t must be 0 or large enough that 50.0 + delta_t > 50.0")
        if self.delta_t / self.report_interval > 1000:
            raise ValueError(
                "report_interval: delta_t / report_interval (report rounds per window) "
                "must not exceed 1000"
            )
        if self.query_range <= 0:
            raise ValueError("query_range must be > 0")
        self.link()
        if self.attr_dims < 1:
            raise ValueError("attr_dims must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        # products, not `** 2`, so an overflow reads inf instead of raising;
        # a finite squared diagonal bounds the area too: w*h <= (w*w + h*h) / 2
        w, h = self.area_width, self.area_height
        if not math.isfinite(w * w + h * h):
            raise ValueError("area_width^2 + area_height^2 (the squared diagonal) must be finite")
        for name in ("query_range", "transmission_range"):
            r = getattr(self, name)
            # analysis.density's expression; finite implies a finite r*r
            if not math.isfinite(math.pi * r * r * self.node_count / self.area):
                raise ValueError(
                    f"{name}: pi * {name}^2 * node_count / area (nodes expected in range) "
                    "must be finite"
                )
        # distributed_ttl raises the floored density to each hop count up to
        # ttl_cap; a float power raises OverflowError where that int would
        r = self.transmission_range
        try:
            (math.pi * r * r * self.node_count / self.area) ** self.ttl_cap
        except OverflowError:
            raise ValueError(
                "transmission_range: (pi * transmission_range^2 * node_count / area)^ttl_cap "
                "(nodes expected within ttl_cap hops) must be finite"
            ) from None
        # world_horizon is at most max(sim_horizon, 51 + delta_t), and a mean
        # leg is at least a third of the longer side: this bounds the legs a
        # node expects to finish before the horizon
        legs = 3 * max(self.sim_horizon, 51 + self.delta_t) * self.speed_max / max(w, h)
        if legs > 1000:
            raise ValueError(
                "area_width, area_height: 3 * max(sim_horizon, 51 + delta_t) * speed_max "
                "/ max(area_width, area_height) (a bound on the legs per node) "
                "must not exceed 1000"
            )
        self.directions()

    def link(self) -> LinkModel:
        """The radio model of a run; it checks the five link fields."""
        return LinkModel(
            transmission_range=self.transmission_range,
            delivery_prob=self.delivery_prob,
            bandwidth_bps=self.bandwidth_bps,
            packet_size_bits=self.packet_size_bits,
            per_hop_latency=self.per_hop_latency,
        )

    @property
    def area(self) -> float:
        return self.area_width * self.area_height

    @property
    def is_snapshot(self) -> bool:
        return self.delta_t == 0.0

    def directions(self) -> tuple[str, ...]:
        """Per-dimension preference flags; minimize everywhere by default.

        Entries are separated by commas, whitespace or both; an empty entry
        is an unknown direction.
        """
        if not self.attr_directions:
            return tuple(MINIMIZE for _ in range(self.attr_dims))
        parts = tuple(re.split(r"\s*,\s*|\s+", self.attr_directions.strip()))
        if len(parts) != self.attr_dims:
            raise ValueError("attr_directions length must match attr_dims")
        for d in parts:
            if d not in (MINIMIZE, MAXIMIZE):
                raise ValueError(f"attr_directions: unknown direction {d!r}")
        return parts


def scenario1() -> Scenario:
    """Snapshot workload: 100 nodes on 400 m x 400 m, fixed 2 m/s."""
    return Scenario(
        name="scenario1",
        area_width=400.0,
        area_height=400.0,
        node_count=100,
        query_count=1,
        query_range=80.0,
        transmission_range=75.0,
        speed_min=2.0,
        speed_max=2.0,
        delta_t=0.0,
        ttl_centralized=5,
        bandwidth_bps=2_000_000.0,
    )


def scenario2() -> Scenario:
    """Continuous workload: 60 nodes on 500 m x 500 m, speeds up to 10 m/s."""
    return Scenario(
        name="scenario2",
        area_width=500.0,
        area_height=500.0,
        node_count=60,
        query_count=1,
        query_range=100.0,
        transmission_range=75.0,
        speed_min=0.0,
        speed_max=10.0,
        delta_t=10.0,
        ttl_centralized=5,
        bandwidth_bps=2_000_000.0,
        sim_horizon=60.0,
    )


PRESETS = {"scenario1": scenario1, "scenario2": scenario2}


def parse_config(text: str, base: Scenario | None = None) -> Scenario:
    """Flat `key = value` configuration; unknown keys are errors."""
    scen = base or Scenario()
    types = {f.name: f.type for f in fields(Scenario)}
    casts = {"str": str, "int": int, "float": float}
    updates: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in types:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        cast = casts.get(types[key], str)
        try:
            updates[key] = cast(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
    return replace(scen, **updates)


@dataclass
class QueryMetrics:
    query_id: int
    response_time_s: float
    accessed_objects: int
    precision: float
    recall: float
    realized: list
    oracle: list


@dataclass
class RunResult:
    scenario: Scenario
    approach: str
    queries: list[QueryMetrics]
    msgs_flood: int
    msgs_reply: int
    msgs_update: int
    trace_log: TraceLog = field(repr=False)

    @property
    def trace(self) -> list[str]:
        """The run's trace lines, formatted on the first read, which frees the records."""
        return self.trace_log.lines()

    @property
    def msgs_total(self) -> int:
        return self.msgs_flood + self.msgs_reply + self.msgs_update

    @property
    def response_time_s(self) -> float:
        return statistics.fmean(q.response_time_s for q in self.queries)

    @property
    def accessed_objects(self) -> int:
        return sum(q.accessed_objects for q in self.queries)

    @property
    def precision(self) -> float:
        return statistics.fmean(q.precision for q in self.queries)

    @property
    def recall(self) -> float:
        return statistics.fmean(q.recall for q in self.queries)


def build_world(scenario: Scenario, seed: object) -> list[NodeRuntime]:
    """Sensors plus query issuers with seed-determined placement and motion."""
    horizon = world_horizon(scenario, seed)
    place = random.Random(f"{seed}:place")
    nodes: list[NodeRuntime] = []
    total = scenario.node_count + scenario.query_count
    for nid in range(total):
        start = (
            place.uniform(0.0, scenario.area_width),
            place.uniform(0.0, scenario.area_height),
        )
        plan = WaypointPlan(
            start,
            (scenario.area_width, scenario.area_height),
            (scenario.speed_min, scenario.speed_max),
            horizon,
            random.Random(f"{seed}:move:{nid}"),
        )
        if nid < scenario.node_count:
            attr_rng = random.Random(f"{seed}:attr:{nid}")
            attrs = AttributeVector(
                tuple(attr_rng.uniform(0.0, 1.0) for _ in range(scenario.attr_dims)),
                scenario.directions(),
            )
            nodes.append(NodeRuntime(nid, plan, attrs))
        else:
            nodes.append(NodeRuntime(nid, plan, None))
    return nodes


def query_windows(scenario: Scenario, seed: object) -> list[tuple[float, float]]:
    """Issue instants and monitoring windows, identical across approaches."""
    out = []
    for k in range(scenario.query_count):
        rng = random.Random(f"{seed}:qwin:{k}")
        t0 = rng.uniform(1.0, 50.0)
        out.append((t0, t0 + scenario.delta_t))
    return out


def world_horizon(scenario: Scenario, seed: object) -> float:
    last_end = max(t_end for _, t_end in query_windows(scenario, seed))
    return max(scenario.sim_horizon, last_end + 1.0)


def cost_params(scenario: Scenario, mean_safe_time: float = 1.0) -> CostParams:
    """The cost model's inputs for a scenario."""
    return CostParams(
        scenario.node_count,
        scenario.area,
        scenario.query_range,
        scenario.transmission_range,
        d=scenario.attr_dims + 1,
        hop_probs=(scenario.delivery_prob,),
        delta_t=scenario.delta_t,
        report_interval=scenario.report_interval,
        mean_safe_time=mean_safe_time,
    )


def distributed_ttl(scenario: Scenario) -> int:
    """Flood depth from the spread-cost condition, capped; cap when sparse."""
    try:
        return derive_ttl(cost_params(scenario), cap=scenario.ttl_cap)
    except ValueError:
        return scenario.ttl_cap


def run_scenario(scenario: Scenario, seed: object, approach: str) -> RunResult:
    """One deterministic simulation of one approach on one seeded world."""
    if approach not in APPROACHES:
        raise ValueError(f"unknown approach {approach!r}")
    if approach == "drsq" and not scenario.is_snapshot:
        raise ValueError("drsq runs snapshot scenarios; use dcrsq for windows")
    if approach == "dcrsq" and scenario.is_snapshot:
        raise ValueError("dcrsq runs continuous scenarios; use drsq for snapshots")

    nodes = build_world(scenario, seed)
    horizon = world_horizon(scenario, seed)
    sim = Simulator(nodes, scenario.link(), seed=seed, horizon=horizon)
    mode = MODE_CENTRALIZED if approach == "centralized" else MODE_DISTRIBUTED
    proto = QueryProtocol(sim, mode=mode, report_interval=scenario.report_interval)

    ttl = scenario.ttl_centralized if approach == "centralized" else distributed_ttl(scenario)
    for k, window in enumerate(query_windows(scenario, seed)):
        issuer = scenario.node_count + k
        desc = QueryDescriptor(
            query_id=k + 1,
            issuer=issuer,
            issuer_state=MotionState((0.0, 0.0), (0.0, 0.0), window[0]),
            range_R=scenario.query_range,
            window=window,
            ttl=ttl,
        )
        proto.issue(desc, window[0])
    sim.run()

    queries: list[QueryMetrics] = []
    for qid in sorted(proto.outcomes):
        outcome = proto.outcomes[qid]
        desc = outcome.descriptor
        truth = oracle_timeline(nodes, desc.issuer, desc.range_R, desc.window)
        realized = timeline_ids(outcome.realized)
        acc = precision_recall(realized, truth, desc.window)
        queries.append(
            QueryMetrics(
                query_id=qid,
                # every query settles by its timeout, which is at most the horizon
                response_time_s=outcome.response_time,
                accessed_objects=outcome.accessed_objects,
                precision=acc.precision,
                recall=acc.recall,
                realized=realized,
                oracle=truth,
            )
        )
    return RunResult(
        scenario=scenario,
        approach=approach,
        queries=queries,
        msgs_flood=sim.stats.sent.get(MSG_QUERY, 0),
        msgs_reply=sim.stats.sent.get(MSG_REPLY, 0),
        msgs_update=sim.stats.sent.get(MSG_UPDATE, 0),
        trace_log=sim.trace_log,
    )


def default_approaches(scenario: Scenario) -> tuple[str, ...]:
    return ("centralized", "drsq") if scenario.is_snapshot else ("centralized", "dcrsq")


def csv_row(result: RunResult, param: str, value: object, rep: int) -> str:
    return (
        f"{result.scenario.name},{result.approach},{param},{value},{rep},"
        f"{result.response_time_s:.9f},{result.msgs_total},{result.msgs_flood},"
        f"{result.msgs_reply},{result.msgs_update},{result.accessed_objects},"
        f"{result.precision:.6f},{result.recall:.6f}"
    )


def sweep(scenario: Scenario, param: str, values: list) -> list[str]:
    """Paired-seed parameter sweep, scenario.replications runs per value and approach.

    Returns CSV lines including the header.
    """
    _sweep_field_type(param)
    lines = [CSV_HEADER]
    for value in values:
        cell = scenario if param == "none" else replace(scenario, **{param: value})
        for rep in range(scenario.replications):
            seed = f"{scenario.seed}:{param}:{value}:{rep}"
            for approach in default_approaches(cell):
                result = run_scenario(cell, seed, approach)
                lines.append(csv_row(result, param, value, rep))
    return lines


def _sweep_field_type(param: str) -> str | None:
    """Declared type of the Scenario field param; None for "none", which sweeps nothing."""
    types = {f.name: f.type for f in fields(Scenario)}
    if param != "none" and param not in types:
        raise ValueError(f"unknown sweep parameter {param!r}")
    return types.get(param)


def sweep_values(param: str, text: str) -> list:
    """The comma-separated values of a sweep over param.

    A str field takes each value as written.  Any other value is an int when
    it parses as one and a float otherwise, so the CSV value column shows it
    as typed; Scenario then rejects a float in an int field.
    """
    kind = _sweep_field_type(param)
    values: list = []
    for item in text.split(","):
        if kind == "str":
            values.append(item)
            continue
        try:
            values.append(int(item))
        except ValueError:
            try:
                values.append(float(item))
            except ValueError as exc:
                raise ValueError(f"{param}: {exc}") from None
    return values


@dataclass(frozen=True)
class CellSummary:
    approach: str
    param: str
    value: str
    mean: float
    ci95: float | None
    n: int


def summarize(lines: list[str], metric: str) -> list[CellSummary]:
    """Per-cell mean and 95% confidence interval of one CSV metric column."""
    header = lines[0].split(",")
    idx = header.index(metric)
    cells: dict[tuple[str, str, str], list[float]] = {}
    for line in lines[1:]:
        parts = line.split(",")
        key = (parts[1], parts[2], parts[3])
        cells.setdefault(key, []).append(float(parts[idx]))
    out = []
    for (approach, param, value), xs in sorted(cells.items()):
        mean = statistics.fmean(xs)
        if len(xs) > 1:
            ci = 1.96 * statistics.stdev(xs) / len(xs) ** 0.5
        else:
            ci = None
        out.append(CellSummary(approach, param, value, mean, ci, len(xs)))
    return out
