"""Checks of one simulated run that do not trust the program's own answers.

The ground truth is a brute-force range-skyline evaluated at sampled
instants from the world's waypoint legs.  Against it the benchmark checks
the run's oracle timeline (away from its change points) and the CSV
precision and recall (re-integrated by stratified sampling).  The message
columns are checked for conservation against the event trace, and the
accessed-object count against the deliveries at the issuer.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

# Samples this close to an oracle change point are not compared: the truth
# there is a tie that floating point may resolve either way.
CHANGE_POINT_GAP = 1e-6
# Stratified samples per continuous window.
SAMPLES = 2000
# CSV precision and recall carry six decimals.
CSV_ROUNDING = 1e-6
MSG_TYPES = ("RSQ", "RSQ_REPLY", "UPDATE")
FAKE_ID = -1


@dataclass(frozen=True)
class Row:
    """The CSV row of one run, parsed by column name."""

    approach: str
    response_time_s: float
    msgs: dict
    accessed_objects: int
    precision: float
    recall: float

    @staticmethod
    def parse(line: str) -> Row:
        f = line.split(",")
        return Row(
            approach=f[1],
            response_time_s=float(f[5]),
            msgs={"RSQ": int(f[7]), "RSQ_REPLY": int(f[8]), "UPDATE": int(f[9])},
            accessed_objects=int(f[10]),
            precision=float(f[11]),
            recall=float(f[12]),
        )


class Truth:
    """Brute-force range-skyline of one query from the world's legs."""

    def __init__(self, nodes, issuer_id: int, range_R: float) -> None:
        self.range_R = range_R
        self.issuer = _legs(next(n for n in nodes if n.id == issuer_id))
        self.sensors = [
            (n.id, _canonical(n.attrs), _legs(n))
            for n in nodes
            if n.attrs is not None and n.id != issuer_id
        ]

    def at(self, t: float) -> frozenset:
        cx, cy = _position(self.issuer, t)
        rows = []
        for nid, attrs, legs in self.sensors:
            x, y = _position(legs, t)
            d = math.hypot(x - cx, y - cy)
            if d <= self.range_R:
                rows.append((d, attrs, nid))
        return frozenset(
            nid
            for d, attrs, nid in rows
            if not any(_dominates(d2, a2, d, attrs) for d2, a2, _ in rows)
        )


def _canonical(attrs) -> tuple:
    return tuple(-v if d == "max" else v for v, d in zip(attrs.values, attrs.directions))


def _dominates(d_a: float, a: tuple, d_b: float, b: tuple) -> bool:
    """Strict Pareto dominance on (distance, canonical attributes)."""
    if d_a > d_b or any(x > y for x, y in zip(a, b)):
        return False
    return d_a < d_b or a != b


def _legs(node):
    legs = node.plan.legs
    return [leg.t_start for leg in legs], legs


def _position(legs, t: float) -> tuple[float, float]:
    starts, table = legs
    leg = table[max(bisect_right(starts, t) - 1, 0)]
    dt = min(t, leg.t_end) - leg.t_start
    return leg.origin[0] + leg.velocity[0] * dt, leg.origin[1] + leg.velocity[1] * dt


def value_at(timeline, t: float) -> frozenset:
    """Set of the first segment whose closed span holds t, else empty."""
    for ids, (a, b) in timeline:
        if a <= t <= b:
            return frozenset(ids)
    return frozenset()


def instant_scores(got: frozenset, truth: frozenset) -> tuple[float, float]:
    inter = len(got & truth)
    precision = inter / len(got) if got else (1.0 if not truth else 0.0)
    recall = inter / len(truth) if truth else 1.0
    return precision, recall


def sample_instants(window: tuple[float, float], rng: random.Random) -> list[float]:
    """One jittered instant per equal stratum of the window."""
    t0, t_end = window
    if t0 == t_end:
        return [t0]
    h = (t_end - t0) / SAMPLES
    return [t0 + (i + rng.random()) * h for i in range(SAMPLES)]


@dataclass
class QueryEvidence:
    """Truth samples of one query, reused by the checks and the self-test."""

    window: tuple[float, float]
    instants: list[float]
    truth: list[frozenset]


def gather(nodes, issuer_id: int, range_R: float, window, rng) -> QueryEvidence:
    truth = Truth(nodes, issuer_id, range_R)
    instants = sample_instants(window, rng)
    return QueryEvidence(window, instants, [truth.at(t) for t in instants])


def _boundaries(timeline) -> list[float]:
    return sorted({x for _, span in timeline for x in span})


def check_oracle(ev: QueryEvidence, oracle) -> str | None:
    """The oracle timeline equals the brute-force truth away from its changes."""
    cuts = _boundaries(oracle)
    compared = 0
    for t, truth in zip(ev.instants, ev.truth):
        i = bisect_right(cuts, t)
        near = [cuts[j] for j in (i - 1, i) if 0 <= j < len(cuts)]
        is_snapshot = ev.window[0] == ev.window[1]
        if not is_snapshot and any(abs(t - c) < CHANGE_POINT_GAP for c in near):
            continue
        compared += 1
        got = value_at(oracle, t)
        if got != truth:
            return f"oracle {sorted(got)} != brute force {sorted(truth)} at t={t:.9f}"
    if compared == 0:
        return "no sample instant was far enough from a change point"
    return None


def check_accuracy(ev: QueryEvidence, realized, oracle, precision: float, recall: float) -> str | None:
    """CSV precision and recall agree with a sampled re-integration.

    With one sample per stratum, each stratum that holds a change point of
    either timeline contributes at most 1/SAMPLES of error, so the bound is
    the number of such strata over SAMPLES, plus the CSV rounding.
    """
    scores = [instant_scores(value_at(realized, t), truth) for t, truth in zip(ev.instants, ev.truth)]
    p_hat = sum(p for p, _ in scores) / len(scores)
    r_hat = sum(r for _, r in scores) / len(scores)
    t0, t_end = ev.window
    if t0 == t_end:
        tol = CSV_ROUNDING
    else:
        h = (t_end - t0) / SAMPLES
        strata = {
            min(int((c - t0) / h), SAMPLES - 1)
            for tl in (realized, oracle)
            for c in _boundaries(tl)
            if t0 < c < t_end
        }
        tol = len(strata) / SAMPLES + CSV_ROUNDING
    if abs(p_hat - precision) > tol or abs(r_hat - recall) > tol:
        return (
            f"sampled precision/recall {p_hat:.6f}/{r_hat:.6f} vs CSV "
            f"{precision:.6f}/{recall:.6f} beyond tolerance {tol:.6f}"
        )
    return None


def trace_counts(trace: list[str]) -> tuple[Counter, Counter, Counter]:
    """Events by kind, and delivered and lost messages by type, from the trace."""
    kinds: Counter = Counter()
    delivered: Counter = Counter()
    lost: Counter = Counter()
    for line in trace:
        f = line.split("\t")
        kinds[f[1]] += 1
        if f[1] == "message-delivery":
            delivered[f[4]] += 1
        elif f[1] == "message-lost":
            lost[f[4]] += 1
    return kinds, delivered, lost


def check_conservation(msgs: dict, delivered: Counter, lost: Counter, in_flight: Counter) -> str | None:
    """Every counted message was delivered, lost, or still in flight at the horizon."""
    for mt in MSG_TYPES:
        accounted = delivered[mt] + lost[mt] + in_flight[mt]
        if msgs[mt] != accounted:
            return (
                f"{mt}: CSV counts {msgs[mt]} sent, trace accounts for {accounted} "
                f"({delivered[mt]} delivered, {lost[mt]} lost, {in_flight[mt]} in flight)"
            )
    return None


def check_accessed(accessed: int, trace: list[str], issuers: set[str]) -> str | None:
    """Accessed objects are the object messages delivered to an issuer."""
    arrived = 0
    for line in trace:
        f = line.split("\t")
        if f[1] == "message-delivery" and f[3] in issuers and f[4] != "RSQ":
            arrived += 1
    if arrived != accessed:
        return f"accessed_objects {accessed} != {arrived} object deliveries at the issuer"
    return None


def check_response(response_s: float, max_timeout_s: float) -> str | None:
    if not 0.0 < response_s <= max_timeout_s + CSV_ROUNDING:
        return f"response time {response_s} outside (0, {max_timeout_s}]"
    return None


def self_test(ev: QueryEvidence, realized, oracle, row: Row, delivered, lost, in_flight) -> list[str]:
    """Perturbed inputs the checks must reject; returns what slipped through."""
    slipped = []
    longest = max(range(len(oracle)), key=lambda i: oracle[i][1][1] - oracle[i][1][0])
    bad_oracle = list(oracle)
    ids, span = bad_oracle[longest]
    bad_oracle[longest] = (frozenset(ids) | {FAKE_ID}, span)
    if check_oracle(ev, bad_oracle) is None:
        slipped.append("an oracle timeline with a phantom object")
    bad_realized = [(frozenset({FAKE_ID}), ev.window)]
    if check_accuracy(ev, bad_realized, oracle, row.precision, row.recall) is None:
        slipped.append("a realized timeline holding only a phantom object")
    bad_msgs = dict(row.msgs)
    bad_msgs["RSQ_REPLY"] += 1
    if check_conservation(bad_msgs, delivered, lost, in_flight) is None:
        slipped.append("a reply count one higher than the trace")
    return slipped
