"""Closed-form network-cost model for range-skyline query processing.

Models query spreading and reply collection as a hop-indexed branching
process: the expected number of i-hop neighbors is the one-hop density raised
to the i-th power, discounted by per-hop delivery probabilities.  The reply
term for the cooperative approach scales each hop by the expected local
skyline size instead of the raw population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SPREAD_MODES = ("snapshot-centralized", "snapshot-drsq", "continuous-centralized", "continuous-dcrsq")


def density(n_nodes: int, area: float, radius: float) -> int:
    """Expected node count inside a disk of the given radius, floored."""
    if n_nodes <= 0 or area <= 0 or radius < 0:
        raise ValueError("density needs positive node count and area, radius >= 0")
    return math.floor(math.pi * radius * radius * n_nodes / area)


def expected_skyline_size(n_nodes: float, d: int) -> float:
    """Point estimate (ln N)^(d-1) of the skyline size over uniform data."""
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if d < 1:
        raise ValueError("dimensionality must be >= 1")
    return math.log(n_nodes) ** (d - 1)


@dataclass(frozen=True)
class CostParams:
    """Inputs to the cost formulas.

    hop_probs holds the per-hop delivery probabilities P_1..P_k; it is
    extended by repeating its last value when a formula needs more hops.
    Densities derive from node count, area and the two radii.
    """

    n_nodes: int
    area: float
    query_range: float
    transmission_range: float
    d: int = 2
    hop_probs: tuple[float, ...] = (1.0,)
    delta_t: float = 0.0
    report_interval: float = 1.0
    mean_safe_time: float = 1.0

    def __post_init__(self) -> None:
        if not self.hop_probs:
            raise ValueError("hop_probs must not be empty")
        for p in self.hop_probs:
            if not 0.0 < p <= 1.0:
                raise ValueError("hop probabilities must lie in (0, 1]")
        if self.report_interval <= 0:
            raise ValueError("report interval must be > 0")
        if not 0.0 < self.mean_safe_time < math.inf:
            raise ValueError("mean safe time must be positive and finite")

    @property
    def nodes_in_query_range(self) -> int:
        n = density(self.n_nodes, self.area, self.query_range)
        if n < 1:
            raise ValueError("query_range: no nodes expected inside the query range")
        return n

    @property
    def neighbors_per_node(self) -> int:
        n = density(self.n_nodes, self.area, self.transmission_range)
        if n <= 1:
            raise ValueError("transmission_range: node density too sparse for multi-hop routing")
        return n

    def hop_prob(self, i: int) -> float:
        """P_i with P_0 defined as 1 and the last value repeated beyond k."""
        if i <= 0:
            return 1.0
        if i <= len(self.hop_probs):
            return self.hop_probs[i - 1]
        return self.hop_probs[-1]

    def cumulative_prob(self, i: int) -> float:
        out = 1.0
        for j in range(1, i + 1):
            out *= self.hop_prob(j)
        return out


def _hop_sum(params: CostParams, k: int, term) -> float:
    """Sum of term(n_r**i, i) over the hop levels i = 1..k.

    n_r is the one-hop density.  A level whose term no float can hold is
    rejected, naming k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n_r = params.neighbors_per_node
    try:
        return sum(term(n_r**i, i) for i in range(1, k + 1))
    except OverflowError:
        raise ValueError(f"k: {k} hop levels overflow a float in the cost model") from None


def query_spread_cost(params: CostParams, k: int) -> float:
    """Expected deliveries when the query floods k hop levels."""
    return _hop_sum(params, k, lambda n, i: n * params.cumulative_prob(i))


def derive_ttl(params: CostParams, cap: int) -> int:
    """Smallest hop count whose expected spread covers the query range."""
    target = params.nodes_in_query_range
    for k in range(1, cap + 1):
        if query_spread_cost(params, k) >= target:
            return k
    raise ValueError(
        f"spread never reaches {target} expected nodes within {cap} hops"
    )


def response_cost_centralized(params: CostParams, k: int) -> float:
    """Expected reply transmissions when every reached node reports itself."""
    return _hop_sum(params, k, lambda n, i: n * i * params.cumulative_prob(i))


def response_cost_drsq(params: CostParams, k: int) -> float:
    """Expected reply transmissions when nodes forward local skylines only.

    Hop level i sends the expected skyline of its n_r**i nodes, weighted by
    P[k-i] as the equation is printed (P_0 = 1), not by the cumulative
    product of the centralized formula.
    """
    return _hop_sum(
        params, k, lambda n, i: n * expected_skyline_size(n, params.d) * params.hop_prob(k - i)
    )


def total_cost(params: CostParams, mode: str, k: int) -> float:
    """Composed network cost for one query under the given approach."""
    if mode not in SPREAD_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    spread = query_spread_cost(params, k)
    if mode == "snapshot-centralized":
        return spread + response_cost_centralized(params, k)
    if mode == "snapshot-drsq":
        return spread + response_cost_drsq(params, k)
    if mode == "continuous-centralized":
        rounds = params.delta_t / params.report_interval
        return rounds * (spread + response_cost_centralized(params, k))
    updates = params.delta_t / params.mean_safe_time
    return spread + updates * response_cost_drsq(params, k)


def cost_table(params: CostParams, k: int) -> list[tuple[str, float]]:
    """All model quantities for one parameter set, for reporting."""
    rows = [
        ("nodes_in_query_range", float(params.nodes_in_query_range)),
        ("neighbors_per_node", float(params.neighbors_per_node)),
        ("expected_skyline_size", expected_skyline_size(params.n_nodes, params.d)),
        ("ttl", float(k)),
        ("spread", query_spread_cost(params, k)),
        ("reply_centralized", response_cost_centralized(params, k)),
        ("reply_drsq", response_cost_drsq(params, k)),
        ("total_snapshot_centralized", total_cost(params, "snapshot-centralized", k)),
        ("total_snapshot_drsq", total_cost(params, "snapshot-drsq", k)),
    ]
    if params.delta_t > 0:
        rows.append(
            ("total_continuous_centralized", total_cost(params, "continuous-centralized", k))
        )
        rows.append(("total_continuous_dcrsq", total_cost(params, "continuous-dcrsq", k)))
    for name, value in rows:
        if not math.isfinite(value):
            raise ValueError(f"k: {k} hop levels give a non-finite {name} in the cost model")
    return rows
