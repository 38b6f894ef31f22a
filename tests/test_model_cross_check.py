"""Cost model versus simulation on the published density grid.

The hop-indexed branching term n_r^i counts i-th ring deliveries as if every
receiver forwarded into fresh territory.  On a plane the i-th ring only holds
about (2i-1) * n_r nodes, so once the cumulative branching count passes the
population the model overcounts by construction.  Inside that domain the
simulated centralized total must sit within +/-50% of the model; outside it
the model must remain an upper bound.
"""

from dataclasses import replace
from statistics import fmean

from rangeskyline.analysis import (
    CostParams,
    derive_ttl,
    query_spread_cost,
    response_cost_centralized,
)
from rangeskyline.harness import run_scenario, scenario1


def test_centralized_cost_model_tracks_simulation_on_density_grid():
    for n in (50, 100, 150, 200):
        scen = replace(
            scenario1(), node_count=n, speed_min=0.0, speed_max=0.0, delivery_prob=1.0
        )
        params = CostParams(
            n, scen.area, scen.query_range, scen.transmission_range,
            d=2, hop_probs=(1.0,),
        )
        k = derive_ttl(params, cap=5)
        model = query_spread_cost(params, k) + response_cost_centralized(params, k)
        # flood with ttl = k - 1 reaches exactly k hop rings, the model's sum
        cell = replace(scen, ttl_centralized=k - 1)
        sim = fmean(
            run_scenario(cell, f"xchk:{n}:{rep}", "centralized").msgs_total
            for rep in range(10)
        )
        n_r = params.neighbors_per_node
        branching_total = sum(n_r**i for i in range(1, k + 1))
        # in-domain when expected receipts fit the population, with slack
        # matching the comparison tolerance itself
        if branching_total <= 1.5 * n:
            assert abs(sim - model) <= 0.5 * model, (n, sim, model)
        else:
            # saturated regime: the branching model is only an upper bound
            assert sim <= model, (n, sim, model)
