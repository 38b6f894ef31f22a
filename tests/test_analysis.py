import math
import random

import pytest

from rangeskyline.analysis import (
    CostParams,
    cost_table,
    density,
    derive_ttl,
    expected_skyline_size,
    query_spread_cost,
    response_cost_centralized,
    response_cost_drsq,
    total_cost,
)


def params_with_density(n_r, n_R, probs=(1.0,), **kwargs):
    """Build params whose derived densities are exactly n_r and n_R.

    Solves the area and query range so the floored density quotients land at
    n_r + 0.5 and n_R + 0.5, keeping the floors safe from rounding.
    """
    n = 1000
    r = 100.0
    area = math.pi * r * r * n / (n_r + 0.5)
    R = math.sqrt((n_R + 0.5) * area / (math.pi * n))
    p = CostParams(n, area, R, r, hop_probs=probs, **kwargs)
    assert p.neighbors_per_node == n_r
    assert p.nodes_in_query_range == n_R
    return p


# ---------------------------------------------------------------------------
# density / expected skyline size
# ---------------------------------------------------------------------------

def test_density_query_range_example():
    assert density(100, 400 * 400, 80.0) == 12


def test_density_transmission_range_example():
    assert density(100, 160000, 75.0) == 11


def test_density_vanishes_with_radius():
    assert density(100, 160000, 0.0) == 0


def test_skyline_size_log_examples():
    assert expected_skyline_size(100, 2) == pytest.approx(math.log(100))
    assert expected_skyline_size(1000, 1) == 1.0
    assert expected_skyline_size(math.e**2, 3) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# spread cost and ttl derivation
# ---------------------------------------------------------------------------

def test_spread_cost_branching_example():
    p = params_with_density(5, 4)
    assert query_spread_cost(p, 2) == pytest.approx(30.0)


def test_ttl_two_hops_needed():
    p = params_with_density(11, 12)
    assert derive_ttl(p, cap=5) == 2


def test_ttl_one_hop_suffices():
    p = params_with_density(11, 8)
    assert derive_ttl(p, cap=5) == 1


def test_ttl_error_when_unreachable():
    p = params_with_density(2, 500, probs=(0.05,))
    with pytest.raises(ValueError):
        derive_ttl(p, cap=3)


def test_spread_matches_term_by_term_oracle_with_decaying_probs():
    probs = (0.95, 0.9, 0.8, 0.6, 0.5)
    p = params_with_density(7, 40, probs=probs)
    for k in range(1, 6):
        expected = 0.0
        cum = 1.0
        for i in range(1, k + 1):
            cum *= probs[i - 1]
            expected += 7**i * cum
        assert query_spread_cost(p, k) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# reply costs
# ---------------------------------------------------------------------------

def test_centralized_reply_cost_example():
    p = params_with_density(5, 4)
    assert response_cost_centralized(p, 2) == pytest.approx(5 * 1 + 25 * 2)


def test_drsq_reply_cost_single_dimension_drops_log_factor():
    probs = (0.9, 0.8, 0.7)
    p = params_with_density(6, 10, probs=probs, d=1)
    # as-printed indexing: hop i weighted by P_{k-i}, with P_0 = 1
    k = 3
    expected = 6 * probs[1] + 36 * probs[0] + 216 * 1.0
    assert response_cost_drsq(p, k) == pytest.approx(expected)


def test_drsq_reply_below_centralized_when_log_factor_small():
    rng = random.Random(4)
    for _ in range(50):
        n_r = rng.randint(3, 30)
        p = params_with_density(n_r, 5, d=2)
        k = rng.randint(1, 4)
        if all(math.log(n_r**i) ** (p.d - 1) < i for i in range(1, k + 1)):
            drsq = response_cost_drsq(p, k)
            central = response_cost_centralized(p, k)
            assert drsq < central


# ---------------------------------------------------------------------------
# composed totals
# ---------------------------------------------------------------------------

def test_continuous_centralized_is_rounds_times_snapshot():
    p = params_with_density(5, 4, delta_t=10.0, report_interval=1.0)
    snap = total_cost(p, "snapshot-centralized", 2)
    cont = total_cost(p, "continuous-centralized", 2)
    assert cont == pytest.approx(10.0 * snap)


def test_continuous_dcrsq_spread_once_updates_scaled():
    p = params_with_density(5, 4, delta_t=10.0, mean_safe_time=5.0)
    spread = query_spread_cost(p, 2)
    reply = response_cost_drsq(p, 2)
    assert total_cost(p, "continuous-dcrsq", 2) == pytest.approx(spread + 2.0 * reply)


def test_dcrsq_cheaper_than_periodic_centralized_on_grid():
    rng = random.Random(11)
    for _ in range(60):
        n_r = rng.randint(4, 20)
        t_safe = rng.uniform(1.5, 8.0)
        p = params_with_density(
            n_r, 6, delta_t=rng.uniform(5, 20),
            report_interval=1.0, mean_safe_time=t_safe,
        )
        k = rng.randint(1, 3)
        if t_safe > p.report_interval and response_cost_drsq(p, k) < total_cost(
            p, "snapshot-centralized", k
        ):
            assert total_cost(p, "continuous-dcrsq", k) < total_cost(
                p, "continuous-centralized", k
            )


def test_nonpositive_intervals_rejected():
    with pytest.raises(ValueError):
        p = params_with_density(5, 4, delta_t=10.0, report_interval=0.0)
        total_cost(p, "continuous-centralized", 2)
    with pytest.raises(ValueError):
        p2 = params_with_density(5, 4, delta_t=10.0, mean_safe_time=-1.0)
        total_cost(p2, "continuous-dcrsq", 2)


def test_costs_monotone_in_size_parameters():
    rng = random.Random(21)
    for _ in range(200):
        n_r = rng.randint(3, 15)
        n_R = rng.randint(2, 20)
        k = rng.randint(1, 4)
        dt = rng.uniform(1, 30)
        p = params_with_density(n_r, n_R, delta_t=dt)
        p_bigger_k = query_spread_cost(p, k + 1)
        assert p_bigger_k >= query_spread_cost(p, k)
        assert response_cost_centralized(p, k + 1) >= response_cost_centralized(p, k)
        denser = params_with_density(n_r + 1, n_R, delta_t=dt)
        assert query_spread_cost(denser, k) >= query_spread_cost(p, k)
        longer = params_with_density(n_r, n_R, delta_t=dt + 5)
        assert total_cost(longer, "continuous-centralized", k) >= total_cost(
            p, "continuous-centralized", k
        )


def test_cost_table_lists_all_quantities():
    p = params_with_density(5, 4, delta_t=10.0)
    names = [name for name, _ in cost_table(p, 1)]
    assert "spread" in names
    assert "total_continuous_dcrsq" in names


def test_invalid_hop_probability_rejected():
    with pytest.raises(ValueError):
        CostParams(100, 160000.0, 80.0, 75.0, hop_probs=(1.5,))
    with pytest.raises(ValueError):
        CostParams(100, 160000.0, 80.0, 75.0, hop_probs=())
