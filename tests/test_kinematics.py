import math
import random
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangeskyline.kinematics import (
    INF,
    MAX_LEGS,
    MotionState,
    WaypointPlan,
    crossing_window,
    position_at,
    quadratic_roots,
    safe_interval,
)
from rangeskyline.protocols import QueryDescriptor

from helpers import ScriptedRandom


# ---------------------------------------------------------------------------
# Dense-sampling oracle for safe intervals: march the pair distance on a fine
# grid and read enter/leave off the in-range mask.  Independent of the
# quadratic-root path it checks.
# ---------------------------------------------------------------------------

DT = 1e-3
HORIZON = 20.0


def sampled_interval(q, s, R, now, horizon=HORIZON, dt=DT):
    t = np.arange(now, now + horizon, dt)
    qx = q.position[0] + q.velocity[0] * (t - q.observed_at)
    qy = q.position[1] + q.velocity[1] * (t - q.observed_at)
    sx = s.position[0] + s.velocity[0] * (t - s.observed_at)
    sy = s.position[1] + s.velocity[1] * (t - s.observed_at)
    inside = (qx - sx) ** 2 + (qy - sy) ** 2 <= R * R
    if not inside.any():
        return None
    idx = np.flatnonzero(inside)
    enter = t[idx[0]]
    leave = t[idx[-1]]
    open_ended = idx[-1] == len(t) - 1
    return enter, leave, open_ended


def ms(x, y, vx, vy, t0=0.0):
    return MotionState((x, y), (vx, vy), t0)


# ---------------------------------------------------------------------------
# position_at
# ---------------------------------------------------------------------------

def test_position_advances_linearly():
    assert position_at(ms(0, 0, 1, 0), 5.0) == (5.0, 0.0)


def test_zero_velocity_keeps_position():
    assert position_at(ms(3, 4, 0, 0), 100.0) == (3.0, 4.0)


def test_negative_velocity_arithmetic():
    assert position_at(ms(3, 4, -1, 2), 2.0) == (1.0, 8.0)


def test_time_before_validity_raises():
    with pytest.raises(ValueError):
        position_at(ms(0, 0, 1, 0, t0=5.0), 4.0)


# ---------------------------------------------------------------------------
# safe_interval
# ---------------------------------------------------------------------------

def test_head_on_approach_enter_leave():
    q = ms(0, 0, 0, 0)
    s = ms(-200, 0, 10, 0)
    si = safe_interval(q, s, 100.0, 0.0)
    assert si.enter == pytest.approx(10.0)
    assert si.leave == pytest.approx(30.0)


def test_stationary_pair_inside_forever():
    si = safe_interval(ms(0, 0, 0, 0), ms(3, 4, 0, 0), 10.0, 2.0)
    assert si.enter == 2.0
    assert si.leave == INF


def test_stationary_pair_outside_is_empty():
    si = safe_interval(ms(0, 0, 0, 0), ms(30, 40, 0, 0), 10.0, 0.0)
    assert si.enter > si.leave


def test_receding_pair_never_in_range():
    si = safe_interval(ms(0, 0, 0, 0), ms(200, 0, 5, 0), 100.0, 0.0)
    assert si.enter > si.leave


def test_object_in_range_gets_enter_now():
    # at now=1 the object sits at (60, 0), 40 m from the boundary at 10 m/s
    q = ms(0, 0, 0, 0)
    s = ms(50, 0, 10, 0)
    si = safe_interval(q, s, 100.0, 1.0)
    assert si.enter == 1.0
    assert si.leave == pytest.approx(5.0)


def test_nonpositive_radius_rejected():
    with pytest.raises(ValueError):
        safe_interval(ms(0, 0, 0, 0), ms(1, 1, 0, 0), 0.0, 0.0)


def test_safe_interval_matches_dense_sampling_oracle():
    rng = random.Random(99)
    checked = 0
    for _ in range(450):
        q = ms(rng.uniform(-50, 50), rng.uniform(-50, 50),
               rng.uniform(-5, 5), rng.uniform(-5, 5))
        s = ms(rng.uniform(-120, 120), rng.uniform(-120, 120),
               rng.uniform(-5, 5), rng.uniform(-5, 5))
        R = rng.uniform(20, 90)
        si = safe_interval(q, s, R, 0.0)
        ref = sampled_interval(q, s, R, 0.0)
        if ref is None:
            if si.enter <= si.leave:
                # interval may lie entirely beyond the sampled horizon
                assert si.enter > HORIZON - 2 * DT
            continue
        enter, leave, open_ended = ref
        assert si.enter <= si.leave
        assert abs(si.enter - enter) <= 2e-3
        if open_ended:
            assert si.leave >= HORIZON - 2 * DT
        else:
            assert abs(si.leave - leave) <= 2e-3
        checked += 1
    assert checked > 100


def test_boundary_residual_tiny_at_endpoints():
    rng = random.Random(5)
    for _ in range(200):
        q = ms(rng.uniform(-50, 50), rng.uniform(-50, 50),
               rng.uniform(-5, 5), rng.uniform(-5, 5))
        s = ms(rng.uniform(-150, 150), rng.uniform(-150, 150),
               rng.uniform(-5, 5), rng.uniform(-5, 5))
        R = rng.uniform(10, 80)
        si = safe_interval(q, s, R, 0.0)
        if si.enter > si.leave or si.leave == INF:
            continue
        for t in (si.enter, si.leave):
            if t == 0.0:
                continue  # clamped start, not a boundary crossing
            d = math.dist(position_at(q, t), position_at(s, t))
            assert abs(d - R) <= 1e-6 * R


def test_safe_interval_symmetric_in_roles():
    rng = random.Random(17)
    for _ in range(100):
        q = ms(rng.uniform(-50, 50), rng.uniform(-50, 50),
               rng.uniform(-4, 4), rng.uniform(-4, 4))
        s = ms(rng.uniform(-100, 100), rng.uniform(-100, 100),
               rng.uniform(-4, 4), rng.uniform(-4, 4))
        R = rng.uniform(10, 80)
        assert safe_interval(q, s, R, 0.0) == safe_interval(s, q, R, 0.0)


def test_safe_interval_translation_invariant():
    rng = random.Random(23)
    for _ in range(100):
        qx, qy = rng.uniform(-50, 50), rng.uniform(-50, 50)
        sx, sy = rng.uniform(-100, 100), rng.uniform(-100, 100)
        vq = (rng.uniform(-4, 4), rng.uniform(-4, 4))
        vs = (rng.uniform(-4, 4), rng.uniform(-4, 4))
        shift = (rng.uniform(-500, 500), rng.uniform(-500, 500))
        R = rng.uniform(10, 80)
        base = safe_interval(MotionState((qx, qy), vq), MotionState((sx, sy), vs), R, 0.0)
        moved = safe_interval(
            MotionState((qx + shift[0], qy + shift[1]), vq),
            MotionState((sx + shift[0], sy + shift[1]), vs),
            R,
            0.0,
        )
        assert (base.enter > base.leave) == (moved.enter > moved.leave)
        if base.enter <= base.leave:
            assert moved.enter == pytest.approx(base.enter, abs=1e-9, rel=1e-9)
            assert moved.leave == pytest.approx(base.leave, abs=1e-9, rel=1e-9)


# ---------------------------------------------------------------------------
# the shared root rule
# ---------------------------------------------------------------------------

def test_quadratic_roots_is_none_only_for_a_negative_discriminant():
    # t^2 - 20t + 100 = (t - 10)^2 and t^2 - 20t + 101 > 0
    assert quadratic_roots(1.0, -20.0, 100.0) == (10.0, 10.0)
    assert quadratic_roots(1.0, -20.0, 101.0) is None
    assert quadratic_roots(2.0, -2.0, -4.0) == (-1.0, 2.0)
    # descending for a < 0, as the tie cuts of predict_timeline use them
    assert quadratic_roots(-2.0, 2.0, 4.0) == (2.0, -1.0)


def test_grazing_pass_is_in_range_for_one_instant():
    # the line y = 5 touches the circle of radius 5 at t = 10
    assert crossing_window(-10.0, 5.0, 1.0, 0.0, 5.0, 0.0) == (10.0, 10.0)
    si = safe_interval(ms(0, 0, 0, 0), ms(-10, 5, 1, 0), 5.0, 0.0)
    assert si.enter == si.leave == 10.0
    # a pass just outside the circle never enters it
    assert crossing_window(-10.0, 5.5, 1.0, 0.0, 5.0, 0.0) == (INF, -INF)


# ---------------------------------------------------------------------------
# monitoring windows
# ---------------------------------------------------------------------------

def test_inverted_window_rejected():
    with pytest.raises(ValueError, match="window start exceeds window end"):
        QueryDescriptor(1, 0, ms(0, 0, 0, 0), 10.0, (5.0, 2.0), 1)


# ---------------------------------------------------------------------------
# waypoint plans
# ---------------------------------------------------------------------------

def test_single_leg_midpoint_position():
    plan = WaypointPlan(
        (0.0, 0.0), (10.0, 10.0), (2.0, 2.0), 5.0,
        ScriptedRandom(0, [((10.0, 0.0), 2.0)]),
    )
    assert plan.motion_state_at(3.0).position == pytest.approx((6.0, 0.0))


def test_arrival_starts_next_leg():
    plan = WaypointPlan(
        (0.0, 0.0), (10.0, 10.0), (2.0, 2.0), 6.0,
        ScriptedRandom(0, [((10.0, 0.0), 2.0)]),
    )
    state = plan.motion_state_at(5.0)
    assert state.position == pytest.approx((10.0, 0.0))
    assert plan.leg_entry(5.0)[-1] is plan.legs[1]


def test_same_seed_same_trajectory():
    mk = lambda seed: WaypointPlan((5.0, 5.0), (100.0, 100.0), (1.0, 4.0), 120.0, random.Random(seed))
    a, b = mk(11), mk(11)
    for t in [0.0, 3.7, 50.2, 119.9]:
        assert a.motion_state_at(t) == b.motion_state_at(t)


def test_positions_stay_inside_area():
    rng = random.Random(3)
    for seed in range(20):
        plan = WaypointPlan(
            (rng.uniform(0, 80), rng.uniform(0, 60)),
            (80.0, 60.0),
            (0.5, 8.0),
            200.0,
            random.Random(seed),
        )
        for t in [i * 0.7 for i in range(280)]:
            x, y = plan.position_at(t)
            assert -1e-9 <= x <= 80.0 + 1e-9
            assert -1e-9 <= y <= 60.0 + 1e-9


def test_a_plan_past_the_leg_cap_is_rejected():
    # a leg across a 1e-6 m square at 10 m/s lasts about 1e-7 s
    with pytest.raises(ValueError, match=f"more than {MAX_LEGS} waypoint legs"):
        WaypointPlan((0.0, 0.0), (1e-6, 1e-6), (10.0, 10.0), 60.0, random.Random(0))


def test_zero_speed_plan_is_static():
    plan = WaypointPlan((7.0, 8.0), (100.0, 100.0), (0.0, 0.0), 60.0, random.Random(1))
    assert plan.position_at(0.0) == (7.0, 8.0)
    assert plan.position_at(59.0) == (7.0, 8.0)
    assert plan.motion_state_at(30.0).velocity == (0.0, 0.0)


def test_leg_change_times_within_window():
    plan = WaypointPlan((0.0, 0.0), (50.0, 50.0), (5.0, 5.0), 100.0, random.Random(9))
    changes = plan.leg_change_times(0.0, 100.0)
    assert changes == sorted(changes)
    assert all(0.0 < t <= 100.0 for t in changes)
    assert len(changes) >= 2
    # the window is (t0, t1]: a change at t0 itself is not listed
    assert plan.leg_change_times(changes[0], changes[1]) == [changes[1]]


# The lookups read the plan's leg cursor; they must give the floats of the
# composition through a fresh bisect on the leg starts and the clamped
# extrapolation of that leg.

def composed_leg(plan, t):
    starts = [leg.t_start for leg in plan.legs]
    return plan.legs[max(bisect_right(starts, t) - 1, 0)]


def leg_position(leg, t):
    dt = min(t, leg.t_end) - leg.t_start
    return (leg.origin[0] + leg.velocity[0] * dt, leg.origin[1] + leg.velocity[1] * dt)


def composed_position(plan, t):
    return leg_position(composed_leg(plan, t), t)


def composed_motion_state(plan, t):
    leg = composed_leg(plan, t)
    if t >= leg.t_end:
        return MotionState(leg_position(leg, leg.t_end), (0.0, 0.0), t)
    return MotionState(leg_position(leg, t), leg.velocity, t)


@st.composite
def plans_and_instants(draw):
    coord = st.one_of(st.integers(0, 100).map(float), st.floats(0.0, 100.0))
    start = (draw(coord), draw(coord))
    speed_max = draw(st.sampled_from([0.0, 1.0, 3.5, 10.0]))
    waypoints = draw(st.lists(st.tuples(coord, coord), max_size=4))
    plan = WaypointPlan(
        start, (100.0, 100.0), (min(1.0, speed_max), speed_max),
        draw(st.sampled_from([5.0, 30.0, 60.0])),
        ScriptedRandom(draw(st.integers(0, 99)), [(w, speed_max) for w in waypoints]),
    )
    # a stationary plan has one leg from 0 that never ends
    final_end = min(plan.legs[-1].t_end, 1e6)
    instants = [leg.t_start for leg in plan.legs] + [final_end, final_end + 1.0, -1.0]
    instants += [(leg.t_start + leg.t_end) / 2.0 for leg in plan.legs[:-1]]
    instants += draw(st.lists(st.floats(-5.0, 100.0), max_size=5))
    return plan, instants


@settings(max_examples=300, deadline=None)
@given(plans_and_instants())
def test_plan_lookups_equal_the_leg_composition(case):
    plan, instants = case
    for t in instants:
        assert plan.leg_entry(t)[-1] is composed_leg(plan, t)
        position = plan.position_at(t)
        state = plan.motion_state_at(t)
        assert position == composed_position(plan, t)
        assert state == composed_motion_state(plan, t)
        # == ignores the sign of a zero; repr does not
        assert repr((position, state)) == repr((composed_position(plan, t),
                                                composed_motion_state(plan, t)))
