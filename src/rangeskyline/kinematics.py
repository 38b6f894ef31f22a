"""Linear motion, safe-time intervals, and random-waypoint trajectories.

The safe interval of a moving object against a moving query center is the
time window during which their distance stays within the query radius.  Both
endpoints come from the roots of a quadratic in relative motion; only the
relative velocity and offset enter, so the interval is symmetric in the two
parties and invariant under common translation.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass

INF = math.inf
# A plan with more legs than this is rejected: its area is too small for its
# speed and horizon (a leg lasts about side / speed).
MAX_LEGS = 10_000


@dataclass(frozen=True)
class MotionState:
    """Position and constant velocity observed at a given instant."""

    position: tuple[float, float]
    velocity: tuple[float, float]
    observed_at: float = 0.0


def position_at(m: MotionState, t: float) -> tuple[float, float]:
    """Linear extrapolation of m to time t; t must not precede observed_at.

    m is any motion anchor with position, velocity and observed_at: a
    MotionState or a carried DataObject.
    """
    if t < m.observed_at:
        raise ValueError(f"t={t} precedes observed_at={m.observed_at}")
    dt = t - m.observed_at
    return (m.position[0] + m.velocity[0] * dt, m.position[1] + m.velocity[1] * dt)


@dataclass(frozen=True)
class SafeInterval:
    """In-range time window [enter, leave]; empty when enter > leave.

    leave is +inf for a pair that never separates; enter equals the query
    instant for an object already inside the range.
    """

    enter: float
    leave: float


def quadratic_roots(a: float, b: float, c: float) -> tuple[float, float] | None:
    """(-b - sq) / 2a and (-b + sq) / 2a, the roots of a*t^2 + b*t + c for a != 0.

    sq is the root of the discriminant, so they ascend when a > 0.  None only
    when it is negative: a double root (tangency, a grazing tie) comes twice.
    """
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    return ((-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a))


def crossing_window(
    dpx: float, dpy: float, dvx: float, dvy: float, R: float, now: float
) -> tuple[float, float]:
    """(enter, leave) of absolute times >= now with |dp + dv*(t - now)| <= R.

    dp and dv are the relative offset at `now` and the relative velocity.
    The window is empty when enter > leave ((inf, -inf) when never in range).
    An offset already in range gets enter == now and leave equal to the
    smallest positive boundary crossing (or +inf if never leaving).
    """
    a = dvx * dvx + dvy * dvy
    b = 2.0 * (dpx * dvx + dpy * dvy)
    c = dpx * dpx + dpy * dpy - R * R

    if a == 0.0:
        # no relative motion: inside forever or never
        return (now, INF) if c <= 0.0 else (INF, -INF)
    roots = quadratic_roots(a, b, c)
    if roots is None or roots[1] < 0.0:
        return (INF, -INF)
    return (now + max(roots[0], 0.0), now + roots[1])


def safe_interval(
    q: MotionState, s: MotionState, R: float, now: float
) -> SafeInterval:
    """Window of absolute times >= now during which dist(q, s) <= R.

    Solves |dp + dv*t|^2 = R^2 for the relative offset dp and velocity dv at
    `now` (see crossing_window).
    """
    if R <= 0:
        raise ValueError("R must be > 0")
    qp = position_at(q, now)
    sp = position_at(s, now)
    return SafeInterval(
        *crossing_window(
            sp[0] - qp[0], sp[1] - qp[1],
            s.velocity[0] - q.velocity[0], s.velocity[1] - q.velocity[1],
            R, now,
        )
    )


@dataclass(frozen=True)
class Leg:
    """One straight-line segment of a waypoint trajectory."""

    t_start: float
    t_end: float
    origin: tuple[float, float]
    velocity: tuple[float, float]


class WaypointPlan:
    """Random-waypoint trajectory: straight legs between uniform waypoints.

    Waypoints are drawn uniformly inside the area, speeds uniformly from the
    configured range, with zero pause time.  The whole trajectory up to the
    horizon is fixed at construction from the seeded generator, so a lookup
    answers by t alone and two plans with equal inputs are identical.
    speed_max == 0 yields a stationary plan.
    """

    def __init__(
        self,
        start: tuple[float, float],
        area: tuple[float, float],
        speed_range: tuple[float, float],
        horizon: float,
        rng: random.Random,
    ) -> None:
        self.legs: list[Leg] = []
        lo, hi = speed_range
        t = 0.0
        pos = start
        if hi > 0.0:
            while t < horizon:
                target = (rng.uniform(0.0, area[0]), rng.uniform(0.0, area[1]))
                speed = rng.uniform(lo, hi)
                while speed <= 0.0:
                    speed = rng.uniform(lo, hi)
                dist = math.hypot(target[0] - pos[0], target[1] - pos[1])
                if dist == 0.0:
                    continue
                duration = dist / speed
                vel = (
                    (target[0] - pos[0]) / dist * speed,
                    (target[1] - pos[1]) / dist * speed,
                )
                self.legs.append(Leg(t, t + duration, pos, vel))
                if len(self.legs) > MAX_LEGS:
                    raise ValueError(
                        f"more than {MAX_LEGS} waypoint legs before the horizon: "
                        "the area is too small for the speed and horizon"
                    )
                t += duration
                pos = target
        if not self.legs:
            self.legs.append(Leg(0.0, INF, start, (0.0, 0.0)))
        self._starts = [leg.t_start for leg in self.legs]
        # the leg last read (see leg_entry); an empty span until the first read
        self.entry: tuple = (INF, -INF)
        self.leg_entry(0.0)

    def leg_entry(self, t: float) -> tuple:
        """(lo, hi, t_start, t_end, x, y, vx, vy, leg): the leg at t, kept in entry.

        leg is the last one starting at or before t (else the first), with its
        floats; [lo, hi) is the span of instants that pick it.  Inside the
        span of entry a lookup is one tuple read (a kinetic certificate that
        holds until the leg ends); any other instant bisects and replaces it.
        """
        entry = self.entry
        if entry[0] <= t < entry[1]:
            return entry
        starts = self._starts
        i = max(bisect_right(starts, t) - 1, 0)
        lo = starts[i] if i > 0 else -INF
        hi = starts[i + 1] if i + 1 < len(starts) else INF
        leg = self.legs[i]
        self.entry = entry = (lo, hi, leg.t_start, leg.t_end, *leg.origin, *leg.velocity, leg)
        return entry

    def position_at(self, t: float) -> tuple[float, float]:
        _, _, t_start, t_end, x, y, vx, vy, _ = self.leg_entry(t)
        dt = min(t, t_end) - t_start
        return (x + vx * dt, y + vy * dt)

    def motion_state_at(self, t: float) -> MotionState:
        position = self.position_at(t)
        leg = self.entry[8]  # position_at left the leg at t in entry
        if t >= leg.t_end:
            # past the final generated leg: hold position
            return MotionState(position, (0.0, 0.0), t)
        return MotionState(position, leg.velocity, t)

    def leg_change_times(self, t0: float, t1: float) -> list[float]:
        """Interior leg-boundary instants within (t0, t1]."""
        return [leg.t_start for leg in self.legs if t0 < leg.t_start <= t1 and leg.t_start > 0.0]

