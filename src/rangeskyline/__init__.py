"""Distributed range-skyline query processing over mobile sensor networks.

A deterministic discrete-event simulator and library for snapshot and
continuous range-skyline queries answered cooperatively by moving nodes,
with a centralized flooding baseline, a closed-form network-cost model,
and an experiment harness producing CSV metrics.
"""

from rangeskyline.skyline import (
    AttributeVector,
    DataObject,
    QuerySnapshot,
    merge_prune,
    point_skyline,
    range_skyline,
)
from rangeskyline.kinematics import (
    MotionState,
    SafeInterval,
    WaypointPlan,
    position_at,
    safe_interval,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeVector",
    "DataObject",
    "QuerySnapshot",
    "MotionState",
    "SafeInterval",
    "WaypointPlan",
    "merge_prune",
    "point_skyline",
    "position_at",
    "range_skyline",
    "safe_interval",
]
