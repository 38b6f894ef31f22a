"""Multi-criteria dominance and range-skyline computation over object snapshots.

Objects compare on Euclidean distance to a query point plus a vector of
non-spatial attributes.  Dominance is strict Pareto dominance on the combined
(distance, attributes) vector: no worse everywhere, strictly better somewhere.
Fully equivalent objects do not dominate each other, so both stay in a skyline.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from operator import itemgetter
from typing import TypeVar

MINIMIZE = "min"
MAXIMIZE = "max"

T = TypeVar("T")


@dataclass(frozen=True)
class AttributeVector:
    """Non-spatial attribute values with per-dimension preference directions.

    Lower is better by default; a dimension marked MAXIMIZE is negated before
    comparison.  All values must be finite.
    """

    values: tuple[float, ...]
    directions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ValueError("attribute vector needs at least one dimension")
        dirs = self.directions or tuple(MINIMIZE for _ in self.values)
        if len(dirs) != len(self.values):
            raise ValueError("directions length must match values length")
        for d in dirs:
            if d not in (MINIMIZE, MAXIMIZE):
                raise ValueError(f"unknown direction {d!r}")
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError("attribute values must be finite")
        object.__setattr__(self, "directions", dirs)

    def canonical(self) -> tuple[float, ...]:
        """Values with maximize dimensions negated, so lower is always better."""
        return tuple(
            -v if d == MAXIMIZE else v for v, d in zip(self.values, self.directions)
        )


@dataclass(frozen=True)
class DataObject:
    """One mobile sensor node's record: identity, motion snapshot, sensed data.

    Its position, velocity and observed_at form a motion anchor, which
    kinematics.position_at and safe_interval take as it is.
    """

    id: int
    position: tuple[float, float]
    velocity: tuple[float, float]
    attrs: AttributeVector
    observed_at: float = 0.0

    def __post_init__(self) -> None:
        if self.observed_at < 0:
            raise ValueError("observed_at must be >= 0")


@dataclass(frozen=True)
class QuerySnapshot:
    """A query point with its search radius."""

    q_position: tuple[float, float]
    range_R: float

    def __post_init__(self) -> None:
        if self.range_R <= 0:
            raise ValueError("range_R must be > 0")


def distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def skyline_rows(rows: Iterable[tuple[float, tuple[float, ...], T]]) -> list[T]:
    """Payloads of the undominated (distance, canonical attrs, payload) rows.

    All keys have one length.  Rows are presorted by (distance, attrs), so
    every dominator precedes the rows it dominates.  With one attribute this
    is a sort-and-scan (Kung, Luccio & Preparata, 1975): a row survives when
    its key beats every earlier key, or ties the best key at the distance of
    that key's first row.  Longer keys take the sort-filter skyline (Chomicki,
    Godfrey, Gryz & Liang, ICDE 2003), which checks each row only against
    the rows kept so far: a kept row dominates a later one when its
    attributes are no worse and the two rows differ; its distance is no
    larger by the sort order.
    """
    ordered = sorted(rows, key=itemgetter(0, 1))
    if ordered and len(ordered[0][1]) == 1:
        out: list[T] = []
        best_key, best_d = ordered[0][1], ordered[0][0]
        for d, key, payload in ordered:
            if key < best_key:
                best_key, best_d = key, d
            elif key != best_key or d != best_d:
                continue
            out.append(payload)
        return out
    kept: list[tuple[float, tuple[float, ...], T]] = []
    for row in ordered:
        d, key, _ = row
        for d2, key2, _ in kept:
            if all(x <= y for x, y in zip(key2, key)) and (d2 < d or key2 != key):
                break
        else:
            kept.append(row)
    return [payload for _, _, payload in kept]


def point_skyline(q: QuerySnapshot, objs: Iterable[DataObject]) -> set[DataObject]:
    """Objects not dominated by any other input object w.r.t. q."""
    items = list(objs)
    if len({o.attrs.directions for o in items}) > 1:
        raise ValueError("attribute dimensionality or direction mismatch")
    return set(
        skyline_rows((distance(q.q_position, o.position), o.attrs.canonical(), o) for o in items)
    )


def in_range(q: QuerySnapshot, obj: DataObject) -> bool:
    """Closed-ball membership test against the query radius."""
    return distance(q.q_position, obj.position) <= q.range_R


def range_skyline(q: QuerySnapshot, objs: set[DataObject]) -> set[DataObject]:
    """Skyline of the objects inside the query range.

    Range pruning happens before any dominance check, so an out-of-range
    object can never eliminate an in-range one.
    """
    return point_skyline(q, {o for o in objs if in_range(q, o)})


def merge_prune(
    q: QuerySnapshot, partials: list[set[DataObject]]
) -> set[DataObject]:
    """Merge partial skyline sets into the final range-skyline.

    Duplicated ids are collapsed to the record with the newest observed_at,
    out-of-range records are discarded, and the survivors are dominance
    filtered.  Equals range_skyline of the deduplicated union.
    """
    newest: dict[int, DataObject] = {}
    for part in partials:
        for o in part:
            keep_newest(newest, o)
    return range_skyline(q, set(newest.values()))


def keep_newest(table: dict[int, DataObject], obj: DataObject) -> None:
    """Store obj under its id unless the table already holds a record at
    least as new."""
    kept = table.get(obj.id)
    if kept is None or obj.observed_at > kept.observed_at:
        table[obj.id] = obj
