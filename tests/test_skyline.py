import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangeskyline.skyline import (
    AttributeVector,
    DataObject,
    QuerySnapshot,
    merge_prune,
    point_skyline,
    range_skyline,
    skyline_rows,
)


# ---------------------------------------------------------------------------
# Independent brute-force oracle: re-derives dominance from first principles
# (combined distance+attrs vector, strict Pareto) without touching the
# library's dominance helpers.
# ---------------------------------------------------------------------------

def _combined(q, obj):
    d = math.dist(q.q_position, obj.position)
    return (d, *obj.attrs.canonical())


def oracle_dominates(q, a, b):
    va, vb = _combined(q, a), _combined(q, b)
    return all(x <= y for x, y in zip(va, vb)) and va != vb


def oracle_point_skyline(q, objs):
    objs = list(objs)
    return {
        o
        for o in objs
        if not any(other is not o and oracle_dominates(q, other, o) for other in objs)
    }


def oracle_range_skyline(q, objs):
    inside = {o for o in objs if math.dist(q.q_position, o.position) <= q.range_R}
    return oracle_point_skyline(q, inside)


def attrs(*values):
    return AttributeVector(tuple(float(v) for v in values))


def obj(oid, x, y, *values, observed_at=0.0):
    return DataObject(oid, (float(x), float(y)), (0.0, 0.0), attrs(*values), observed_at)


def dominates(q, a, b):
    """a dominates b w.r.t. q: b drops out of the skyline of the pair."""
    return b not in point_skyline(q, (a, b))


def random_objects(rng, n, dims=1, span=100.0):
    out = set()
    for i in range(n):
        out.add(
            obj(
                i,
                rng.uniform(-span, span),
                rng.uniform(-span, span),
                *[rng.uniform(0, 10) for _ in range(dims)],
            )
        )
    return out


# ---------------------------------------------------------------------------
# attribute comparison, at equal distance from the query point
# ---------------------------------------------------------------------------

Q = QuerySnapshot((0.0, 0.0), 10.0)


def test_equal_vectors_are_no_worse():
    a, b = obj(1, 1, 0, 1, 1), obj(2, 0, 1, 1, 1)
    assert point_skyline(Q, (a, b)) == {a, b}


def test_better_in_all_dims_dominates():
    a, b = obj(1, 1, 0, 1, 2), obj(2, 0, 1, 2, 3)
    assert point_skyline(Q, (a, b)) == {a}


def test_incomparable_pair():
    a, b = obj(1, 1, 0, 1, 3), obj(2, 0, 1, 2, 2)
    assert point_skyline(Q, (a, b)) == {a, b}


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        point_skyline(Q, (obj(1, 1, 0, 1), obj(2, 0, 1, 1, 2)))


def test_direction_mismatch_raises():
    a = DataObject(1, (1.0, 0.0), (0.0, 0.0), AttributeVector((1.0,), ("min",)))
    b = DataObject(2, (0.0, 1.0), (0.0, 0.0), AttributeVector((1.0,), ("max",)))
    with pytest.raises(ValueError):
        point_skyline(Q, (a, b))


def test_maximize_direction_flips_comparison():
    hi = DataObject(1, (1.0, 0.0), (0.0, 0.0), AttributeVector((5.0,), ("max",)))
    lo = DataObject(2, (0.0, 1.0), (0.0, 0.0), AttributeVector((1.0,), ("max",)))
    assert point_skyline(Q, (hi, lo)) == {hi}


def test_non_finite_values_rejected():
    with pytest.raises(ValueError):
        AttributeVector((math.nan,))
    with pytest.raises(ValueError):
        AttributeVector((math.inf,))


# ---------------------------------------------------------------------------
# dominance w.r.t. the query point, checked against the oracle
# ---------------------------------------------------------------------------

def check_dominance(a, b, expected):
    assert dominates(Q, a, b) == oracle_dominates(Q, a, b) == expected


def test_closer_and_better_dominates():
    check_dominance(obj(1, 1, 0, 1), obj(2, 2, 0, 2), True)


def test_equivalent_objects_do_not_dominate():
    a = obj(1, 1, 0, 3)
    b = obj(2, -1, 0, 3)  # same distance, same attrs
    check_dominance(a, b, False)
    check_dominance(b, a, False)


def test_farther_object_never_dominates():
    check_dominance(obj(1, 3, 0, 1), obj(2, 2, 0, 2), False)


def test_equal_distance_better_attr_dominates():
    check_dominance(obj(1, 2, 0, 1), obj(2, 0, 2, 2), True)


# ---------------------------------------------------------------------------
# point_skyline / range_skyline
# ---------------------------------------------------------------------------

def test_empty_input_empty_skyline():
    q = QuerySnapshot((0.0, 0.0), 10.0)
    assert point_skyline(q, set()) == set()
    assert range_skyline(q, set()) == set()


def test_single_object_is_its_own_skyline():
    q = QuerySnapshot((0.0, 0.0), 10.0)
    o = obj(1, 1, 1, 5)
    assert point_skyline(q, {o}) == {o}


def test_point_skyline_matches_oracle_on_random_instance():
    rng = random.Random(42)
    q = QuerySnapshot((0.0, 0.0), 50.0)
    objs = random_objects(rng, 8, dims=2)
    assert point_skyline(q, objs) == oracle_point_skyline(q, objs)


def test_all_objects_outside_range_gives_empty():
    q = QuerySnapshot((0.0, 0.0), 5.0)
    objs = {obj(i, 10 + i, 0, 1) for i in range(4)}
    assert range_skyline(q, objs) == set()


def test_range_pruning_precedes_dominance():
    # an out-of-range dominator must not eliminate an in-range object
    q = QuerySnapshot((0.0, 0.0), 5.0)
    inside = obj(1, 4, 0, 5)
    outside = obj(2, 6, 0, 1)  # better attrs but outside R
    assert range_skyline(q, {inside, outside}) == {inside}


def test_range_skyline_matches_filter_then_oracle():
    rng = random.Random(7)
    q = QuerySnapshot((0.0, 0.0), 60.0)
    objs = random_objects(rng, 10)
    # radius chosen so roughly half the objects are inside
    assert range_skyline(q, objs) == oracle_range_skyline(q, objs)


# ---------------------------------------------------------------------------
# merge_prune
# ---------------------------------------------------------------------------

def test_merge_single_partial_passthrough():
    q = QuerySnapshot((0.0, 0.0), 10.0)
    o = obj(1, 1, 0, 1)
    assert merge_prune(q, [{o}]) == {o}


def test_merge_deduplicates_by_id():
    q = QuerySnapshot((0.0, 0.0), 10.0)
    o = obj(1, 1, 0, 1)
    assert merge_prune(q, [{o}, {o}]) == {o}


def test_merge_keeps_newest_observation_per_id():
    q = QuerySnapshot((0.0, 0.0), 10.0)
    stale = obj(1, 1, 0, 1, observed_at=1.0)
    fresh = obj(1, 2, 0, 1, observed_at=2.0)
    merged = merge_prune(q, [{stale}, {fresh}])
    assert merged == {fresh}


def test_merge_random_partials_matches_union_oracle():
    rng = random.Random(13)
    q = QuerySnapshot((0.0, 0.0), 40.0)
    pool = {o for o in random_objects(rng, 14, span=35.0)}
    pool = {o for o in pool if math.dist(q.q_position, o.position) <= q.range_R}
    ids = sorted(pool, key=lambda o: o.id)
    half = len(ids) // 2
    p1 = oracle_point_skyline(q, set(ids[:half]))
    p2 = oracle_point_skyline(q, set(ids[half:]))
    assert merge_prune(q, [p1, p2]) == oracle_range_skyline(q, p1 | p2)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

coord = st.floats(min_value=-50, max_value=50, allow_nan=False, width=32)
attr_val = st.floats(min_value=0, max_value=9, allow_nan=False, width=32)


def objects_strategy(max_size=12, dims=st.integers(min_value=1, max_value=3)):
    return dims.flatmap(
        lambda d: st.lists(
            st.tuples(coord, coord, st.tuples(*[attr_val] * d)),
            min_size=0,
            max_size=max_size,
        )
    )


def build_objects(raw):
    return {
        DataObject(i, (x, y), (0.0, 0.0), AttributeVector(tuple(vals)))
        for i, (x, y, vals) in enumerate(raw)
    }


@settings(max_examples=150, deadline=None)
@given(objects_strategy(max_size=6))
def test_dominance_is_antisymmetric(raw):
    q = QuerySnapshot((0.0, 0.0), 30.0)
    objs = list(build_objects(raw))
    for a in objs:
        for b in objs:
            if a is b:
                continue
            assert dominates(q, a, b) == oracle_dominates(q, a, b)
            assert not (dominates(q, a, b) and dominates(q, b, a))


@settings(max_examples=150, deadline=None)
@given(objects_strategy(max_size=6))
def test_dominance_is_transitive(raw):
    q = QuerySnapshot((0.0, 0.0), 30.0)
    objs = list(build_objects(raw))
    for a in objs:
        for b in objs:
            for c in objs:
                if dominates(q, a, b) and dominates(q, b, c):
                    assert dominates(q, a, c)


@settings(max_examples=150, deadline=None)
@given(objects_strategy())
def test_point_skyline_is_idempotent(raw):
    q = QuerySnapshot((0.0, 0.0), 30.0)
    objs = build_objects(raw)
    sky = point_skyline(q, objs)
    assert point_skyline(q, sky) == sky


@settings(max_examples=150, deadline=None)
@given(objects_strategy())
def test_range_skyline_subset_soundness(raw):
    q = QuerySnapshot((0.0, 0.0), 30.0)
    objs = build_objects(raw)
    sky = range_skyline(q, objs)
    assert sky <= objs
    for o in sky:
        assert math.dist(q.q_position, o.position) <= q.range_R


@settings(max_examples=200, deadline=None)
@given(objects_strategy(max_size=12))
def test_range_skyline_equals_brute_force_oracle(raw):
    q = QuerySnapshot((0.0, 0.0), 30.0)
    objs = build_objects(raw)
    assert range_skyline(q, objs) == oracle_range_skyline(q, objs)


def test_mean_skyline_size_tracks_log_formula():
    # uniform instances, one non-spatial attribute plus distance (two criteria)
    rng = random.Random(2024)
    q = QuerySnapshot((0.0, 0.0), 1000.0)
    expected = math.log(100.0)  # about 4.605
    total = 0
    runs = 500
    for _ in range(runs):
        objs = random_objects(rng, 100, dims=1, span=100.0)
        total += len(point_skyline(q, objs))
    mean = total / runs
    assert expected / 2 <= mean <= expected * 2


# ---------------------------------------------------------------------------
# sort-filter kernel
# ---------------------------------------------------------------------------

# Few distinct values, so duplicate vectors and equal distances are common.
tied_val = st.sampled_from([0.0, 1.0, 2.0, 2.5])


def rows_strategy(dims):
    return st.lists(
        st.tuples(tied_val, st.tuples(*[tied_val] * dims)), min_size=0, max_size=10
    )


def brute_force_rows(rows):
    vecs = [(d, *key) for d, key in rows]
    return [
        i
        for i, v in enumerate(vecs)
        if not any(all(x <= y for x, y in zip(w, v)) and w != v for w in vecs)
    ]


@pytest.mark.parametrize("dims", [1, 3])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_skyline_rows_equals_brute_force(dims, data):
    rows = data.draw(rows_strategy(dims))
    got = skyline_rows((d, key, i) for i, (d, key) in enumerate(rows))
    assert sorted(got) == brute_force_rows(rows)


@pytest.mark.parametrize("other", [AttributeVector((1.0, 2.0)), AttributeVector((1.0,), ("max",))])
def test_point_skyline_rejects_mixed_attribute_shapes(other):
    q = QuerySnapshot((0.0, 0.0), 30.0)
    odd = DataObject(2, (2.0, 0.0), (0.0, 0.0), other)
    with pytest.raises(ValueError):
        point_skyline(q, {obj(1, 1, 0, 1), odd})
