import rangeskyline

PUBLIC = {
    "AttributeVector", "DataObject", "QuerySnapshot", "MotionState", "SafeInterval",
    "WaypointPlan", "merge_prune", "point_skyline", "position_at", "range_skyline",
    "safe_interval",
}


def test_all_is_the_eleven_public_names_and_star_import_binds_them():
    assert set(rangeskyline.__all__) == PUBLIC and len(rangeskyline.__all__) == 11
    namespace = {}
    exec("from rangeskyline import *", namespace)
    assert all(namespace[name] is getattr(rangeskyline, name) for name in PUBLIC)
