"""The benchmark's span tracer must find every entry point it patches.

`benchmarks/tracer.py` wraps module and class attributes by name while it is
installed.  A renamed or no longer imported entry point makes `--trace 1`
fail, and one called around its module attribute records nothing; the
untraced suite shows neither, so this runs one small workload per approach
family under the tracer.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

from rangeskyline.harness import run_scenario, scenario1, scenario2

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"

SPANS = {
    "harness.run_scenario",
    "harness.build_world",
    "netsim.run",
    "netsim.neighbors_of",
    "protocols.predict_timeline",
    "protocols.schedule_contacts",
    "skyline.point_skyline",
    "skyline.merge_prune",
    "metrics.oracle_timeline",
    "metrics.precision_recall",
}
COUNTS = {
    "kinematics.safe_interval.calls",
    "metrics.predict_timeline.calls",
    "skyline.merge_prune.calls",
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_records_every_span_and_restores_the_originals():
    tracer = load_tracer()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracer._targets()]
    with tracer.installed():
        tracer.run(run_scenario, replace(scenario2(), node_count=20), "tracer:0", "dcrsq")
        tracer.run(run_scenario, replace(scenario1(), node_count=20), "tracer:0", "drsq")
    assert SPANS <= {name for name, *_ in tracer.spans}
    assert all(tracer.counts[name] > 0 for name in COUNTS)
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr
