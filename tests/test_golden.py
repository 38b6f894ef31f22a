"""Golden digests of the CSV rows and event traces of a fixed seed grid.

A refactor that changes any simulated result (a message count, a response
time, a precision or recall digit) changes a CSV digest here; one that
changes the order, timing or kind of any processed event changes a trace
digest.  The CSV digests were taken before the skyline and timeline
primitives were consolidated, the trace digests before the protocol and
engine steps were merged, and both scenario2-dense digests (denser
candidate sets, two queries per run) before the prediction kernel was
rewritten over per-candidate floats.  The scenario2 and scenario2-dense
trace digests were retaken when contact triggers became limited to the
query span: those traces lost 1,184 and 1,545 idle safe-time-trigger lines
and gained, moved or changed no other line.  They were retaken again when
the first continuous issue began scheduling waypoint arrivals, and the
issuer recompute got its own event kind: the scenario2 and scenario2-dense
traces lost 101 and 95 waypoint-arrival lines outside the query span, and
57 and 110 recompute lines changed from safe-time-trigger to
issuer-recompute with the query id filled in; no other line changed.  A
change that is meant to alter results must regenerate them and say why.
The cost digests cover the `rangeskyline cost` table of each preset, with
the TTL taken from the scenario and with `--k 3 --mean-safe-time 4`; they
were taken before the cost model's duplicated rules were merged.  The
scenario2-turn grid runs its own seeds, whose issuers change leg inside the
window, so its dcrsq runs reflood the query and sensors answer the
re-announcement; its digests were taken before timelines were scored by a
merge walk over the two partitions.  To regenerate:

    PYTHONPATH=src python tests/test_golden.py

prints the current digests of the grid in the form of the tables below.
"""

import contextlib
import functools
import hashlib
import io
from dataclasses import replace
from unittest import mock

import pytest

from rangeskyline import cli
from rangeskyline.harness import csv_row, default_approaches, run_scenario, scenario1, scenario2
from rangeskyline.protocols import QueryProtocol

SEEDS = tuple(f"golden:{k}" for k in range(3))

# name: (scenario, seeds)
GRID = {
    "scenario1": (scenario1(), SEEDS),
    "scenario1-3d": (replace(scenario1(), attr_dims=3, attr_directions="min,max,min"), SEEDS),
    "scenario2": (scenario2(), SEEDS),
    "scenario2-dense": (replace(scenario2(), node_count=90, query_count=2), SEEDS),
    "scenario2-turn": (scenario2(), ("golden:13", "golden:17")),
}

GOLDEN = {
    "scenario1": "fb384696b64ff399685733274aa872d6f495d896c87c4da7f9b70faff6be7286",
    "scenario1-3d": "d3864b7030cc87509da1f06632d15b61573eac06dc137d9156cafe968c6aa3c9",
    "scenario2": "c22e20fda5ca505053f5a964deb053b99083ca10b8fd04c41188298f88d15d89",
    "scenario2-dense": "11aeb23c4ef6c42a98f5e279910dcbd12e41fc9f98380c66b5c0345e27e4aa29",
    "scenario2-turn": "c187f9ec2ab888629f052be29bc3066db365de421c287793dbb4ce8bb2460e96",
}

GOLDEN_TRACE = {
    "scenario1": "ef9848bc943b26d8a4d827946920e9e50de799fefd986ce6ca4451541afe30d2",
    "scenario1-3d": "28ad681415c2bb660026ae33bed88317e116611e1fef76d16e313cb284de0675",
    "scenario2": "fba4ae18f10e8645d9561190717177b3de600d3e36df5b327f782a0826bc94db",
    "scenario2-dense": "856070d4773074b0bcd60ba2e7060f1f51f095ac39c82bdeca9bc7635615a248",
    "scenario2-turn": "4dffb537422900504746b55c2df3a7f241f6326f935c08ee186ad4eb628e93b3",
}

COST_FLAGS = {
    "scenario1": ("--preset", "scenario1"),
    "scenario1-k3": ("--preset", "scenario1", "--k", "3", "--mean-safe-time", "4"),
    "scenario2": ("--preset", "scenario2"),
    "scenario2-k3": ("--preset", "scenario2", "--k", "3", "--mean-safe-time", "4"),
}

GOLDEN_COST = {
    "scenario1": "a607d2768d6ebdc2febbebd4ca53f40f818df4a296af301f9222945b0117e5cb",
    "scenario1-k3": "7e26c2f7d57c11e5958035c7847fff5650c0663bc146bf794bb722f731d6a010",
    "scenario2": "93ded4c3231f526d1a8a34be2af4542fc26fa24be40d8bec6821b0daa2254bb1",
    "scenario2-k3": "45851dee527f54ecd7566d62a0de7b011c423f831153fa25420e43cda3662529",
}


@functools.cache
def grid_digests(name: str) -> tuple[str, str, tuple]:
    """sha256 of the grid's CSV rows and of its event traces, one line each,
    and (approach, refloods) for each run."""
    scen, seeds = GRID[name]
    rows = hashlib.sha256()
    trace = hashlib.sha256()
    refloods = []
    with mock.patch.object(
        QueryProtocol, "_reflood", autospec=True, side_effect=QueryProtocol._reflood
    ) as reflood:
        for rep, seed in enumerate(seeds):
            for approach in default_approaches(scen):
                before = reflood.call_count
                result = run_scenario(scen, seed, approach)
                refloods.append((approach, reflood.call_count - before))
                rows.update((csv_row(result, "seed", seed, rep) + "\n").encode())
                for line in result.trace:
                    trace.update((line + "\n").encode())
    return rows.hexdigest(), trace.hexdigest(), tuple(refloods)


@pytest.mark.parametrize("name", sorted(GRID))
def test_csv_rows_match_golden_digest(name):
    assert GRID[name][0].delivery_prob == 0.95
    assert grid_digests(name)[0] == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GRID))
def test_event_traces_match_golden_digest(name):
    assert grid_digests(name)[1] == GOLDEN_TRACE[name]


def test_turn_grid_refloods_every_dcrsq_run():
    # an issuer turning inside its window is the one path to a dcrsq reflood
    # and to the sensors' re-announcement ticks
    dcrsq = [n for approach, n in grid_digests("scenario2-turn")[2] if approach == "dcrsq"]
    assert len(dcrsq) == 2
    assert all(n > 0 for n in dcrsq)


def cost_digest(name: str) -> str:
    """sha256 of the `rangeskyline cost` table printed for COST_FLAGS[name]."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["cost", *COST_FLAGS[name]]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(COST_FLAGS))
def test_cost_tables_match_golden_digest(name):
    assert cost_digest(name) == GOLDEN_COST[name]


if __name__ == "__main__":
    for table, column in (("GOLDEN", 0), ("GOLDEN_TRACE", 1)):
        print(f"{table} = {{")
        for name in sorted(GRID):
            print(f'    "{name}": "{grid_digests(name)[column]}",')
        print("}")
    print("GOLDEN_COST = {")
    for name in sorted(COST_FLAGS):
        print(f'    "{name}": "{cost_digest(name)}",')
    print("}")
