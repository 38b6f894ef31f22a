"""Golden digests of the CSV rows of a fixed seed grid.

A refactor that changes any simulated result (a message count, a response
time, a precision or recall digit) changes a digest here.  The digests were
taken before the skyline and timeline primitives were consolidated; a change
that is meant to alter results must regenerate them and say why.
"""

import hashlib
from dataclasses import replace

import pytest

from rangeskyline.harness import csv_row, default_approaches, run_scenario, scenario1, scenario2

SEEDS = tuple(f"golden:{k}" for k in range(3))

GRID = {
    "scenario1": scenario1(),
    "scenario1-3d": replace(scenario1(), attr_dims=3, attr_directions="min,max,min"),
    "scenario2": scenario2(),
}

GOLDEN = {
    "scenario1": "fb384696b64ff399685733274aa872d6f495d896c87c4da7f9b70faff6be7286",
    "scenario1-3d": "d3864b7030cc87509da1f06632d15b61573eac06dc137d9156cafe968c6aa3c9",
    "scenario2": "c22e20fda5ca505053f5a964deb053b99083ca10b8fd04c41188298f88d15d89",
}


def grid_rows(scen):
    for rep, seed in enumerate(SEEDS):
        for approach in default_approaches(scen):
            yield csv_row(run_scenario(scen, seed, approach), "seed", seed, rep)


@pytest.mark.parametrize("name", sorted(GRID))
def test_csv_rows_match_golden_digest(name):
    scen = GRID[name]
    assert scen.delivery_prob == 0.95
    digest = hashlib.sha256()
    for row in grid_rows(scen):
        digest.update((row + "\n").encode())
    assert digest.hexdigest() == GOLDEN[name]
