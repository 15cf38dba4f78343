"""Every row of the ``fswl verify`` table passes.

The suites in ``fswl.verify`` are the one implementation of these checks and
their thresholds; this module runs all of them once, as
``fswl verify --suite all --seed 1234`` does, and pins the row names to the
benchmark's reference report.  The ensemble rows of the inequalities suite,
evaluated in row blocks, are checked against the per-member loops of
``oracles.inequality_ensembles_loop``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from fswl.diagnostics import bilinear_form
from fswl.grid import make_grid
from fswl.sobolev import random_band_limited
from fswl.verify import run_suite

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "verify_all.json"


@pytest.fixture(scope="module")
def report():
    return run_suite("all", seed=1234)


def test_every_row_passes(report):
    failed = [json.dumps(row, sort_keys=True) for row in report["checks"] if not row["passed"]]
    assert not failed, "failed verify rows:\n" + "\n".join(failed)
    assert report["passed"]


def test_row_names_match_reference(report):
    names = sorted(row["name"] for row in report["checks"])
    assert names == json.loads(REFERENCE.read_text())["checks"]


@pytest.mark.parametrize("seed", [1234, 7])
def test_inequality_ensembles_equal_per_member_loops(seed):
    rows = {row["name"]: row for row in run_suite("inequalities", seed)["checks"]}
    grid = make_grid(16.0, 256)
    rng = np.random.default_rng(seed)
    want = oracles.inequality_ensembles_loop(grid, rng)
    assert len(want) == 4
    for name, row in want.items():
        assert rows[name] == row
    # the bilinear rows draw on from the state the ensembles leave
    v = random_band_limited(grid, rng, flavor="real")
    assert rows["bilinear_positive"]["value"] == bilinear_form(v, v, 0.6)
