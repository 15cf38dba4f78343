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
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from fswl.cli import canonical_config, parse_config
from fswl.diagnostics import bilinear_form
from fswl.grid import make_grid
from fswl.sobolev import random_band_limited
from fswl.solver import _Stepper
from fswl.verify import _suite_weakform, run_suite

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "bench" / "reference" / "verify_all.json"


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


def test_weakform_linear_steps_take_no_sweep(monkeypatch):
    # the two exactly linear solves (1000 + 1000 steps) are uncoupled and
    # step without a sweep; the three coupled solves (125 + 250 + 500) sweep
    sweeps = []
    step = _Stepper.step

    def counting_step(self, u_spec, v_spec, dt):
        out = step(self, u_spec, v_spec, dt)
        sweeps.append(out[2])
        return out

    monkeypatch.setattr(_Stepper, "step", counting_step)
    _suite_weakform(1234)
    assert len(sweeps) == 2875
    assert sweeps.count(0) == 2000


def test_run_and_sweep_configs_are_coupled():
    # the CLI regularizes g with eps v, eps > 0, so no run or rung it
    # starts from these configs steps uncoupled
    sweep_config = json.loads((ROOT / "bench" / "configs" / "eps_sweep.json").read_text())
    for config in (canonical_config(), sweep_config):
        grid, params, run, _, _, extras = parse_config(config)
        for eps in [run.eps, *extras["eps_ladder"]]:
            stepper = _Stepper(grid, params, replace(run, eps=eps))
            assert stepper.g_eff.M > 0.0 and not stepper.uncoupled
