"""The benchmark's traced run can wrap every function it names.

``bench/layers.py`` looks each traced target up by name when it installs
its wrappers, so renaming or removing one of them breaks
``bench/run.py --trace 1``; so does a change of the argument or return
layout its attribute readers expect.  This module resolves the names and
feeds a reader one real call: it installs no wrapper and starts no process.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("layers")


def test_traced_functions_exist(layers):
    for mod in layers.FSWL_MODULES:
        importlib.import_module(mod)
    missing = [f"{mod}.{attr}" for mod, attr, _ in layers.FUNCTIONS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing, f"traced functions not found: {missing}"


def test_traced_methods_exist(layers):
    missing = []
    for mod, cls, meth, _ in layers.METHODS:
        owner = getattr(importlib.import_module(mod), cls, None)
        if owner is None or meth not in owner.__dict__:
            missing.append(f"{mod}.{cls}.{meth}")
    assert not missing, f"traced methods not found: {missing}"


def test_suite_names_match_verify(layers):
    from fswl.verify import SUITES

    assert sorted(layers.SUITE_NAMES) == sorted(SUITES)


def test_step_attrs_read_a_real_step(layers):
    # the reader takes dt from the fourth positional argument and the sweep
    # count from the third entry of the result
    from fswl.grid import Field, make_grid
    from fswl.solver import PerturbedRun, SystemParams, _band, _Stepper, g_tanh_blend

    grid = make_grid(16.0, 64)
    run = PerturbedRun(eps=0.1, T=0.01, dt=0.01)
    stepper = _Stepper(grid, SystemParams(alpha=0.1, beta=0.1, s=0.75, g=g_tanh_blend()), run)
    band, K = _band(grid)
    u = Field.from_function(grid, lambda x: 0.3 * np.exp(-(x**2))).spectrum[band]
    args = (stepper, u, np.zeros(K + 1, complex), run.dt)
    result = _Stepper.step(*args)
    assert layers._step_attrs(args, {}, result) == {"sweeps": result[2], "dt": run.dt}
    assert result[2] >= 1
