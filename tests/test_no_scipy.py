"""The package runs on numpy alone: its run and verify paths import no scipy."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys

import numpy as np

import fswl.cli
from fswl.entropy import frac_power_pointwise, remainder_Rk
from fswl.fractional import (
    PeriodicInterpolant, cns_constant, frac_laplacian_singular, pair_correlation_integral,
)
from fswl.grid import Field, make_grid
from fswl.solver import g_tanh_blend

grid = make_grid(8.0, 64)
v = Field.from_function(grid, lambda x: 0.6 * np.tanh(2.0 * np.sin(np.pi * x / 8.0)),
                        flavor="real")
cns_constant(0.75)
frac_laplacian_singular(v, 0.75)
pair_correlation_integral(v, v, 0.75)
remainder_Rk(v, g_tanh_blend(0.2, 1.0), 0.25, 0.75, 1.5)
frac_power_pointwise(PeriodicInterpolant(grid, v.values), 1.5, grid, 0.75)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_run_and_verify_paths_import_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
