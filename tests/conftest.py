from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and machine, with a
# bounded count and a per-example wall-time limit, so the suite stays
# reproducible.  A test's own @settings overrides single fields.
settings.register_profile(
    "fswl", derandomize=True, database=None, max_examples=40, deadline=10_000
)
settings.load_profile("fswl")

from fswl.grid import Field, make_grid


@pytest.fixture
def grid16():
    return make_grid(16.0, 256)


@pytest.fixture
def gauss_pair(grid16):
    """Canonical-style initial data: modulated Gaussian signal, real bump."""
    u0 = Field.from_function(
        grid16,
        lambda x: 0.35 * np.exp(-(x**2)) * np.exp(1j * 3 * np.pi / 16.0 * x),
    )
    v0 = Field.from_function(
        grid16, lambda x: 0.4 * np.exp(-((x / 1.5) ** 2)), flavor="real"
    )
    return u0, v0
