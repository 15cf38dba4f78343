from __future__ import annotations

import numpy as np
import pytest

from fswl.grid import Field, as_order, make_grid
from fswl.propagators import (
    EXPONENT_A,
    EXPONENT_B,
    PropagatorSpec,
    check_heat_smoothing,
    heat_semigroup_apply,
    heat_smoothing_constant,
    schrodinger_group_apply,
)
from fswl.sobolev import hs_norm, random_band_limited


@pytest.fixture(scope="module")
def setup():
    grid = make_grid(16.0, 256)
    spec = PropagatorSpec(eps=0.1, s=as_order(0.75))
    rng = np.random.default_rng(314)
    return grid, spec, rng


class TestDispersiveGroup:
    def test_t_zero_identity(self, setup):
        grid, p, rng = setup
        u = random_band_limited(grid, rng)
        out = schrodinger_group_apply(u, 0.0, p)
        assert np.allclose(out.values, u.values, atol=1e-15)

    def test_mode_phase(self, setup):
        grid, p, _ = setup
        k = 5 * np.pi / 16.0
        u = Field.from_function(grid, lambda x: np.exp(1j * k * x))
        t = 0.37
        out = schrodinger_group_apply(u, t, p)
        phase = np.exp(-1j * (k**1.5 + 0.1**4 * k**2) * t)
        assert np.allclose(out.values, phase * u.values, atol=1e-13)

    def test_isometry_and_group_law(self, setup):
        grid, p, rng = setup
        u = random_band_limited(grid, rng)
        for t in (-1.3, 0.02, 0.75, 4.0):
            assert abs(schrodinger_group_apply(u, t, p).norm_l2() - u.norm_l2()) \
                <= 1e-12 * u.norm_l2()
        comp = schrodinger_group_apply(schrodinger_group_apply(u, 0.4, p), 0.35, p)
        direct = schrodinger_group_apply(u, 0.75, p)
        assert np.max(np.abs(comp.values - direct.values)) <= 1e-12

    def test_full_norm_report_preserved(self, setup):
        grid, p, rng = setup
        u = random_band_limited(grid, rng)
        before = hs_norm(u, 0.75)
        after = hs_norm(schrodinger_group_apply(u, 1.1, p), 0.75)
        assert after.l2 == pytest.approx(before.l2, rel=1e-12)
        assert after.hs_fourier == pytest.approx(before.hs_fourier, rel=1e-12)
        assert after.frac_grad_l2 == pytest.approx(before.frac_grad_l2, rel=1e-12)

class TestHeatSemigroup:
    def test_t_zero_identity(self, setup):
        grid, p, rng = setup
        v = random_band_limited(grid, rng, flavor="real")
        assert np.allclose(heat_semigroup_apply(v, 0.0, p).values, v.values)

    def test_cosine_decay(self, setup):
        grid, p, _ = setup
        k = 4 * np.pi / 16.0
        v = Field.from_function(grid, lambda x: np.cos(k * x), flavor="real")
        t = 2.0
        out = heat_semigroup_apply(v, t, p)
        assert np.allclose(out.values, np.exp(-(0.1**7) * k**2 * t) * np.cos(k * grid.x),
                           atol=1e-14)

    def test_negative_time_rejected(self, setup):
        grid, p, rng = setup
        v = random_band_limited(grid, rng, flavor="real")
        with pytest.raises(ValueError):
            heat_semigroup_apply(v, -0.1, p)

    def test_contraction_and_semigroup_law(self, setup):
        grid, p, rng = setup
        v = random_band_limited(grid, rng, flavor="real")
        assert heat_semigroup_apply(v, 3.0, p).norm_l2() <= v.norm_l2() * (1 + 1e-14)
        comp = heat_semigroup_apply(heat_semigroup_apply(v, 1.2, p), 0.8, p)
        direct = heat_semigroup_apply(v, 2.0, p)
        assert np.max(np.abs(comp.values - direct.values)) <= 1e-13

    def test_h1_monotone_decay(self, setup):
        grid, p, rng = setup
        v = random_band_limited(grid, rng, flavor="real")
        norms = [heat_semigroup_apply(v, t, p).norm_h1()
                 for t in np.linspace(0.0, 5.0, 11)]
        assert all(b <= a * (1 + 1e-14) for a, b in zip(norms, norms[1:]))


class TestSmoothing:
    def test_zero_field_trivial(self, setup):
        grid, p, _ = setup
        rep = check_heat_smoothing(Field.zero(grid, flavor="real"), 0.5, p)
        assert rep.lhs == 0.0 and rep.passed

    def test_nonpositive_time_rejected(self, setup):
        grid, p, rng = setup
        v = random_band_limited(grid, rng, flavor="real")
        with pytest.raises(ValueError):
            check_heat_smoothing(v, 0.0, p)

    def test_modewise_maximization_oracle(self, setup):
        grid, p, _ = setup
        # per mode, lhs * sqrt(t) * sqrt(pi eps^b) / ||v|| = kappa e^{-kappa^2} sqrt(pi)
        # with kappa = |k| sqrt(eps^b t); its supremum sqrt(pi/(2e)) < 1
        kappa = np.linspace(0.0, 12.0, 200001)
        sup = np.max(kappa * np.exp(-(kappa**2))) * np.sqrt(np.pi)
        assert sup == pytest.approx(np.sqrt(np.pi / (2 * np.e)), abs=1e-8)
        assert sup < 1.0
        for t in np.logspace(-4, 1, 8):
            for k in np.abs(grid.k[1:10]):
                lhs = k * np.exp(-p.heat_coeff * k**2 * t)
                assert lhs * np.sqrt(t) / heat_smoothing_constant(p) <= 1.0 + 1e-12

    def test_random_ensemble_log_grid(self, setup):
        grid, p, rng = setup
        for _ in range(25):
            v = random_band_limited(grid, rng, flavor="real")
            for t in np.logspace(-4, 1, 11):
                rep = check_heat_smoothing(v, float(t), p)
                assert rep.passed, f"violated at t={t}"


class TestSpecValidation:
    def test_eps_range(self):
        with pytest.raises(ValueError):
            PropagatorSpec(eps=0.0, s=as_order(0.75))
        with pytest.raises(ValueError):
            PropagatorSpec(eps=1.0, s=as_order(0.75))

    def test_default_exponents(self):
        p = PropagatorSpec(eps=0.5, s=as_order(0.8))
        assert (EXPONENT_A, EXPONENT_B) == (4, 7)
        assert p.dispersive_coeff == pytest.approx(0.5**4)
        assert p.heat_coeff == pytest.approx(0.5**7)
