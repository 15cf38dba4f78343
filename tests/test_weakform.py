from __future__ import annotations

import numpy as np
import pytest

import oracles
from fswl.entropy import (
    TestFunction,
    weak_residual_u,
    weak_residual_v,
)
from fswl.fractional import frac_laplacian_spectral
from fswl.grid import BLOCK_SAMPLES, Field, make_grid
from fswl.solver import (
    PerturbedRun,
    SystemParams,
    g_tanh_blend,
    solve_perturbed,
)


def coupled_params():
    return SystemParams(alpha=0.1, beta=0.1, s=0.75, g=g_tanh_blend(0.2, 1.0))


@pytest.fixture(scope="module")
def grid128():
    return make_grid(16.0, 128)


@pytest.fixture(scope="module")
def data(grid128):
    u0 = Field.from_function(
        grid128, lambda x: 0.4 * np.exp(-(x**2)) * np.exp(1j * 3 * np.pi / 16 * x))
    v0 = Field.from_function(grid128, lambda x: 0.4 * np.exp(-((x / 1.5) ** 2)), "real")
    return u0, v0


class TestTestFunctions:
    def test_support_validation(self, grid128):
        with pytest.raises(ValueError, match="leak"):
            TestFunction(grid=grid128, t_lo=0.0, t_hi=0.5, x_center=12.0, x_width=6.0,
                         amplitude=1 + 0j)
        with pytest.raises(ValueError, match="time"):
            TestFunction(grid=grid128, t_lo=0.5, t_hi=0.5, x_center=0.0, x_width=4.0,
                         amplitude=1 + 0j)
        with pytest.raises(ValueError, match="real"):
            TestFunction(grid=grid128, t_lo=0.0, t_hi=0.5, x_center=0.0, x_width=4.0,
                         amplitude=1j, flavor="real")

    def test_spectral_decay_certified(self, grid128):
        tf = TestFunction(grid=grid128, t_lo=0.0, t_hi=0.5, x_center=0.0, x_width=5.0,
                          amplitude=1 + 0j)
        assert tf._spectral_tail() < 1e-8
        # too narrow to resolve -> rejected
        with pytest.raises(ValueError, match="resolved"):
            TestFunction(grid=make_grid(16.0, 16), t_lo=0.0, t_hi=0.5, x_center=0.0,
                         x_width=1.0, amplitude=1 + 0j)

    def test_self_adjoint_transfer(self, grid128):
        # int ((-D)^{s/2} f) psi = int f ((-D)^{s/2} psi): the identity that
        # moves the operator onto the test function
        rng = np.random.default_rng(8)
        from fswl.sobolev import random_band_limited

        f = random_band_limited(grid128, rng, flavor="real")
        tf = TestFunction(grid=grid128, t_lo=0.0, t_hi=0.5, x_center=0.0, x_width=5.0,
                          amplitude=1.3 + 0j, flavor="real")
        psi = tf.space_values().real
        lhs = grid128.dx * np.sum(frac_laplacian_spectral(f, 0.375).values * psi)
        psi_frac = tf.space_frac(0.75).real
        rhs = grid128.dx * np.sum(f.values * psi_frac)
        assert lhs == pytest.approx(rhs, rel=1e-11)


class TestWeakResiduals:
    def test_limit_form_residual_decreases_along_ladder(self, grid128, data):
        # the eps-free weak form is approached as the regularization vanishes
        u0, v0 = data
        params = coupled_params()
        tf = TestFunction(grid=grid128, t_lo=-0.1, t_hi=0.35, x_center=0.5,
                          x_width=6.0, amplitude=1.0 + 0.4j)
        tfr = TestFunction(grid=grid128, t_lo=-0.1, t_hi=0.35, x_center=-0.5,
                           x_width=6.0, amplitude=0.9 + 0j, flavor="real")
        ru, rv = [], []
        for eps in (0.4, 0.2, 0.1):
            run = PerturbedRun(eps=eps, T=0.5, dt=2e-3)
            traj = solve_perturbed(u0, v0, params, run)
            ru.append(abs(weak_residual_u(traj, tf, perturbed=False)))
            rv.append(abs(weak_residual_v(traj, tfr, perturbed=False)))
        assert ru[2] < ru[1] < ru[0]
        assert rv[2] < rv[1] < rv[0]

    def test_nonlinear_refinement_at_integrator_order(self, grid128, data):
        u0, v0 = data
        params = coupled_params()
        tfc = TestFunction(grid=grid128, t_lo=-0.1, t_hi=0.4, x_center=0.5,
                           x_width=6.0, amplitude=1.0 + 0.3j)
        tfr = TestFunction(grid=grid128, t_lo=-0.1, t_hi=0.4, x_center=-0.5,
                           x_width=6.0, amplitude=0.9 + 0j, flavor="real")
        dts = (4e-3, 2e-3, 1e-3)
        ru, rv = [], []
        for dt in dts:
            run = PerturbedRun(eps=0.1, T=0.5, dt=dt)
            traj = solve_perturbed(u0, v0, params, run)
            ru.append(abs(weak_residual_u(traj, tfc)))
            rv.append(abs(weak_residual_v(traj, tfr)))
        from oracles import fit_slope

        assert fit_slope(dts, ru) >= 1.8
        assert fit_slope(dts, rv) >= 1.8


class TestBlockPassMatchesLoops:
    """The pairings against their per-sample loops in tests/oracles.py, on a
    test window whose live samples start after sample 0 and do not fill a
    whole number of blocks."""

    @pytest.fixture(scope="class")
    def case(self, grid128, data):
        u0, v0 = data
        params = coupled_params()
        run = PerturbedRun(eps=0.1, T=0.5, dt=5e-3)
        traj = solve_perturbed(u0, v0, params, run)
        window = dict(grid=grid128, t_lo=0.03, t_hi=0.41, x_width=6.0)
        tfc = TestFunction(**window, x_center=0.5, amplitude=1.0 + 0.4j)
        tfr = TestFunction(**window, x_center=-0.5, amplitude=0.9 + 0j, flavor="real")
        live = np.flatnonzero(tfc.time_value(traj.times))
        assert live[0] > 0 and len(live) % BLOCK_SAMPLES != 0
        return traj, params, run, tfc, tfr

    @pytest.mark.parametrize("perturbed", [True, False])
    def test_short_wave(self, case, perturbed):
        traj, params, run, tfc, _ = case
        got = weak_residual_u(traj, tfc, perturbed=perturbed)
        want = oracles.weak_residual_u_loop(traj, params, run, tfc, perturbed=perturbed)
        assert abs(got - want) <= 1e-14

    @pytest.mark.parametrize("perturbed", [True, False])
    def test_long_wave(self, case, perturbed):
        traj, params, run, _, tfr = case
        got = weak_residual_v(traj, tfr, perturbed=perturbed)
        want = oracles.weak_residual_v_loop(traj, params, run, tfr, perturbed=perturbed)
        assert abs(got - want) <= 1e-14


@pytest.fixture(scope="module")
def short_run(grid128, data):
    u0, v0 = data
    return solve_perturbed(u0, v0, coupled_params(), PerturbedRun(eps=0.1, T=0.5, dt=5e-3))


_RESIDUALS = {
    "u": weak_residual_u,
    "v": weak_residual_v,
}


@pytest.mark.parametrize("residual, end, message", [
    ("u", "late", "test support leaks past the time horizon"),
    ("v", "late", "test support leaks past the time horizon"),
    # both pairings carry an initial-data term, so their support may start
    # at (or before) 0
    ("u", "early", None),
    ("v", "early", None),
], ids=["u-late", "v-late", "u-early", "v-early"])
def test_support_leak_rejected(grid128, short_run, residual, end, message):
    # the support touches the horizon T = 0.5 or the initial time exactly
    t_lo, t_hi = {"late": (0.2, 0.5), "early": (0.0, 0.3)}[end]
    tf = TestFunction(grid=grid128, t_lo=t_lo, t_hi=t_hi, x_center=0.0, x_width=4.0,
                      amplitude=1 + 0j, flavor="real")
    if message is None:
        assert np.isfinite(_RESIDUALS[residual](short_run, tf))
    else:
        with pytest.raises(ValueError, match=message):
            _RESIDUALS[residual](short_run, tf)


@pytest.mark.parametrize("residual", ["u", "v"])
@pytest.mark.parametrize("t_hi, live", [(0.2049, 0), (0.2149, 2), (0.2199, 3)])
def test_support_with_fewer_than_three_samples_rejected(grid128, short_run, residual, t_hi, live):
    # the samples lie every dt = 5e-3, so (0.2001, t_hi) holds `live` of
    # them; a Simpson panel needs three, and fewer would read as a residual
    # of exactly zero for a test function the time grid does not resolve
    tf = TestFunction(grid=grid128, t_lo=0.2001, t_hi=t_hi, x_center=0.0, x_width=4.0,
                      amplitude=1 + 0j, flavor="real")
    if live >= 3:
        assert _RESIDUALS[residual](short_run, tf) != 0.0
    else:
        with pytest.raises(ValueError, match=rf"^{live} stored samples in the time support "
                                             rf"\(0\.2001, {t_hi}\), fewer than the 3 of one "
                                             "Simpson panel$"):
            _RESIDUALS[residual](short_run, tf)
