from __future__ import annotations

import json
import sys
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from fswl import diagnostics
from fswl.diagnostics import (
    COLUMNS,
    bilinear_form,
    coercivity_report,
    diagnose_trajectory,
    energy_balance_residual,
    record_diagnostics,
    smallness_condition,
    theta_envelope,
    v_balance_residual,
)
from fswl.grid import BLOCK_SAMPLES, Field, make_grid
from fswl.propagators import EXPONENT_A
from fswl.sobolev import random_band_limited
from fswl.solver import (
    NonlinearityG,
    PerturbedRun,
    SystemParams,
    g_linear,
    g_tanh_blend,
    g_zero,
    solve_perturbed,
)

import oracles
from oracles import fit_slope, heat_exact, sample_fields


def coupled_params():
    return SystemParams(alpha=0.1, beta=0.1, s=0.75, g=g_tanh_blend(0.2, 1.0))


class TestRecord:
    def test_zero_state_all_zero(self, grid16):
        run = PerturbedRun(eps=0.1, T=0.1, dt=0.01)
        rec = record_diagnostics(
            (Field.zero(grid16), Field.zero(grid16, "real")), 0.0,
            coupled_params(), run)
        assert rec.mass[0] == 0.0 and rec.energy[0] == 0.0
        assert rec.v_l2[0] == 0.0 and rec.v_sup[0] == 0.0

    def test_single_mode_energy_formula_and_constancy(self, grid16):
        params = SystemParams(alpha=0.0, beta=0.0, s=0.75, g=g_zero(), gamma=0.0)
        run = PerturbedRun(eps=0.1, T=0.2, dt=5e-3, eps_g=0.0)
        k = 4 * np.pi / 16
        A = 0.4
        u0 = Field.from_function(grid16, lambda x: A * np.exp(1j * k * x))
        v0 = Field.zero(grid16, flavor="real")
        traj = solve_perturbed(u0, v0, params, run)
        mass = A**2 * grid16.measure
        expected = (k**1.5 + 0.1**4 * k**2) * mass + 0.5 * A**4 * grid16.measure
        energies = [
            record_diagnostics(sample_fields(traj, i), traj.times[i], params, run).energy[0]
            for i in range(0, len(traj), 10)
        ]
        for e in energies:
            assert e == pytest.approx(expected, rel=1e-12)


class TestBalanceResiduals:
    def test_alpha_zero_energy_residual_tiny(self, grid16, gauss_pair):
        u0, v0 = gauss_pair
        params = SystemParams(alpha=0.0, beta=0.1, s=0.75, g=g_tanh_blend(0.2, 1.0))
        run = PerturbedRun(eps=0.1, T=0.2, dt=2e-3)
        traj = solve_perturbed(u0, v0, params, run)
        i = len(traj) // 2
        assert energy_balance_residual(traj, i) < 5e-7

    def test_decoupled_single_mode_residual_near_roundoff(self, grid16):
        # a single mode keeps |u| pointwise constant, so every energy term
        # is exactly conserved and the central difference sees pure roundoff
        params = SystemParams(alpha=0.0, beta=0.0, s=0.75, g=g_zero(), gamma=1.0)
        run = PerturbedRun(eps=0.1, T=0.2, dt=2e-3, eps_g=0.0)
        k = 4 * np.pi / 16
        u0 = Field.from_function(grid16, lambda x: 0.5 * np.exp(1j * k * x))
        traj = solve_perturbed(u0, Field.zero(grid16, "real"), params, run)
        i = len(traj) // 2
        assert energy_balance_residual(traj, i) < 1e-10

    def test_pure_heat_v_balance_closed_form(self, grid16):
        # beta = 0, g = 0, eps_g = 0: v rides the exact heat flow and the
        # balance reduces to 1/2 d/dt ||v||^2 = -eps^b ||dx v||^2
        params = SystemParams(alpha=0.0, beta=0.0, s=0.75, g=g_zero(), gamma=0.0)
        run = PerturbedRun(eps=0.3, T=0.2, dt=2e-3, eps_g=0.0)
        v0 = Field.from_function(grid16, lambda x: 0.5 * np.exp(-((x / 2) ** 2)), "real")
        traj = solve_perturbed(Field.zero(grid16), v0, params, run)
        i = len(traj) // 2
        spec_exact = heat_exact(traj.v_specs[0], grid16, 0.3, 7, traj.times[i])
        assert np.allclose(traj.v_specs[i], spec_exact, atol=1e-12)
        assert v_balance_residual(traj, i) < 1e-9

    def test_refinement_slopes(self):
        grid = make_grid(16.0, 128)
        u0 = Field.from_function(
            grid, lambda x: 0.35 * np.exp(-(x**2)) * np.exp(1j * 3 * np.pi / 16 * x))
        v0 = Field.from_function(grid, lambda x: 0.4 * np.exp(-((x / 1.5) ** 2)), "real")
        params = coupled_params()
        dts = (4e-3, 2e-3, 1e-3)
        res_e, res_v = [], []
        for dt in dts:
            run = PerturbedRun(eps=0.1, T=0.3, dt=dt)
            traj = solve_perturbed(u0, v0, params, run)
            mid = len(traj) // 2
            res_e.append(max(energy_balance_residual(traj, i)
                             for i in range(mid - 4, mid + 4)))
            res_v.append(max(v_balance_residual(traj, i)
                             for i in range(mid - 4, mid + 4)))
        assert fit_slope(dts, res_e) >= 1.8
        assert fit_slope(dts, res_v) >= 1.8

    def test_requires_interior_sample(self, grid16, gauss_pair):
        u0, v0 = gauss_pair
        run = PerturbedRun(eps=0.1, T=0.05, dt=5e-3)
        traj = solve_perturbed(u0, v0, coupled_params(), run)
        with pytest.raises(ValueError):
            energy_balance_residual(traj, 0)
        with pytest.raises(ValueError):
            v_balance_residual(traj, len(traj) - 1)


class TestBilinearAndCoercivity:
    def test_quadratic_positivity(self, grid16):
        rng = np.random.default_rng(21)
        for _ in range(5):
            v = random_band_limited(grid16, rng, flavor="real")
            assert bilinear_form(v, v, 0.6) >= -1e-8

    def test_monotone_composition_sign(self, grid16):
        rng = np.random.default_rng(22)
        for _ in range(5):
            w = random_band_limited(grid16, rng, flavor="real")
            gw = Field(grid16, np.tanh(w.values), flavor="real")
            assert bilinear_form(gw, w, 0.6) >= -1e-8

    def test_diagonal_matches_spectral_seminorm(self, grid16):
        # B_s(v, v) = 2 ||(-D)^{s/2} v||^2 ties the quadrature to the symbol
        v = Field.from_function(grid16, lambda x: np.exp(-(x**2)), flavor="real")
        s = 0.7
        b = bilinear_form(v, v, s)
        frac_sq = grid16.measure * np.sum(grid16.frac_symbol(s) * np.abs(v.spectrum) ** 2)
        assert b == pytest.approx(2.0 * frac_sq, rel=1e-7)

    def test_coercivity_equality_for_linear_map(self, grid16):
        v = Field.from_function(grid16,
                                lambda x: 0.3 * np.sin(2 * np.pi * x / 16) + 0.2 * np.exp(-(x**2)),
                                flavor="real")
        rep = coercivity_report(v, g_linear(0.5), 0.75)
        assert abs(rep.margin) < 1e-12
        assert rep.passed

    def test_coercivity_strict_for_tanh_blend(self, grid16):
        rng = np.random.default_rng(23)
        G = NonlinearityG(
            fn=lambda v: 0.5 * v + 0.1 * np.tanh(v),
            m=0.5, M=0.6, label="0.5 id + 0.1 tanh")
        for _ in range(5):
            v = random_band_limited(grid16, rng, flavor="real")
            rep = coercivity_report(v, G, 0.75)
            assert rep.margin > 0


class TestThetaEnvelope:
    def test_zero_data_unit_envelope(self, grid16):
        run = PerturbedRun(eps=0.1, T=0.1, dt=5e-3)
        traj = solve_perturbed(Field.zero(grid16), Field.zero(grid16, "real"),
                               coupled_params(), run)
        env = theta_envelope(traj)
        assert np.allclose(env.theta, 1.0)
        assert env.theta_margin_min == 0.0
        assert env.theta_ok

    def test_alpha_zero_constant_envelope(self, grid16, gauss_pair):
        u0, v0 = gauss_pair
        params = SystemParams(alpha=0.0, beta=0.1, s=0.75, g=g_tanh_blend(0.2, 1.0))
        run = PerturbedRun(eps=0.1, T=0.3, dt=2e-3)
        traj = solve_perturbed(u0, v0, params, run)
        env = theta_envelope(traj)
        assert np.allclose(env.theta, env.theta[0], rtol=1e-12)
        assert env.theta_ok and env.H_ok

    def test_coupled_run_positive_margins(self, grid16, gauss_pair):
        u0, v0 = gauss_pair
        params = coupled_params()
        run = PerturbedRun(eps=0.1, T=0.5, dt=2e-3)
        traj = solve_perturbed(u0, v0, params, run)
        env = theta_envelope(traj)
        assert env.theta_margin_min > 0
        assert env.H_margin_min > 0

    def test_envelope_fills_the_one_diagnostics_result(self, grid16, gauss_pair):
        # only theta_envelope fills the envelope columns of the diagnostics
        # pass; a one-sample series and a balance residual's window leave
        # them NaN
        u0, v0 = gauss_pair
        params = coupled_params()
        run = PerturbedRun(eps=0.1, T=0.1, dt=5e-3)
        traj = solve_perturbed(u0, v0, params, run)
        single = record_diagnostics(sample_fields(traj, 3), traj.times[3], params, run)
        assert np.isnan(single.theta[0]) and np.isnan(single.H_bound[0])
        window = diagnostics._window(traj, 2, 5)  # energy_balance_residual(traj, 3)
        for col in (window.theta, window.H_bound):
            assert np.isnan(col).all()
        assert np.isnan(window.theta_margin_min) and np.isnan(window.H_margin_min)

        series = theta_envelope(traj)
        for col in (series.theta, series.H_bound):
            assert np.isfinite(col).all()
        lhs = (1.0 + series.frac_grad_u_sq + run.eps**EXPONENT_A * series.grad_u_sq
               + 0.25 * series.u_l4_4)
        assert series.theta_margin_min == np.min(series.theta - lhs)
        assert series.H_margin_min == np.min(series.H_bound - series.v_l2**2)


class TestSmallness:
    def test_alpha_zero_always_satisfied(self, grid16):
        for amp_u, amp_v in ((0.1, 0.1), (3.0, 2.0), (20.0, 5.0)):
            u0 = Field.from_function(grid16, lambda x: amp_u * np.exp(-(x**2)))
            v0 = Field.from_function(grid16, lambda x: amp_v * np.exp(-(x**2)), "real")
            params = SystemParams(alpha=0.0, beta=0.4, s=0.7, g=g_tanh_blend(0.2, 1.0))
            rep = smallness_condition(params, u0, v0, 2.0, 0.1)
            assert rep.satisfied and rep.lhs == 0.0

    def test_strictly_increasing_in_alpha(self, grid16, gauss_pair):
        u0, v0 = gauss_pair
        lhs = []
        for alpha in (0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6):
            params = SystemParams(alpha=alpha, beta=0.1, s=0.75, g=g_tanh_blend(0.2, 1.0))
            lhs.append(smallness_condition(params, u0, v0, 1.0, 0.1).lhs)
        assert all(b > a for a, b in zip(lhs, lhs[1:]))

    def test_eventually_violated_for_large_alpha(self, grid16, gauss_pair):
        u0, v0 = gauss_pair
        params = SystemParams(alpha=100.0, beta=0.1, s=0.75, g=g_tanh_blend(0.2, 1.0))
        assert not smallness_condition(params, u0, v0, 1.0, 0.1).satisfied

    def test_rhs_limit_toward_half(self, grid16, gauss_pair):
        # ((2s-1)/2)^{(2s-1)/2} -> 1 as s -> 1/2
        u0, v0 = gauss_pair
        rhs = []
        for s in (0.75, 0.6, 0.55, 0.51, 0.5001):
            params = SystemParams(alpha=0.1, beta=0.1, s=s, g=g_tanh_blend(0.2, 1.0))
            rhs.append(smallness_condition(params, u0, v0, 1.0, 0.1).rhs)
        assert rhs == sorted(rhs)
        assert rhs[-1] == pytest.approx(1.0, abs=1e-3)

    def test_tiny_eps_stays_finite(self, grid16, gauss_pair):
        # eps**b underflows and eps**(-1.5 a) overflows; their product must
        # not, and with alpha = 0 or zero data the overflowed power must not
        # meet 0 * inf
        u0, v0 = gauss_pair
        rep = smallness_condition(coupled_params(), u0, v0, 1.0, 1e-300)
        assert np.isfinite(rep.C) and np.isfinite(rep.lhs)
        params = SystemParams(alpha=0.0, beta=0.1, s=0.75, g=g_tanh_blend(0.2, 1.0))
        rep = smallness_condition(params, u0, v0, 1.0, 1e-300)
        assert np.isfinite(rep.C) and np.isfinite(rep.lhs) and rep.satisfied
        zero_u = smallness_condition(coupled_params(), Field.zero(grid16), v0, 1.0, 1e-300)
        assert zero_u.C3 == 0.0 and zero_u.lhs == 0.0 and zero_u.satisfied
        # zero v leaves the data block: lhs reads 2.1e29 at T = 1
        zero_v = smallness_condition(coupled_params(), u0, Field.zero(grid16, "real"),
                                     1.0, 1e-300)
        assert np.isfinite(zero_v.C) and np.isfinite(zero_v.lhs) and not zero_v.satisfied

    @given(
        log10_eps=st.floats(-300.0, -0.01),
        alpha=st.sampled_from([0.0, 1e-6, 0.1, -0.7, 3.0, 100.0]),
        beta=st.sampled_from([0.0, 1e-4, 0.1, 2.0]),
        s=st.floats(0.51, 0.99),
        T=st.floats(0.05, 2.0),
        amp_u=st.sampled_from([0.0, 1e-200, 1e-100, 1e-8, 0.35, 4.0, 1e50, 1e200]),
        amp_v=st.sampled_from([0.0, 1e-200, 1e-100, 1e-8, 0.4, 4.0, 1e50, 1e200]),
    )
    # no shrinking: a failure reports its first example within seconds
    # instead of minutes of shrinking a 2-second, 100-example test
    @settings(max_examples=100, phases=[Phase.explicit, Phase.reuse, Phase.generate,
                                       Phase.target])
    def test_agrees_with_60_digit_oracle(self, log10_eps, alpha, beta, s, T, amp_u, amp_v):
        # the verdict always agrees; the reported constants agree to 1e-12
        # wherever the float range holds them, and read 0.0 or inf exactly
        # where their value is zero or beyond it, also for data whose norms
        # (or their powers) leave the float range
        grid = make_grid(16.0, 256)
        u0 = Field.from_function(grid, lambda x: amp_u * np.exp(-(x**2) + 0.6j * x))
        v0 = Field.from_function(grid, lambda x: amp_v * np.exp(-((x / 1.5) ** 2)), "real")
        params = SystemParams(alpha=alpha, beta=beta, s=s, g=g_tanh_blend(0.2, 1.0))
        eps = 10.0**log10_eps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = smallness_condition(params, u0, v0, T, eps)
            ref = oracles.smallness_mpmath(params, u0, v0, T, eps)
        assert rep.satisfied == ref["satisfied"]
        for key in ("C", "C2", "C3", "lhs"):
            got, want = getattr(rep, key), ref[key]
            if want == 0:
                assert got == 0.0, key
            elif want > sys.float_info.max:
                assert got == np.inf, key
            elif 1e-300 <= want <= 1e300:
                assert abs(got - want) <= 1e-12 * want, key

    def test_report_serializes(self, grid16, gauss_pair):
        u0, v0 = gauss_pair
        rep = smallness_condition(coupled_params(), u0, v0, 1.0, 0.1)
        row = json.loads(json.dumps(asdict(rep)))
        assert {"C", "C1", "C2", "C3", "lhs", "rhs", "satisfied", "route"} <= set(row)


class TestNegativeNorms:
    def test_zero_trajectory(self, grid16):
        run = PerturbedRun(eps=0.1, T=0.1, dt=0.01)
        traj = solve_perturbed(Field.zero(grid16), Field.zero(grid16, "real"),
                               coupled_params(), run)
        series = diagnose_trajectory(traj)
        assert series.dtu_hminus1[1] == 0.0 and series.dtv_hminus1[1] == 0.0

    def test_linear_single_mode_closed_form(self, grid16):
        params = SystemParams(alpha=0.0, beta=0.0, s=0.75, g=g_zero(), gamma=0.0)
        dt = 5e-3
        run = PerturbedRun(eps=0.1, T=0.1, dt=dt, eps_g=0.0)
        k = 4 * np.pi / 16
        A = 0.5
        u0 = Field.from_function(grid16, lambda x: A * np.exp(1j * k * x))
        traj = solve_perturbed(u0, Field.zero(grid16, "real"), params, run)
        du = diagnose_trajectory(traj).dtu_hminus1[1]
        omega = k**1.5 + 0.1**4 * k**2
        expected = (2 * abs(np.sin(omega * dt / 2)) / dt) * A * np.sqrt(grid16.measure) \
            / np.sqrt(1 + k**2)
        assert du == pytest.approx(expected, rel=1e-10)

    def test_uniform_across_eps_ladder(self, grid16, gauss_pair):
        u0, v0 = gauss_pair
        params = coupled_params()
        integrals = []
        for eps in (0.2, 0.1, 0.05):
            run = PerturbedRun(eps=eps, T=0.2, dt=5e-3)
            traj = solve_perturbed(u0, v0, params, run)
            series = diagnose_trajectory(traj)
            dts = np.diff(series.t)
            sq = series.dtu_hminus1[1:] ** 2 + series.dtv_hminus1[1:] ** 2
            integrals.append(float(np.sum(sq * dts)))
        assert max(integrals) <= 3.0 * min(integrals) + 1e-12


def test_diagnose_trajectory_fills_residuals(grid16, gauss_pair):
    u0, v0 = gauss_pair
    run = PerturbedRun(eps=0.1, T=0.1, dt=5e-3)
    traj = solve_perturbed(u0, v0, coupled_params(), run)
    series = diagnose_trajectory(traj)
    assert len(series.t) == len(traj)
    assert np.isnan(series.energy_balance_residual[0])
    assert np.isfinite(series.energy_balance_residual[1])
    assert np.isfinite(series.dtu_hminus1[-1])


def test_block_pass_matches_per_sample_oracle(grid16, gauss_pair):
    # 37 samples: two full blocks and a partial one, so central and backward
    # differences straddle block edges
    u0, v0 = gauss_pair
    params = coupled_params()
    run = PerturbedRun(eps=0.1, T=0.18, dt=5e-3)
    traj = solve_perturbed(u0, v0, params, run)
    assert len(traj) == 37 and len(traj) % BLOCK_SAMPLES != 0
    series = diagnose_trajectory(traj)
    ref = oracles.diagnose(traj)
    residuals = {"energy_balance_residual", "v_balance_residual"}
    assert len(COLUMNS) == len(ref[0]) and set(COLUMNS) == set(ref[0])
    for key in ref[0]:
        got = getattr(series, key)
        want = np.array([r[key] for r in ref])
        if key in residuals:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, equal_nan=True, err_msg=key)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, equal_nan=True, err_msg=key)

    for i in (BLOCK_SAMPLES - 1, BLOCK_SAMPLES, BLOCK_SAMPLES + 1):
        assert energy_balance_residual(traj, i) == pytest.approx(
            ref[i]["energy_balance_residual"], rel=0, abs=1e-12)
        assert v_balance_residual(traj, i) == pytest.approx(
            ref[i]["v_balance_residual"], rel=0, abs=1e-12)
    single = record_diagnostics(sample_fields(traj, 20), traj.times[20], params, run)
    for key, value in oracles.record_fields(*sample_fields(traj, 20), params, run).items():
        assert getattr(single, key)[0] == pytest.approx(value, rel=1e-12, abs=0)
