from __future__ import annotations

import re
import tracemalloc
import weakref

import numpy as np
import pytest

import fswl.solver as solver
from fswl.grid import BLOCK_SAMPLES, Field, GridSpec, as_order, make_grid
from fswl.propagators import PropagatorSpec, heat_semigroup_apply, schrodinger_group_apply
from fswl.solver import (
    BlowupError,
    PicardDivergenceError,
    SolverError,
    NonlinearityG,
    PerturbedRun,
    SystemParams,
    Trajectory,
    _Stepper,
    contraction_time_bound,
    g_linear,
    g_tanh_blend,
    g_zero,
    solve_perturbed,
    vanishing_viscosity_sweep,
)

from oracles import fit_slope, full_spectrum_rows, sample_fields, split_step_cubic


def linear_params():
    return SystemParams(alpha=0.0, beta=0.0, s=0.75, g=g_zero(), gamma=0.0)


def coupled_params():
    return SystemParams(alpha=0.1, beta=0.1, s=0.75, g=g_tanh_blend(0.2, 1.0))


def band_state(u0: Field, v0: Field) -> tuple[np.ndarray, np.ndarray]:
    """The stepper's state of two fields: band u (j = 0..K, -K..-1) and
    band v (j = 0..K)."""
    band, K = solver._band(u0.grid)
    return u0.spectrum[band], v0.spectrum[: K + 1]


def expanded(grid, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full FFT-ordered u and v spectra of a band state."""
    return solver._expand(grid, np.concatenate((u, v)))


def derivative_escapes(g: NonlinearityG) -> bool:
    """Whether g's difference quotients on a 2001-point mesh of [-10, 10]
    leave [m, M]: by the mean value theorem each is a value of g', so an
    escape is one of g'."""
    v = np.linspace(-10.0, 10.0, 2001)
    gp = np.diff(g.fn(v)) / np.diff(v)
    return bool(np.min(gp) < g.m - 1e-9 or np.max(gp) > g.M + 1e-9)


class TestNonlinearity:
    def test_g_eps_examples(self, grid16):
        v = Field.zero(grid16, flavor="real")
        out = g_tanh_blend(0.2, 1.0).regularized(0.3).fn(v.values)
        assert np.max(np.abs(out)) == 0.0

        v = Field.from_function(grid16, lambda x: np.sin(np.pi * x / 16), flavor="real")
        out = g_zero().regularized(0.25).fn(v.values)
        assert np.allclose(out, 0.25 * v.values)

        v_half = Field.from_function(grid16, lambda x: np.full_like(x, 0.5), flavor="real")
        out = g_tanh_blend(0.0, 1.0).regularized(0.1).fn(v_half.values)
        assert np.allclose(out, np.tanh(0.5) + 0.05)

    def test_regularized_bounds(self):
        # every bundled g, plain and regularized, keeps g' inside its [m, M];
        # one test over the six cases, so the suite keeps its one test id
        for g in (g_zero(), g_linear(0.7), g_tanh_blend(0.2, 1.0)):
            for reg in (0.0, 0.1):
                g_eps = g.regularized(reg)
                assert (g_eps.m, g_eps.M) == pytest.approx((g.m + reg, g.M + reg)), g_eps.label
                assert not derivative_escapes(g_eps), g_eps.label

    def test_g_zero_required_at_origin(self):
        with pytest.raises(ValueError, match="g\\(0\\)"):
            NonlinearityG(fn=lambda v: v + 1.0, m=1.0, M=1.0)

    def test_sampled_derivative_escape_detected(self):
        # the constructor checks only m <= M and g(0) = 0; cos leaves [0.5, 1]
        bad = NonlinearityG(fn=np.sin, m=0.5, M=1.0)
        assert derivative_escapes(bad)


class TestContractionBound:
    def test_reference_value(self):
        params = SystemParams(alpha=0.0, beta=0.0, s=0.75, g=g_linear(1.0))
        # M = 1 from g plus eps = 0 regularization disabled here
        t = contraction_time_bound(1.0, params, m_s=1.0, eps=0.0)
        assert t == pytest.approx(1.0 / 64.0)

    def test_monotone_in_radius(self):
        params = coupled_params()
        prev = np.inf
        for R in (0.5, 1.0, 2.0, 4.0, 8.0):
            t = contraction_time_bound(R, params, m_s=0.6, eps=0.1)
            assert t <= prev
            prev = t

    def test_vanishes_for_large_alpha(self):
        g = g_linear(1.0)
        vals = [
            contraction_time_bound(
                1.0,
                SystemParams(alpha=a, beta=0.0, s=0.75, g=g),
                m_s=1.0,
                eps=0.1,
            )
            for a in (1e2, 1e4, 1e6)
        ]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-6


class TestPicardStep:
    def test_linear_single_mode_no_sweep(self, grid16):
        run = PerturbedRun(eps=0.1, T=0.1, dt=0.01, eps_g=0.0)
        params = linear_params()
        k = 4 * np.pi / 16
        u0 = Field.from_function(grid16, lambda x: 0.5 * np.exp(1j * k * x))
        v0 = Field.from_function(grid16, lambda x: 0.3 * np.cos(k * x), flavor="real")
        stepper = _Stepper(grid16, params, run)
        un, vn, sweeps = stepper.step(*band_state(u0, v0), 0.01)
        assert sweeps == 0
        p = PropagatorSpec(eps=0.1, s=as_order(0.75))
        exact_u = schrodinger_group_apply(u0, 0.01, p)
        exact_v = heat_semigroup_apply(v0, 0.01, p)
        un, vn = expanded(grid16, un, vn)
        assert np.allclose(grid16.from_spectrum(un), exact_u.values, atol=1e-14)
        assert np.allclose(grid16.from_half_spectrum(vn[: grid16.n_points // 2 + 1]), exact_v.values, atol=1e-14)

    @pytest.mark.parametrize("coupling,eps_g", [
        ({"alpha": 1e-3}, 0.0),
        ({"beta": 1e-3}, 0.0),
        ({"gamma": 1e-3}, 0.0),
        ({"g": g_linear(1e-3)}, 0.0),
        ({}, None),
    ], ids=["alpha", "beta", "gamma", "g", "eps_g"])
    def test_any_coupling_takes_a_sweep(self, grid16, gauss_pair, coupling, eps_g):
        # one change at a time away from the uncoupled linear configuration
        params = SystemParams(**{"alpha": 0.0, "beta": 0.0, "s": 0.75, "g": g_zero(),
                                 "gamma": 0.0, **coupling})
        stepper = _Stepper(grid16, params, PerturbedRun(eps=0.1, T=0.1, dt=0.01, eps_g=eps_g))
        assert not stepper.uncoupled
        assert stepper.step(*band_state(*gauss_pair), 0.01)[2] >= 1

    def test_uncoupled_step_makes_no_transform(self, grid16, gauss_pair, monkeypatch):
        u, v = band_state(*gauss_pair)
        run = PerturbedRun(eps=0.1, T=0.1, dt=0.01, eps_g=0.0)
        stepper = _Stepper(grid16, linear_params(), run)

        def refuse(*args):
            raise AssertionError("an uncoupled step made a transform")

        for name in ("to_spectrum", "from_spectrum", "to_half_spectrum", "from_half_spectrum"):
            monkeypatch.setattr(GridSpec, name, refuse)
        free_mult = stepper._multipliers(0.01)[0]
        for _ in range(3):
            expected = free_mult * np.concatenate((u, v))
            u, v, sweeps = stepper.step(u, v, 0.01)
            assert sweeps == 0 and stepper.last_distances == []
            assert np.array_equal(np.concatenate((u, v)), expected)

    def test_zero_slope_linear_g_is_uncoupled(self, grid16, gauss_pair):
        run = PerturbedRun(eps=0.1, T=0.1, dt=0.01, eps_g=0.0)
        zero_slope = SystemParams(alpha=0.0, beta=0.0, s=0.75, g=g_linear(0.0), gamma=0.0)
        assert _Stepper(grid16, zero_slope, run).uncoupled
        got = solve_perturbed(*gauss_pair, zero_slope, run)
        ref = solve_perturbed(*gauss_pair, linear_params(), run)
        assert np.array_equal(got.bands, ref.bands)

    def test_contraction_factor_below_one(self, grid16, gauss_pair, monkeypatch):
        u0, v0 = gauss_pair
        monkeypatch.setattr(solver, "PICARD_TOL", 1e-14)
        run = PerturbedRun(eps=0.1, T=0.1, dt=0.01)
        stepper = _Stepper(grid16, coupled_params(), run)
        stepper.step(*band_state(u0, v0), 0.01)
        d = stepper.last_distances
        assert len(d) >= 3
        ratios = [b / a for a, b in zip(d, d[1:]) if a > 1e-13]
        assert all(r < 1.0 for r in ratios)


class TestRealChannels:
    def test_fused_distance_equals_two_h1_norms(self):
        # the fused row reduction against the H1 norms of the expanded
        # spectra, every mode of the full Hermitian v counted once
        grid = make_grid(16.0, 128)
        stepper = _Stepper(grid, coupled_params(), PerturbedRun(eps=0.1, T=0.1, dt=0.01))
        K = 128 // 3
        rng = np.random.default_rng(5)
        h1 = lambda spec: np.sqrt(grid.weighted_sq(spec, 1.0 + grid.k**2))
        for _ in range(5):
            row = rng.standard_normal(3 * K + 2) + 1j * rng.standard_normal(3 * K + 2)
            row[2 * K + 1] = row[2 * K + 1].real
            du, dv = row[: 2 * K + 1], row[2 * K + 1 :]
            su, sv = expanded(grid, du, dv)
            got = stepper._distance(row, np.zeros_like(row))
            assert got == pytest.approx(h1(su) + h1(sv), rel=1e-14, abs=0.0)
            larger = max(h1(su), h1(sv))
            assert stepper._max_h1(du, dv) == pytest.approx(larger, rel=1e-14, abs=0.0)

    def test_returned_v_spectrum_is_exactly_hermitian(self, grid16, gauss_pair):
        # the returned v is the band j = 0..K; with a real zero mode it is
        # the band of an exactly Hermitian spectrum with a zero Nyquist mode
        u0, v0 = gauss_pair
        stepper = _Stepper(grid16, coupled_params(), PerturbedRun(eps=0.1, T=0.1, dt=0.01))
        u, v, _ = stepper.step(*band_state(u0, v0), 0.01)
        N = grid16.n_points
        assert v.shape == (N // 3 + 1,)
        assert v[0].imag == 0.0
        v = expanded(grid16, u, v)[1]
        j = np.arange(1, N // 2)
        assert np.array_equal(v[N - j], np.conj(v[j])) and v[N // 2] == 0.0


class TestIncrementPredictor:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_extrapolation_row_exact_for_polynomials(self, p):
        row = solver.EXTRAPOLATION_ROWS[p]
        assert len(row) == p <= solver.HISTORY_DEPTH
        q = np.polynomial.Polynomial(np.random.default_rng(p).standard_normal(p))
        assert q.degree() == p - 1
        n = 7
        got = sum(c * q(n - j) for j, c in enumerate(row, start=1))
        assert got == pytest.approx(q(n), rel=1e-12, abs=1e-12)

    def test_no_increment_crosses_a_dt_change(self, grid16, gauss_pair):
        u, v = band_state(*gauss_pair)
        run = PerturbedRun(eps=0.1, T=0.1, dt=0.01)
        used = _Stepper(grid16, coupled_params(), run)
        for _ in range(solver.HISTORY_DEPTH + 1):
            u, v, _ = used.step(u, v, 0.01)
        assert len(used._history) == solver.HISTORY_DEPTH
        for dt in (0.005, 0.01):
            after = used.step(u, v, dt)
            fresh = _Stepper(grid16, coupled_params(), run).step(u, v, dt)
            assert np.array_equal(after[0], fresh[0])
            assert np.array_equal(after[1], fresh[1])
            assert after[2] == fresh[2]
            u, v = after[0], after[1]

    def test_predicted_run_converges_in_one_sweep(self, monkeypatch):
        grid = make_grid(16.0, 128)
        u0 = Field.from_function(
            grid, lambda x: 0.35 * np.exp(-(x**2)) * np.exp(1j * 3 * np.pi / 16 * x))
        v0 = Field.from_function(grid, lambda x: 0.4 * np.exp(-((x / 1.5) ** 2)), "real")
        params = coupled_params()
        sweeps = []
        step = _Stepper.step

        def counting_step(self, u_spec, v_spec, dt):
            out = step(self, u_spec, v_spec, dt)
            sweeps.append(out[2])
            return out

        monkeypatch.setattr(_Stepper, "step", counting_step)
        traj = solve_perturbed(u0, v0, params, PerturbedRun(eps=0.1, T=0.2, dt=1e-3))
        assert len(sweeps) == 200
        assert np.mean(sweeps) <= 1.05
        mass = grid.measure * np.sum(np.abs(traj.u_specs) ** 2, axis=1)
        assert np.max(np.abs(mass - mass[0])) <= 1e-12 * mass[0]
        monkeypatch.setattr(solver, "PICARD_TOL", 1e-13)
        tight = solve_perturbed(u0, v0, params, PerturbedRun(eps=0.1, T=0.2, dt=1e-3))
        for got, ref in ((traj.u_specs, tight.u_specs), (traj.v_specs, tight.v_specs)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestFullSpectrumOracle:
    """Stored rows bit-equal to the same scheme stepped on full spectra with
    dealias masks (``oracles.FullSpectrumStepper``)."""

    @staticmethod
    def data(grid):
        u0 = Field.from_function(
            grid, lambda x: 0.4 * np.exp(-(x**2)) * np.exp(1j * 3 * np.pi / 16 * x))
        v0 = Field.from_function(grid, lambda x: 0.4 * np.exp(-((x / 1.5) ** 2)), "real")
        return u0, v0

    def test_coupled_run_across_a_dt_change(self, monkeypatch):
        # one injected divergence halves dt, eight successes re-double it
        u0, v0 = self.data(make_grid(16.0, 64))
        log = _log_substeps(monkeypatch, fail=lambda attempt: attempt == 3)
        run = PerturbedRun(eps=0.1, T=0.04, dt=0.004)
        traj = solve_perturbed(u0, v0, coupled_params(), run)
        dts = [dt for dt, ok in log if ok]
        assert dts == [run.dt] * 3 + [run.dt / 2] * 8 + [run.dt] * 3
        expected = full_spectrum_rows(u0, v0, coupled_params(), run, dts)
        assert traj.bands.shape == expected.shape == (11, 65)
        assert np.array_equal(traj.bands, expected)

    def test_linear_configuration_of_verify(self):
        # the weak-form suite's exactly linear run, at N = 64
        u0, v0 = self.data(make_grid(16.0, 64))
        run = PerturbedRun(eps=0.1, T=1.0, dt=1e-3, eps_g=0.0)
        traj = solve_perturbed(u0, v0, linear_params(), run)
        expected = full_spectrum_rows(u0, v0, linear_params(), run, [run.dt] * run.n_steps)
        assert traj.bands.shape == expected.shape == (1001, 65)
        assert np.array_equal(traj.bands, expected)


class TestSolvePerturbed:
    def test_zero_data_stays_zero(self, grid16):
        run = PerturbedRun(eps=0.1, T=0.2, dt=0.01)
        traj = solve_perturbed(Field.zero(grid16), Field.zero(grid16, "real"),
                               coupled_params(), run)
        assert np.max(np.abs(traj.u_specs)) == 0.0
        assert np.max(np.abs(traj.v_specs)) == 0.0

    def test_linear_decoupled_matches_propagators(self, grid16, gauss_pair):
        u0, v0 = gauss_pair
        run = PerturbedRun(eps=0.1, T=1.0, dt=0.01, eps_g=0.0)
        traj = solve_perturbed(u0, v0, linear_params(), run)
        p = PropagatorSpec(eps=0.1, s=as_order(0.75))
        mask = grid16.dealias_mask()
        exact_u = schrodinger_group_apply(Field.from_spectrum(grid16, u0.spectrum * mask), 1.0, p)
        exact_v = heat_semigroup_apply(
            Field(grid16, grid16.from_spectrum(v0.spectrum * mask).real, "real"), 1.0, p)
        u_end, v_end = sample_fields(traj, -1)
        assert np.max(np.abs(u_end.values - exact_u.values)) < 1e-10
        assert np.max(np.abs(v_end.values - exact_v.values)) < 1e-10

    def test_cubic_only_against_split_step_oracle(self, grid16):
        # alpha = beta = 0 with the cubic on: compare two unrelated schemes
        params = SystemParams(alpha=0.0, beta=0.0, s=0.75, g=g_zero(), gamma=1.0)
        u0 = Field.from_function(
            grid16, lambda x: 0.5 * np.exp(-(x**2)) * np.exp(1j * 3 * np.pi / 16 * x))
        v0 = Field.zero(grid16, flavor="real")
        dt, T = 1e-3, 0.25
        run = PerturbedRun(eps=0.1, T=T, dt=dt, eps_g=0.0)
        traj = solve_perturbed(u0, v0, params, run)
        u0m = (u0.spectrum * grid16.dealias_mask()).astype(complex)
        oracle = split_step_cubic(u0m, grid16, 0.75, 0.1, 4, dt / 2, int(round(T / (dt / 2))))
        gap = np.sqrt(grid16.measure * np.sum(np.abs(traj.u_specs[-1] - oracle) ** 2))
        assert gap < 5e-6  # both schemes are second order; gap is O(dt^2)

        mass = grid16.measure * np.sum(np.abs(traj.u_specs) ** 2, axis=1)
        assert np.max(np.abs(mass - mass[0])) <= 1e-10 * mass[0]

    def test_every_stored_v_sample_is_exactly_hermitian(self, grid16, gauss_pair):
        u0, v0 = gauss_pair
        traj = solve_perturbed(u0, v0, coupled_params(), PerturbedRun(eps=0.1, T=0.05, dt=0.01))
        N = grid16.n_points
        j = np.arange(1, N // 2)
        for v in traj.v_specs:
            assert np.array_equal(v[N - j], np.conj(v[j]))
            assert v[N // 2] == 0.0

    def test_canonical_style_run_mass_and_sup(self, grid16, gauss_pair):
        u0, v0 = gauss_pair
        run = PerturbedRun(eps=0.1, T=1.0, dt=1e-3, store_every=10)
        traj = solve_perturbed(u0, v0, coupled_params(), run)
        mass = grid16.measure * np.sum(np.abs(traj.u_specs) ** 2, axis=1)
        assert np.max(np.abs(mass - mass[0])) <= 1e-8 * mass[0]
        sups = [sample_fields(traj, i)[1].norm_sup() for i in range(len(traj))]
        assert max(sups) <= sups[0] + 1e-8

    def test_richardson_order(self, gauss_pair):
        grid = make_grid(16.0, 128)
        u0 = Field.from_function(
            grid, lambda x: 0.35 * np.exp(-(x**2)) * np.exp(1j * 3 * np.pi / 16 * x))
        v0 = Field.from_function(grid, lambda x: 0.4 * np.exp(-((x / 1.5) ** 2)), "real")
        params = coupled_params()
        finals = []
        # all steps below the contraction-time cap (~5.5e-3 for this data),
        # otherwise the solver silently substeps the coarse runs
        dts = (4e-3, 2e-3, 1e-3, 5e-4)
        for dt in dts:
            run = PerturbedRun(eps=0.1, T=0.4, dt=dt, store_every=10**9)
            traj = solve_perturbed(u0, v0, params, run)
            finals.append((traj.u_specs[-1], traj.v_specs[-1]))
        errs = [
            float(np.sqrt(grid.measure * (
                np.sum(np.abs(a[0] - finals[-1][0]) ** 2)
                + np.sum(np.abs(a[1] - finals[-1][1]) ** 2))))
            for a in finals[:-1]
        ]
        slope = fit_slope(dts[:-1], errs)
        assert slope >= 1.8

    def test_blowup_ceiling_raises(self, grid16, monkeypatch):
        params = SystemParams(alpha=0.0, beta=0.0, s=0.75, g=g_zero(), gamma=-80.0)
        # gamma < 0 is the focusing regime: large data self-focuses quickly
        u0 = Field.from_function(grid16, lambda x: 6.0 * np.exp(-(x**2)))
        v0 = Field.zero(grid16, flavor="real")
        monkeypatch.setattr(solver, "BLOWUP_FACTOR", 5.0)
        run = PerturbedRun(eps=0.1, T=2.0, dt=2e-3, eps_g=0.0)
        with pytest.raises(BlowupError):
            solve_perturbed(u0, v0, params, run)

    def test_store_every_not_dividing_steps(self, grid16, gauss_pair):
        # every third step and the last one are stored, after the initial
        # sample, and the rows are those of the run that stores every step
        u0, v0 = gauss_pair
        every = solve_perturbed(u0, v0, coupled_params(),
                                PerturbedRun(eps=0.1, T=1.0, dt=0.1))
        traj = solve_perturbed(u0, v0, coupled_params(),
                               PerturbedRun(eps=0.1, T=1.0, dt=0.1, store_every=3))
        np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], rtol=1e-14)
        rows = [0, 3, 6, 9, 10]
        assert np.array_equal(traj.times, every.times[rows])
        assert np.array_equal(traj.u_specs, every.u_specs[rows])
        assert np.array_equal(traj.v_specs, every.v_specs[rows])

    @pytest.mark.parametrize("N", [64, 256])
    def test_every_stored_row_expands_to_the_stepped_state(self, N, monkeypatch):
        # the stepper's state is the band u and v, with a real zero mode, so
        # a band row loses nothing: each stored row is the state the stepper
        # returned, and it expands band-only and exactly Hermitian
        grid = make_grid(16.0, N)
        u0 = Field.from_function(
            grid, lambda x: 0.35 * np.exp(-(x**2)) * np.exp(1j * 3 * np.pi / 16 * x))
        v0 = Field.from_function(grid, lambda x: 0.4 * np.exp(-((x / 1.5) ** 2)), "real")
        states = []
        step = _Stepper.step

        def recording_step(self, u_spec, v_spec, dt):
            out = step(self, u_spec, v_spec, dt)
            states.append(out[:2])
            return out

        monkeypatch.setattr(_Stepper, "step", recording_step)
        run = PerturbedRun(eps=0.1, T=0.05, dt=0.005, store_every=2)
        traj = solve_perturbed(u0, v0, coupled_params(), run)
        K = N // 3
        outside = ~grid.dealias_mask()
        for u, v in states:
            assert u.shape == (2 * K + 1,) and v.shape == (K + 1,)
            assert v[0].imag == 0.0
        assert len(states) == 10 and traj.bands.shape == (6, 3 * K + 2)
        j = np.arange(1, N // 2)
        for i in range(len(traj)):
            u, v = traj.spectra(i)
            assert not u[outside].any() and not v[outside].any()
            assert v[0].imag == 0.0 and v[N // 2] == 0.0
            assert np.array_equal(v[N - j], np.conj(v[j]))
            if i > 0:
                assert np.array_equal(traj.bands[i], np.concatenate(states[2 * i - 1]))
                su, sv = expanded(grid, *states[2 * i - 1])
                assert np.array_equal(u, su) and np.array_equal(v, sv)

    def test_invalid_run_parameters(self):
        with pytest.raises(ValueError):
            PerturbedRun(eps=1.5, T=1.0, dt=0.1)
        with pytest.raises(ValueError, match="integer multiple"):
            PerturbedRun(eps=0.1, T=1.0, dt=0.3)  # not a divisor


def _random_trajectory(N: int, n: int, seed: int = 0) -> Trajectory:
    """n random band rows at N points with a real v_0."""
    rng = np.random.default_rng(seed)
    K = N // 3
    bands = rng.standard_normal((n, 3 * K + 2)) + 1j * rng.standard_normal((n, 3 * K + 2))
    bands[:, 2 * K + 1] = bands[:, 2 * K + 1].real
    run = PerturbedRun(eps=0.1, T=0.01 * (n - 1), dt=0.01)
    return Trajectory(grid=make_grid(16.0, N), params=coupled_params(), run=run,
                      times=0.01 * np.arange(n), bands=bands)


class TestTrajectoryBands:
    @pytest.mark.parametrize("N", [64, 256])  # at N = 256, 3K+2 = 257 != N
    @pytest.mark.parametrize("rows", [slice(3, 9), np.array([7, 0, 4]), 5],
                             ids=["slice", "index-array", "single-row"])
    def test_spectra_round_trip(self, N, rows):
        traj = _random_trajectory(N, 10)
        u, v = traj.spectra(rows)
        block = traj.bands[rows]
        assert u.shape == v.shape == block.shape[:-1] + (N,)
        K = N // 3
        band = np.flatnonzero(traj.grid.dealias_mask())
        assert np.array_equal(np.concatenate((u[..., band], v[..., : K + 1]), axis=-1), block)
        assert not u[..., ~traj.grid.dealias_mask()].any()
        j = np.arange(1, N // 2)
        assert np.array_equal(v[..., N - j], np.conj(v[..., j]))
        assert not v[..., N // 2].any() and not v[..., 0].imag.any()

    @pytest.mark.parametrize("shape", [(3, 64), (2, 65)], ids=["narrow-row", "missing-row"])
    def test_constructor_refuses_rows_off_the_band(self, shape):
        # at N = 64 a row is 3K+2 = 65 wide, and there is one per sample time
        grid = make_grid(16.0, 64)
        run = PerturbedRun(eps=0.1, T=0.02, dt=0.01)
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}, expected (3, 65)")):
            Trajectory(grid=grid, params=coupled_params(), run=run,
                       times=0.01 * np.arange(3), bands=np.zeros(shape, dtype=complex))

    def test_whole_trajectory_properties_are_read_only_expansions(self):
        traj = _random_trajectory(64, 5)
        u, v = traj.spectra(slice(None))
        assert np.array_equal(traj.u_specs, u) and np.array_equal(traj.v_specs, v)
        assert not traj.u_specs.flags.writeable and not traj.v_specs.flags.writeable

    def test_l2_spacetime_diff_holds_blocks_not_rungs(self):
        # two sweep-sized rungs: the difference is expanded a block at a
        # time and matches the difference of the whole expanded rungs
        t1, t2 = _random_trajectory(2048, 201, 1), _random_trajectory(2048, 201, 2)
        got = []
        tracemalloc.start()
        try:
            got.append(solver.l2_spacetime_diff(t1, t2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a block of one full-width spectrum; a rung is 12.6 of them
        block = BLOCK_SAMPLES * 2048 * 16
        assert peak <= 8 * block < t1.bands.nbytes
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        grid = t1.grid
        expected = tuple(
            float(np.sqrt(trapezoid(grid.weighted_sq(a - b, 1.0), t1.times)))
            for a, b in ((t1.u_specs, t2.u_specs), (t1.v_specs, t2.v_specs)))
        assert got[0] == expected


class TestViscositySweep:
    def test_single_rung_degenerates_to_run(self, grid16, gauss_pair):
        u0, v0 = gauss_pair
        run = PerturbedRun(eps=0.1, T=0.1, dt=5e-3)
        table = vanishing_viscosity_sweep(u0, v0, coupled_params(), [0.1], run)
        assert table.u_diffs == [] and table.v_diffs == []

    def test_ladder_must_decrease(self, grid16, gauss_pair):
        u0, v0 = gauss_pair
        run = PerturbedRun(eps=0.1, T=0.1, dt=5e-3)
        with pytest.raises(ValueError):
            vanishing_viscosity_sweep(u0, v0, coupled_params(), [0.1, 0.2], run)

    def test_linear_decoupled_scaling(self, grid16):
        # with everything nonlinear off and eps_g = 0 the only eps-dependence
        # is the exact multiplier exp(-i eps^a k^2 t): consecutive differences
        # scale like |eps1^a - eps2^a| at leading order
        params = linear_params()
        k = 2 * np.pi / 16
        u0 = Field.from_function(grid16, lambda x: 0.5 * np.exp(1j * k * x))
        v0 = Field.zero(grid16, flavor="real")
        run = PerturbedRun(eps=0.1, T=0.5, dt=5e-3, eps_g=0.0)
        ladder = [0.4, 0.2, 0.1]
        table = vanishing_viscosity_sweep(u0, v0, params, ladder, run)
        mods = [e**4 for e in ladder]
        expected_ratio = (mods[0] - mods[1]) / (mods[1] - mods[2])
        measured_ratio = table.u_diffs[0] / table.u_diffs[1]
        assert measured_ratio == pytest.approx(expected_ratio, rel=0.05)

    def test_nonlinear_u_differences_shrink(self, grid16):
        params = SystemParams(alpha=0.0, beta=0.0, s=0.75, g=g_zero(), gamma=1.0)
        u0 = Field.from_function(grid16, lambda x: 0.4 * np.exp(-(x**2)))
        v0 = Field.zero(grid16, flavor="real")
        run = PerturbedRun(eps=0.1, T=0.25, dt=5e-3)
        table = vanishing_viscosity_sweep(u0, v0, params, [0.2, 0.1, 0.05], run)
        assert table.u_diffs[1] < table.u_diffs[0]

    def test_at_most_two_trajectories_alive(self, grid16, gauss_pair, monkeypatch):
        # Trajectory is unhashable, so a list of weak references, not a WeakSet
        refs = []
        counts = []

        def solve(*args):
            traj = solve_perturbed(*args)
            refs.append(weakref.ref(traj))
            counts.append(sum(ref() is not None for ref in refs))
            return traj

        monkeypatch.setattr(solver, "solve_perturbed", solve)
        u0, v0 = gauss_pair
        run = PerturbedRun(eps=0.1, T=0.05, dt=5e-3)
        table = vanishing_viscosity_sweep(u0, v0, coupled_params(),
                                          [0.2, 0.1, 0.05, 0.025], run)
        assert counts == [1, 2, 2, 2]
        assert [row["status"] for row in table.rows()] == ["ok"] * 3

    def test_full_system_table_monotone(self, grid16, gauss_pair):
        u0, v0 = gauss_pair
        run = PerturbedRun(eps=0.1, T=0.25, dt=5e-3)
        table = vanishing_viscosity_sweep(u0, v0, coupled_params(),
                                          [0.2, 0.1, 0.05, 0.025], run)
        u_dec, v_dec = table.strictly_decreasing()
        assert u_dec and v_dec
        assert [row["status"] for row in table.rows()] == ["ok"] * 3


def test_picard_max_iter_exceeded(grid16, gauss_pair, monkeypatch):
    u0, v0 = gauss_pair
    monkeypatch.setattr(solver, "PICARD_TOL", 1e-16)
    monkeypatch.setattr(solver, "PICARD_MAX_ITER", 2)
    run = PerturbedRun(eps=0.1, T=0.1, dt=0.01)
    stepper = _Stepper(grid16, coupled_params(), run)
    with pytest.raises(SolverError, match="exceeded"):
        stepper.step(*band_state(u0, v0), 0.01)


def test_nonfinite_picard_distance_is_blowup(grid16, gauss_pair):
    # a NaN distance compares false against the previous one; it must stop
    # the sweep at once instead of resetting the divergence counter
    u0, v0 = gauss_pair
    run = PerturbedRun(eps=0.1, T=0.1, dt=0.01)
    stepper = _Stepper(grid16, coupled_params(), run)
    u, v = band_state(u0, v0)
    u[1] = np.nan
    with pytest.raises(BlowupError, match="non-finite"):
        stepper.step(u, v, 0.01)
    assert len(stepper.last_distances) == 1


def test_picard_divergence_signals_halving(grid16):
    # a step far beyond the contraction bound must fail loudly, not loop
    big_u = Field.from_function(grid16, lambda x: 3.0 * np.exp(-(x**2)))
    big_v = Field.from_function(grid16, lambda x: 2.0 * np.exp(-(x**2)), "real")
    run = PerturbedRun(eps=0.1, T=10.0, dt=5.0)
    stepper = _Stepper(grid16, coupled_params(), run)
    with pytest.raises(PicardDivergenceError):
        stepper.step(*band_state(big_u, big_v), 5.0)


def _log_substeps(monkeypatch, fail=lambda attempt: False) -> list:
    """Wrap ``_Stepper.step`` to record ``(dt, accepted)`` per sub-step
    attempt; attempt n (from 0) diverges without stepping when fail(n)."""
    log = []
    step = _Stepper.step

    def logged(self, u_spec, v_spec, dt):
        try:
            if fail(len(log)):
                raise PicardDivergenceError("injected")
            out = step(self, u_spec, v_spec, dt)
        except PicardDivergenceError:
            log.append((dt, False))
            raise
        log.append((dt, True))
        return out

    monkeypatch.setattr(_Stepper, "step", logged)
    return log


def _no_cap(monkeypatch):
    monkeypatch.setattr(solver, "contraction_time_bound", lambda *args: np.inf)


def _check_clock(log: list, run: PerturbedRun) -> tuple[int, int]:
    """Check a sub-step log against the step-size rules; returns the numbers
    of halvings and re-doublings.  Every sub-step is dt/2**j and lies inside
    one base step, a diverged one is retried at half its size, and a
    re-doubling follows at least eight successes since the last change and
    starts on a boundary of the doubled size."""
    ticks = 2**solver.MAX_HALVINGS  # sizes in units of dt/2**MAX_HALVINGS
    sizes = []
    for dt, _ in log:
        j = [j for j in range(solver.MAX_HALVINGS + 1) if dt == run.dt / 2**j]
        assert j, f"sub-step {dt!r} is not dt/2**j"
        sizes.append(ticks >> j[0])
    pos, streak, halvings, redoublings = 0, 0, 0, 0
    for (_, ok), size, nxt in zip(log, sizes, sizes[1:] + [None]):
        if not ok:
            assert nxt == size // 2
            halvings += 1
            streak = 0
            continue
        assert pos // ticks == (pos + size - 1) // ticks
        pos += size
        streak += 1
        if nxt is not None and nxt != size:
            assert nxt == 2 * size and streak >= 8 and pos % nxt == 0
            redoublings += 1
            streak = 0
    assert pos == run.n_steps * ticks
    return halvings, redoublings


def test_divergence_triggered_halving_recovers(monkeypatch):
    # with the a-priori cap disabled, an over-ambitious step must halve on
    # contraction failure, re-double after sustained success, and still land
    # exactly on the sample grid
    _no_cap(monkeypatch)
    log = _log_substeps(monkeypatch)
    grid = make_grid(16.0, 128)
    u0 = Field.from_function(grid, lambda x: 1.0 * np.exp(-(x**2)))
    v0 = Field.from_function(grid, lambda x: 1.0 * np.exp(-((x / 1.5) ** 2)), "real")
    params = SystemParams(alpha=0.4, beta=0.4, s=0.75, g=g_tanh_blend(0.2, 1.0))
    run = PerturbedRun(eps=0.1, T=8.0, dt=0.8)
    traj = solve_perturbed(u0, v0, params, run)
    halvings, redoublings = _check_clock(log, run)
    assert halvings >= 1 and redoublings >= 1
    assert np.array_equal(traj.times, np.arange(11) * 0.8)

    mass = grid.measure * np.sum(np.abs(traj.u_specs) ** 2, axis=1)
    assert np.max(np.abs(mass - mass[0])) <= 1e-10 * mass[0]
    ref = solve_perturbed(u0, v0, params, PerturbedRun(eps=0.1, T=8.0, dt=0.025))
    gap = np.sqrt(grid.measure * np.sum(np.abs(traj.u_specs[-1] - ref.u_specs[-1]) ** 2))
    assert gap < 1e-2 * np.sqrt(mass[0])


def test_persistent_divergence_collapses_after_max_halvings(monkeypatch, grid16, gauss_pair):
    # three accepted base steps, then every attempt diverges: the step halves
    # down to dt/2**MAX_HALVINGS and the run stops there
    _no_cap(monkeypatch)
    log = _log_substeps(monkeypatch, fail=lambda attempt: attempt >= 3)
    run = PerturbedRun(eps=0.1, T=0.1, dt=0.01)
    with pytest.raises(SolverError, match=r"step collapsed below dt/2\^12 near t=0\.03$"):
        solve_perturbed(*gauss_pair, coupled_params(), run)
    assert log[:3] == [(run.dt, True)] * 3
    assert log[3:] == [(run.dt / 2**j, False) for j in range(solver.MAX_HALVINGS + 1)]


def test_redoubling_stops_at_the_contraction_cap(monkeypatch, gauss_pair):
    # the cap admits dt/2; one divergence halves to dt/4, and the re-doubling
    # after eight successes goes back to dt/2, never to dt
    run = PerturbedRun(eps=0.1, T=0.2, dt=0.01)
    monkeypatch.setattr(solver, "contraction_time_bound", lambda *args: run.dt / 2)
    log = _log_substeps(monkeypatch, fail=lambda attempt: attempt == 0)
    solve_perturbed(*gauss_pair, coupled_params(), run)
    assert _check_clock(log, run) == (1, 1)
    dts = [dt for dt, _ in log]
    assert dts[:2] == [run.dt / 2, run.dt / 4]
    assert dts.count(run.dt / 4) == 8
    assert max(dts) == run.dt / 2 and dts[-1] == run.dt / 2


def test_halving_mid_streak_restarts_the_count(monkeypatch, gauss_pair):
    # divergences after one success at dt/4 and one at dt/8 restart the
    # success count, and the second re-doubling waits a ninth success for a
    # boundary of dt/4
    run = PerturbedRun(eps=0.1, T=0.2, dt=0.01)
    monkeypatch.setattr(solver, "contraction_time_bound", lambda *args: run.dt / 2)
    log = _log_substeps(monkeypatch, fail=lambda attempt: attempt in (0, 2, 4))
    solve_perturbed(*gauss_pair, coupled_params(), run)
    assert _check_clock(log, run) == (3, 3)
    sizes = [run.dt / dt for dt, _ in log]
    assert sizes[:23] == [2, 4, 4, 8, 8] + [16] * 8 + [8] * 9 + [4]
    assert max(dt for dt, _ in log) == run.dt / 2


class _FirstStep(Exception):
    """Raised in place of the first sub-step."""


@pytest.mark.parametrize("n_steps, admitted", [
    (solver.MAX_STEPS // 2, True),
    # sub-steps of dt/2 come in pairs, so the least count above the cap is
    # MAX_STEPS + 2 (an odd count needs dt itself, and PerturbedRun caps the
    # base steps at MAX_STEPS)
    (solver.MAX_STEPS // 2 + 1, False),
], ids=["at-the-cap", "above-the-cap"])
def test_substep_cap_boundary(monkeypatch, gauss_pair, n_steps, admitted):
    # the contraction cap admits dt/2, so the run asks for 2 n_steps
    # sub-steps; exactly MAX_STEPS reaches the first step (stopped there),
    # and one pair more is refused before any step is taken
    run = PerturbedRun(eps=0.1, T=n_steps * 1e-3, dt=1e-3, store_every=n_steps)
    assert run.n_steps == n_steps and run.n_samples == 2
    monkeypatch.setattr(solver, "contraction_time_bound", lambda *args: run.dt / 2)
    dts = []

    def first_step(self, u_spec, v_spec, dt):
        dts.append(dt)
        raise _FirstStep

    monkeypatch.setattr(_Stepper, "step", first_step)
    if admitted:
        with pytest.raises(_FirstStep):
            solve_perturbed(*gauss_pair, coupled_params(), run)
        assert 2 * n_steps == solver.MAX_STEPS and dts == [run.dt / 2]
    else:
        with pytest.raises(SolverError, match=rf"^{2 * n_steps} sub-steps \({n_steps} base steps "
                                              rf"of dt/2 under .* exceed the limit of {solver.MAX_STEPS}$"):
            solve_perturbed(*gauss_pair, coupled_params(), run)
        assert dts == []


def test_contraction_bound_rejects_nonpositive_inputs():
    params = coupled_params()
    with pytest.raises(ValueError):
        contraction_time_bound(0.0, params, m_s=1.0, eps=0.1)
    with pytest.raises(ValueError):
        contraction_time_bound(1.0, params, m_s=0.0, eps=0.1)
