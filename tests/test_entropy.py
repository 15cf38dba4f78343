from __future__ import annotations

import numpy as np
import pytest
from scipy import optimize, special
from scipy.integrate import quad, simpson

from fswl.entropy import (
    EntropySpec,
    UndefinedSignError,
    _crossings,
    _flux_on_values,
    _kink_radii,
    _level_set,
    _simpson,
    entropy_flux,
    frac_power_pointwise,
    quadratic_capped_entropy,
    reconstruct_entropy,
    remainder_Rk,
    smooth_capped_entropy,
)
from fswl.fractional import (
    PeriodicInterpolant,
    cns_constant,
    frac_laplacian_spectral,
    periodic_tail_weight,
    special_jacobi,
)
from fswl.grid import Field, make_grid
from fswl.solver import g_linear, g_tanh_blend


class TestReconstruction:
    def test_unit_mass_example(self):
        eta = quadratic_capped_entropy(1.0)
        assert reconstruct_entropy(eta, 0.0) == pytest.approx(1.0, abs=1e-13)

    def test_affine_outside_support(self):
        eta = quadratic_capped_entropy(1.0)
        # slope is half the density mass: int eta'' = 4 -> slope 2
        for v in (1.5, 2.0, 3.0):
            diff = reconstruct_entropy(eta, v + 0.5) - reconstruct_entropy(eta, v)
            assert diff == pytest.approx(2.0 * 0.5, abs=1e-12)

    def test_matches_reference_up_to_constant(self):
        eta = quadratic_capped_entropy(1.0)
        vs = np.linspace(-2.5, 2.5, 41)
        rec = np.array([reconstruct_entropy(eta, v) for v in vs])
        ref = eta.eta(vs)
        shift = np.mean(rec - ref)
        assert np.max(np.abs(rec - ref - shift)) < 1e-8

    def test_smooth_family_consistent_with_own_primitives(self):
        eta = smooth_capped_entropy(0.8)
        vs = np.linspace(-2.0, 2.0, 21)
        rec = np.array([reconstruct_entropy(eta, v) for v in vs])
        ref = eta.eta(vs)
        shift = np.mean(rec - ref)
        assert np.max(np.abs(rec - ref - shift)) < 1e-10


class TestFlux:
    def test_identity_map_recovers_entropy(self):
        eta = smooth_capped_entropy(1.0)
        g = g_linear(1.0)
        for v in (-1.5, -0.2, 0.7, 2.0):
            q = entropy_flux(eta, g, v)
            assert q == pytest.approx(reconstruct_entropy(eta, v), abs=1e-12)

    def test_antiderivative_oracle(self):
        eta = smooth_capped_entropy(1.0)
        g = g_tanh_blend(0.2, 1.0)
        for v in (0.4, 0.9, -0.6):
            got = entropy_flux(eta, g, v) - entropy_flux(eta, g, 0.0)
            # q' = eta' g', with g'(w) = 0.2 + 0.8 / cosh(w)^2 in closed form
            want, _ = quad(lambda w: eta.eta_prime(w) * (0.2 + 0.8 / np.cosh(w) ** 2),
                           0.0, v, limit=200)
            assert got == pytest.approx(want, abs=1e-8)


    @pytest.mark.parametrize("eta", [smooth_capped_entropy(0.8), quadratic_capped_entropy(1.0)],
                             ids=lambda eta: eta.label)
    @pytest.mark.parametrize("g", [g_tanh_blend(0.2, 1.0), g_linear(0.7), g_tanh_blend(0.0, 1.0)],
                             ids=lambda g: g.label)
    def test_vectorized_flux_matches_panel_quadrature(self, eta, g):
        # the closed-form split of the entropy balance's flux against the
        # panel quadrature with a node at the kink, inside and outside the
        # density support, its ends included
        lo, hi = eta.pp_support
        vs = np.concatenate((np.linspace(-2.5, 2.5, 51), [lo, hi]))
        want = np.array([entropy_flux(eta, g, v) for v in vs])
        got = _flux_on_values(eta, g, vs)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


@pytest.fixture(scope="module")
def crossing_setup():
    grid = make_grid(16.0, 512)
    v = Field.from_function(
        grid, lambda x: 0.6 * np.tanh(2.0 * np.sin(np.pi * x / 16.0)), flavor="real")
    g = g_tanh_blend(0.2, 1.0)
    return grid, v, g


class TestRemainder:
    def test_no_crossing_gives_zero(self, crossing_setup):
        grid, v, g = crossing_setup
        assert remainder_Rk(v, g, 2.0, 0.75, 1.0) == 0.0

    def test_nonnegative(self, crossing_setup):
        grid, v, g = crossing_setup
        for k in (-0.3, 0.1, 0.4):
            for x in (-5.0, -1.0, 2.0, 6.5):
                vx = float(PeriodicInterpolant(grid, v.values)(np.array([x]))[0])
                if abs(vx - k) < 1e-3:
                    continue
                assert remainder_Rk(v, g, k, 0.75, x) >= -1e-12

    def test_level_sign_undefined_raises(self, crossing_setup):
        grid, v, g = crossing_setup
        cross = _crossings(v, 0.25)
        with pytest.raises(UndefinedSignError):
            remainder_Rk(v, g, 0.25, 0.75, cross[0])

    def test_short_far_arc_matches_dense_quadrature(self):
        # x sits farther from the arc {v > k} than the arc is long, so the
        # arc is one panel; the reference integrates the same integrand, and
        # the floor is one 20-point rule across a piecewise quintic spline
        grid = make_grid(16.0, 256)
        v = Field.from_function(grid, lambda x: np.exp(-(x**2)), flavor="real")
        g, k, s, x = g_tanh_blend(0.2, 1.0), 0.5, 0.75, 8.0
        a, b = sorted(_crossings(v, k))
        assert min(abs(x - a), abs(x - b)) > b - a
        spl = PeriodicInterpolant(grid, v.values)
        gk = float(g.fn(np.array([k]))[0])

        def integrand(y):
            d = np.mod(x - y, 32.0)
            mag = float(g.fn(spl(np.array([y])))[0]) - gk
            return mag * float(periodic_tail_weight(d, s, 16.0)
                               + periodic_tail_weight(32.0 - d, s, 16.0))

        ref = 2.0 * cns_constant(s) * quad(integrand, a, b, epsabs=0.0, epsrel=1e-13)[0]
        assert ref > 0.0
        assert remainder_Rk(v, g, k, s, x) == pytest.approx(ref, rel=1e-7)

    def test_level_set_computed_once_per_field_and_level(self, crossing_setup):
        grid, v, g = crossing_setup
        xs = (-6.0, -2.0, 1.5, 5.0)
        _level_set.cache_clear()
        cached = [remainder_Rk(v, g, 0.1, 0.75, x) for x in xs]
        cross = _crossings(v, 0.1)
        info = _level_set.cache_info()
        assert (info.misses, info.hits) == (1, len(xs))
        fresh = []
        for x in xs:
            _level_set.cache_clear()
            fresh.append(remainder_Rk(v, g, 0.1, 0.75, x))
        assert cached == fresh
        _level_set.cache_clear()
        assert _crossings(v, 0.1) == cross
        # a new level or a new Field with the same samples recomputes
        _level_set.cache_clear()
        _crossings(v, 0.1)
        assert _crossings(v, -0.3) != cross
        twin = Field(grid, v.values, flavor="real")
        assert _crossings(twin, 0.1) == cross
        assert _level_set.cache_info().misses == 3

    @pytest.mark.parametrize("s,k", [(0.6, -0.2), (0.35, 0.1)])
    def test_pointwise_identity(self, crossing_setup, s, k):
        grid, v, g = crossing_setup
        spl = PeriodicInterpolant(grid, v.values)
        gk = float(g.fn(np.array([k]))[0])
        w_fn = lambda y: np.abs(g.fn(spl(y)) - gk)
        gv_fn = lambda y: g.fn(spl(y))
        cross = _crossings(v, k)
        for x in (-6.0, -2.0, 1.5, 5.0):
            lhs = frac_power_pointwise(w_fn, x, grid, s, _kink_radii(x, cross, 32.0))
            vx = float(spl(np.array([x]))[0])
            rhs = np.sign(vx - k) * frac_power_pointwise(gv_fn, x, grid, s, [])
            R = remainder_Rk(v, g, k, s, x)
            assert abs(lhs - (rhs - R)) < 1e-6


class TestPointwiseOperator:
    def test_matches_spectral_on_smooth_field(self):
        # cross-validates the kink-aware scalar machinery on a kink-free
        # case, at collocation points so both routes address the same value;
        # the floor is the quintic interpolation error at this resolution
        grid = make_grid(16.0, 256)
        f = Field.from_function(grid, lambda x: np.exp(-(x**2)), flavor="real")
        spl = PeriodicInterpolant(grid, f.values)
        spec = frac_laplacian_spectral(f, 0.65)
        for x in (-3.0, 0.0, 1.75):
            got = frac_power_pointwise(lambda y: spl(y), x, grid, 0.65, [])
            idx = int(round((x + 16.0) / grid.dx)) % grid.n_points
            assert got == pytest.approx(spec.values[idx], abs=1e-5)


class TestEntropySpecValidation:
    def test_negative_density_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            EntropySpec(
                eta=lambda v: -np.asarray(v, dtype=float) ** 2,
                eta_prime=lambda v: -2.0 * np.asarray(v, dtype=float),
                eta_pp=lambda v: np.full_like(np.asarray(v, dtype=float), -2.0),
                pp_support=(-1.0, 1.0),
            )

    def test_leaking_density_rejected(self):
        with pytest.raises(ValueError, match="vanish outside"):
            EntropySpec(
                eta=lambda v: np.asarray(v, dtype=float) ** 2,
                eta_prime=lambda v: 2.0 * np.asarray(v, dtype=float),
                eta_pp=lambda v: np.full_like(np.asarray(v, dtype=float), 2.0),
                pp_support=(-1.0, 1.0),
            )


class TestScipyOracles:
    """The numpy replacements of the scipy quadratures and root finder,
    checked against scipy itself."""

    @pytest.mark.parametrize("s", [0.35, 0.5, 0.6, 0.75, 0.9])
    def test_golub_welsch_matches_roots_jacobi(self, s):
        beta = 1.0 - 2.0 * s
        x, w = special.roots_jacobi(12, 0.0, beta)
        t, wt = special_jacobi(12, beta)
        assert np.max(np.abs(t - 0.5 * (x + 1.0))) <= 1e-14
        assert np.max(np.abs(wt / (w * 2.0 ** (-beta - 1.0)) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 11, 200, 201])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_simpson_matches_scipy(self, n, uniform):
        rng = np.random.default_rng(n)
        t = np.linspace(0.0, 1.3, n) if uniform else np.sort(rng.uniform(0.0, 2.0, n))
        for y in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            ref = simpson(y, x=t)
            assert abs(_simpson(y, t) - ref) <= 1e-14 * max(abs(ref), 1.0)

    def test_crossings_match_brentq(self, crossing_setup):
        grid, v, _ = crossing_setup
        spl = PeriodicInterpolant(grid, v.values)
        for k in (-0.3, 0.1, 0.25):
            for c in _crossings(v, k):
                j = int(np.floor((c + grid.half_length) / grid.dx))
                xa = grid.x[j]
                ref = optimize.brentq(lambda y: float(spl(np.array([y]))[0]) - k,
                                      xa, xa + grid.dx, xtol=1e-15)
                assert c == pytest.approx(ref, abs=1e-13)
