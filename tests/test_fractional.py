from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy import interpolate, special

from fswl import fractional
from fswl.fractional import (
    PeriodicInterpolant,
    cns_constant,
    frac_laplacian_singular,
    frac_laplacian_spectral,
    pair_correlation_integral,
    periodic_tail_weight,
    riesz_inverse,
)
from fswl.grid import Field, make_grid

from oracles import (
    cns_closed_form,
    cns_mpmath,
    frac_laplacian_singular_loop,
    pair_correlation_integral_loop,
)


class TestSpectralRoute:
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.99])
    def test_mode_eigenvalues(self, s):
        g = make_grid(np.pi, 64)
        for k in (1, 2, 5, 10):
            f = Field.from_function(g, lambda x: np.exp(1j * k * x))
            out = frac_laplacian_spectral(f, s)
            rel = np.max(np.abs(out.values - k ** (2 * s) * f.values)) / k ** (2 * s)
            assert rel < 1e-12

    def test_real_and_translation_symmetry(self):
        g = make_grid(8.0, 128)
        f = Field.from_function(g, lambda x: np.exp(-(x**2)) * (1 + 0.2 * np.cos(x)),
                                flavor="real")
        out = frac_laplacian_spectral(f, 0.7)
        assert out.flavor == "real"
        rolled = frac_laplacian_spectral(f.translated(7), 0.7)
        assert np.allclose(rolled.values, out.translated(7).values, atol=1e-12)


class TestNormalization:
    def test_half_order_closed_form(self):
        assert cns_constant(0.5) == pytest.approx(1.0 / np.pi, abs=1e-12)

    @pytest.mark.parametrize("s", [0.25, 0.55, 0.6, 0.75, 0.9])
    def test_positive_and_matches_gamma_form(self, s):
        c = cns_constant(s)
        assert c > 0
        assert c == pytest.approx(cns_closed_form(s), rel=1e-12)

    @pytest.mark.parametrize("s", [0.25, 0.75])
    def test_second_quadrature_cross_check(self, s):
        assert cns_constant(s) == pytest.approx(cns_mpmath(s), rel=5e-9)


class TestScipyOracles:
    """The numpy replacements of the scipy special functions and spline,
    checked against scipy itself."""

    @pytest.mark.parametrize("s", [0.51, 0.6, 0.75, 0.9, 0.99])
    def test_hurwitz_zeta(self, s):
        q = np.logspace(-12.0, 0.0, 241)
        got = periodic_tail_weight(q, s, 0.5)  # period 1: the bare zeta value
        assert np.max(np.abs(got / special.zeta(1.0 + 2.0 * s, q) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("n", [128, 512, 2048])
    @pytest.mark.parametrize("flavor", ["real", "complex"])
    def test_spline_matches_padded_interp_spline(self, n, flavor):
        # the padding is wide enough that the reference's not-a-knot ends
        # no longer reach the window
        g = make_grid(12.0, n)
        x, period, pad = g.x, g.measure, 32
        if flavor == "real":
            vals = np.tanh(2.0 * np.sin(np.pi * x / 12.0))
        else:
            vals = np.exp(-(x**2)) * np.exp(2j * x)
        ref = interpolate.make_interp_spline(
            np.concatenate([x[-pad:] - period, x, x[:pad] + period]),
            np.concatenate([vals[-pad:], vals, vals[:pad]]), k=5)

        def wrapped(pts):
            return ref(np.mod(pts + 12.0, period) - 12.0)

        spl = PeriodicInterpolant(g, vals)
        pts = np.random.default_rng(5).uniform(-30.0, 30.0, 500)
        assert np.max(np.abs(spl(pts) - wrapped(pts))) <= 1e-13
        # the tap table of a shift h, applied to the coefficients at every
        # grid point, as the pairing quadratures use it
        c = fractional._bspline_coefficients(vals)
        for h in (0.3 * g.dx, -2.7 * g.dx, 5.3, -11.9, 23.99):
            idx, w = fractional._spline_taps(np.array(h / g.dx), n)
            moved = sum(w[m] * np.roll(c, -idx[m]) for m in range(6))
            assert np.max(np.abs(moved - wrapped(x + h))) <= 1e-13


class TestRieszInverse:
    def test_round_trip_on_mean_free(self):
        g = make_grid(8.0, 128)
        f = Field.from_spectrum(g, g.dealias_mask() * np.fft.fft(
            np.exp(-g.x**2)) / g.n_points)
        back = riesz_inverse(frac_laplacian_spectral(f, 0.6), 0.6)
        assert np.allclose(back.values, f.values - f.mean(), atol=1e-12)

    def test_cosine_eigenfunction(self):
        g = make_grid(np.pi, 64)
        f = Field.from_function(g, lambda x: np.cos(2 * x), flavor="real")
        out = riesz_inverse(f, 0.6)
        assert np.allclose(out.values, 2.0 ** (-1.2) * np.cos(2 * g.x), atol=1e-13)


class TestSingularRoute:
    def test_constant_gives_zero(self):
        g = make_grid(8.0, 128)
        f = Field.from_function(g, lambda x: np.full_like(x, 0.7), flavor="real")
        out = frac_laplacian_singular(f, 0.6)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_odd_function_vanishes_at_origin(self):
        g = make_grid(12.0, 256)
        f = Field.from_function(g, lambda x: x * np.exp(-(x**2)), flavor="real")
        out = frac_laplacian_singular(f, 0.6)
        origin = g.n_points // 2  # x = 0
        assert abs(out.values[origin]) < 1e-9

    @pytest.mark.parametrize("s", [0.55, 0.75])
    def test_cross_definition_gaussian(self, s):
        g = make_grid(20.0, 1024)
        f = Field.from_function(g, lambda x: np.exp(-(x**2)), flavor="real")
        a = frac_laplacian_spectral(f, s)
        b = frac_laplacian_singular(f, s)
        assert np.max(np.abs(a.values - b.values)) < 1e-7

    def test_complex_field_matches_spectral(self):
        # a modulated Gaussian: the pairing must keep the imaginary part
        g = make_grid(12.0, 512)
        f = Field.from_function(g, lambda x: np.exp(-(x**2)) * np.exp(2j * x))
        out = frac_laplacian_singular(f, 0.6)
        assert out.flavor == "complex"
        assert np.max(np.abs(out.values - frac_laplacian_spectral(f, 0.6).values)) < 1e-7

    def test_preserves_real_flavor(self):
        g = make_grid(12.0, 256)
        f = Field.from_function(g, lambda x: np.exp(-(x**2)), flavor="real")
        assert frac_laplacian_singular(f, 0.8).flavor == "real"

    def test_plane_wave_matches_symbol(self):
        # the pairing quadrature reproduces |k|^{2s} on a pure mode
        g = make_grid(np.pi, 128)
        f = Field.from_function(g, lambda x: np.cos(3 * x), flavor="real")
        out = frac_laplacian_singular(f, 0.65)
        assert np.allclose(out.values, 3.0**1.3 * np.cos(3 * g.x), atol=2e-7)


def _agreement_fields(n):
    g = make_grid(16.0, n)
    rng = np.random.default_rng(3)
    return {
        "rough": Field(g, np.tanh(np.cumsum(rng.standard_normal(n)) / 8.0), flavor="real"),
        "gauss": Field.from_function(g, lambda x: np.exp(-(x**2)), flavor="real"),
        "modulated": Field.from_function(g, lambda x: np.exp(-(x**2)) * np.exp(2j * x)),
        # h1 = INNER_CELLS dx exactly, so the outer rule starts on a cell edge
        "wave": Field.from_function(g, lambda x: np.cos(3.0 * np.pi * x / 16.0), flavor="real"),
    }


class TestLagSumsMatchNodeLoops:
    """The lag-sum outer sums against the node-by-node loops over shifted
    spline values that they replace."""

    @pytest.mark.parametrize("n", [128, 512])
    @pytest.mark.parametrize("name", ["rough", "gauss", "modulated", "wave"])
    def test_singular(self, n, name):
        f = _agreement_fields(n)[name]
        got = frac_laplacian_singular(f, 0.75)
        want = frac_laplacian_singular_loop(f, 0.75)
        assert got.flavor == f.flavor
        assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [128, 512])
    @pytest.mark.parametrize("pair", [("rough", "rough"), ("gauss", "modulated"),
                                      ("modulated", "modulated"), ("rough", "gauss"),
                                      ("wave", "wave")])
    def test_pair(self, n, pair):
        fields = _agreement_fields(n)
        v, w = fields[pair[0]], fields[pair[1]]
        got = pair_correlation_integral(v, w, 0.75)
        want = pair_correlation_integral_loop(v, w, 0.75)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [128, 512])
    def test_constant_field_gives_exact_zeros(self, n):
        f = Field.from_function(make_grid(16.0, n), lambda x: np.full_like(x, 0.7),
                                flavor="real")
        assert pair_correlation_integral(f, f, 0.6) == 0.0
        assert np.max(np.abs(frac_laplacian_singular(f, 0.6).values)) < 1e-12


@pytest.mark.parametrize("route", ["singular", "pair"])
def test_lag_sums_never_hold_an_n_by_n_array(route):
    # an n x n complex temporary at N = 2048 alone takes 64 MB
    g = make_grid(20.0, 2048)
    f = Field.from_function(g, lambda x: np.exp(-(x**2)) * np.exp(1j * x))
    tracemalloc.start()
    try:
        if route == "singular":
            frac_laplacian_singular(f, 0.6)
        else:
            pair_correlation_integral(f, f, 0.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("n", [128, 512, 2048])
def test_rough_field_converges_in_the_cell_nodes(n, monkeypatch):
    # the spline taps are polynomials in the offset on every grid cell, so
    # the fixed rule converges geometrically even on a field this rough
    f = _agreement_fields(n)["rough"]
    pair = pair_correlation_integral(f, f, 0.75)
    sing = frac_laplacian_singular(f, 0.75).values
    assert np.isfinite(pair) and np.all(np.isfinite(sing))
    monkeypatch.setattr(fractional, "CELL_NODES", fractional.CELL_NODES + 4)
    assert pair_correlation_integral(f, f, 0.75) == pytest.approx(pair, rel=1e-10, abs=0.0)
    finer = frac_laplacian_singular(f, 0.75).values
    assert np.max(np.abs(finer - sing)) <= 1e-10 * np.max(np.abs(finer))


def test_gauss_legendre_rule_computed_once_and_read_only():
    x, w = fractional._leggauss(12)
    ref_x, ref_w = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    assert fractional._leggauss(12)[0] is x
    with pytest.raises(ValueError):
        w[0] = 0.0


class TestPanels:
    def test_edges_double_away_from_lo(self):
        assert np.array_equal(fractional._panel_edges(0.1, 1.0), [0.1, 0.2, 0.4, 0.8, 1.0])
        assert np.array_equal(fractional._panel_edges(0.5, 0.5), [0.5])  # no panel
        with pytest.raises(ValueError, match="lo > 0"):
            fractional._panel_edges(0.0, 1.0)

    def test_edges_restart_at_splits(self):
        pieces = [(0.1, 0.7), (0.7, 3.0), (3.0, 10.0)]
        want = np.concatenate([fractional._panel_edges(a, b)[:-1] for a, b in pieces] + [[10.0]])
        got = fractional._panel_edges(0.1, 10.0, (3.0, 0.7))
        assert np.array_equal(got, want)
        # splits on or outside (lo, hi) are ignored
        outside = fractional._panel_edges(0.1, 10.0, (-1.0, 0.1, 3.0, 10.0, 12.0, 0.7))
        assert np.array_equal(outside, want)

    def test_nodes_skip_empty_panels_and_integrate_exactly(self):
        n = 6
        edges = np.array([-1.0, 0.3, 0.3, 1.1, 2.0])
        x, w = fractional._panel_nodes(edges, n)
        assert x.shape == w.shape == (3 * n,)
        for lo, hi in ((-1.0, 0.3), (0.3, 1.1), (1.1, 2.0)):
            inside = (x > lo) & (x < hi)
            assert inside.sum() == n and w[inside].sum() == pytest.approx(hi - lo, rel=1e-14)
        # the n-point rule is exact up to degree 2n - 1 on each panel
        p = np.polynomial.Polynomial(np.random.default_rng(4).standard_normal(2 * n))
        exact = p.integ()(2.0) - p.integ()(-1.0)
        assert np.sum(w * p(x)) == pytest.approx(exact, rel=1e-13)
