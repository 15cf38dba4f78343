from __future__ import annotations

import numpy as np
import pytest

from fswl.fractional import pair_correlation_integral
from fswl.grid import BLOCK_SAMPLES, Field, make_grid
from fswl.sobolev import (
    _algebra_rows,
    _band_limited_rows,
    _chain_rule_rows,
    _hs_rows,
    _linf_interp_rows,
    _product_bound_rows,
    check_algebra,
    check_chain_rule,
    check_equivalence,
    check_linf_interp,
    check_product_bound,
    hs_norm,
    norm_equivalence_constants,
    random_band_limited,
    sup_interp_constant,
)


@pytest.fixture(scope="module")
def g20():
    return make_grid(20.0, 512)


class TestHsNorm:
    def test_single_mode_closed_form(self):
        g = make_grid(16.0, 128)
        k = 3 * np.pi / 16.0
        A = 0.7
        f = Field.from_function(g, lambda x: A * np.exp(1j * k * x))
        rep = hs_norm(f, 0.6)
        assert rep.hs_fourier**2 == pytest.approx((1 + k**2) ** 0.6 * A**2 * 32.0, rel=1e-12)
        assert rep.frac_grad_l2 == pytest.approx(k**0.6 * A * np.sqrt(32.0), rel=1e-12)
        assert rep.l2 == pytest.approx(A * np.sqrt(32.0), rel=1e-13)

    def test_small_s_split_norm_limit(self):
        # as s -> 0 the multiplier weight 1 + |k|^{2s} tends to 2 on every
        # nonzero mode, so the split norm sqrt(l2^2 + frac^2) approaches
        # sqrt(2) l2 for mean-free data while l2 itself is unchanged
        g = make_grid(16.0, 128)
        f = Field.from_function(g, lambda x: 0.5 * np.exp(1j * 3 * np.pi / 16 * x))
        l2 = f.norm_l2()
        for s in (1e-3, 1e-5):
            rep = hs_norm(f, s)
            assert rep.l2 == pytest.approx(l2, rel=1e-13)
            assert np.hypot(rep.l2, rep.frac_grad_l2) == pytest.approx(np.sqrt(2.0) * l2, rel=1e-2)

    def test_hs_dominates_l2(self):
        g = make_grid(16.0, 128)
        rng = np.random.default_rng(5)
        for _ in range(10):
            rep = hs_norm(random_band_limited(g, rng), 0.75)
            assert rep.hs_fourier >= rep.l2


class TestEquivalenceIdentity:
    def test_constant_has_zero_seminorm(self):
        g = make_grid(10.0, 128)
        f = Field.from_function(g, lambda x: np.full_like(x, 1.3), flavor="real")
        assert abs(pair_correlation_integral(f, f, 0.6)) < 1e-12

    def test_gaussian_matches_spectral(self, g20):
        f = Field.from_function(g20, lambda x: np.exp(-(x**2)), flavor="real")
        rep = check_equivalence(f, 0.6)
        assert abs(rep.margin) <= 0.01 * rep.rhs
        assert rep.passed

    def test_homogeneity(self, g20):
        f = Field.from_function(g20, lambda x: np.exp(-(x**2)), flavor="real")
        one = pair_correlation_integral(f, f, 0.7)
        f2 = Field(g20, 2.0 * f.values, flavor="real")
        two = pair_correlation_integral(f2, f2, 0.7)
        assert two == pytest.approx(4.0 * one, rel=1e-9)

    def test_refinement_converges_to_identity(self):
        # ratio of the two sides approaches 1 under simultaneous refinement
        ratios = []
        for L, N in ((10.0, 256), (20.0, 1024)):
            g = make_grid(L, N)
            f = Field.from_function(g, lambda x: np.exp(-(x**2)), flavor="real")
            rep = check_equivalence(f, 0.75)
            ratios.append(rep.lhs / rep.rhs)
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0) + 1e-12
        assert abs(ratios[1] - 1.0) < 1e-4


class TestNormEquivalenceConstants:
    def test_sandwich_on_ensemble(self):
        g = make_grid(16.0, 256)
        m_s, M_s = norm_equivalence_constants(g, 0.75)
        assert 0 < m_s <= M_s
        rng = np.random.default_rng(42)
        for _ in range(200):
            rep = hs_norm(random_band_limited(g, rng), 0.75)
            split = rep.l2 + rep.frac_grad_l2
            assert m_s * split <= rep.hs_fourier * (1 + 1e-12)
            assert rep.hs_fourier <= M_s * split * (1 + 1e-12)

    def test_scan_matches_bruteforce(self):
        g = make_grid(16.0, 256)
        s = 0.6
        kappa = np.abs(g.k)
        ratio = (1 + kappa**2) ** s / (1 + kappa ** (2 * s))
        m_s, M_s = norm_equivalence_constants(g, s)
        assert m_s == pytest.approx(np.sqrt(ratio.min() / 2))
        assert M_s == pytest.approx(np.sqrt(ratio.max()))


class TestAlgebra:
    def test_identity_element_ratio(self):
        g = make_grid(16.0, 256)
        rng = np.random.default_rng(0)
        f = random_band_limited(g, rng)
        one = Field.from_function(g, lambda x: np.ones_like(x), flavor="real")
        rep = check_algebra(f, one, 0.75)
        norm_one = hs_norm(one, 0.75).hs_fourier
        assert rep.lhs == pytest.approx(1.0 / norm_one, rel=1e-12)
        assert rep.lhs <= 1.0 / norm_one + 1e-12

    def test_single_mode_product_closed_form(self):
        g = make_grid(np.pi, 64)
        k = 2.0
        f = Field.from_function(g, lambda x: np.exp(1j * k * x))
        rep = check_algebra(f, f, 0.75)
        # product is the single mode 2k: everything in closed form
        s = 0.75
        num = (1 + (2 * k) ** 2) ** (s / 2)
        den = (1 + k**2) ** s * np.sqrt(2 * np.pi)
        assert rep.lhs == pytest.approx(num / den, rel=1e-12)

    def test_low_s_rejected(self):
        g = make_grid(np.pi, 64)
        f = Field.from_function(g, lambda x: np.exp(1j * x))
        with pytest.raises(ValueError):
            check_algebra(f, f, 0.4)

    def test_thousand_pair_ensemble_stable_under_refinement(self):
        maxima = []
        for N in (128, 256):
            g = make_grid(16.0, N)
            rng = np.random.default_rng(99)
            ratios = [
                check_algebra(
                    random_band_limited(g, rng, band=16),
                    random_band_limited(g, rng, band=16),
                    0.75,
                ).lhs
                for _ in range(1000)
            ]
            maxima.append(max(ratios))
        # same seeded band occupies the identical resolved modes, so the
        # empirical constant must be grid-stable and comfortably finite
        assert maxima[1] == pytest.approx(maxima[0], rel=0.2)
        assert maxima[1] < 2.0


class TestChainRule:
    def test_identity_is_equality(self):
        g = make_grid(16.0, 256)
        f = random_band_limited(g, np.random.default_rng(1), flavor="real")
        rep = check_chain_rule(lambda v: v, 1.0, f, 0.7)
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-13)

    def test_scaling_is_equality(self):
        g = make_grid(16.0, 256)
        f = random_band_limited(g, np.random.default_rng(2), flavor="real")
        rep = check_chain_rule(lambda v: -2.5 * v, 2.5, f, 0.7)
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-13)

    def test_tanh_ensemble(self):
        g = make_grid(16.0, 256)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            f = random_band_limited(g, rng, flavor="real")
            rep = check_chain_rule(np.tanh, 1.0, f, 0.75)
            assert rep.margin >= -1e-10


class TestSharpInequalities:
    def test_zero_field_degenerate(self):
        g = make_grid(16.0, 128)
        z = Field.zero(g)
        rep = check_linf_interp(z, 0.75)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed

    def test_single_mode_interp_closed_form(self):
        g = make_grid(np.pi, 64)
        k, A, s = 2.0, 0.9, 0.75
        f = Field.from_function(g, lambda x: A * np.exp(1j * k * x))
        rep = check_linf_interp(f, s)
        expected_rhs = (
            sup_interp_constant(s)
            * (A * np.sqrt(2 * np.pi)) ** (1 - 0.5 / s)
            * (k**s * A * np.sqrt(2 * np.pi)) ** (0.5 / s)
        )
        assert rep.rhs == pytest.approx(expected_rhs, rel=1e-10)
        assert rep.lhs == pytest.approx(A, abs=5e-3 * A)
        assert rep.passed

    def test_single_mode_product_closed_form(self):
        g = make_grid(np.pi, 128)
        k, s = 3.0, 0.75
        f = Field.from_function(g, lambda x: np.cos(k * x), flavor="real")
        rep = check_product_bound(f, s)
        # |f|^2 = (1 + cos 2kx)/2: only the 2k mode carries fractional energy
        expected_lhs = (2 * k) ** s * 0.5 * np.sqrt(np.pi)
        assert rep.lhs == pytest.approx(expected_lhs, rel=1e-10)
        assert rep.passed

    def test_gaussian_width_family_margins(self, g20):
        # the prefactor 2/sqrt(pi(2s-1)) diverges toward s = 1/2, so the
        # bound loosens and the measured margin grows monotonically as s
        # decreases (the opposite trend would signal a constant bug)
        s_list = (0.9, 0.75, 0.6, 0.55)
        margins = []
        for s in s_list:
            worst = np.inf
            for w in (0.5, 1.0, 2.0, 4.0):
                f = Field.from_function(g20, lambda x: np.exp(-((x / w) ** 2)),
                                        flavor="real")
                rep = check_linf_interp(f, s)
                assert rep.passed
                worst = min(worst, rep.margin / rep.rhs)
            margins.append(worst)
        assert margins == sorted(margins)

    @pytest.mark.parametrize("s", [0.6, 0.75, 0.9])
    def test_ensembles(self, s):
        g = make_grid(16.0, 256)
        rng = np.random.default_rng(7)
        for _ in range(300):
            f = random_band_limited(g, rng)
            assert check_linf_interp(f, s).margin >= -1e-10
            assert check_product_bound(f, s).margin >= -1e-10

    def test_out_of_range_s_rejected(self):
        g = make_grid(16.0, 128)
        f = Field.zero(g)
        with pytest.raises(ValueError):
            check_linf_interp(f, 0.5)
        with pytest.raises(ValueError):
            check_product_bound(f, 0.45)


class TestInvariances:
    def test_norms_invariant_under_translation_and_phase(self):
        g = make_grid(16.0, 256)
        f = random_band_limited(g, np.random.default_rng(11))
        base = hs_norm(f, 0.7)
        shifted = hs_norm(f.translated(9), 0.7)
        rotated = hs_norm(Field(g, np.exp(1j * 0.83) * f.values, flavor="complex"), 0.7)
        for other in (shifted, rotated):
            assert other.l2 == pytest.approx(base.l2, rel=1e-12)
            assert other.hs_fourier == pytest.approx(base.hs_fourier, rel=1e-12)
            assert other.frac_grad_l2 == pytest.approx(base.frac_grad_l2, rel=1e-12)


ENSEMBLE_FLAVORS = ("complex", "real", "complex")  # f, fr, g2 of one member


class TestRowBlocks:
    """The row helpers the verify ensembles take in blocks of BLOCK_SAMPLES
    members, against per-member fields and per-field reports."""

    def test_draws_equal_per_member_fields(self):
        g = make_grid(16.0, 256)
        rng_rows, rng_fields = np.random.default_rng(5), np.random.default_rng(5)
        stacks = _band_limited_rows(g, rng_rows, 37, ENSEMBLE_FLAVORS)
        for i in range(37):
            for rows, flavor in zip(stacks, ENSEMBLE_FLAVORS):
                fld = random_band_limited(g, rng_fields, flavor=flavor)
                assert rows.values.dtype == fld.values.dtype
                assert np.array_equal(rows.values[i], fld.values)
                assert np.array_equal(rows.spec[i], fld.spectrum)
        assert rng_rows.bit_generator.state == rng_fields.bit_generator.state

    @pytest.mark.parametrize("s", [0.6, 0.9])
    def test_ragged_blocks_equal_per_field_reports(self, s):
        g = make_grid(16.0, 256)
        n = 37
        assert n % BLOCK_SAMPLES != 0
        rng_rows, rng_fields = np.random.default_rng(8), np.random.default_rng(8)
        seen = 0
        for start in range(0, n, BLOCK_SAMPLES):
            f, fr, g2 = _band_limited_rows(g, rng_rows, min(BLOCK_SAMPLES, n - start),
                                           ENSEMBLE_FLAVORS)
            bounds = (_linf_interp_rows(f, s), _product_bound_rows(f, s),
                      _chain_rule_rows(np.tanh, 1.0, fr, s))
            l2, hs, frac = _hs_rows(f, s)
            ratio = _algebra_rows(f, g2, s)
            for i in range(len(f.values)):
                ff, ffr, fg2 = (random_band_limited(g, rng_fields, flavor=fl)
                                for fl in ENSEMBLE_FLAVORS)
                reports = (check_linf_interp(ff, s), check_product_bound(ff, s),
                           check_chain_rule(np.tanh, 1.0, ffr, s))
                for (lhs, rhs), rep in zip(bounds, reports):
                    assert (lhs[i], rhs[i]) == (rep.lhs, rep.rhs)
                norms = hs_norm(ff, s)
                assert (l2[i], hs[i], frac[i]) == (norms.l2, norms.hs_fourier,
                                                   norms.frac_grad_l2)
                assert ratio[i] == check_algebra(ff, fg2, s).lhs
                seen += 1
        assert seen == n
