from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fswl.grid import MAX_N, Field, GridError, as_coupled_order, as_order, make_grid
from fswl.propagators import PropagatorSpec
from fswl.sobolev import check_algebra, check_product_bound, sup_interp_constant
from fswl.solver import SystemParams, g_zero


def test_make_grid_pi_8():
    g = make_grid(np.pi, 8)
    assert g.dx == pytest.approx(np.pi / 4.0)
    assert sorted(g.k) == pytest.approx([-4, -3, -2, -1, 0, 1, 2, 3])


def test_make_grid_2pi_16_spacing():
    g = make_grid(2 * np.pi, 16)
    ks = np.sort(g.k)
    assert np.allclose(np.diff(ks), 0.5)


@pytest.mark.parametrize("bad_n", [7, 100, 12, 6])
def test_non_power_of_two_rejected(bad_n):
    with pytest.raises(GridError, match="power of two"):
        make_grid(np.pi, bad_n)


def test_n_bound():
    # the bound leaves headroom over the finest documented grid, 8192
    assert MAX_N > 8192
    assert make_grid(np.pi, MAX_N).n_points == MAX_N
    # a grid spec holds no arrays, so an N above the bound fails unallocated
    with pytest.raises(GridError, match=f"power of two in \\[8, {MAX_N}\\], got {2**17}"):
        make_grid(np.pi, 2**17)


def test_nonpositive_length_rejected():
    with pytest.raises(GridError):
        make_grid(-1.0, 16)
    with pytest.raises(GridError):
        make_grid(0.0, 16)


@pytest.mark.parametrize("bad_L", [np.nan, np.inf, -np.inf])
def test_nonfinite_length_rejected(bad_L):
    with pytest.raises(GridError, match="finite"):
        make_grid(bad_L, 16)


@given(
    log_n=st.integers(min_value=3, max_value=10),
    L=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_grid_invariants(log_n, L):
    N = 2**log_n
    g = make_grid(L, N)
    # spacing times N recovers the period exactly in working precision
    assert g.dx * N == pytest.approx(2 * L, rel=1e-15)
    k = np.sort(g.k)
    # symmetric about zero except the unpaired lowest mode
    assert np.allclose(k[1:], -k[1:][::-1])
    assert k[0] == pytest.approx(-np.pi * (N // 2) / L)


def test_frac_order_ranges():
    # as_order is the range check of (0, 1) and returns a float; each holder
    # of s checks it once when built, the coupled system through
    # as_coupled_order, whose (1/2, 1) also refuses the ends of (0, 1)
    assert as_order(0.3) == 0.3 and type(as_order(np.float32(0.5))) is float
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"fractional order must lie in \(0, 1\)"):
            as_order(bad)
        with pytest.raises(ValueError, match=rf"^s must lie in \(1/2, 1\), got {bad}$"):
            SystemParams(alpha=1.0, beta=1.0, s=bad, g=g_zero())
        with pytest.raises(ValueError, match=r"fractional order must lie in \(0, 1\)"):
            PropagatorSpec(eps=0.1, s=bad)
    with pytest.raises(ValueError, match=r"^s must lie in \(1/2, 1\), got 0\.4$"):
        SystemParams(alpha=1.0, beta=1.0, s=0.4, g=g_zero())
    assert type(SystemParams(alpha=1.0, beta=1.0, s=np.float32(0.75), g=g_zero()).s) is float
    assert type(PropagatorSpec(eps=0.1, s=np.float32(0.75)).s) is float


_WITNESS = Field.from_function(make_grid(8.0, 64), lambda x: np.exp(-(x**2)) * np.sin(x))

# Every holder of the coupled range 1/2 < s < 1, each called at order s.
_COUPLED_RANGE_HOLDERS = {
    "SystemParams": lambda s: SystemParams(alpha=1.0, beta=1.0, s=s, g=g_zero()),
    "sup_interp_constant": sup_interp_constant,
    "check_product_bound": lambda s: check_product_bound(_WITNESS, s),
    "check_algebra": lambda s: check_algebra(_WITNESS, _WITNESS, s),
}


@pytest.mark.parametrize("holder", _COUPLED_RANGE_HOLDERS.values(), ids=list(_COUPLED_RANGE_HOLDERS))
def test_coupled_order_range_has_one_wording(holder):
    # the interpolation constant 2/sqrt(pi(2s-1)) blows up at s = 1/2, so
    # 0.5 itself is refused, by as_coupled_order's one message
    with pytest.raises(ValueError, match=r"^s must lie in \(1/2, 1\), got 0\.5$"):
        holder(0.5)
    holder(0.6)
    assert type(as_coupled_order(np.float32(0.75))) is float


def test_parseval_and_norms():
    g = make_grid(8.0, 64)
    f = Field.from_function(g, lambda x: np.exp(-(x**2)) * np.exp(0.5j * x))
    direct = np.sqrt(g.dx * np.sum(np.abs(f.values) ** 2))
    spectral = np.sqrt(g.measure * np.sum(np.abs(f.spectrum) ** 2))
    assert direct == pytest.approx(spectral, rel=1e-13)
    assert f.norm_l2() == pytest.approx(direct)


def test_parseval_sums_along_last_axis():
    g = make_grid(8.0, 64)
    rows = np.stack([np.exp(-((g.x - c) ** 2)) * np.exp(0.5j * g.x) for c in (0.0, 1.0, -2.5)])
    specs = g.to_spectrum(rows)
    w = 1.0 + g.k**2
    assert g.integral(np.abs(rows) ** 2) == pytest.approx(g.weighted_sq(specs, 1.0), rel=1e-13)
    for row, spec, sq, total in zip(rows, specs, g.weighted_sq(specs, w), g.integral(rows)):
        assert sq == g.weighted_sq(spec, w)
        assert total == g.dx * np.sum(row).real
        assert Field(g, row).norm_h1() == np.sqrt(sq)


def test_real_flavor_enforced():
    g = make_grid(8.0, 64)
    with pytest.raises(ValueError, match="imaginary"):
        Field(g, np.exp(1j * g.x), flavor="real")
    fld = Field(g, np.cos(g.x) + 0j, flavor="real")
    assert fld.values.dtype == np.float64


def test_dealias_mask_geometry():
    g = make_grid(np.pi, 64)
    mask = g.dealias_mask()
    j = np.fft.fftfreq(64, d=1 / 64)
    assert mask[np.abs(j) <= 21].all()
    assert not mask[np.abs(j) > 21].any()
    assert not mask[g.nyquist_index]


def test_spectrum_cache_matches_forward_transform():
    g = make_grid(4.0, 32)
    f = Field.from_function(g, lambda x: np.sin(x) + 0.3 * np.cos(2 * x), flavor="real")
    assert np.allclose(f.spectrum, np.fft.fft(f.values) / 32)


def test_translation_exact():
    g = make_grid(4.0, 32)
    f = Field.from_function(g, lambda x: np.exp(-(x**2)), flavor="real")
    assert np.allclose(f.translated(3).values, np.roll(f.values, 3))


def test_sup_norm_padding_recovers_offgrid_max():
    g = make_grid(np.pi, 16)
    # mode at half the Nyquist: the collocation max undersamples the peak
    f = Field.from_function(g, lambda x: np.cos(4 * x + 0.3), flavor="real")
    assert np.max(np.abs(f.values)) < 1.0 - 1e-4
    assert f.norm_sup() == pytest.approx(1.0, abs=6e-3)


@pytest.mark.parametrize("N", [16, 128])
def test_half_spectrum_round_trip(N):
    g = make_grid(4.0, N)
    rng = np.random.default_rng(N)
    # real band-limited data: a Hermitian spectrum with no Nyquist mode
    coeffs = np.zeros(N, dtype=complex)
    coeffs[1 : N // 2] = rng.standard_normal(N // 2 - 1) + 1j * rng.standard_normal(N // 2 - 1)
    coeffs[N // 2 + 1 :] = np.conj(coeffs[N // 2 - 1 : 0 : -1])
    coeffs[0] = rng.standard_normal()
    f = g.from_spectrum(coeffs).real
    half = g.to_half_spectrum(f)
    assert half.shape == (N // 2 + 1,)
    assert np.allclose(half, g.to_spectrum(f)[: N // 2 + 1], rtol=0, atol=1e-14)
    back = g.from_half_spectrum(half)
    assert back.dtype == np.float64
    assert np.allclose(back, f, rtol=0, atol=1e-13)
    # rows of a batch transform independently
    pair = g.to_half_spectrum(np.stack((f, 2.0 * f)))
    assert np.array_equal(pair[0], half)
    assert np.allclose(pair[1], 2.0 * half, rtol=0, atol=1e-13)
