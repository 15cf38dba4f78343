from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fswl.gronwall import GronwallInadmissibleError, GronwallSpec, gronwall_bound

from oracles import growth_ode_solution


def test_sigma1_constant_rates():
    spec = GronwallSpec(C=2.0, sigma=1.0, a=0.7, b=0.3, t0=0.0, horizon=1.5)
    for t in (0.0, 0.5, 1.5):
        assert gronwall_bound(spec, t) == pytest.approx(2.0 * np.exp(1.0 * t), rel=1e-12)


def test_sigma0_linear_case():
    spec = GronwallSpec(C=1.4, sigma=0.0, a=0.6, b=0.0, t0=0.0, horizon=1.0)
    assert gronwall_bound(spec, 1.0) == pytest.approx(1.4 * np.exp(0.6), rel=1e-12)


def test_inadmissible_horizon_rejected():
    spec = GronwallSpec(C=0.5, sigma=2.0, a=0.0, b=1.0, t0=0.0, horizon=3.0)
    with pytest.raises(GronwallInadmissibleError, match="horizon admissibility"):
        gronwall_bound(spec, 2.5)


def test_bracket_at_the_rounding_edge_is_refused():
    # the horizon check passes by about 1e-14 relative, so the bracket is
    # negative in the 1e-12 slack past t0 + h: refused, never a negative or
    # complex bound
    h = 1.1
    spec = GronwallSpec(C=(1.0 / h) * (1 - 1e-14), sigma=2.0, a=0.0, b=1.0,
                        t0=0.0, horizon=h)
    assert np.isfinite(gronwall_bound(spec, h))
    with pytest.raises(GronwallInadmissibleError, match="bracket"):
        gronwall_bound(spec, h + 1e-12)
    # 1/(1 - sigma) = -1/2 is not an integer: a negative bracket would give
    # a complex power
    fractional = GronwallSpec(C=(2.0 * h) ** -0.5 * (1 - 1e-14), sigma=3.0, a=0.0, b=1.0,
                              t0=0.0, horizon=h)
    assert np.isfinite(gronwall_bound(fractional, h))
    with pytest.raises(GronwallInadmissibleError, match="bracket"):
        gronwall_bound(fractional, h + 1e-12)


def test_inadmissible_spec_refused_before_any_overflow():
    # E_k(1) = expm1(1000)/1000 overflows, but the horizon check comes first
    spec = GronwallSpec(C=1.0, sigma=2.0, a=1000.0, b=1.0, t0=0.0, horizon=1.0)
    with pytest.raises(GronwallInadmissibleError, match="horizon admissibility"):
        gronwall_bound(spec, 1.0)


def test_inadmissible_spec_at_t0_returns_C():
    spec = GronwallSpec(C=0.5, sigma=2.0, a=0.0, b=1.0, t0=0.0, horizon=3.0)
    assert gronwall_bound(spec, 0.0) == 0.5


@pytest.mark.parametrize("sigma,b", [(1.0, 0.0), (0.5, 1.0), (1.0001, 1e-10)])
def test_bound_beyond_the_float_range_reads_inf(sigma, b):
    spec = GronwallSpec(C=1.0, sigma=sigma, a=1000.0, b=b, t0=0.0, horizon=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gronwall_bound(spec, 1.0) == np.inf


@pytest.mark.parametrize("sigma,a,b,exact", [
    (1.0, 710.0, 0.0, 0.022339947661617042),
    (1.0, 709.0, 1.0, 0.022339947661617042),
    (2.0, 710.0, 1.0, 0.022340650603821571),
    (0.5, 710.0, 1e-160, 0.022339948290911347),
    # (sigma - 1) a t < 1 and an exponent 1/(1 - sigma) other than -1
    (1.001, 710.0, 1.0, 0.04560003318408764),
])
def test_finite_bound_past_an_overflowing_exponential(sigma, a, b, exact):
    # e^{a t} alone leaves the float range, C e^{a t} does not; the exact
    # bounds are evaluated with mpmath at 50 digits
    spec = GronwallSpec(C=1e-310, sigma=sigma, a=a, b=b, t0=0.0, horizon=1.0)
    assert gronwall_bound(spec, 1.0) == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_marginally_admissible_bracket_stays_positive():
    h = 1.1
    spec = GronwallSpec(C=(1.0 / h) * (1 - 1e-9), sigma=2.0, a=0.0, b=1.0,
                        t0=0.0, horizon=h)
    assert np.isfinite(gronwall_bound(spec, h))


@pytest.mark.parametrize(
    "sigma,a0,b0,C",
    [(0.5, 0.4, 0.3, 1.2), (1.0, 0.2, 0.5, 0.8), (1.6, 0.3, 0.2, 0.6), (2.0, 0.0, 0.7, 0.9)],
)
def test_dominates_equality_case_ode(sigma, a0, b0, C):
    # the closed form must sit on the RK45 solution of
    # eta' = a eta + b eta^sigma at every grid point
    spec = GronwallSpec(C=C, sigma=sigma, a=a0, b=b0, t0=0.0, horizon=0.8)
    ts = np.linspace(0.01, 0.8, 9)
    ode = growth_ode_solution(C, sigma, lambda t: a0, lambda t: b0, 0.0,
                              np.concatenate([[0.0], ts]))[1:]
    for t, truth in zip(ts, ode):
        bound = gronwall_bound(spec, float(t))
        assert bound >= truth * (1 - 1e-7)
        assert bound == pytest.approx(truth, rel=1e-9)


def test_rate_must_be_a_constant():
    pair = (np.linspace(0.0, 1.0, 11), np.ones(11))
    for rate in (np.cos, lambda t: 0.5, pair):
        for field in ("a", "b"):
            with pytest.raises(TypeError, match="constant"):
                GronwallSpec(C=1.0, sigma=1.0, horizon=1.0, **{field: rate})


def test_sigma_to_one_continuity():
    ref = gronwall_bound(GronwallSpec(C=2.0, sigma=1.0, a=0.7, b=0.3, horizon=1.0), 1.0)
    lo = gronwall_bound(GronwallSpec(C=2.0, sigma=1.0 - 1e-6, a=0.7, b=0.3, horizon=1.0), 1.0)
    hi = gronwall_bound(GronwallSpec(C=2.0, sigma=1.0 + 1e-6, a=0.7, b=0.3, horizon=1.0), 1.0)
    assert lo == pytest.approx(ref, rel=1e-4)
    assert hi == pytest.approx(ref, rel=1e-4)
    assert min(lo, hi) <= ref <= max(lo, hi)


def test_validation():
    with pytest.raises(ValueError):
        GronwallSpec(C=-1.0, sigma=1.0)
    with pytest.raises(ValueError):
        GronwallSpec(C=1.0, sigma=-0.5)
    spec = GronwallSpec(C=1.0, sigma=1.0, horizon=1.0)
    with pytest.raises(ValueError):
        gronwall_bound(spec, 2.0)


@given(
    C=st.floats(min_value=0.1, max_value=3.0),
    bump=st.floats(min_value=0.0, max_value=1.0),
    sigma=st.floats(min_value=0.0, max_value=0.95),
)
@settings(max_examples=30, deadline=None)
def test_monotone_in_inputs(C, bump, sigma):
    base = GronwallSpec(C=C, sigma=sigma, a=0.3, b=0.2, horizon=1.0)
    more_c = GronwallSpec(C=C + bump, sigma=sigma, a=0.3, b=0.2, horizon=1.0)
    more_a = GronwallSpec(C=C, sigma=sigma, a=0.3 + bump, b=0.2, horizon=1.0)
    more_b = GronwallSpec(C=C, sigma=sigma, a=0.3, b=0.2 + bump, horizon=1.0)
    v = gronwall_bound(base, 1.0)
    assert gronwall_bound(more_c, 1.0) >= v - 1e-12
    assert gronwall_bound(more_a, 1.0) >= v - 1e-12
    assert gronwall_bound(more_b, 1.0) >= v - 1e-12


def test_negative_rates_rejected():
    for field in ("C", "sigma", "a", "b"):
        for value in (-1.0, -1e-300, np.nan):
            data = dict(C=1.0, sigma=1.0, a=0.3, b=0.2, horizon=1.0)
            data[field] = value
            with pytest.raises(ValueError, match="nonnegative"):
                GronwallSpec(**data)
