from __future__ import annotations

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
    spec = GronwallSpec(C=1.4, sigma=0.0, a=np.cos, b=0.0, t0=0.0, horizon=1.0)
    assert gronwall_bound(spec, 1.0) == pytest.approx(1.4 * np.exp(np.sin(1.0)), rel=1e-8)


def test_inadmissible_horizon_rejected():
    spec = GronwallSpec(C=0.5, sigma=2.0, a=0.0, b=1.0, t0=0.0, horizon=3.0)
    with pytest.raises(GronwallInadmissibleError, match="horizon admissibility"):
        gronwall_bound(spec, 2.5)


def test_bracket_crossing_detector():
    # the horizon condition provably implies a positive bracket, so the
    # pointwise detector is defense-in-depth against quadrature wiggle;
    # exercise it on the internal evaluator where the crossing is visible
    from fswl.gronwall import _bound_on_grid

    spec = GronwallSpec(C=0.9, sigma=2.0, a=0.0, b=1.0, t0=0.0, horizon=3.0)
    val, ts, bracket = _bound_on_grid(spec, 2.0)
    assert np.any(bracket <= 0.0)
    assert not np.isfinite(val)
    crossing = ts[np.argmax(bracket <= 0.0)]
    assert crossing == pytest.approx(1.0 / 0.9, abs=5e-3)
    # and the public entry point rejects the same spec up front
    with pytest.raises(GronwallInadmissibleError):
        gronwall_bound(spec, 2.0)


def test_marginally_admissible_bracket_stays_positive():
    h = 1.1
    spec = GronwallSpec(C=(1.0 / h) * (1 - 1e-9), sigma=2.0, a=0.0, b=1.0,
                        t0=0.0, horizon=h)
    assert np.isfinite(gronwall_bound(spec, h))


@pytest.mark.parametrize(
    "sigma,a0,b0,C",
    [(0.5, 0.4, 0.3, 1.2), (1.0, 0.2, 0.5, 0.8), (1.6, 0.3, 0.2, 0.6)],
)
def test_dominates_equality_case_ode(sigma, a0, b0, C):
    # variable rates: the bound must sit on (equality) or above the RK45
    # solution of eta' = a eta + b eta^sigma at every grid point
    a_fn = lambda t: a0 * (1.0 + 0.5 * np.sin(3.0 * t))
    b_fn = lambda t: b0 * (1.0 + 0.3 * np.cos(2.0 * t))
    spec = GronwallSpec(C=C, sigma=sigma, a=a_fn, b=b_fn, t0=0.0, horizon=0.8)
    ts = np.linspace(0.01, 0.8, 9)
    ode = growth_ode_solution(C, sigma, a_fn, b_fn, 0.0, np.concatenate([[0.0], ts]))[1:]
    for t, truth in zip(ts, ode):
        bound = gronwall_bound(spec, float(t))
        assert bound >= truth * (1 - 1e-7)
        assert bound == pytest.approx(truth, rel=1e-5)


def test_sampled_rate_arrays_accepted():
    ts = np.linspace(0.0, 1.0, 101)
    spec = GronwallSpec(C=1.0, sigma=1.0, a=(ts, 0.5 * np.ones_like(ts)),
                        b=(ts, np.zeros_like(ts)), t0=0.0, horizon=1.0)
    assert gronwall_bound(spec, 1.0) == pytest.approx(np.exp(0.5), rel=1e-10)


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
    spec = GronwallSpec(C=1.0, sigma=1.0, a=lambda t: -np.ones_like(t), b=0.0,
                        horizon=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        gronwall_bound(spec, 0.5)
