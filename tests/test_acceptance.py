"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing one pass/fail line (run with ``pytest -s`` to stream).

The criteria are property-based: operator cross-definitions, norm and
inequality verifications on seeded ensembles, exactness and conservation of
the time marcher, balance-identity convergence orders, growth-bound
evaluator oracles, level-set entropy identities, the vanishing-perturbation
Cauchy table, the smallness frontier, and weak-formulation residuals.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from fswl.diagnostics import (
    energy_balance_residual,
    smallness_condition,
    v_balance_residual,
)
from fswl.entropy import (
    TestFunction,
    _crossings,
    _kink_radii,
    frac_power_pointwise,
    remainder_Rk,
    weak_residual_u,
    weak_residual_v,
)
from fswl.fractional import (
    PeriodicInterpolant,
    cns_constant,
    frac_laplacian_singular,
    frac_laplacian_spectral,
)
from fswl.grid import Field, as_order, make_grid
from fswl.gronwall import GronwallInadmissibleError, GronwallSpec, gronwall_bound
from fswl.propagators import PropagatorSpec, check_heat_smoothing, heat_semigroup_apply, schrodinger_group_apply
from fswl.sobolev import (
    check_chain_rule,
    check_equivalence,
    check_linf_interp,
    check_product_bound,
    random_band_limited,
)
from fswl.solver import (
    BlowupError,
    PerturbedRun,
    SolverError,
    SystemParams,
    g_tanh_blend,
    g_zero,
    solve_perturbed,
    vanishing_viscosity_sweep,
)

from oracles import fit_slope, sample_fields


def _report(num: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {verdict} {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def canonical_data(grid):
    u0 = Field.from_function(
        grid, lambda x: 0.35 * np.exp(-(x**2)) * np.exp(1j * 3 * np.pi / 16.0 * x))
    v0 = Field.from_function(grid, lambda x: 0.4 * np.exp(-((x / 1.5) ** 2)), "real")
    return u0, v0


def canonical_params():
    return SystemParams(alpha=0.1, beta=0.1, s=0.75, g=g_tanh_blend(0.2, 1.0))


def test_criterion_01_cross_definition():
    """Spectral vs singular-integral agreement on exp(-x^2), four orders."""
    t0 = time.perf_counter()
    grid = make_grid(20.0, 2048)
    f = Field.from_function(grid, lambda x: np.exp(-(x**2)), flavor="real")
    worst = 0.0
    for s in (0.55, 0.6, 0.75, 0.9):
        spec_route = frac_laplacian_spectral(f, s)
        sing_route = frac_laplacian_singular(f, s)
        worst = max(worst, float(np.max(np.abs(spec_route.values - sing_route.values))))
    elapsed = time.perf_counter() - t0
    _report(1, "fractional Laplacian cross-definition", worst <= 1e-5 and elapsed < 30.0,
            f"max gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_norm_equivalence():
    """Gagliardo quadrature = 2 C^{-1} spectral seminorm on 20 decaying
    functions within 1%; C_{1,1/2} = 1/pi to 1e-8."""
    grid = make_grid(20.0, 1024)
    rng = np.random.default_rng(2020)
    witnesses = []
    for i in range(20):
        w = float(rng.uniform(0.6, 2.5))
        c = float(rng.uniform(-4.0, 4.0))
        kind = i % 4
        if kind == 0:
            fn = lambda x, w=w, c=c: np.exp(-(((x - c) / w) ** 2))
        elif kind == 1:
            fn = lambda x, w=w, c=c: 1.0 / np.cosh((x - c) / w)
        elif kind == 2:
            fn = lambda x, w=w, c=c: np.exp(-(((x - c) / w) ** 2)) * np.cos(2.0 * x)
        else:
            fn = lambda x, w=w, c=c: (x - c) * np.exp(-(((x - c) / w) ** 2))
        witnesses.append(Field.from_function(grid, fn, flavor="real"))
    worst = 0.0
    for i, f in enumerate(witnesses):
        s = (0.55, 0.6, 0.75, 0.9)[i % 4]
        rep = check_equivalence(f, s)
        worst = max(worst, abs(rep.margin) / max(rep.rhs, 1e-30))
    c_gap = abs(cns_constant(0.5) - 1.0 / np.pi)
    _report(2, "norm equivalence identity", worst <= 1e-2 and c_gap <= 1e-8,
            f"worst rel {worst:.2e}, |C(1/2)-1/pi| = {c_gap:.1e}")


@pytest.mark.parametrize("s", [0.6, 0.75, 0.9])
def test_criterion_03_sharp_inequalities(s):
    """Interpolation, product, chain-rule bounds on 1000 seeded fields."""
    grid = make_grid(16.0, 256)
    rng = np.random.default_rng(1000 + int(s * 100))
    violations = 0
    worst = np.inf
    for _ in range(1000):
        f = random_band_limited(grid, rng)
        fr = random_band_limited(grid, rng, flavor="real")
        for rep in (check_linf_interp(f, s), check_product_bound(f, s),
                    check_chain_rule(np.tanh, 1.0, fr, s)):
            worst = min(worst, rep.margin)
            if rep.margin < -1e-10:
                violations += 1
    _report(3, f"sharp inequalities at s={s}", violations == 0,
            f"3000 checks, min margin {worst:.2e}")


def test_criterion_04_propagators():
    """Group isometry/composition to 1e-12; heat contraction and the
    explicit smoothing constant on a logarithmic time grid."""
    grid = make_grid(16.0, 256)
    p = PropagatorSpec(eps=0.1, s=as_order(0.75))
    rng = np.random.default_rng(44)
    ok = True
    detail = []
    for _ in range(20):
        u = random_band_limited(grid, rng)
        for t in (-1.0, 0.3, 2.0):
            ok &= abs(schrodinger_group_apply(u, t, p).norm_l2() - u.norm_l2()) \
                <= 1e-12 * u.norm_l2()
        comp = schrodinger_group_apply(schrodinger_group_apply(u, 0.45, p), 0.3, p)
        ok &= float(np.max(np.abs(comp.values - schrodinger_group_apply(u, 0.75, p).values))) <= 1e-12
        v = random_band_limited(grid, rng, flavor="real")
        for t in np.logspace(-4, 1, 13):
            ok &= heat_semigroup_apply(v, float(t), p).norm_l2() <= v.norm_l2() * (1 + 1e-14)
            rep = check_heat_smoothing(v, float(t), p)
            ok &= rep.passed
    _report(4, "propagator isometry/contraction/smoothing", ok, "zero violations")


def test_criterion_05_conservation_and_max_principle():
    """Canonical run: relative mass drift <= 1e-8, sup of v never above its
    initial value by more than 1e-8, under two minutes."""
    t0 = time.perf_counter()
    grid = make_grid(16.0, 512)
    u0, v0 = canonical_data(grid)
    run = PerturbedRun(eps=0.1, T=1.0, dt=1e-3, store_every=5)
    traj = solve_perturbed(u0, v0, canonical_params(), run)
    mass = grid.measure * np.sum(np.abs(traj.u_specs) ** 2, axis=1)
    drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
    sups = [sample_fields(traj, i)[1].norm_sup() for i in range(len(traj))]
    excess = max(sups) - sups[0]
    elapsed = time.perf_counter() - t0
    _report(5, "conservation and max principle",
            drift <= 1e-8 and excess <= 1e-8 and elapsed < 120.0,
            f"drift {drift:.1e}, sup excess {excess:.1e}, {elapsed:.1f}s")


def test_criterion_06_balance_identity_orders():
    """Energy and long-wave balance residuals decrease with order >= 1.8
    under dt in {4e-3, 2e-3, 1e-3}."""
    grid = make_grid(16.0, 256)
    u0, v0 = canonical_data(grid)
    params = canonical_params()
    dts = (4e-3, 2e-3, 1e-3)
    res_e, res_v = [], []
    for dt in dts:
        run = PerturbedRun(eps=0.1, T=0.5, dt=dt)
        traj = solve_perturbed(u0, v0, params, run)
        mid = len(traj) // 2
        res_e.append(max(energy_balance_residual(traj, i) for i in range(mid - 5, mid + 5)))
        res_v.append(max(v_balance_residual(traj, i) for i in range(mid - 5, mid + 5)))
    se, sv = fit_slope(dts, res_e), fit_slope(dts, res_v)
    _report(6, "balance identities refinement order", se >= 1.8 and sv >= 1.8,
            f"energy order {se:.2f}, long-wave order {sv:.2f}")


def test_criterion_07_growth_bounds():
    """sigma=2 equality case 1/(2-t) within 1e-6 on [0, 0.9]; sigma=1
    constant case to 1e-10; inadmissible horizons rejected."""
    spec2 = GronwallSpec(C=0.5, sigma=2.0, a=0.0, b=1.0, t0=0.0, horizon=0.95)
    worst2 = max(abs(gronwall_bound(spec2, float(t)) - 1.0 / (2.0 - t))
                 for t in np.linspace(0.0, 0.9, 19))
    spec1 = GronwallSpec(C=1.7, sigma=1.0, a=0.6, b=0.4, t0=0.0, horizon=1.0)
    worst1 = max(abs(gronwall_bound(spec1, float(t)) - 1.7 * np.exp(t))
                 for t in np.linspace(0.0, 1.0, 11))
    rejected = False
    try:
        gronwall_bound(GronwallSpec(C=0.5, sigma=2.0, a=0.0, b=1.0, horizon=3.0), 2.5)
    except GronwallInadmissibleError:
        rejected = True
    _report(7, "growth-bound evaluator", worst2 <= 1e-6 and worst1 <= 1e-10 and rejected,
            f"sigma2 err {worst2:.1e}, sigma1 err {worst1:.1e}")


def test_criterion_08_entropy_remainder():
    """Pointwise level-set identity and R_k >= 0 on 50 crossing cases
    within 1e-6."""
    grid = make_grid(16.0, 512)
    g = g_tanh_blend(0.2, 1.0)
    rng = np.random.default_rng(88)
    profiles = [
        lambda x, a=a, w=w, c=c: a * np.tanh(2.0 * np.sin(np.pi * (x - c) / 16.0)) * np.exp(-((x - c) / (4 * w)) ** 2)
        for a, w, c in zip(rng.uniform(0.4, 0.8, 5), rng.uniform(0.8, 1.4, 5),
                           rng.uniform(-3, 3, 5))
    ]
    worst = 0.0
    min_R = np.inf
    cases = 0
    for prof in profiles:
        if cases >= 50:
            break
        v = Field.from_function(grid, prof, flavor="real")
        spl = PeriodicInterpolant(grid, v.values)
        span = float(np.max(v.values) - np.min(v.values))
        for frac in (0.25, 0.4, 0.55, 0.7, 0.8):
            if cases >= 50:
                break
            k = float(np.min(v.values) + span * frac)
            cross = _crossings(v, k)
            if not cross:
                continue
            gk = float(g.fn(np.array([k]))[0])
            w_fn = lambda y: np.abs(g.fn(spl(y)) - gk)
            gv_fn = lambda y: g.fn(spl(y))
            s = float(rng.choice([0.6, 0.75, 0.9]))
            for x in rng.uniform(-14.0, 14.0, 6):
                vx = float(spl(np.array([x]))[0])
                if abs(vx - k) < 0.05 * span:
                    continue
                lhs = frac_power_pointwise(w_fn, float(x), grid, s,
                                           _kink_radii(float(x), cross, 32.0))
                rhs = np.sign(vx - k) * frac_power_pointwise(gv_fn, float(x), grid, s, [])
                R = remainder_Rk(v, g, k, s, float(x))
                worst = max(worst, abs(lhs - (rhs - R)))
                min_R = min(min_R, R)
                cases += 1
                if cases >= 50:
                    break
    _report(8, "entropy remainder identity", worst <= 1e-6 and min_R >= -1e-12 and cases >= 50,
            f"{cases} cases, worst residual {worst:.1e}, min R {min_R:.1e}")


def test_criterion_09_vanishing_viscosity():
    """eps ladder {0.2, 0.1, 0.05, 0.025} on the canonical run: strictly
    decreasing consecutive space-time L2 differences for u and v."""
    grid = make_grid(16.0, 512)
    u0, v0 = canonical_data(grid)
    run = PerturbedRun(eps=0.1, T=1.0, dt=1e-3, store_every=5)
    table = vanishing_viscosity_sweep(u0, v0, canonical_params(),
                                      [0.2, 0.1, 0.05, 0.025], run)
    u_dec, v_dec = table.strictly_decreasing()
    _report(9, "vanishing-viscosity Cauchy table", u_dec and v_dec,
            f"u diffs {['%.2e' % d for d in table.u_diffs]}, "
            f"v diffs {['%.2e' % d for d in table.v_diffs]}")


def test_criterion_10_smallness_frontier():
    """alpha = 0 always satisfied; the analytic left side is monotone in
    |alpha|; no empirical blow-up strictly inside the satisfied region."""
    grid = make_grid(16.0, 256)
    u0, v0 = canonical_data(grid)
    any_data_ok = True
    for amp in (0.1, 1.0, 10.0):
        big_u = Field.from_function(grid, lambda x: amp * np.exp(-(x**2)))
        params0 = SystemParams(alpha=0.0, beta=0.3, s=0.7, g=g_tanh_blend(0.2, 1.0))
        any_data_ok &= smallness_condition(params0, big_u, v0, 1.0, 0.1).satisfied

    alphas = (0.0, 0.02, 0.05, 0.1, 0.2, 0.4)
    lhs_values = []
    blowups = {}
    for alpha in alphas:
        params = SystemParams(alpha=alpha, beta=0.1, s=0.75, g=g_tanh_blend(0.2, 1.0))
        rep = smallness_condition(params, u0, v0, 0.3, 0.1)
        lhs_values.append(rep.lhs)
        run = PerturbedRun(eps=0.1, T=0.3, dt=2e-3)
        try:
            solve_perturbed(u0, v0, params, run)
            blowups[alpha] = False
        except (BlowupError, SolverError):
            blowups[alpha] = True
    monotone = all(b >= a for a, b in zip(lhs_values, lhs_values[1:]))
    inside_ok = all(
        not blowups[alpha]
        for alpha, lhs in zip(alphas, lhs_values)
        if smallness_condition(
            SystemParams(alpha=alpha, beta=0.1, s=0.75, g=g_tanh_blend(0.2, 1.0)),
            u0, v0, 0.3, 0.1).satisfied
    )
    _report(10, "smallness frontier", any_data_ok and monotone and inside_ok,
            f"lhs monotone over alpha grid, no blow-up inside frontier")


def test_criterion_11_weak_residuals():
    """Exact linear solutions give residuals <= 1e-8; the nonlinear
    canonical residual shrinks at the integrator's order."""
    grid = make_grid(16.0, 128)
    u0 = Field.from_function(
        grid, lambda x: 0.4 * np.exp(-(x**2)) * np.exp(1j * 3 * np.pi / 16 * x))
    v0 = Field.from_function(grid, lambda x: 0.4 * np.exp(-((x / 1.5) ** 2)), "real")
    lin = SystemParams(alpha=0.0, beta=0.0, s=0.75, g=g_zero(), gamma=0.0)
    run = PerturbedRun(eps=0.1, T=1.0, dt=1e-3, eps_g=0.0)
    traj = solve_perturbed(u0, v0, lin, run)
    tfc = TestFunction(grid=grid, t_lo=-0.2, t_hi=0.75, x_center=1.0, x_width=6.0,
                       amplitude=0.8 + 0.5j)
    tfr = TestFunction(grid=grid, t_lo=-0.1, t_hi=0.8, x_center=-1.0, x_width=6.0,
                       amplitude=1.1 + 0j, flavor="real")
    lin_u = abs(weak_residual_u(traj, tfc))
    lin_v = abs(weak_residual_v(traj, tfr))

    params = canonical_params()
    tfc2 = TestFunction(grid=grid, t_lo=-0.1, t_hi=0.42, x_center=0.5, x_width=6.0,
                        amplitude=1.0 + 0.3j)
    tfr2 = TestFunction(grid=grid, t_lo=-0.1, t_hi=0.42, x_center=-0.5, x_width=6.0,
                        amplitude=0.9 + 0j, flavor="real")
    dts = (4e-3, 2e-3, 1e-3)
    ru, rv = [], []
    for dt in dts:
        rn = PerturbedRun(eps=0.1, T=0.5, dt=dt)
        tj = solve_perturbed(u0, v0, params, rn)
        ru.append(abs(weak_residual_u(tj, tfc2)))
        rv.append(abs(weak_residual_v(tj, tfr2)))
    su, sv = fit_slope(dts, ru), fit_slope(dts, rv)
    _report(11, "weak-formulation residuals",
            lin_u <= 1e-8 and lin_v <= 1e-8 and su >= 1.8 and sv >= 1.8,
            f"linear {lin_u:.1e}/{lin_v:.1e}, orders {su:.2f}/{sv:.2f}")
