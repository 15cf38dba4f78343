"""Named verification suites over the operator and estimate properties.

Each suite runs a deterministic batch of checks (fixed seed, fixed sizes)
and returns plain dicts so the CLI can print one line per check and emit a
byte-stable JSON report.  Each check and its threshold lives only here:
``tests/test_verify.py`` asserts every row, and the other tests cover the
same machinery on other inputs or with finer oracles.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import bilinear_form, coercivity_report
from .entropy import (
    TestFunction,
    _crossings,
    _kink_radii,
    frac_power_pointwise,
    kruzkov_entropy,
    quadratic_capped_entropy,
    reconstruct_entropy,
    remainder_Rk,
    entropy_flux,
    weak_residual_u,
    weak_residual_v,
)
from .fractional import (
    PeriodicInterpolant,
    cns_constant,
    frac_laplacian_singular,
    frac_laplacian_spectral,
    riesz_inverse,
)
from .grid import BLOCK_SAMPLES, Field, ZeroModeError, make_grid
from .gronwall import GronwallInadmissibleError, GronwallSpec, gronwall_bound
from .propagators import PropagatorSpec, check_heat_smoothing, heat_semigroup_apply, schrodinger_group_apply
from .sobolev import (
    _algebra_rows,
    _band_limited_rows,
    _chain_rule_rows,
    _hs_rows,
    _linf_interp_rows,
    _passes,
    _product_bound_rows,
    check_equivalence,
    hs_norm,
    norm_equivalence_constants,
    random_band_limited,
)
from .solver import (
    PerturbedRun,
    SystemParams,
    g_tanh_blend,
    g_zero,
    solve_perturbed,
)

__all__ = ["SUITES", "run_suite"]


def _check(name: str, passed: bool, **detail) -> dict:
    row = {"name": name, "passed": bool(passed)}
    row.update({k: (float(v) if isinstance(v, (int, float, np.floating)) else v) for k, v in detail.items()})
    return row


# ---------------------------------------------------------------------------

def _suite_operators(seed: int) -> list[dict]:
    checks = []
    grid = make_grid(np.pi, 64)
    x = grid.x

    for kmode, s in ((3, 0.75), (5, 0.3), (7, 0.9)):
        f = Field.from_function(grid, lambda x: np.sin(kmode * x), flavor="real")
        out = frac_laplacian_spectral(f, s)
        expected = kmode ** (2 * s) * np.sin(kmode * x)
        err = float(np.max(np.abs(out.values - expected)) / kmode ** (2 * s))
        checks.append(_check(f"eigenfunction_k{kmode}_s{s}", err <= 1e-12, rel_err=err))

    const = Field.from_function(grid, lambda x: np.ones_like(x), flavor="real")
    out = frac_laplacian_spectral(const, 0.6)
    checks.append(_check("constant_annihilated", float(np.max(np.abs(out.values))) <= 1e-14))

    delta = 1e-3
    s = 1.0 - delta
    g20 = make_grid(20.0, 1024)
    k = np.abs(g20.k)
    nz = (k > 0) & (np.arange(g20.n_points) != g20.nyquist_index)
    rel = np.abs(k[nz] ** (2 * s) - k[nz] ** 2) / k[nz] ** 2
    bound = 10.0 * delta * np.log(np.max(k))
    checks.append(_check("limit_consistency_s_near_1", float(np.max(rel)) <= bound,
                         max_rel=float(np.max(rel)), bound=bound))

    rng = np.random.default_rng(seed)
    f = random_band_limited(grid, rng, flavor="real")
    out = frac_laplacian_spectral(f, 0.7)
    checks.append(_check("real_preserved", out.flavor == "real"))
    shifted = frac_laplacian_spectral(f.translated(5), 0.7)
    comm = float(np.max(np.abs(shifted.values - out.translated(5).values)))
    checks.append(_check("translation_commutes", comm <= 1e-12, max_err=comm))

    f = random_band_limited(grid, rng)
    round_trip = riesz_inverse(frac_laplacian_spectral(f, 0.6), 0.6)
    err = float(np.max(np.abs(round_trip.values - (f.values - f.mean()))))
    checks.append(_check("riesz_roundtrip", err <= 1e-12, max_err=err))
    try:
        riesz_inverse(const, 0.6)
        checks.append(_check("riesz_zero_mode_rejected", False))
    except ZeroModeError:
        checks.append(_check("riesz_zero_mode_rejected", True))

    c_half = cns_constant(0.5)
    checks.append(_check("normalization_half", abs(c_half - 1.0 / np.pi) <= 1e-8,
                         value=c_half))

    gX = make_grid(20.0, 1024)
    gauss = Field.from_function(gX, lambda x: np.exp(-(x**2)), flavor="real")
    spec_route = frac_laplacian_spectral(gauss, 0.6)
    sing_route = frac_laplacian_singular(gauss, 0.6)
    gap = float(np.max(np.abs(spec_route.values - sing_route.values)))
    checks.append(_check("cross_definition_gaussian", gap <= 1e-5, max_abs_gap=gap))

    odd = Field.from_function(gX, lambda x: x * np.exp(-(x**2)), flavor="real")
    sing_odd = frac_laplacian_singular(odd, 0.6)
    at_zero = float(abs(sing_odd.values[gX.n_points // 2]))
    checks.append(_check("odd_symmetry_origin", at_zero <= 1e-8, value=at_zero))
    return checks


def _suite_inequalities(seed: int) -> list[dict]:
    checks = []
    rng = np.random.default_rng(seed)
    gX = make_grid(20.0, 512)
    for width, s in ((1.0, 0.6), (2.0, 0.75), (0.7, 0.9)):
        f = Field.from_function(gX, lambda x: np.exp(-((x / width) ** 2)), flavor="real")
        rep = check_equivalence(f, s)
        rel = abs(rep.margin) / max(rep.rhs, 1e-30)
        checks.append(_check(f"equivalence_w{width}_s{s}", rel <= 1e-2, rel_err=rel))

    grid = make_grid(16.0, 256)
    m_s, M_s = norm_equivalence_constants(grid, 0.75)
    sandwich_ok = True
    worst = 0.0
    # The ensembles are evaluated BLOCK_SAMPLES members at a time, drawn in
    # the per-member order f (then fr, g2) of random_band_limited calls.
    for start in range(0, 100, BLOCK_SAMPLES):
        (f,) = _band_limited_rows(grid, rng, min(BLOCK_SAMPLES, 100 - start), ("complex",))
        l2, hs, frac = _hs_rows(f, 0.75)
        split = l2 + frac
        lo, hi = m_s * split, M_s * split
        sandwich_ok &= bool(np.all(lo <= hs * (1 + 1e-12)) and np.all(hs <= hi * (1 + 1e-12)))
        worst = max(worst, float(np.max(lo - hs)), float(np.max(hs - hi)))
    checks.append(_check("norm_equivalence_sandwich", sandwich_ok, worst_excess=worst))

    for s in (0.6, 0.75, 0.9):
        n_viol = 0
        max_ratio = 0.0
        for start in range(0, 200, BLOCK_SAMPLES):
            f, fr, g2 = _band_limited_rows(grid, rng, min(BLOCK_SAMPLES, 200 - start),
                                           ("complex", "real", "complex"))
            for lhs, rhs in (_linf_interp_rows(f, s), _product_bound_rows(f, s),
                             _chain_rule_rows(np.tanh, 1.0, fr, s)):
                n_viol += int(np.count_nonzero(~_passes(rhs - lhs)))
            max_ratio = max(max_ratio, float(np.max(_algebra_rows(f, g2, s))))
        checks.append(_check(f"sharp_inequalities_s{s}", n_viol == 0,
                             violations=n_viol, algebra_max_ratio=max_ratio))

    # sign checks on rough composites
    v = random_band_limited(grid, rng, flavor="real")
    w = random_band_limited(grid, rng, flavor="real")
    b_vv = bilinear_form(v, v, 0.6)
    checks.append(_check("bilinear_positive", b_vv >= -1e-6, value=b_vv))
    tanh_w = Field(grid, np.tanh(w.values), flavor="real")
    b_gw = bilinear_form(tanh_w, w, 0.6)
    checks.append(_check("bilinear_monotone_composition", b_gw >= -1e-6, value=b_gw))
    rep = coercivity_report(v, g_tanh_blend(0.5, 0.6), 0.75)
    checks.append(_check("porous_coercivity", rep.passed, margin=rep.margin))
    return checks


def _suite_propagators(seed: int) -> list[dict]:
    checks = []
    rng = np.random.default_rng(seed)
    grid = make_grid(16.0, 256)
    p = PropagatorSpec(eps=0.1, s=0.75)
    u = random_band_limited(grid, rng)
    worst_iso = 0.0
    for t in np.linspace(-2.0, 2.0, 9):
        worst_iso = max(worst_iso, abs(schrodinger_group_apply(u, t, p).norm_l2() - u.norm_l2()))
    checks.append(_check("group_isometry", worst_iso <= 1e-12 * u.norm_l2(), worst=worst_iso))

    one = schrodinger_group_apply(schrodinger_group_apply(u, 0.3, p), 0.45, p)
    two = schrodinger_group_apply(u, 0.75, p)
    gap = float(np.max(np.abs(one.values - two.values)))
    checks.append(_check("group_law", gap <= 1e-12, max_err=gap))

    rep_before = hs_norm(u, 0.75)
    rep_after = hs_norm(schrodinger_group_apply(u, 0.6, p), 0.75)
    hs_gap = abs(rep_after.hs_fourier - rep_before.hs_fourier)
    checks.append(_check("hs_invariance", hs_gap <= 1e-10, gap=hs_gap))

    # symmetry in the bilinear H^s pairing: the group moves across slots
    w = random_band_limited(grid, rng)
    bessel = (1 + grid.k**2) ** 0.75
    lhs = np.sum(bessel * schrodinger_group_apply(u, 0.4, p).spectrum * w.spectrum)
    rhs = np.sum(bessel * u.spectrum * schrodinger_group_apply(w, 0.4, p).spectrum)
    sym_gap = abs(lhs - rhs) / max(abs(lhs), 1e-30)
    checks.append(_check("hs_symmetry", sym_gap <= 1e-12, rel_gap=float(sym_gap)))

    v = random_band_limited(grid, rng, flavor="real")
    prev = v.norm_h1()
    mono = True
    contract = True
    for t in np.linspace(0.2, 3.0, 8):
        wv = heat_semigroup_apply(v, t, p)
        contract &= wv.norm_l2() <= v.norm_l2() * (1 + 1e-14)
        mono &= wv.norm_h1() <= prev * (1 + 1e-14)
        prev = wv.norm_h1()
    checks.append(_check("heat_contraction", contract))
    checks.append(_check("heat_h1_monotone", mono))

    comp = heat_semigroup_apply(heat_semigroup_apply(v, 0.3, p), 0.7, p)
    direct = heat_semigroup_apply(v, 1.0, p)
    sg_gap = float(np.max(np.abs(comp.values - direct.values)))
    checks.append(_check("semigroup_law", sg_gap <= 1e-13, max_err=sg_gap))

    smooth_ok = True
    worst_margin = np.inf
    for t in np.logspace(-4, 1, 12):
        rep = check_heat_smoothing(v, float(t), p)
        smooth_ok &= rep.passed
        worst_margin = min(worst_margin, rep.margin / max(rep.rhs, 1e-30))
    checks.append(_check("heat_smoothing", smooth_ok, worst_rel_margin=float(worst_margin)))

    kappa = np.linspace(1e-4, 10.0, 20001)
    modewise = float(np.max(kappa * np.exp(-(kappa**2))) * np.sqrt(np.pi))
    checks.append(_check("smoothing_modewise_oracle", modewise <= 1.0, sup=modewise))
    return checks


def _suite_gronwall(seed: int) -> list[dict]:
    checks = []
    spec = GronwallSpec(C=0.5, sigma=2.0, a=0.0, b=1.0, t0=0.0, horizon=0.95)
    worst = max(abs(gronwall_bound(spec, t) - 1.0 / (2.0 - t)) for t in np.linspace(0.0, 0.9, 10))
    checks.append(_check("sigma2_equality_case", worst <= 1e-6, worst=worst))

    s1 = GronwallSpec(C=2.0, sigma=1.0, a=0.7, b=0.3, t0=0.0, horizon=1.0)
    err = abs(gronwall_bound(s1, 1.0) - 2.0 * np.exp(1.0))
    checks.append(_check("sigma1_constant_case", err <= 1e-10, err=err))

    s0 = GronwallSpec(C=1.0, sigma=0.0, a=1.0, b=0.0, t0=0.0, horizon=1.0)
    err0 = abs(gronwall_bound(s0, 1.0) - np.exp(1.0))
    checks.append(_check("sigma0_linear_case", err0 <= 1e-9, err=err0))

    try:
        bad = GronwallSpec(C=0.5, sigma=2.0, a=0.0, b=1.0, t0=0.0, horizon=3.0)
        gronwall_bound(bad, 2.5)
        checks.append(_check("inadmissible_rejected", False))
    except GronwallInadmissibleError:
        checks.append(_check("inadmissible_rejected", True))

    base = GronwallSpec(C=1.0, sigma=0.5, a=0.4, b=0.2, t0=0.0, horizon=1.0)
    up_c = GronwallSpec(C=1.5, sigma=0.5, a=0.4, b=0.2, t0=0.0, horizon=1.0)
    up_a = GronwallSpec(C=1.0, sigma=0.5, a=0.6, b=0.2, t0=0.0, horizon=1.0)
    up_b = GronwallSpec(C=1.0, sigma=0.5, a=0.4, b=0.5, t0=0.0, horizon=1.0)
    v0 = gronwall_bound(base, 1.0)
    mono = (gronwall_bound(up_c, 1.0) >= v0 and gronwall_bound(up_a, 1.0) >= v0
            and gronwall_bound(up_b, 1.0) >= v0)
    checks.append(_check("monotone_in_data", mono))
    return checks


def _suite_entropy(seed: int) -> list[dict]:
    checks = []
    eta = quadratic_capped_entropy(1.0)
    checks.append(_check("reconstruct_unit", abs(reconstruct_entropy(eta, 0.0) - 1.0) <= 1e-12))

    g = g_tanh_blend(0.2, 1.0)
    kz = kruzkov_entropy(0.3)
    q = entropy_flux(kz, g, 0.8)
    expected = abs(float(g.fn(np.array([0.8]))[0]) - float(g.fn(np.array([0.3]))[0]))
    checks.append(_check("kruzkov_flux", abs(q - expected) <= 1e-14))

    grid = make_grid(16.0, 512)
    v = Field.from_function(grid, lambda x: 0.6 * np.tanh(2.0 * np.sin(np.pi * x / 16.0)),
                            flavor="real")
    s = 0.75
    k = 0.25
    spl = PeriodicInterpolant(grid, v.values)
    gk = float(g.fn(np.array([k]))[0])
    cross = _crossings(v, k)
    w_fn = lambda y: np.abs(g.fn(spl(y)) - gk)
    gv_fn = lambda y: g.fn(spl(y))
    worst = 0.0
    r_min = np.inf
    for x in (-6.0, -2.0, 1.5, 5.0):
        lhs = frac_power_pointwise(w_fn, x, grid, s, _kink_radii(x, cross, 32.0))
        vx = float(spl(np.array([x]))[0])
        rhs = np.sign(vx - k) * frac_power_pointwise(gv_fn, x, grid, s, [])
        R = remainder_Rk(v, g, k, s, x)
        worst = max(worst, abs(lhs - (rhs - R)))
        r_min = min(r_min, R)
    checks.append(_check("remainder_identity", worst <= 1e-6, worst=worst))
    checks.append(_check("remainder_nonnegative", r_min >= -1e-12, min_R=float(r_min)))
    return checks


def _suite_weakform(seed: int) -> list[dict]:
    checks = []
    grid = make_grid(16.0, 128)
    u0 = Field.from_function(grid, lambda x: 0.4 * np.exp(-(x**2)) * np.exp(1j * 3 * np.pi / 16 * x))
    v0 = Field.from_function(grid, lambda x: 0.4 * np.exp(-((x / 1.5) ** 2)), flavor="real")
    params = SystemParams(alpha=0.0, beta=0.0, s=0.75, g=g_zero(), gamma=0.0)
    run = PerturbedRun(eps=0.1, T=1.0, dt=1e-3, eps_g=0.0)
    traj = solve_perturbed(u0, v0, params, run)
    tfc = TestFunction(grid=grid, t_lo=-0.2, t_hi=0.75, x_center=1.0, x_width=6.0,
                       amplitude=0.8 + 0.5j)
    tfr = TestFunction(grid=grid, t_lo=-0.1, t_hi=0.8, x_center=-1.0, x_width=6.0,
                       amplitude=1.1 + 0j, flavor="real")
    ru = abs(weak_residual_u(traj, tfc))
    rv = abs(weak_residual_v(traj, tfr))
    checks.append(_check("linear_exact_u", ru <= 1e-8, residual=ru))
    checks.append(_check("linear_exact_v", rv <= 1e-8, residual=rv))
    del traj  # not held through the second solve: it sets the suite's peak memory

    run_long = PerturbedRun(eps=0.1, T=2.0, dt=2e-3, eps_g=0.0)
    traj2 = solve_perturbed(u0, v0, params, run_long)
    tf_late = TestFunction(grid=grid, t_lo=1.2, t_hi=1.6, x_center=0.0, x_width=4.0,
                           amplitude=1 + 0j)
    r_disj = abs(weak_residual_u(traj2, tf_late))
    checks.append(_check("disjoint_support_zero", r_disj <= 1e-10, residual=r_disj))

    sp = SystemParams(alpha=0.1, beta=0.1, s=0.75, g=g_tanh_blend(0.2, 1.0))
    prev_u = prev_v = np.inf
    dec = True
    for dt in (4e-3, 2e-3, 1e-3):
        rn = PerturbedRun(eps=0.1, T=0.5, dt=dt)
        tj = solve_perturbed(u0, v0, sp, rn)
        ru = abs(weak_residual_u(tj, TestFunction(grid=grid, t_lo=-0.1, t_hi=0.4, x_center=0.5,
                                                  x_width=6.0, amplitude=1.0 + 0.3j)))
        rv = abs(weak_residual_v(tj, TestFunction(grid=grid, t_lo=-0.1, t_hi=0.4, x_center=-0.5,
                                                  x_width=6.0, amplitude=0.9 + 0j, flavor="real")))
        dec &= ru < prev_u and rv < prev_v
        prev_u, prev_v = ru, rv
    checks.append(_check("nonlinear_residual_refinement", dec,
                         final_u=prev_u, final_v=prev_v))
    return checks


SUITES = {
    "operators": _suite_operators,
    "inequalities": _suite_inequalities,
    "propagators": _suite_propagators,
    "gronwall": _suite_gronwall,
    "entropy": _suite_entropy,
    "weakform": _suite_weakform,
}


def run_suite(name: str, seed: int = 1234) -> dict:
    """Run one suite (or 'all'); returns {suite, seed, checks, passed}."""
    if name == "all":
        checks = []
        for key in SUITES:
            sub = run_suite(key, seed)
            for row in sub["checks"]:
                row = dict(row)
                row["name"] = f"{key}.{row['name']}"
                checks.append(row)
        return {"suite": "all", "seed": seed, "checks": checks,
                "passed": all(c["passed"] for c in checks)}
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    checks = SUITES[name](seed)
    return {"suite": name, "seed": seed, "checks": checks,
            "passed": all(c["passed"] for c in checks)}
