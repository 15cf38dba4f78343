"""Independent oracles the tests check the package against.

Nothing here reuses the code paths under test: the split-step integrator is
a different scheme, the normalization constant comes from special-function
closed forms and an independent high-order quadrature, and the growth bound
oracle integrates the equality-case ODE with an adaptive Runge-Kutta, and
the trajectory diagnostics are evaluated one sample at a time from Field
objects instead of by the batched pass, and the pairing quadratures sum
their outer nodes one at a time over spline values shifted by each node
instead of as lag sums over coefficient differences, and the weak-form
pairings of a stored trajectory visit their samples one at a time instead of
taking the live ones in blocks, and the Sobolev inequality
ensembles of the verify suite check one drawn member at a time instead of
row blocks, and the smallness condition multiplies out its powers at 60
digits instead of summing their logarithms in floating point, and the
Picard step runs on full N-point spectra with the dealias mask multiplied
into its weights instead of on the band rows a sample stores, and the
padded sup norm pads and transforms a whole block at once instead of one
row at a time.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import gamma as sp_gamma

from fswl import entropy as en
from fswl import fractional as fr
from fswl import sobolev as sb
from fswl import solver as sv
from fswl.grid import Field
from fswl.propagators import EXPONENT_A, EXPONENT_B


def cns_closed_form(s: float) -> float:
    """C_{1,s} = s 4^s Gamma(1/2 + s) / (sqrt(pi) Gamma(1 - s))."""
    return s * 4.0**s * sp_gamma(0.5 + s) / (np.sqrt(np.pi) * sp_gamma(1.0 - s))


def cns_mpmath(s: float) -> float:
    """Second, independent quadrature of the defining integral (tanh-sinh on
    the singular part, dedicated oscillatory rule on the cosine tail)."""
    import mpmath

    mpmath.mp.dps = 30
    p = 1 + 2 * s
    inner = mpmath.quad(lambda z: (1 - mpmath.cos(z)) / z**p, [0, 1])
    power_tail = mpmath.mpf(1) / (2 * s)
    osc = mpmath.quadosc(
        lambda z: mpmath.cos(z) / z**p, [1, mpmath.inf], period=2 * mpmath.pi
    )
    return float(1 / (2 * (inner + power_tail - osc)))


def split_step_cubic(u0_spec, grid, s, eps, a, dt, n_steps, gamma=1.0):
    """Strang split-step integrator for the decoupled cubic dispersive
    equation: exact linear half steps around an exact nonlinear phase
    rotation.  A different discretization from the midpoint-Duhamel scheme,
    so agreement is evidence, not tautology."""
    omega = grid.frac_symbol(s) + eps**a * grid.k**2
    half = np.exp(-1j * omega * dt / 2.0)
    u = u0_spec.copy()
    for _ in range(n_steps):
        u = half * u
        phys = grid.from_spectrum(u)
        phys = phys * np.exp(-1j * gamma * np.abs(phys) ** 2 * dt)
        u = grid.to_spectrum(phys)
        u = half * u
    return u


class FullSpectrumStepper:
    """The midpoint-Duhamel Picard step of ``solver._Stepper`` on full
    spectra: u as its N-point spectrum and v as its half spectrum
    j = 0..N/2, the 2/3-rule mask multiplied into the two Duhamel weights and
    the gamma channel instead of a state kept on the band.  Same
    multipliers, sweep, increment extrapolation and stopping rule, so its
    states must agree with the band stepper's bit for bit."""

    def __init__(self, grid, params, run):
        self.grid, self.params, self.run = grid, params, run
        N, nh = grid.n_points, grid.n_points // 2 + 1
        k2 = grid.k**2
        self.omega = grid.frac_symbol(params.s) + run.eps**EXPONENT_A * k2
        self.heat = run.eps**EXPONENT_B * k2[:nh]
        self.half_symbol = grid.frac_symbol(0.5 * params.s)[:nh]
        self.mask = grid.dealias_mask()
        v_weight = 2.0 * (1.0 + k2[:nh])
        v_weight[[0, -1]] *= 0.5
        self._weight = grid.measure * np.repeat(np.concatenate((1.0 + k2, v_weight)), 2)
        self._split = np.array([0, 2 * N])
        self.g_eff = params.g.regularized(run.g_regularization)
        self._history_dt = None
        self._history = []

    def _multipliers(self, dt):
        mask_h = self.mask[: len(self.heat)]
        om, heat = self.omega, self.heat
        return (
            np.exp(-1j * om * dt),
            0.5 * np.exp(-1j * om * 0.5 * dt),
            0.5 * np.exp(+1j * om * 0.5 * dt),
            -1j * dt * np.exp(-1j * om * 0.5 * dt) * self.mask,
            np.exp(-heat * dt),
            0.5 * np.exp(-heat * 0.5 * dt),
            0.5 * np.exp(+heat * 0.5 * dt),
            dt * np.exp(-heat * 0.5 * dt) * self.half_symbol * mask_h,
            self.params.gamma * mask_h,
        )

    def _distance(self, du, dv):
        flat = np.concatenate((du, dv)).view(np.float64)
        return float(np.sum(np.sqrt(np.add.reduceat(flat * flat * self._weight, self._split))))

    def step(self, u_spec, v_half, dt):
        p, grid = self.params, self.grid
        Uf, Uh2, Ub2, cu, Wf, Wh2, Wb2, cv, gamma_mask = self._multipliers(dt)
        u_fwd_half, v_fwd_half = Uh2 * u_spec, Wh2 * v_half
        au, av = Uf * u_spec, Wf * v_half
        if dt != self._history_dt:
            self._history, self._history_dt = [], dt
        u_new, v_new = au, av
        for c, (du, dv) in zip(sv.EXTRAPOLATION_ROWS[len(self._history)], self._history):
            u_new = u_new + c * du
            v_new = v_new + c * dv
        pair = np.empty((2, grid.n_points))
        prev_dist, nondecreasing = np.inf, 0
        for sweep in range(1, sv.PICARD_MAX_ITER + 1):
            um = grid.from_spectrum(u_fwd_half + Ub2 * u_new)
            vm = grid.from_half_spectrum(v_fwd_half + Wb2 * v_new)
            pair[0] = np.abs(um) ** 2
            pair[1] = self.g_eff.fn(vm)
            dens, gv = grid.to_half_spectrum(pair)
            w = grid.from_half_spectrum(dens * gamma_mask) + p.alpha * vm
            Fu = grid.to_spectrum(w * um)
            u_next = cu * Fu + au
            v_next = (p.beta * dens - gv) * cv + av
            dist = self._distance(u_next - u_new, v_next - v_new)
            if not np.isfinite(dist):
                raise sv.BlowupError(f"non-finite Picard distance at dt={dt:.3e}")
            u_new, v_new = u_next, v_next
            if dist < sv.PICARD_TOL:
                self._history = [(u_new - au, v_new - av)] + self._history[: sv.HISTORY_DEPTH - 1]
                return u_new, v_new, sweep
            nondecreasing = nondecreasing + 1 if dist >= prev_dist else 0
            if nondecreasing >= 3:
                raise sv.PicardDivergenceError(f"no contraction at dt={dt:.3e}")
            prev_dist = dist
        raise sv.SolverError(f"Picard iteration exceeded {sv.PICARD_MAX_ITER} sweeps")


def full_spectrum_rows(u0, v0, params, run, dts) -> np.ndarray:
    """Band rows of a run marched by FullSpectrumStepper from the masked
    data through sub-steps of the sizes ``dts`` (each run.dt / 2**j): the
    row at t = 0 and one at the end of every base step, the samples of
    ``store_every = 1``."""
    grid = u0.grid
    mask = grid.dealias_mask()
    band = np.flatnonzero(mask)
    K = len(band) // 2
    u = (u0.spectrum * mask).astype(np.complex128)
    v = (v0.spectrum * mask).astype(np.complex128)[: grid.n_points // 2 + 1]
    stepper = FullSpectrumStepper(grid, params, run)
    rows = [np.concatenate((u[band], v[: K + 1]))]
    pos = 0.0  # in base steps; dt / run.dt is a power of two, so exact
    for dt in dts:
        u, v, _ = stepper.step(u, v, dt)
        pos += dt / run.dt
        if pos == round(pos):
            rows.append(np.concatenate((u[band], v[: K + 1])))
    return np.array(rows)


def growth_ode_solution(C, sigma, a_fn, b_fn, t0, t_eval):
    """Equality case eta' = a eta + b eta^sigma, eta(t0) = C, by RK45."""

    def rhs(t, y):
        return [a_fn(t) * y[0] + b_fn(t) * max(y[0], 0.0) ** sigma]

    sol = solve_ivp(
        rhs,
        (t0, t_eval[-1]),
        [C],
        t_eval=t_eval,
        rtol=1e-11,
        atol=1e-13,
        method="RK45",
        max_step=(t_eval[-1] - t0) / 50.0,
    )
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y[0]


def heat_exact(v0_spec, grid, eps, b, t):
    """Exact heat-flow spectrum at time t."""
    return v0_spec * np.exp(-(eps**b) * grid.k**2 * t)


def fit_slope(dts, residuals) -> float:
    """Least-squares order of convergence from (dt, residual) pairs."""
    return float(np.polyfit(np.log(np.asarray(dts)), np.log(np.asarray(residuals)), 1)[0])


# ---------------------------------------------------------------------------
# Trajectory diagnostics, one stored sample at a time.  These are the
# per-sample formulas the batched pass in fswl.diagnostics replaces; they
# work on Field objects (values and cached spectra) and loop in Python.
# ---------------------------------------------------------------------------

def sample_fields(traj, i):
    """(u, v) Fields of stored sample i: u from its spectrum, v the real part
    of the samples of its spectrum."""
    grid = traj.grid
    u_spec, v_spec = traj.spectra(i)
    u = Field.from_spectrum(grid, u_spec, flavor="complex")
    v = Field(grid, grid.from_spectrum(v_spec).real, flavor="real")
    return u, v


def _weighted_sq(grid, spec, weights) -> float:
    return float(grid.measure * np.sum(weights * np.abs(spec) ** 2))


def _integral(grid, values) -> float:
    return float(grid.dx * np.real(np.sum(values)))


def _frac_half(grid, spec, s):
    return grid.from_spectrum(grid.frac_symbol(0.5 * s) * spec)


def _padded_sup(field, pad: int = 8) -> float:
    N = field.grid.n_points
    fine = np.zeros(pad * N, dtype=np.complex128)
    fine[: N // 2] = field.spectrum[: N // 2]
    fine[-(N // 2):] = field.spectrum[-(N // 2):]
    return float(np.max(np.abs(np.fft.ifft(fine * pad * N))))


def sup_norm_batched(grid, coeffs):
    """``GridSpec.sup_norm`` with every row of ``coeffs`` padded to 8N points
    and inverse-transformed in one batched call."""
    N = grid.n_points
    M = 8 * N
    half = N // 2
    fine = np.zeros(coeffs.shape[:-1] + (M,), dtype=np.complex128)
    fine[..., :half] = coeffs[..., :half] * M
    fine[..., -half:] = coeffs[..., -half:] * M
    return np.max(np.abs(np.fft.ifft(fine)), axis=-1)


def record_fields(u, v, params, run) -> dict:
    """Pointwise-in-time diagnostics of one (u, v) state."""
    grid = u.grid
    s = params.s
    frac_u = _weighted_sq(grid, u.spectrum, grid.frac_symbol(s))
    grad_u = _weighted_sq(grid, u.spectrum, grid.k**2)
    u4 = u.norm_l4_4()
    coupling = _integral(grid, v.values * np.abs(u.values) ** 2)
    return {
        "mass": u.norm_l2() ** 2,
        "energy": frac_u + run.eps**EXPONENT_A * grad_u + 0.5 * u4 + params.alpha * coupling,
        "frac_grad_u_sq": frac_u,
        "grad_u_sq": grad_u,
        "u_l4_4": u4,
        "v_l2": v.norm_l2(),
        "v_sup": _padded_sup(v),
        "grad_v_sq": _weighted_sq(grid, v.spectrum, grid.k**2),
    }


def _frac_dens_and_gv(traj, i):
    params, run, grid = traj.params, traj.run, traj.grid
    u, v = sample_fields(traj, i)
    dens = np.abs(u.values) ** 2
    dens_spec = grid.to_spectrum(dens)
    frac_dens = _frac_half(grid, dens_spec, params.s).real
    g_eff = params.g.regularized(run.g_regularization)
    frac_gv = _frac_half(grid, grid.to_spectrum(g_eff.fn(v.values)), params.s).real
    return u, v, dens, dens_spec, frac_dens, frac_gv


def energy_rhs(traj, i) -> float:
    """alpha beta int (-D)^{s/2}(|u|^2) |u|^2 - alpha int |u|^2 (-D)^{s/2} g_eps(v)
    - alpha eps^b int d_x|u|^2 d_x v at sample i."""
    params, run, grid = traj.params, traj.run, traj.grid
    u, v, dens, dens_spec, frac_dens, frac_gv = _frac_dens_and_gv(traj, i)
    d = grid.deriv_symbol()
    ddens = grid.from_spectrum(d * dens_spec).real
    dv = grid.from_spectrum(d * v.spectrum).real
    return (
        params.alpha * params.beta * _integral(grid, frac_dens * dens)
        - params.alpha * _integral(grid, dens * frac_gv)
        - params.alpha * run.eps**EXPONENT_B * _integral(grid, ddens * dv)
    )


def v_balance_terms(traj, i) -> float:
    """int (-D)^{s/2} g_eps(v) v + eps^b ||d_x v||^2 - beta int (-D)^{s/2}(|u|^2) v."""
    params, run, grid = traj.params, traj.run, traj.grid
    u, v, dens, dens_spec, frac_dens, frac_gv = _frac_dens_and_gv(traj, i)
    return (
        _integral(grid, frac_gv * v.values)
        + run.eps**EXPONENT_B * _weighted_sq(grid, v.spectrum, grid.k**2)
        - params.beta * _integral(grid, frac_dens * v.values)
    )


def dt_negative_norm(traj, i) -> tuple[float, float]:
    """H^{-1} norms of the backward difference quotients at sample i."""
    grid = traj.grid
    dt = traj.times[i] - traj.times[i - 1]
    w = 1.0 / (1.0 + grid.k**2)
    u_specs, v_specs = traj.spectra(slice(i - 1, i + 1))
    du = (u_specs[1] - u_specs[0]) / dt
    dv = (v_specs[1] - v_specs[0]) / dt
    return np.sqrt(_weighted_sq(grid, du, w)), np.sqrt(_weighted_sq(grid, dv, w))


def _cumtrapz(y, t):
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


def theta_envelope(traj, params, run) -> dict:
    """theta(t) majorant, its tracked left side and the H(t) bound."""
    s = params.s
    recs = [record_fields(*sample_fields(traj, i), params, run) for i in range(len(traj))]
    col = lambda key: np.array([r[key] for r in recs])
    times = traj.times
    frac, grad, u4, v_l2 = col("frac_grad_u_sq"), col("grad_u_sq"), col("u_l4_4"), col("v_l2")
    grad_v, grad_u, frac_n = np.sqrt(col("grad_v_sq")), np.sqrt(grad), np.sqrt(frac)
    eps_a, eps_b = run.eps**EXPONENT_A, run.eps**EXPONENT_B
    aa, T = abs(params.alpha), run.T
    gprime_sup = params.g.regularized(run.g_regularization).M
    u0, v0 = sample_fields(traj, 0)
    u0_l2, v0_l2 = u0.norm_l2(), v0.norm_l2()
    theta0 = (1.0 + frac[0] + eps_a * grad[0] + 0.5 * u4[0]
              + _padded_sup(u0) * v0_l2 * u0_l2 + aa**2 * np.exp(T) * v0_l2**2)
    pi2s = np.pi * (2.0 * s - 1.0)
    c1 = 4.0 * aa / np.sqrt(pi2s) * gprime_sup * u0_l2 ** (1.0 - 0.5 / s)
    c2 = 8.0 * aa * abs(params.beta) / pi2s * u0_l2 ** (3.0 - 1.0 / s)
    c3 = 4.0 / np.sqrt(np.pi) * aa * eps_b * u0_l2**0.5
    c4 = 16.0 * aa**2 * params.beta**2 * np.exp(T) / pi2s * u0_l2 ** (2.0 - 1.0 / s)
    theta = (theta0
             + c1 * _cumtrapz(v_l2 * frac_n ** (1.0 + 0.5 / s), times)
             + c2 * _cumtrapz(frac_n ** (1.0 + 1.0 / s), times)
             + c3 * _cumtrapz(grad_v * grad_u**1.5, times)
             + c4 * _cumtrapz(frac_n ** (2.0 + 1.0 / s), times))
    lhs = 1.0 + frac + eps_a * grad + 0.25 * u4
    cH = 16.0 * params.beta**2 * np.exp(T) / pi2s * u0_l2 ** (2.0 - 1.0 / s)
    H = np.exp(T) * v0_l2**2 + cH * _cumtrapz((lhs - 1.0) ** (1.0 + 0.5 / s), times)
    return {"theta": theta, "lhs_theta": lhs, "H_bound": H, "v_l2_sq": v_l2**2}


def diagnose(traj) -> list[dict]:
    """Record fields of every sample, with central-difference balance
    residuals at interior samples, backward difference quotients from
    sample 1 on and the envelope columns."""
    params, run, times = traj.params, traj.run, traj.times
    recs = [record_fields(*sample_fields(traj, i), params, run) for i in range(len(traj))]
    nan = float("nan")
    for i, r in enumerate(recs):
        r.update(t=float(times[i]), energy_balance_residual=nan, v_balance_residual=nan,
                 dtu_hminus1=nan, dtv_hminus1=nan)
        if 0 < i < len(traj) - 1:
            dt = times[i + 1] - times[i]
            dE = (recs[i + 1]["energy"] - recs[i - 1]["energy"]) / (2.0 * dt)
            r["energy_balance_residual"] = abs(dE - energy_rhs(traj, i))
            dv2 = recs[i + 1]["v_l2"] ** 2 - recs[i - 1]["v_l2"] ** 2
            r["v_balance_residual"] = abs(0.5 * dv2 / (2.0 * dt) + v_balance_terms(traj, i))
        if i > 0:
            r["dtu_hminus1"], r["dtv_hminus1"] = dt_negative_norm(traj, i)
    env = theta_envelope(traj, params, run)
    for i, r in enumerate(recs):
        r.update(theta=env["theta"][i], H_bound=env["H_bound"][i])
    return recs


def _shifted_samples(coefs, grid, h: float) -> np.ndarray:
    """Spline with coefficients ``coefs`` at every grid point moved by h."""
    n = grid.n_points
    tiled = np.tile(coefs, 3)
    t = h / grid.dx
    j = math.floor(t)
    w = fr._tap_weights(t - j)
    out = 0.0
    for m in range(6):
        start = n + (j - 2 + m) % n
        out = out + w[m] * tiled[start:start + n]
    return out


def _cell_nodes(grid, h1, s):
    """Nodes h and weights of the cell-aligned outer rule, one entry a node."""
    j, u, wt = fr._outer_cells(grid, h1, s)
    return ((j[:, None] + u) * grid.dx).ravel(), wt.ravel()


def frac_laplacian_singular_loop(f, s):
    """``frac_laplacian_singular`` with the outer sum taken node by node:
    w (2f(x) - f(x+h) - f(x-h)) from two shifted spline passes per node."""
    grid, L, fx = f.grid, f.grid.half_length, f.values
    coefs = fr._bspline_coefficients(fx)
    h1 = fr._inner_cut(grid, f.spectrum)
    total = np.zeros(grid.n_points, dtype=np.complex128)
    for m, moment in fr._inner_moments(h1, s, L).items():
        total += fr._TAYLOR_COEFS[m] * fr._spectral_derivative(grid, f.spectrum, 2 * m) * moment
    for h, w in zip(*_cell_nodes(grid, h1, s)):
        total += w * (2.0 * fx - _shifted_samples(coefs, grid, h)
                      - _shifted_samples(coefs, grid, -h))
    vals = fr.cns_constant(s) * total
    return vals.real if f.flavor == "real" else vals


def pair_correlation_integral_loop(v, w, s):
    """``pair_correlation_integral`` with the outer sum taken node by node:
    the sampled product of the shifted differences at each node."""
    grid, L, dx = v.grid, v.grid.half_length, v.grid.dx
    cv = fr._bspline_coefficients(v.values)
    cw = fr._bspline_coefficients(w.values)
    h1 = fr._inner_cut(grid, v.spectrum, w.spectrum)
    total = 0.0
    for m, moment in fr._inner_moments(h1, s, L).items():
        dv = fr._spectral_derivative(grid, v.spectrum, m)
        dw = fr._spectral_derivative(grid, w.spectrum, m)
        ip = float(np.real(np.sum(dv * np.conj(dw)))) * dx
        total += (-1.0) ** (m + 1) * 2.0 / math.factorial(2 * m) * ip * moment
    for h, wt in zip(*_cell_nodes(grid, h1, s)):
        dv = _shifted_samples(cv, grid, h) - v.values
        dw = _shifted_samples(cw, grid, h) - w.values
        total += wt * float(np.real(np.sum(dv * np.conj(dw)))) * dx
    return 2.0 * total


# ---------------------------------------------------------------------------
# Trajectory pairings, one stored sample at a time.  These are the
# per-sample loops the block pass in fswl.entropy replaces; they share its
# test functions and Simpson rule.
# ---------------------------------------------------------------------------

def weak_residual_u_loop(traj, params, run, tf, perturbed=True) -> complex:
    u_specs, v_specs = traj.u_specs, traj.v_specs  # expanded once
    grid = traj.grid
    s = params.s
    dx = grid.dx
    Q = np.conj(tf.space_values())
    Q2 = np.conj(tf.space_d2())
    Qf = np.conj(tf.space_frac(s))
    times = traj.times
    P = tf.time_value(times)
    Pd = tf.time_derivative(times)

    half_sym = grid.frac_symbol(0.5 * s)
    vals = np.zeros(len(traj), dtype=np.complex128)
    for i in range(len(traj)):
        if P[i] == 0.0 and Pd[i] == 0.0:
            continue
        u = grid.from_spectrum(u_specs[i])
        v = grid.from_spectrum(v_specs[i]).real
        frac_u = grid.from_spectrum(half_sym * u_specs[i])
        a_u = dx * np.sum(u * Q)
        a_frac = dx * np.sum(frac_u * Qf)
        a_lap = dx * np.sum(u * Q2)
        a_vu = dx * np.sum(v * u * Q)
        a_cub = dx * np.sum(np.abs(u) ** 2 * u * Q)
        term = 1j * Pd[i] * a_u + P[i] * (
            a_frac + params.alpha * a_vu + params.gamma * a_cub
        )
        if perturbed:
            term -= run.eps**EXPONENT_A * P[i] * a_lap
        vals[i] = term
    total = en._simpson(vals, times)
    P0 = float(tf.time_value(0.0)[0])
    if P0 != 0.0:
        u0 = grid.from_spectrum(u_specs[0])
        total += 1j * P0 * dx * np.sum(u0 * Q)
    return complex(total)


def weak_residual_v_loop(traj, params, run, tf, perturbed=True) -> float:
    u_specs, v_specs = traj.u_specs, traj.v_specs  # expanded once
    grid = traj.grid
    s = params.s
    dx = grid.dx
    Q = tf.space_values().real
    Q2 = tf.space_d2().real
    Qf = tf.space_frac(s).real
    times = traj.times
    P = tf.time_value(times)
    Pd = tf.time_derivative(times)

    g_eff = params.g.regularized(run.g_regularization) if perturbed else params.g
    vals = np.zeros(len(traj))
    for i in range(len(traj)):
        if P[i] == 0.0 and Pd[i] == 0.0:
            continue
        u = grid.from_spectrum(u_specs[i])
        v = grid.from_spectrum(v_specs[i]).real
        term = Pd[i] * dx * np.sum(v * Q)
        term -= P[i] * dx * np.sum(g_eff.fn(v) * Qf)
        term += params.beta * P[i] * dx * np.sum(np.abs(u) ** 2 * Qf)
        if perturbed:
            term += run.eps**EXPONENT_B * P[i] * dx * np.sum(v * Q2)
        vals[i] = term
    total = en._simpson(vals, times)
    P0 = float(tf.time_value(0.0)[0])
    if P0 != 0.0:
        v0 = grid.from_spectrum(v_specs[0]).real
        total += P0 * dx * np.sum(v0 * Q)
    return float(total)


# ---------------------------------------------------------------------------
# Sobolev inequality ensembles, one member at a time.  These are the
# per-member loops of the verify inequalities suite that its row blocks
# replace; they go through the per-field check functions.
# ---------------------------------------------------------------------------

def inequality_ensembles_loop(grid, rng) -> dict:
    """The rows ``norm_equivalence_sandwich`` and ``sharp_inequalities_s*`` of
    ``fswl verify --suite inequalities``, by name, drawing from ``rng``."""
    rows = {}
    m_s, M_s = sb.norm_equivalence_constants(grid, 0.75)
    sandwich_ok = True
    worst = 0.0
    for _ in range(100):
        f = sb.random_band_limited(grid, rng)
        rep = sb.hs_norm(f, 0.75)
        split = rep.l2 + rep.frac_grad_l2
        lo, hi = m_s * split, M_s * split
        sandwich_ok &= lo <= rep.hs_fourier * (1 + 1e-12) and rep.hs_fourier <= hi * (1 + 1e-12)
        worst = max(worst, lo - rep.hs_fourier, rep.hs_fourier - hi)
    rows["norm_equivalence_sandwich"] = {"name": "norm_equivalence_sandwich",
                                         "passed": bool(sandwich_ok), "worst_excess": worst}

    for s in (0.6, 0.75, 0.9):
        n_viol = 0
        max_ratio = 0.0
        for _ in range(200):
            f = sb.random_band_limited(grid, rng)
            r1 = sb.check_linf_interp(f, s)
            r2 = sb.check_product_bound(f, s)
            fr_ = sb.random_band_limited(grid, rng, flavor="real")
            r3 = sb.check_chain_rule(np.tanh, 1.0, fr_, s)
            n_viol += (not r1.passed) + (not r2.passed) + (not r3.passed)
            g2 = sb.random_band_limited(grid, rng)
            max_ratio = max(max_ratio, sb.check_algebra(f, g2, s).lhs)
        name = f"sharp_inequalities_s{s}"
        rows[name] = {"name": name, "passed": n_viol == 0, "violations": float(n_viol),
                      "algebra_max_ratio": max_ratio}
    return rows


# ---------------------------------------------------------------------------
# Smallness condition at 60 digits.  The constants are evaluated as the
# products of powers they are written as, in mpmath, whose exponent range
# is unbounded: nothing over- or underflows, and a zero factor is a zero.
# ---------------------------------------------------------------------------

def smallness_mpmath(params, u0, v0, T, eps) -> dict:
    """C, C2, C3, lhs and rhs of ``smallness_condition`` as mpmath numbers,
    and its verdict lhs <= rhs.  The band-projected data are floats; their
    norms (but the padded sup) and everything after them are sums and
    products at 60 digits."""
    import mpmath

    grid = u0.grid
    mask = grid.dealias_mask()
    u = Field.from_spectrum(grid, u0.spectrum * mask, flavor="complex")
    v = Field(grid, grid.from_spectrum(v0.spectrum * mask).real, flavor="real")
    with mpmath.workdps(60):
        mpf, pi, e = mpmath.mpf, mpmath.pi, mpmath.exp

        def power_sum(weights, values, p):
            """sum_j w_j |z_j|^p for an even p."""
            return mpmath.fsum(mpf(w) * (mpf(z.real) ** 2 + mpf(z.imag) ** 2) ** (p // 2)
                               for w, z in zip(weights, values))

        ones = np.ones(grid.n_points)
        dx, measure = mpf(grid.dx), mpf(grid.measure)
        frac = measure * power_sum(grid.frac_symbol(params.s), u.spectrum, 2)
        grad = measure * power_sum(grid.k**2, u.spectrum, 2)
        uu = mpmath.sqrt(dx * power_sum(ones, u.values, 2))
        u_l4 = dx * power_sum(ones, u.values, 4)
        vv = mpmath.sqrt(dx * power_sum(ones, v.values, 2))
        s, T, eps = mpf(params.s), mpf(T), mpf(eps)
        a, b = EXPONENT_A, EXPONENT_B
        aa, bb = abs(mpf(params.alpha)), abs(mpf(params.beta))
        gp = mpf(params.g.M) + eps
        block = (1 + frac + grad + u_l4 / 2 + mpf(_padded_sup(u)) * vv * uu
                 + aa**2 * e(T) * vv**2)
        C = (2**6 * block ** (1 - 1 / (2 * s))
             + 2**5 * aa**2 * (2 * s - 1) / (s**2 * pi) * gp**2 * uu ** (2 - 1 / s)
             * vv**2 * e(3 * T)
             + 2**4 * aa**2 * eps ** (b - mpf(3) / 2 * a) * (2 * s - 1) ** 2 / (pi * s**2)
             * uu * vv**2 * e(2 * T))
        C2 = 2**8 * aa**2 * bb**2 * T / (s**2 * pi**2) * uu ** (6 - 2 / s)
        C3 = (2**9 * aa**2 * bb**2 / (s**2 * pi**2) * gp**2 * uu ** (4 - 2 / s) * e(3 * T)
              + 2**8 * mpf(cns_closed_form(params.s)) * aa**2 * bb**2
              * eps ** (b - 1 - mpf(3) / 2 * a) * (2 * s - 1) / (pi**2 * s**2)
              * uu ** (3 - 1 / s) * e(2 * T)
              + 2**10 * aa**4 * bb**4 * e(2 * T) / (pi**2 * s**2) * uu ** (4 - 2 / s) * T)
        half = (2 * s - 1) / 2
        lhs = C * (C2 + C3) ** half * e(64 * T**2) * T**half
        rhs = half**half
        return {"C": +C, "C2": +C2, "C3": +C3, "lhs": +lhs, "rhs": +rhs,
                "satisfied": bool(lhs <= rhs)}
