"""A priori quantities along trajectories and their verification.

Everything an energy argument touches is measured here: the conserved mass,
the energy functional and its balance identity, the long-wave L^2 balance,
positivity of the nonlocal bilinear form, the theta/H growth envelopes, the
smallness condition for global boundedness, and the negative-norm bounds on
time derivatives.

Time derivatives inside the residuals use central differences on the stored
grid; this matches the second-order integrator, so a residual that fails to
shrink at second order under dt-refinement flags a genuine identity
violation rather than discretization noise.

Every per-sample quantity of a trajectory comes from one pass over the
stored spectra, taken in fixed blocks of samples with batched FFTs, into
one ``DiagnosticSeries`` of columns; ``theta_envelope`` fills its envelope
columns, and the per-sample and per-trajectory functions below are views
of it.  ``COLUMNS`` names the columns a run writes, one row per sample.
An analysis of a stored run takes the ``Trajectory`` alone and reads the
system parameters and the run from it.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Callable

import numpy as np

from .fractional import cns_constant, pair_correlation_integral
from .grid import BLOCK_SAMPLES, Field, GridSpec, as_order
from .propagators import EXPONENT_A, EXPONENT_B
from .sobolev import InequalityReport
from .solver import NonlinearityG, PerturbedRun, SystemParams, Trajectory

__all__ = [
    "DiagnosticSeries",
    "COLUMNS",
    "SmallnessReport",
    "record_diagnostics",
    "diagnose_trajectory",
    "energy_balance_residual",
    "v_balance_residual",
    "bilinear_form",
    "coercivity_report",
    "theta_envelope",
    "smallness_condition",
]


@dataclass
class DiagnosticSeries:
    """Every per-sample scalar of a run of stored samples, from one pass,
    and the theta/H envelopes with their worst margins.

    Each array field is a column, one value per sample.  The residuals
    are NaN at both ends and the difference quotients at the first sample,
    where a neighbor is missing.  The envelope columns and margins are NaN
    until ``theta_envelope`` fills them.
    """

    t: np.ndarray
    mass: np.ndarray            # ||u||_2^2
    energy: np.ndarray          # frac-gradient + dispersive + quartic + coupling
    frac_grad_u_sq: np.ndarray  # ||(-D)^{s/2} u||_2^2
    grad_u_sq: np.ndarray       # ||d_x u||_2^2
    u_l4_4: np.ndarray          # ||u||_4^4
    v_l2: np.ndarray
    v_sup: np.ndarray
    grad_v_sq: np.ndarray
    energy_balance_residual: np.ndarray
    v_balance_residual: np.ndarray
    dtu_hminus1: np.ndarray
    dtv_hminus1: np.ndarray
    theta: np.ndarray
    H_bound: np.ndarray
    theta_margin_min: float = math.nan
    H_margin_min: float = math.nan

    @property
    def theta_ok(self) -> bool:
        return bool(self.theta_margin_min >= -1e-9)

    @property
    def H_ok(self) -> bool:
        return bool(self.H_margin_min >= -1e-9)


# The columns a run writes, one diagnostics.jsonl row per sample: every array field.
COLUMNS = tuple(f.name for f in fields(DiagnosticSeries) if f.default is MISSING)


def _series(
    grid: GridSpec,
    params: SystemParams,
    run: PerturbedRun,
    times: np.ndarray,
    spectra: Callable[[slice], tuple[np.ndarray, np.ndarray]],
) -> DiagnosticSeries:
    """The diagnostics pass over stored samples at ``times``, whose full
    u and v spectra [n_rows, N] ``spectra(rows)`` gives for a slice of
    sample indices.

    Samples are taken BLOCK_SAMPLES at a time with the FFTs batched along
    axis 1; each block's spectra also hold the sample before it, which the
    backward difference quotients need.  The scalar series are joined
    before any time difference is taken, so the residuals at block edges
    see both neighbors.

    Energy balance right side:
        alpha beta int (-D)^{s/2}(|u|^2) |u|^2
        - alpha int |u|^2 (-D)^{s/2} g_eps(v) - alpha eps^b int d_x|u|^2 d_x v.
    Long-wave balance, all but the time derivative:
        int (-D)^{s/2} g_eps(v) v + eps^b ||d_x v||^2 - beta int (-D)^{s/2}(|u|^2) v.
    """
    n = len(times)
    s = params.s
    k2 = grid.k**2
    frac_w = grid.frac_symbol(s)
    half = grid.frac_symbol(0.5 * s)
    d = grid.deriv_symbol()
    hminus1_w = 1.0 / (1.0 + k2)
    g_eff = params.g.regularized(run.g_regularization)
    alpha, beta = params.alpha, params.beta
    eps_a, eps_b = run.eps**EXPONENT_A, run.eps**EXPONENT_B

    # the columns but t and two temporaries; the envelope columns theta
    # and H_bound stay NaN for theta_envelope
    names = (*COLUMNS[1:], "energy_rhs", "v_terms")
    col = {name: np.full(n, np.nan) for name in names}
    for lo in range(0, n, BLOCK_SAMPLES):
        blk = slice(lo, min(lo + BLOCK_SAMPLES, n))
        first = max(lo - 1, 0)
        u_specs, v_specs = spectra(slice(first, blk.stop))
        u_spec = u_specs[lo - first :]
        u = grid.from_spectrum(u_spec)
        v = grid.from_spectrum(v_specs[lo - first :]).real
        v_spec = grid.to_spectrum(v)
        dens = np.abs(u) ** 2
        dens_spec = grid.to_spectrum(dens)
        frac_dens = grid.from_spectrum(half * dens_spec).real
        frac_gv = grid.from_spectrum(half * grid.to_spectrum(g_eff.fn(v))).real
        ddens = grid.from_spectrum(d * dens_spec).real
        dv = grid.from_spectrum(d * v_spec).real

        frac_u = grid.weighted_sq(u_spec, frac_w)
        grad_u = grid.weighted_sq(u_spec, k2)
        grad_v = grid.weighted_sq(v_spec, k2)
        u4 = grid.integral(dens**2)
        coupling = grid.integral(v * dens)
        col["mass"][blk] = grid.integral(dens)
        col["energy"][blk] = frac_u + eps_a * grad_u + 0.5 * u4 + alpha * coupling
        col["frac_grad_u_sq"][blk] = frac_u
        col["grad_u_sq"][blk] = grad_u
        col["u_l4_4"][blk] = u4
        col["v_l2"][blk] = np.sqrt(grid.integral(v**2))
        col["v_sup"][blk] = grid.sup_norm(v_spec)
        col["grad_v_sq"][blk] = grad_v
        col["energy_rhs"][blk] = (
            alpha * beta * grid.integral(frac_dens * dens)
            - alpha * grid.integral(dens * frac_gv)
            - alpha * eps_b * grid.integral(ddens * dv)
        )
        col["v_terms"][blk] = (
            grid.integral(frac_gv * v)
            + eps_b * grad_v
            - beta * grid.integral(frac_dens * v)
        )
        # backward difference quotients of samples first+1 .. blk.stop-1
        back = slice(first + 1, blk.stop)
        dts = (times[back] - times[first : blk.stop - 1])[:, None]
        for name, specs in (("dtu_hminus1", u_specs), ("dtv_hminus1", v_specs)):
            quotient = (specs[1:] - specs[:-1]) / dts
            col[name][back] = np.sqrt(grid.weighted_sq(quotient, hminus1_w))

    energy, v_l2_sq = col["energy"], col["v_l2"] ** 2
    rhs, v_terms = col.pop("energy_rhs"), col.pop("v_terms")
    dt = times[2:] - times[1:-1]
    col["energy_balance_residual"][1:-1] = np.abs(
        (energy[2:] - energy[:-2]) / (2.0 * dt) - rhs[1:-1])
    col["v_balance_residual"][1:-1] = np.abs(
        0.5 * (v_l2_sq[2:] - v_l2_sq[:-2]) / (2.0 * dt) + v_terms[1:-1])
    return DiagnosticSeries(t=np.asarray(times, dtype=np.float64), **col)


def _window(traj: Trajectory, lo: int, hi: int) -> DiagnosticSeries:
    """The diagnostics pass over stored samples lo..hi-1 of a trajectory."""
    return _series(traj.grid, traj.params, traj.run, traj.times[lo:hi],
                   lambda rows: traj.spectra(slice(lo + rows.start, lo + rows.stop)))


def record_diagnostics(
    state: tuple[Field, Field],
    t: float,
    params: SystemParams,
    run: PerturbedRun,
) -> DiagnosticSeries:
    """The one-sample series of one state at time t: its residual and
    envelope columns stay NaN."""
    u, v = state
    return _series(u.grid, params, run, np.array([t], dtype=np.float64),
                   lambda rows: (u.spectrum[None][rows], v.spectrum[None][rows]))


def _require_interior(traj: Trajectory, i: int) -> None:
    if not 0 < i < len(traj) - 1:
        raise ValueError("need an interior sample with both neighbors stored")


def energy_balance_residual(traj: Trajectory, i: int) -> float:
    """|d/dt energy - RHS| at interior sample i, central difference."""
    _require_interior(traj, i)
    return float(_window(traj, i - 1, i + 2).energy_balance_residual[1])


def v_balance_residual(traj: Trajectory, i: int) -> float:
    """|1/2 d/dt ||v||^2 + dissipation - forcing| at interior sample i."""
    _require_interior(traj, i)
    return float(_window(traj, i - 1, i + 2).v_balance_residual[1])


def diagnose_trajectory(traj: Trajectory) -> DiagnosticSeries:
    """The series of every stored sample with its envelope columns filled:
    ``theta_envelope(traj)``."""
    return theta_envelope(traj)


# ---------------------------------------------------------------------------
# Bilinear form and coercivity
# ---------------------------------------------------------------------------

def bilinear_form(v: Field, w: Field, s) -> float:
    """B_s(v, w) = C_{1,s} double-integral of paired differences."""
    s = as_order(s)
    return cns_constant(s) * pair_correlation_integral(v, w, s)


def coercivity_report(v: Field, G: NonlinearityG, s) -> InequalityReport:
    """int (-D)^{s/2} G(v) v dx >= m ||(-D)^{s/4} v||_2^2 for G' >= m.

    The mean-value theorem applied to the half-order pair integral gives the
    constant m exactly (equality for G = m id); the variant with an extra
    C_{1,s}^{-1} factor fails numerically already for linear G, so the clean
    constant is what this check asserts.
    """
    s = as_order(s)
    grid = v.grid
    Gv_spec = grid.to_spectrum(G.fn(v.values))
    frac_Gv = grid.from_spectrum(grid.frac_symbol(0.5 * s) * Gv_spec).real
    lhs = float(grid.integral(frac_Gv * v.values))
    quarter = float(grid.weighted_sq(v.spectrum, grid.frac_symbol(0.5 * s)))
    return InequalityReport(lhs=G.m * quarter, rhs=lhs)


# ---------------------------------------------------------------------------
# Growth envelopes
# ---------------------------------------------------------------------------

def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative composite-trapezoid integral of samples y at increasing
    x, zero at x[0]."""
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def _coupling(x, y):
    """x * y, elementwise, where a zero factor reads 0 also against a
    factor beyond the float range (inf): a coupling constant against a zero
    data norm, exp(T) against a zero constant, an accumulated integral at
    t = 0 against an infinite constant."""
    with np.errstate(invalid="ignore"):
        return np.where((x == 0.0) | (y == 0.0), 0.0, x * y)


def theta_envelope(traj: Trajectory) -> DiagnosticSeries:
    """The diagnostics pass over a trajectory with its envelope fields
    filled: the theta(t) majorant (initial-data block plus the four
    accumulated coupling integrals), the induced H(t) bound for ||v||^2 and
    the worst margin of each.

    h(t) is not available in closed form, so the measured left side of the
    short-wave estimate serves as the operational h inside H(t).
    """
    params, run = traj.params, traj.run
    grid = traj.grid
    s = params.s
    eps_a, eps_b = run.eps**EXPONENT_A, run.eps**EXPONENT_B
    g_eff = params.g.regularized(run.g_regularization)
    gprime_sup = g_eff.M
    # as float64, a constant beyond the float range reads inf instead of
    # raising; _coupling keeps a product with a zero factor zero against it
    aa, beta = np.float64(abs(params.alpha)), np.float64(params.beta)
    T = run.T

    sr = _window(traj, 0, len(traj))
    times = sr.t
    frac = sr.frac_grad_u_sq
    grad = sr.grad_u_sq
    u4 = sr.u_l4_4
    v_l2 = sr.v_l2
    grad_v = np.sqrt(sr.grad_v_sq)
    grad_u = np.sqrt(grad)
    frac_n = np.sqrt(frac)

    u0_l2 = np.sqrt(sr.mass[0])
    v0_l2 = v_l2[0]
    pi2s = np.pi * (2.0 * s - 1.0)
    with np.errstate(over="ignore"):
        eT = np.exp(T)
        theta0 = (
            1.0
            + frac[0]
            + eps_a * grad[0]
            + 0.5 * u4[0]
            + grid.sup_norm(traj.spectra(0)[0]) * v0_l2 * u0_l2
            + _coupling(_coupling(aa**2, eT), v0_l2**2)
        )
        c1 = _coupling(4.0 * aa / np.sqrt(pi2s) * gprime_sup, u0_l2 ** (1.0 - 0.5 / s))
        c2 = _coupling(8.0 * aa * abs(beta) / pi2s, u0_l2 ** (3.0 - 1.0 / s))
        c3 = _coupling(4.0 / np.sqrt(np.pi) * aa * eps_b, u0_l2**0.5)
        c4 = _coupling(_coupling(16.0 * aa**2 * beta**2, eT) / pi2s, u0_l2 ** (2.0 - 1.0 / s))
        cH = _coupling(_coupling(16.0 * beta**2, eT) / pi2s, u0_l2 ** (2.0 - 1.0 / s))

    I1 = _cumtrapz(v_l2 * frac_n ** (1.0 + 0.5 / s), times)
    I2 = _cumtrapz(frac_n ** (1.0 + 1.0 / s), times)
    I3 = _cumtrapz(grad_v * grad_u**1.5, times)
    I4 = _cumtrapz(frac_n ** (2.0 + 1.0 / s), times)
    theta = (theta0 + _coupling(c1, I1) + _coupling(c2, I2) + _coupling(c3, I3)
             + _coupling(c4, I4))

    lhs = 1.0 + frac + eps_a * grad + 0.25 * u4
    h_meas = lhs - 1.0

    H = _coupling(eT, v0_l2**2) + _coupling(cH, _cumtrapz(h_meas ** (1.0 + 0.5 / s), times))

    sr.theta, sr.H_bound = theta, H
    sr.theta_margin_min = float(np.min(theta - lhs))
    sr.H_margin_min = float(np.min(H - v_l2**2))
    return sr


# ---------------------------------------------------------------------------
# Smallness condition
# ---------------------------------------------------------------------------

@dataclass
class SmallnessReport:
    """Constants and verdict of the global-boundedness condition."""

    s: float
    T: float
    eps: float
    alpha: float
    C: float
    C1: float
    C2: float
    C3: float
    lhs: float
    rhs: float
    satisfied: bool
    route: str


def _log(x):
    """Natural log; a zero factor gives -inf, without a warning."""
    with np.errstate(divide="ignore"):
        return np.log(x)


def _exp(x) -> float:
    """exp as a float; inf beyond the float range, without a warning."""
    with np.errstate(over="ignore"):
        return float(np.exp(x))


def _unit_scaled(f: Field) -> tuple[Field, float]:
    """f divided by 2^e, the smallest power of two above its largest
    sample, and log 2^e.  The division is exact, and the norms of the
    scaled field neither overflow nor underflow."""
    e = int(np.frexp(np.max(np.abs(f.values)))[1])
    scaled = np.ldexp(f.values.view(np.float64), -e).view(f.values.dtype)
    return Field(f.grid, scaled, flavor=f.flavor), e * math.log(2.0)


def smallness_condition(
    params: SystemParams,
    u0: Field,
    v0: Field,
    T: float,
    eps: float,
) -> SmallnessReport:
    """Assemble the constants block of the global bound and evaluate

        C (C2 + C3)^{(2s-1)/2} exp(64 T^2) T^{(2s-1)/2}
            <= ((2s-1)/2)^{(2s-1)/2}.

    Norms are taken on the band-projected (mollified) data; the derivative
    cap of the regularized nonlinearity enters as M + eps.  With zero
    coupling the left side vanishes and the condition holds for any data.

    Every term of C, C2 and C3 is a product of powers, evaluated as the sum
    of their logarithms, and the terms and the left side are combined in
    log space; the data norms are taken of the data scaled by a power of
    two, whose log is added back.  So neither an eps power nor a data norm
    over- or underflows: C, C2, C3 and lhs read inf only where their value
    is beyond the float range, and 0.0 only where a zero factor (alpha,
    beta or the data; log 0 = -inf) kills them.
    """
    s = params.s
    grid = u0.grid
    mask = grid.dealias_mask()
    u0p, log_su = _unit_scaled(Field.from_spectrum(grid, u0.spectrum * mask, flavor="complex"))
    v0p, log_sv = _unit_scaled(
        Field(grid, grid.from_spectrum(v0.spectrum * mask).real, flavor="real"))
    aa, bb = abs(params.alpha), abs(params.beta)
    lu = _log(u0p.norm_l2()) + log_su
    lv = _log(v0p.norm_l2()) + log_sv
    l_eps = _log(eps)
    la2 = 2.0 * _log(aa)
    lab2 = la2 + 2.0 * _log(bb)
    lg2 = 2.0 * _log(params.g.M + eps)
    log_block = np.logaddexp.reduce([
        0.0,
        _log(grid.weighted_sq(u0p.spectrum, grid.frac_symbol(s))) + 2.0 * log_su,
        _log(grid.weighted_sq(u0p.spectrum, grid.k**2)) + 2.0 * log_su,
        _log(0.5 * u0p.norm_l4_4()) + 4.0 * log_su,
        _log(u0p.norm_sup()) + log_su + lv + lu,
        la2 + T + 2.0 * lv,
    ])
    sq = s**2
    log_C = np.logaddexp.reduce([
        _log(2.0**6) + (1.0 - 0.5 / s) * log_block,
        _log(2.0**5 * (2.0 * s - 1.0) / (sq * np.pi))
        + la2 + lg2 + (2.0 - 1.0 / s) * lu + 2.0 * lv + 3.0 * T,
        _log(2.0**4 * (2.0 * s - 1.0) ** 2 / (np.pi * sq))
        + la2 + (EXPONENT_B - 1.5 * EXPONENT_A) * l_eps + lu + 2.0 * lv + 2.0 * T,
    ])
    log_C2 = _log(2.0**8 * T / (sq * np.pi**2)) + lab2 + (6.0 - 2.0 / s) * lu
    log_C3 = np.logaddexp.reduce([
        _log(2.0**9 / (sq * np.pi**2)) + lab2 + lg2 + (4.0 - 2.0 / s) * lu + 3.0 * T,
        _log(2.0**8 * cns_constant(s) * (2.0 * s - 1.0) / (np.pi**2 * sq))
        + lab2 + (EXPONENT_B - 1 - 1.5 * EXPONENT_A) * l_eps + (3.0 - 1.0 / s) * lu + 2.0 * T,
        _log(2.0**10 * T / (np.pi**2 * sq)) + 2.0 * lab2 + (4.0 - 2.0 / s) * lu + 2.0 * T,
    ])

    half = 0.5 * (2.0 * s - 1.0)
    log_lhs = log_C + half * (np.logaddexp(log_C2, log_C3) + _log(T)) + 64.0 * T**2
    rhs = half**half
    satisfied = bool(log_lhs <= _log(rhs))
    if params.alpha == 0.0:
        route = "alpha = 0: condition holds for any data"
    elif satisfied:
        route = "small coupling or small signal energy"
    else:
        route = "violated: no smallness route applies"
    return SmallnessReport(
        s=s,
        T=T,
        eps=eps,
        alpha=params.alpha,
        C=_exp(log_C),
        C1=2.0**6 * T,
        C2=_exp(log_C2),
        C3=_exp(log_C3),
        lhs=_exp(log_lhs),
        rhs=float(rhs),
        satisfied=satisfied,
        route=route,
    )
