"""Level-set entropy machinery and weak-formulation residuals.

Convex entropies that are linear at infinity are superpositions of the
kink family |v - k|; the pair flux with q' = eta' g' has the representation
q(v) = 1/2 integral eta''(xi) |g(v) - g(xi)| dxi.  Splitting the nonlocal
diffusion of |g(v) - g(k)| produces a nonnegative remainder R_k supported
on the opposite side of the level set; the pointwise identity

    (-D)^s |g(v) - g(k)| = sgn(v - k) (-D)^s g(v) - R_k

is pure algebra of the kernel representation and is verified here by three
independent quadratures (kink-aware pairing for the left side, smooth
pairing for the right, level-set arc integration for R_k).

Weak residuals pair stored trajectories against separable polynomial-bump
test functions whose time factors are differentiated in closed form, so an
exactly known solution drives the residual to time-quadrature accuracy.
Each pairing takes the ``Trajectory`` alone and reads the system
parameters and the run from it.  Both share one space-time pairing
over the live samples (where the time factor or its derivative is
nonzero), BLOCK_SAMPLES at a time, and supply only a row-wise integrand
of products with the sampled spatial factors, plus an initial-data term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fractional import (
    PeriodicInterpolant,
    _image_correction,
    _panel_edges,
    _panel_nodes,
    cns_constant,
    periodic_tail_weight,
    special_jacobi,
)
from .grid import BLOCK_SAMPLES, Field, GridSpec, as_order
from .propagators import EXPONENT_A, EXPONENT_B
from .solver import NonlinearityG, Trajectory

__all__ = [
    "EntropySpec",
    "TestFunction",
    "UndefinedSignError",
    "kruzkov_entropy",
    "quadratic_capped_entropy",
    "reconstruct_entropy",
    "entropy_flux",
    "remainder_Rk",
    "frac_power_pointwise",
    "weak_residual_u",
    "weak_residual_v",
]

# Quadrature controls: Gauss-Jacobi nodes of the singular piece and
# Gauss-Legendre nodes per outer panel of the pointwise operator, and nodes
# per panel of the remainder arcs and of the density integrals over eta''.
POINTWISE_JACOBI_NODES = 12
POINTWISE_PANEL_NODES = 16
ARC_NODES = 20
DENSITY_NODES = 24

# Relative distance of v(x) to the level k (against max |v - k|) below which
# the sign of v(x) - k counts as undefined.
SIGN_TOL = 1e-9

# Exponent p of the test-function bump (1 - z^2)_+^p, in time and in space.
BUMP_POWER = 8


class UndefinedSignError(ValueError):
    """v(x) coincides with the level k; the one-sided decomposition has no
    defined sign there."""


# ---------------------------------------------------------------------------
# Entropies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropySpec:
    """Convex entropy, linear at infinity, given by its density eta''
    compactly supported on ``pp_support``; eta itself is the superposition
    1/2 integral eta''(xi) |v - xi| dxi, up to an additive constant.

    ``dirac_at`` marks the kink entropy |v - k| (eta'' = 2 delta_k), which is
    handled in closed form everywhere instead of by quadrature.
    """

    eta_pp: callable
    pp_support: tuple[float, float]
    dirac_at: float | None = None

    def __post_init__(self):
        if self.dirac_at is not None:
            return
        lo, hi = self.pp_support
        if hi < lo:
            raise ValueError("empty density support")
        inside = self.eta_pp(np.linspace(lo, hi, 257))
        if np.min(inside) < -1e-12:
            raise ValueError("entropy density must be nonnegative (convexity)")
        width = max(hi - lo, 1.0)
        outside = self.eta_pp(np.array([lo - 0.51 * width, hi + 0.51 * width]))
        if np.max(np.abs(outside)) > 1e-12:
            raise ValueError("entropy density must vanish outside its declared support")


def kruzkov_entropy(k: float) -> EntropySpec:
    return EntropySpec(
        eta_pp=lambda v: np.zeros_like(np.asarray(v, dtype=float)),
        pp_support=(k, k),
        dirac_at=k,
    )


def quadratic_capped_entropy(a: float = 1.0) -> EntropySpec:
    """eta'' = 2 on [-a, a]: quadratic core, linear wings of slope 2a."""

    def eta_pp(v):
        v = np.asarray(v, dtype=float)
        return np.where(np.abs(v) <= a, 2.0, 0.0)

    return EntropySpec(eta_pp, (-a, a))


def _density_integral(eta: EntropySpec, v: float, fn) -> float:
    """1/2 integral eta''(xi) fn(xi) dxi over the density support, with a
    panel edge at the kink xi = v."""
    lo, hi = eta.pp_support
    xi, w = _panel_nodes(np.array([lo, min(max(v, lo), hi), hi]), DENSITY_NODES)
    return 0.5 * float(np.sum(w * eta.eta_pp(xi) * fn(xi)))


def reconstruct_entropy(eta: EntropySpec, v: float) -> float:
    """eta(v) = 1/2 integral eta''(xi) |v - xi| dxi over the density support
    (defined modulo an additive constant by the superposition itself)."""
    if eta.dirac_at is not None:
        return float(abs(v - eta.dirac_at))
    return _density_integral(eta, v, lambda xi: np.abs(v - xi))


def entropy_flux(eta: EntropySpec, g: NonlinearityG, v: float) -> float:
    """Pair flux q(v) = 1/2 integral eta''(xi) |g(v) - g(xi)| dxi; for the
    kink entropy this is |g(v) - g(k)| exactly."""
    if eta.dirac_at is not None:
        return float(abs(g.fn(np.array([v]))[0] - g.fn(np.array([eta.dirac_at]))[0]))
    gv = float(g.fn(np.array([v]))[0])
    return _density_integral(eta, v, lambda xi: np.abs(gv - g.fn(xi)))


# ---------------------------------------------------------------------------
# Pointwise fractional power with level-set kinks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _level_set(v: Field, k: float) -> tuple[PeriodicInterpolant, tuple[float, ...]]:
    """The spline of v and the zero crossings of its band-limited
    representative minus k, located by linear bracketing on the grid and
    bisection on the spline, all brackets at once, until no bracket can
    shrink further.

    Cached for the last (v, k): callers evaluate one level set at several
    points.  Fields hash by identity and their samples are write-protected.
    """
    grid = v.grid
    vals = v.values - k
    on_grid = vals == 0.0
    bracketed = ~on_grid & (vals * np.roll(vals, -1) < 0.0)
    roots = grid.x.copy()
    lo = roots[bracketed]
    hi = lo + grid.dx
    sign_lo = np.sign(vals[bracketed])
    spl = PeriodicInterpolant(grid, v.values)
    while lo.size:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        right = np.sign(spl(mid) - k) == sign_lo
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    roots[bracketed] = 0.5 * (lo + hi)
    return spl, tuple(float(r) for r in roots[on_grid | bracketed])


def _crossings(v: Field, k: float) -> list[float]:
    """Zero crossings of the band-limited representative of v - k."""
    return list(_level_set(v, k)[1])


def _kink_radii(x: float, crossings: list[float], period: float) -> list[float]:
    rad = []
    for c in crossings:
        d = (c - x) % period
        rad.extend([d, period - d])
    return sorted(r for r in rad if 1e-12 < r < period - 1e-12)


def frac_power_pointwise(
    w_fn,
    x: float,
    grid: GridSpec,
    s: float,
    kink_radii: list[float] | None = None,
) -> float:
    """(-D)^s of a scalar callable at one point by pairing quadrature.

    The h-axis is split at every radius where the paired difference is only
    Lipschitz (level-set kinks); inside each piece the integrand is smooth,
    and the singular origin is absorbed by a Gauss-Jacobi rule with weight
    h^(1-2s) applied to the bounded ratio D(h)/h^2.
    """
    L = grid.half_length
    radii = kink_radii or []
    wx = float(w_fn(np.array([x]))[0])

    def D(h: np.ndarray) -> np.ndarray:
        return 2.0 * wx - w_fn(x + h) - w_fn(x - h)

    h1 = min(4.0 * grid.dx, 0.5 * min(radii, default=L / 2.0))

    # Singular piece: int_0^h1 (D/h^2) h^(1-2s) dh by Gauss-Jacobi.
    xj, wj = special_jacobi(POINTWISE_JACOBI_NODES, 1.0 - 2.0 * s)
    hq = h1 * xj
    inner = h1 ** (2.0 - 2.0 * s) * float(np.sum(wj * (D(hq) / hq**2)))
    hc, wc, corr = _image_correction(h1, s, L)
    inner += float(np.sum(wc * D(hc) * corr))

    # Outer piece: Gauss-Legendre on geometric panels split at the kink radii,
    # against the full image-folded kernel.
    h, w = _panel_nodes(_panel_edges(h1, 2.0 * L, radii), POINTWISE_PANEL_NODES)
    w = w * periodic_tail_weight(h, s, L)
    return cns_constant(s) * (inner + float(np.sum(w * D(h))))


def remainder_Rk(v: Field, g: NonlinearityG, k: float, s, x: float) -> float:
    """One-sided remainder integral over the opposite component of the level
    set {v <> k}, with the fully periodized kernel.

    Nonnegative by monotonicity of g; undefined when v(x) sits on the level.
    """
    s = as_order(s)
    grid = v.grid
    L = grid.half_length
    period = 2.0 * L
    spl, cross = _level_set(v, k)
    vx = float(spl(np.array([x]))[0])
    scale = max(float(np.max(np.abs(v.values - k))), 1e-30)
    if abs(vx - k) <= SIGN_TOL * scale:
        raise UndefinedSignError(f"v(x) = k within tolerance at x = {x:.6g}")
    gk = float(g.fn(np.array([k]))[0])
    if not cross:
        return 0.0

    opposite_above = vx < k  # integrate over {v > k} when below, and vice versa

    def integrand(y: np.ndarray) -> np.ndarray:
        gv = g.fn(spl(y))
        mag = (gv - gk) if opposite_above else (gk - gv)
        d = np.mod(x - y, period)
        return mag * (periodic_tail_weight(d, s, L) + periodic_tail_weight(period - d, s, L))

    # Arcs between consecutive crossings, classified by a midpoint sample.
    cs = sorted(cross)
    arcs = []
    for i, a in enumerate(cs):
        b = cs[(i + 1) % len(cs)] + (period if i + 1 == len(cs) else 0.0)
        mid = 0.5 * (a + b)
        vm = float(spl(np.array([mid]))[0])
        if (vm > k) == opposite_above:
            arcs.append((a, b))

    total = 0.0
    for a, b in arcs:
        # panels grow geometrically away from whichever end lies nearest to x
        da = min((a - x) % period, (x - a) % period)
        db = min((b - x) % period, (x - b) % period)
        anchor, far = (a, b) if da < db else (b, a)
        span = abs(far - anchor)
        dist = max(min(da, db), 1e-3 * grid.dx)
        offsets = np.append(0.0, _panel_edges(min(dist, span), span))
        y, w = _panel_nodes(np.sort(anchor + math.copysign(1.0, far - anchor) * offsets),
                            ARC_NODES)
        total += float(np.sum(w * integrand(y)))
    return float(2.0 * cns_constant(s) * total)


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

def _bump(z: np.ndarray) -> np.ndarray:
    core = np.maximum(1.0 - z**2, 0.0)
    return core**BUMP_POWER


def _bump_d1(z: np.ndarray) -> np.ndarray:
    p = BUMP_POWER
    core = np.maximum(1.0 - z**2, 0.0)
    return -2.0 * p * z * core ** (p - 1)


def _bump_d2(z: np.ndarray) -> np.ndarray:
    p = BUMP_POWER
    core = np.maximum(1.0 - z**2, 0.0)
    return -2.0 * p * core ** (p - 1) + 4.0 * p * (p - 1) * z**2 * core ** (p - 2)


@dataclass(frozen=True)
class TestFunction:
    """Separable space-time bump P(t) Q(x), compactly supported, with
    closed-form time and space derivatives.

    Spatial support must sit strictly inside the window and temporal support
    strictly before the horizon it is used with; smoothness is certified by
    the spectral decay of the sampled profile.
    """

    grid: GridSpec
    t_lo: float
    t_hi: float
    x_center: float
    x_width: float
    amplitude: complex
    flavor: str = "complex"

    __test__ = False  # the name collides with pytest's collection heuristic

    def __post_init__(self):
        L = self.grid.half_length
        if self.t_hi <= self.t_lo:
            raise ValueError("empty time support")
        if abs(self.x_center) + self.x_width >= L:
            raise ValueError("spatial support leaks outside the window")
        if self.flavor == "real" and complex(self.amplitude).imag != 0.0:
            raise ValueError("real-flavored test function needs real amplitude")
        tail = self._spectral_tail()
        if tail > 1e-8:
            raise ValueError(
                f"spatial profile insufficiently resolved (tail fraction {tail:.2e})"
            )

    def _z(self, x: np.ndarray) -> np.ndarray:
        return (x - self.x_center) / self.x_width

    def _spectral_tail(self) -> float:
        spec = np.abs(self.grid.to_spectrum(self.space_values())) ** 2
        top = spec[~self.grid.dealias_mask()].sum()
        return float(top / max(spec.sum(), 1e-300))

    # time factor ---------------------------------------------------------

    def _zt(self, t) -> np.ndarray:
        mid = 0.5 * (self.t_lo + self.t_hi)
        half = 0.5 * (self.t_hi - self.t_lo)
        return (np.atleast_1d(t) - mid) / half

    def time_value(self, t) -> np.ndarray:
        return _bump(self._zt(t))

    def time_derivative(self, t) -> np.ndarray:
        half = 0.5 * (self.t_hi - self.t_lo)
        return _bump_d1(self._zt(t)) / half

    # space factor --------------------------------------------------------

    def space_values(self) -> np.ndarray:
        return self.amplitude * _bump(self._z(self.grid.x))

    def space_d2(self) -> np.ndarray:
        return self.amplitude * _bump_d2(self._z(self.grid.x)) / self.x_width**2

    def space_frac(self, s: float) -> np.ndarray:
        """(-D)^{s/2} of the spatial profile, from the sampled spectrum."""
        grid = self.grid
        spec = grid.to_spectrum(self.space_values())
        return grid.from_spectrum(grid.frac_symbol(0.5 * s) * spec)


# ---------------------------------------------------------------------------
# Weak-form residuals
# ---------------------------------------------------------------------------

def _simpson(y: np.ndarray, t: np.ndarray):
    """Composite Simpson rule on samples y at increasing times t.

    Each pair of intervals takes the non-uniform three-point rule; an even
    sample count closes its last interval with Cartwright's correction
    (Cartwright 2017, eq. 8), the convention of current reference libraries.
    """
    n = len(y)
    h = np.diff(t)
    if n == 2:
        return 0.5 * h[0] * (y[0] + y[1])
    stop = n - 3 if n % 2 == 0 else n - 2
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, ratio = h0 + h1, h0 / h1
    total = np.sum(hsum / 6.0 * (
        y[0:stop:2] * (2.0 - 1.0 / ratio)
        + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
        + y[2:stop + 2:2] * (2.0 - ratio)
    ))
    if n % 2 == 0:
        a, b = h[-2], h[-1]
        total += (
            (2 * b**2 + 3 * a * b) / (6 * (b + a)) * y[-1]
            + (b**2 + 3.0 * a * b) / (6 * a) * y[-2]
            - b**3 / (6 * a * (a + b)) * y[-3]
        )
    return total


def _pairing(traj: Trajectory, tf: TestFunction, term, initial):
    """Simpson time integral of dx * term(P, Pd, u_spec, v_spec, u, v), one
    value per row of a block of live samples (P or Pd nonzero), plus
    P(0) dx initial(u0, v0) when P(0) != 0; u and v are in physical space.
    The test support need only end before T: the initial-data term carries
    whatever of it starts at or before 0."""
    if tf.t_hi >= traj.run.T:
        raise ValueError("test support leaks past the time horizon")
    grid, times = traj.grid, traj.times
    P, Pd = tf.time_value(times), tf.time_derivative(times)
    live = np.flatnonzero((P != 0.0) | (Pd != 0.0))
    if live.size < 3:
        raise ValueError(f"{live.size} stored samples in the time support ({tf.t_lo:g}, "
                         f"{tf.t_hi:g}), fewer than the 3 of one Simpson panel")
    vals = np.zeros(len(traj))
    for lo in range(0, live.size, BLOCK_SAMPLES):
        rows = live[lo:lo + BLOCK_SAMPLES]
        u_spec, v_spec = traj.spectra(rows)
        row = term(P[rows], Pd[rows], u_spec, v_spec,
                   grid.from_spectrum(u_spec), grid.from_spectrum(v_spec).real)
        vals = vals.astype(np.result_type(vals, row), copy=False)  # complex terms promote
        vals[rows] = grid.dx * row
    total = _simpson(vals, times)
    P0 = float(tf.time_value(0.0)[0])
    if P0 != 0.0:
        u0, v0 = traj.spectra(0)
        total += P0 * grid.dx * initial(grid.from_spectrum(u0), grid.from_spectrum(v0).real)
    return total


def weak_residual_u(traj: Trajectory, tf: TestFunction, perturbed: bool = True) -> complex:
    """Space-time pairing of the short-wave equation against a complex test
    function:

        i II( u dt(conj phi) ) + II( (-D)^{s/2}u (-D)^{s/2} conj phi )
        + i I( u0 conj phi(0) ) - eps^a II( u Lap conj phi )
        + alpha II( v u conj phi ) + gamma II( |u|^2 u conj phi )

    (the i multiplies the time-derivative and initial terms only; the
    dispersive pairing is real-symmetric).  The eps^a term is included only
    under the ``perturbed`` flag.
    """
    params, run, grid = traj.params, traj.run, traj.grid
    s = params.s
    Q = np.conj(tf.space_values())
    Q2 = np.conj(tf.space_d2())
    Qf = np.conj(tf.space_frac(s))
    half_sym = grid.frac_symbol(0.5 * s)

    def term(P, Pd, u_spec, _, u, v):
        frac_u = grid.from_spectrum(half_sym * u_spec)
        row = 1j * Pd * (u @ Q) + P * (
            frac_u @ Qf + params.alpha * ((v * u) @ Q)
            + params.gamma * ((np.abs(u) ** 2 * u) @ Q)
        )
        if perturbed:
            row -= run.eps**EXPONENT_A * P * (u @ Q2)
        return row

    return complex(_pairing(traj, tf, term, lambda u0, _: 1j * np.sum(u0 * Q)))


def weak_residual_v(traj: Trajectory, tf: TestFunction, perturbed: bool = True) -> float:
    """Space-time pairing of the long-wave equation against a real test
    function:

        II( v dt psi ) - II( g(v) (-D)^{s/2} psi ) + I( v0 psi(0) )
        + beta II( |u|^2 (-D)^{s/2} psi )  [+ eps^b II( v Lap psi )],

    with g replaced by its regularization when ``perturbed`` is set.
    """
    if tf.flavor != "real":
        raise ValueError("long-wave residual needs a real-flavored test function")
    params, run = traj.params, traj.run
    s = params.s
    Q = tf.space_values().real
    Q2 = tf.space_d2().real
    Qf = tf.space_frac(s).real
    g_eff = params.g.regularized(run.g_regularization) if perturbed else params.g

    def term(P, Pd, _u_spec, _v_spec, u, v):
        row = Pd * (v @ Q) + P * ((params.beta * np.abs(u) ** 2 - g_eff.fn(v)) @ Qf)
        if perturbed:
            row += run.eps**EXPONENT_B * P * (v @ Q2)
        return row

    return float(_pairing(traj, tf, term, lambda _, v0: np.sum(v0 * Q)))
