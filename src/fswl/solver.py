"""Time marching for the perturbed coupled system by per-step Picard
iteration of the Duhamel integral equations.

Each step applies the exact linear propagators and approximates the Duhamel
integral with a single midpoint node,

    integral_0^dt U(dt - tau) F(tau) dtau  ~=  dt * U(dt/2) F(t + dt/2),

where the midpoint state is the average of the forward-propagated old state
and the backward-propagated current iterate.  Written out, the short-wave
update reads w = z - i dt F((z + w)/2) in the interaction picture, so the
discrete mass is conserved *exactly* at the fixed point (the nonlinearity
is a real pointwise factor times the midpoint state), not merely to the
integrator's order.  The stepper's state is the band row a stored sample
holds, u_j for j = 0..K, -K..-1, then v_j for j = 0..K, with K = N // 3 (the
2/3 rule), and every multiplier lives on that layout: the band is kept by
construction, so no mask is applied anywhere.

A sweep writes the band into zero-padded spectra, takes the real channels
v, |u|^2 and g(v) through real-to-complex transforms and the two products
with u, alpha v u + gamma rho u (rho the band of |u|^2), through one complex
transform, and reads the band of each result back as slices: two complex
and three real transform calls a sweep.
Each step's iteration starts from the free propagation plus a Newton
backward-difference extrapolation of the Duhamel increments of the last
steps of the same dt, up to four of them (a cubic in the step index); after
a halving, a re-doubling or on a fresh stepper the history starts empty and
the first iterate is the free propagation alone.  The first iterate does
not move the fixed point, so mass stays exact.

Adaptive continuation runs on an integer clock: a base step dt is
2**MAX_HALVINGS ticks and a sub-step a power-of-two number of them, so every
sub-step is dt/2**j exactly and samples fall on whole base steps.  A
diverged sub-step halves, and eight successes re-double it at a boundary of
the coarser size, never beyond the contraction-time estimate from the
fixed-point argument.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from .grid import BLOCK_SAMPLES, Field, GridSpec, as_coupled_order
from .propagators import PropagatorSpec, check_perturbation
from .sobolev import norm_equivalence_constants

__all__ = [
    "NonlinearityG",
    "SystemParams",
    "PerturbedRun",
    "Trajectory",
    "ConvergenceTable",
    "SolverError",
    "PicardDivergenceError",
    "BlowupError",
    "g_zero",
    "g_linear",
    "g_tanh_blend",
    "contraction_time_bound",
    "solve_perturbed",
    "vanishing_viscosity_sweep",
    "l2_spacetime_diff",
]


# Base steps one run may request, and sub-steps it may take: a thousand
# times the canonical run.  It keeps a mistyped dt (say 1e-300) or data whose
# contraction cap is tiny from asking for a practically endless march.
MAX_STEPS = 10**6

# The numerical method, the same for every run: a step's Picard iteration
# stops at an H1 distance below PICARD_TOL and fails after PICARD_MAX_ITER
# sweeps (a contracting iteration gets there in well under fifty), and a run
# whose larger H1 norm rises above BLOWUP_FACTOR times that of its data
# (or 1e-12) has blown up.
PICARD_TOL = 1e-10
PICARD_MAX_ITER = 50
BLOWUP_FACTOR = 1e6

# Bytes of band rows one run may store, n_samples * (3K+2) * 16: eighty
# times an eps_sweep rung (6.6 MB).  Each sweep worker holds one rung and the
# parent none (it compares rungs block by block from their files), so two
# workers at the limit hold 1 GiB.
MAX_STORED_BYTES = 2**29

# The algebra constant C of the contraction-time estimate, and the most
# halvings of dt a run may take: a step below dt/2**MAX_HALVINGS is a
# collapse (exit 3), not a reason to keep sub-stepping.
ALGEBRA_CONST = 1.0
MAX_HALVINGS = 12

# Coefficients of the first iterate's increment extrapolation, indexed by the
# number of stored increments (newest first): binomial rows, so the row of
# length p is exact for increments polynomial in the step index of degree
# p - 1.  The depth 4 is measured: depth 3 also converges in one sweep a step
# but triples the canonical mass drift, and depth 5 saves nothing.
EXTRAPOLATION_ROWS = ((), (1,), (2, -1), (3, -3, 1), (4, -6, 4, -1))
HISTORY_DEPTH = len(EXTRAPOLATION_ROWS) - 1


class SolverError(RuntimeError):
    pass


class PicardDivergenceError(SolverError):
    """Iterate distances stopped contracting; the step must shrink."""


class BlowupError(SolverError):
    """A norm exceeded the blow-up ceiling (see BLOWUP_FACTOR)."""


# ---------------------------------------------------------------------------
# Nonlinearity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonlinearityG:
    """Nondecreasing scalar map g with g(0) = 0 and g' in [m, M].  Only
    ``fn`` is evaluated; m and M are the bounds the estimates take."""

    fn: Callable[[np.ndarray], np.ndarray]
    m: float
    M: float
    label: str = "custom"

    def __post_init__(self):
        if not 0.0 <= self.m <= self.M < np.inf:
            raise ValueError(f"g must have 0 <= m <= M < inf, got m={self.m}, M={self.M}")
        if abs(float(self.fn(np.zeros(1))[0])) > 0.0:
            raise ValueError("g must satisfy g(0) = 0")

    def regularized(self, eps: float) -> "NonlinearityG":
        """g_eps(v) = g(v) + eps v: removes the degeneracy, g_eps' >= eps."""
        if eps == 0.0:
            return self
        return NonlinearityG(
            fn=partial(_regularized_fn, base=self.fn, eps=eps),
            m=self.m + eps,
            M=self.M + eps,
            label=f"{self.label}+{eps:g}*id",
        )


def _zero_fn(v):
    return np.zeros_like(v)


def _regularized_fn(v, base, eps):
    return base(v) + eps * v


def _scale_fn(v, c):
    return c * v


def _tanh_blend_fn(v, m, M):
    return m * v + (M - m) * np.tanh(v)


def g_zero() -> NonlinearityG:
    return NonlinearityG(fn=_zero_fn, m=0.0, M=0.0, label="zero")


def g_linear(c: float = 1.0) -> NonlinearityG:
    return NonlinearityG(
        fn=partial(_scale_fn, c=c),
        m=c,
        M=c,
        label=f"linear({c:g})",
    )


def g_tanh_blend(m: float = 0.2, M: float = 1.0) -> NonlinearityG:
    """g(v) = m v + (M - m) tanh v; derivative ranges over (m, M]."""
    return NonlinearityG(
        fn=partial(_tanh_blend_fn, m=m, M=M),
        m=m,
        M=M,
        label=f"tanh_blend({m:g},{M:g})",
    )


# ---------------------------------------------------------------------------
# System and run descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemParams:
    """Coupling constants and fractional order of the coupled system.

    gamma multiplies the cubic self-interaction; the system under study
    fixes gamma = 1, but 0 is allowed so linear configurations can be tested
    against the exact propagators.
    """

    alpha: float
    beta: float
    s: float
    g: NonlinearityG
    gamma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "s", as_coupled_order(self.s))


@dataclass(frozen=True)
class PerturbedRun:
    """One regularized run: perturbation strength, time grid and storage.

    The perturbation is eps^a Du and eps^b Dv, its exponents fixed at
    ``propagators.EXPONENT_A`` and ``EXPONENT_B``.  eps_g is the strength of
    the linear regularization inside g; it defaults to eps (the system's own
    choice) and exists separately so exactly linear configurations remain
    expressible.
    """

    eps: float
    T: float
    dt: float
    eps_g: float | None = None
    store_every: int = 1

    def __post_init__(self):
        check_perturbation(self.eps)
        for name in ("T", "dt"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.store_every < 1:
            raise ValueError(f"store_every must be at least 1, got {self.store_every}")
        steps = self.T / self.dt  # compared before round(), which inf overflows
        if steps > MAX_STEPS + 0.5:
            raise ValueError(f"T/dt = {steps:.10g} steps exceeds the limit of {MAX_STEPS}")
        n = round(steps)
        if n < 1 or abs(n * self.dt - self.T) > 1e-9 * max(self.T, 1.0):
            raise ValueError(
                f"T = {self.T} is not an integer multiple of dt = {self.dt}"
            )

    @property
    def g_regularization(self) -> float:
        return self.eps if self.eps_g is None else self.eps_g

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    @property
    def n_samples(self) -> int:
        """Samples stored: the initial one, every store_every-th step and
        the last one."""
        return 1 + -(-self.n_steps // self.store_every)


def _band(grid: GridSpec) -> tuple[np.ndarray, int]:
    """FFT-order indices of the 2/3-rule band, j = 0..K then -K..-1, and K."""
    band = np.flatnonzero(grid.dealias_mask())
    return band, len(band) // 2


def _expand(grid: GridSpec, rows: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Full FFT-ordered u and v spectra [..., N] of band rows [..., 3K+2],
    read-only: zero outside the band, v_{-j} = conj(v_j) and a zero Nyquist
    mode.  With ``out``, a pair of writable such arrays that are zero
    outside the band, the band is written into them and they are returned."""
    band, K = _band(grid)
    N = grid.n_points
    if out is None:
        u = np.zeros(rows.shape[:-1] + (N,), dtype=np.complex128)
        v = np.zeros_like(u)
    else:
        u, v = out
    u[..., band] = rows[..., : 2 * K + 1]
    v[..., : K + 1] = rows[..., 2 * K + 1 :]
    np.conj(rows[..., : 2 * K + 1 : -1], out=v[..., N - K :])
    if out is None:
        u.setflags(write=False)
        v.setflags(write=False)
    return u, v


@dataclass(frozen=True)
class Trajectory:
    """Stored samples of one run on the sample time grid, each the resolved
    band of the spectra of (u, v): row i of ``bands`` holds u_j for
    j = 0..K, -K..-1, then v_j for j = 0..K, K = N // 3.  Every u mode
    outside the band is zero and v is a real field with a zero Nyquist mode,
    so the row holds the whole sample; ``spectra`` expands rows.

    The constructor takes over ``times`` and ``bands`` as read-only
    C-contiguous float64 and little-endian complex128 arrays, the sidecar's
    dtype (no copy when they already are), and refuses rows off the band or
    a v_0 that is not real (the one way a row holds a non-Hermitian v)."""

    grid: GridSpec
    params: SystemParams
    run: PerturbedRun
    times: np.ndarray
    bands: np.ndarray  # [n_samples, 3K+2] complex

    def __post_init__(self):
        for name, dtype in (("times", np.float64), ("bands", "<c16")):
            arr = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        K = _band(self.grid)[1]
        expected = (len(self.times), 3 * K + 2)
        if self.bands.shape != expected:
            raise ValueError(f"band rows of shape {self.bands.shape}, expected {expected}: "
                             f"one row per sample time, the 2/3-rule band at N = {self.grid.n_points}")
        if self.bands[:, 2 * K + 1].imag.any():
            raise ValueError("a v_0 is not real, so v is not exactly Hermitian")

    def __len__(self) -> int:
        return len(self.times)

    def spectra(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Full FFT-ordered u and v spectra of the samples ``rows``: an int,
        a slice or an index array, [N] or [n_rows, N] each."""
        return _expand(self.grid, self.bands[rows])

    def blocks(self) -> Iterator[np.ndarray]:
        """The band rows, BLOCK_SAMPLES samples at a time, as read-only views."""
        for lo in range(0, len(self), BLOCK_SAMPLES):
            yield self.bands[lo : lo + BLOCK_SAMPLES]

    @property
    def u_specs(self) -> np.ndarray:
        """Every u spectrum [n_samples, N], expanded on each access; a pass
        over the samples expands blocks with ``spectra`` instead."""
        return self.spectra(slice(None))[0]

    @property
    def v_specs(self) -> np.ndarray:
        """Every v spectrum [n_samples, N], like ``u_specs``."""
        return self.spectra(slice(None))[1]


class ConvergenceTable:
    """Consecutive-rung differences along a decreasing-eps ladder.

    Built from one ``(status, trajectory)`` per rung, the trajectory None
    when the rung failed, taken from an iterable in ladder order; only the
    previous rung is kept.  A trajectory is anything ``l2_spacetime_diff``
    takes: a Trajectory, or a trajectory file that gives its band rows
    block by block.  A pair of completed rungs gets its space-time L2
    differences and status "ok"; a pair with a failed rung gets only the
    two rung statuses, "<coarse> / <fine>".
    """

    def __init__(self, eps_ladder: list, rungs: Iterable[tuple[str, Trajectory | None]]):
        self._rows = []
        prev = None
        for eps, (status, traj) in zip(eps_ladder, rungs, strict=True):
            if prev is not None:
                self._rows.append(self._pair_row(*prev, eps, status, traj))
            prev = eps, status, traj

    @staticmethod
    def _pair_row(e1, s1, t1, e2, s2, t2) -> dict:
        row = {"eps_coarse": e1, "eps_fine": e2}
        if t1 is None or t2 is None:
            row["status"] = f"{s1} / {s2}"
        else:
            du, dv = l2_spacetime_diff(t1, t2)
            row.update(u_l2_diff=du, v_l2_diff=dv, status="ok")
        return row

    @staticmethod
    def check_ladder(eps_ladder: list) -> None:
        """Raise ValueError unless every rung passes ``check_perturbation``
        and the rungs decrease strictly; entries are compared as floats."""
        eps = [float(e) for e in eps_ladder]
        try:
            for e in eps:
                check_perturbation(e)
        except ValueError:
            raise ValueError(f"eps_ladder entries must lie in (0, 1), got {eps_ladder!r}") from None
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError(f"eps_ladder must be strictly decreasing, got {eps_ladder!r}")

    def rows(self) -> list[dict]:
        return [dict(row) for row in self._rows]

    @property
    def u_diffs(self) -> list[float]:
        """u differences of the completed pairs, coarse to fine."""
        return [r["u_l2_diff"] for r in self._rows if r["status"] == "ok"]

    @property
    def v_diffs(self) -> list[float]:
        return [r["v_l2_diff"] for r in self._rows if r["status"] == "ok"]

    def strictly_decreasing(self) -> tuple[bool, bool]:
        """Whether the completed pairs' differences decrease strictly."""
        dec = lambda xs: all(b < a for a, b in zip(xs, xs[1:]))
        return dec(self.u_diffs), dec(self.v_diffs)


# ---------------------------------------------------------------------------
# Contraction-time estimate
# ---------------------------------------------------------------------------

def contraction_time_bound(
    R: float,
    params: SystemParams,
    m_s: float,
    eps: float,
) -> float:
    """Step-size bound from the fixed-point argument on the ball of radius R.

    Minimum of the short-wave bound 1/(4 max(|alpha|, R) C R) and the
    long-wave bounds m_s/(8 max(|beta| R, M)) and
    m_s^2/(64 C^2 max(|beta| R, M)^2), with C = ALGEBRA_CONST and M the
    derivative cap of the regularized nonlinearity.
    """
    if R <= 0 or m_s <= 0:
        raise ValueError("R and m_s must be positive")
    C = ALGEBRA_CONST
    M = params.g.M + eps
    short = 1.0 / (4.0 * max(abs(params.alpha), R) * C * R)
    denom = max(abs(params.beta) * R, M)
    if denom == 0.0:
        return short
    long1 = m_s / (8.0 * denom)
    # denom * denom is denom**2, but reads inf rather than raising beyond
    # the float range
    long2 = m_s**2 / (64.0 * C**2 * (denom * denom))
    return min(short, long1, long2)


# ---------------------------------------------------------------------------
# The stepper
# ---------------------------------------------------------------------------

class _Stepper:
    """Precomputed row multipliers and the Picard fixed-point sweep.

    A state is a band row, the layout a stored sample has: u_j for
    j = 0..K, -K..-1, then v_j for j = 0..K, K = N // 3.  The multipliers
    live on that layout, so every state stays inside the 2/3-rule band by
    construction.  A sweep writes the band into zero-padded spectra, owned
    here, whose other entries are never written; the real channels v, |u|^2
    and g(v) go through real transforms.
    """

    def __init__(self, grid: GridSpec, params: SystemParams, run: PerturbedRun):
        self.grid = grid
        self.params = params
        band, K = _band(grid)
        self.K = K
        k2 = grid.k[band] ** 2
        flows = PropagatorSpec(run.eps, params.s)
        self.omega = flows.phase_symbol(grid)[band]
        self.heat = flows.heat_coeff * k2[: K + 1]
        self.half_symbol = grid.frac_symbol(0.5 * params.s)[: K + 1]
        # H1 weights of the fused distance over the floats of a row: a v
        # mode other than v_0 also stands for its conjugate
        v_weight = 2.0 * (1.0 + k2[: K + 1])
        v_weight[0] *= 0.5
        weight = np.concatenate((1.0 + k2, v_weight))
        self._dist_weight = grid.measure * np.repeat(weight, 2)
        self._dist_split = np.array([0, 2 * (2 * K + 1)])
        self._u_pad = np.zeros(grid.n_points, dtype=np.complex128)
        self._v_pad = np.zeros(grid.n_points // 2 + 1, dtype=np.complex128)
        self._real_pair = np.empty((2, grid.n_points))
        self.g_eff = params.g.regularized(run.g_regularization)
        self._cache: dict[float, tuple] = {}
        # row increments of the last converged steps of size _history_dt,
        # newest first
        self._history_dt: float | None = None
        self._history: deque = deque(maxlen=HISTORY_DEPTH)
        self.last_distances: list[float] = []  # sweep history of the last step

    def _multipliers(self, dt: float) -> tuple:
        """Everything of a step that depends on dt alone, as rows (u part,
        then v part): U(dt) | W(dt); U(dt/2)/2 | W(dt/2)/2;
        U(-dt/2)/2 | W(-dt/2)/2; and -i dt U(dt/2) | dt W(dt/2) |k|^s."""
        got = self._cache.get(dt)
        if got is None:
            om, heat = self.omega, self.heat
            got = tuple(np.concatenate(pair) for pair in (
                (np.exp(-1j * om * dt), np.exp(-heat * dt)),
                (0.5 * np.exp(-1j * om * 0.5 * dt), 0.5 * np.exp(-heat * 0.5 * dt)),
                (0.5 * np.exp(+1j * om * 0.5 * dt), 0.5 * np.exp(+heat * 0.5 * dt)),
                (-1j * dt * np.exp(-1j * om * 0.5 * dt),
                 dt * np.exp(-heat * 0.5 * dt) * self.half_symbol),
            ))
            self._cache[dt] = got
        return got

    def _pair_h1(self, row: np.ndarray) -> np.ndarray:
        """H1 norms of the u and v parts of a band row, both sums of squares
        taken in one reduction."""
        flat = row.view(np.float64)
        sq = flat * flat
        sq *= self._dist_weight
        return np.sqrt(np.add.reduceat(sq, self._dist_split))

    def _distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """H1 distance of the u parts plus that of the v parts of two rows."""
        root = self._pair_h1(a - b)
        return float(root[0] + root[1])

    def _max_h1(self, u: np.ndarray, v: np.ndarray) -> float:
        """The larger H1 norm of band u and band v."""
        return float(np.max(self._pair_h1(np.concatenate((u, v)))))

    def step(self, u: np.ndarray, v: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray, int]:
        """One midpoint-Duhamel step of size dt from band u (j = 0..K,
        -K..-1) and band v (j = 0..K); returns the new u and v, the two
        parts of one new band row, and the number of Picard sweeps used.

        The iteration starts from the free propagation plus the extrapolated
        Duhamel increment of the last steps of the same dt (see
        EXTRAPOLATION_ROWS), and from the free propagation alone when there
        are none.
        """
        p = self.params
        grid = self.grid
        K = self.K
        nu = 2 * K + 1
        free_mult, fwd_mult, back_mult, coef = self._multipliers(dt)
        cur = np.concatenate((u, v))
        fwd_half = fwd_mult * cur
        free = free_mult * cur

        history = self._history
        if dt != self._history_dt:
            history.clear()
            self._history_dt = dt
        new = free
        for c, d in zip(EXTRAPOLATION_ROWS[len(history)], history):
            new = new + c * d
        u_pad, v_pad, pair = self._u_pad, self._v_pad, self._real_pair
        prev_dist = np.inf
        nondecreasing = 0
        self.last_distances = []
        for sweep in range(1, PICARD_MAX_ITER + 1):
            mid = fwd_half + back_mult * new
            u_pad[: K + 1] = mid[: K + 1]
            u_pad[-K:] = mid[K + 1 : nu]
            v_pad[: K + 1] = mid[nu:]
            um = grid.from_spectrum(u_pad)
            vm = grid.from_half_spectrum(v_pad)

            np.abs(um, out=pair[0])
            np.square(pair[0], out=pair[0])
            pair[1] = self.g_eff.fn(vm)
            dens, gv = grid.to_half_spectrum(pair)[:, : K + 1]  # |u|^2 and g(v)
            # alpha fft(v u) + gamma fft(rho u), rho the band of |u|^2, in
            # one transform; v_pad now carries rho
            np.multiply(dens, p.gamma, out=v_pad[: K + 1])
            w = grid.from_half_spectrum(v_pad)
            w += p.alpha * vm
            Fu = grid.to_spectrum(w * um)

            nxt = coef * np.concatenate((Fu[: K + 1], Fu[-K:], p.beta * dens - gv))
            nxt += free

            dist = self._distance(nxt, new)
            self.last_distances.append(dist)
            if not np.isfinite(dist):
                raise BlowupError(f"non-finite Picard distance at dt={dt:.3e}")
            new = nxt
            if dist < PICARD_TOL:
                history.appendleft(new - free)
                return new[:nu], new[nu:], sweep
            if dist >= prev_dist:
                nondecreasing += 1
                if nondecreasing >= 3:
                    raise PicardDivergenceError(
                        f"no contraction at dt={dt:.3e} (distance {dist:.3e})"
                    )
            else:
                nondecreasing = 0
            prev_dist = dist
        raise SolverError(
            f"Picard iteration exceeded {PICARD_MAX_ITER} sweeps at dt={dt:.3e}"
        )


def solve_perturbed(
    u0: Field,
    v0: Field,
    params: SystemParams,
    run: PerturbedRun,
) -> Trajectory:
    """March the perturbed system on [0, T], storing every
    ``store_every``-th sample of the uniform dt grid.

    One loop takes sub-steps of ``size`` ticks of a ``ticks``-tick base
    step, starting from ``top``, the largest size the contraction-time
    estimate for the initial ball admits.  A divergence at size 1 is a
    collapse (SolverError); re-doubling stops at ``top``.
    """
    grid = u0.grid
    if v0.grid != grid:
        raise ValueError("u0 and v0 must share a grid")
    stepper = _Stepper(grid, params, run)

    # the data projected to the resolved band (the discrete stand-in for
    # approximating them by smoother functions) is the first band row
    band, K = _band(grid)
    u, v = u0.spectrum[band], v0.spectrum[: K + 1]

    h1 = stepper._max_h1(u, v)
    ceiling = BLOWUP_FACTOR * max(h1, 1e-12)

    # Contraction-time cap for the ball of radius 2.5 max of the data norms
    # (the argument only needs > 2).
    m_s, _ = norm_equivalence_constants(grid, params.s)
    R = 2.5 * h1
    cap = np.inf
    if R > 0:
        cap = contraction_time_bound(R, params, m_s, run.eps)

    n_steps = run.n_steps
    # a sub-step of `size` ticks has length dt / (ticks // size)
    ticks = top = 2**MAX_HALVINGS
    while run.dt / (ticks // top) > cap:
        if top == 1:
            raise SolverError(
                f"a-priori contraction cap {cap:.3e} (R = {R:.3e}) is below "
                f"dt/2^{MAX_HALVINGS} = {run.dt / ticks:.3e}"
            )
        top //= 2
    substeps = n_steps * (ticks // top)
    if substeps > MAX_STEPS:
        raise SolverError(
            f"{substeps} sub-steps ({n_steps} base steps of dt/{ticks // top} under the "
            f"a-priori contraction cap {cap:.3e}, R = {R:.3e}) exceed the limit of {MAX_STEPS}"
        )

    times = np.empty(run.n_samples)
    bands = np.empty((run.n_samples, 3 * K + 2), dtype=np.complex128)
    times[0] = 0.0
    np.concatenate((u, v), out=bands[0])
    stored = 1

    pos, size, successes = 0, top, 0
    while pos < n_steps * ticks:
        try:
            u, v, _ = stepper.step(u, v, run.dt / (ticks // size))
        except PicardDivergenceError:
            if size == 1:
                dists = stepper.last_distances
                last = (f"last distance {dists[-1]:.3e} after {len(dists)} sweeps"
                        if dists else "no sweep recorded")
                raise SolverError(
                    f"Picard stalled ({last}, picard_tol = {PICARD_TOL:g}); "
                    f"step collapsed below dt/2^{MAX_HALVINGS} near t="
                    f"{pos // ticks * run.dt + pos % ticks * run.dt / ticks:.4g}"
                )
            size //= 2
            successes = 0
            continue
        pos += size
        successes += 1
        k = -(-pos // ticks)  # the base step under way, counted from 1
        if stepper._max_h1(u, v) > ceiling:
            raise BlowupError(f"norm ceiling {ceiling:.3e} exceeded at t={k * run.dt:.4g}")
        if successes >= 8 and size < top and pos % (2 * size) == 0:
            size *= 2
            successes = 0
        if pos % ticks == 0 and (k % run.store_every == 0 or k == n_steps):
            times[stored] = k * run.dt
            np.concatenate((u, v), out=bands[stored])
            stored += 1

    return Trajectory(grid=grid, params=params, run=run, times=times, bands=bands)


# ---------------------------------------------------------------------------
# Vanishing-perturbation sweep
# ---------------------------------------------------------------------------

def l2_spacetime_diff(t1: Trajectory, t2: Trajectory) -> tuple[float, float]:
    """L^2((0,T) x window) distances between two runs on the same grids.
    Each run gives its ``grid``, ``times`` and, from ``blocks()``, its band
    rows BLOCK_SAMPLES samples at a time: a Trajectory, or a trajectory file
    read block by block.  The two runs are read in lockstep, and each block
    difference is expanded into fixed [BLOCK_SAMPLES, N] buffers (the
    expansion commutes with the subtraction), so the pass holds nothing of
    a whole trajectory's size."""
    if len(t1) != len(t2) or not np.allclose(t1.times, t2.times):
        raise ValueError("trajectories must share the sample time grid")
    grid = t1.grid
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    diff = np.empty((BLOCK_SAMPLES, 3 * _band(grid)[1] + 2), dtype=np.complex128)
    spectra = np.zeros((2, BLOCK_SAMPLES, grid.n_points), dtype=np.complex128)
    du2 = np.empty(len(t1))
    dv2 = np.empty(len(t1))
    lo = 0
    for b1, b2 in zip(t1.blocks(), t2.blocks(), strict=True):
        rows = slice(lo, lo + len(b1))
        du, dv = _expand(grid, np.subtract(b1, b2, out=diff[: len(b1)]),
                         out=spectra[:, : len(b1)])
        du2[rows] = grid.weighted_sq(du, 1.0)
        dv2[rows] = grid.weighted_sq(dv, 1.0)
        lo = rows.stop
    return (
        float(np.sqrt(trapezoid(du2, t1.times))),
        float(np.sqrt(trapezoid(dv2, t1.times))),
    )


def vanishing_viscosity_sweep(
    u0: Field,
    v0: Field,
    params: SystemParams,
    eps_ladder: list[float],
    run_template: PerturbedRun,
) -> ConvergenceTable:
    """Run the same data at each rung of a strictly decreasing eps ladder and
    record consecutive differences (empirical Cauchy behavior; observed, not
    asserted as a theorem).  A failing rung raises its SolverError."""
    ConvergenceTable.check_ladder(eps_ladder)
    rungs = (
        ("completed", solve_perturbed(u0, v0, params, replace(run_template, eps=eps, eps_g=None)))
        for eps in eps_ladder
    )
    return ConvergenceTable(eps_ladder, rungs)
