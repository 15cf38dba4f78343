"""Closed-form evaluator for the generalized Gronwall inequality.

For eta(t) <= C + integral_{t0}^{t} ( a eta + b eta^sigma ), with a, b
nonnegative and continuous, the bound is the exact solution of the
equality-case Bernoulli ODE eta' = a eta + b eta^sigma, eta(t0) = C:

  sigma < 1:  [C^{1-sigma} e^{(1-sigma)A(t)} + (1-sigma) B(t)]^{1/(1-sigma)} ...
  sigma = 1:  C exp( integral (a + b) )
  sigma > 1:  e^{A(t)} [C^{1-sigma} - (sigma-1) integral b e^{(sigma-1)A}]^{-1/(sigma-1)}

with A(t) = integral_{t0}^{t} a.  The sigma > 1 branch exists only while the
bracket stays positive; admissibility is checked both at the declared
horizon (the classical sufficient condition on integral b alone) and
pointwise along the way, which is stricter and reports the maximal
admissible time when the bracket crosses zero.

Every integral of a rate is taken once, by the trapezoid rule on one
uniform grid of GRID_POINTS points from t0 to the evaluation time (to the
horizon for the admissibility check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["GronwallSpec", "GronwallInadmissibleError", "gronwall_bound"]

GRID_POINTS = 8193


class GronwallInadmissibleError(ValueError):
    """The sigma > 1 bound does not extend to the requested time."""

    def __init__(self, message: str, max_admissible_t: float | None = None):
        super().__init__(message)
        self.max_admissible_t = max_admissible_t


CoefLike = Callable[[float], float] | float | tuple


def _as_callable(c: CoefLike) -> Callable[[np.ndarray], np.ndarray]:
    """Accept a callable, a constant, or (t_samples, values) with linear
    interpolation."""
    if callable(c):

        def wrapped(t):
            out = c(np.asarray(t, dtype=float))
            out = np.asarray(out, dtype=float)
            if out.shape != np.shape(t):
                out = np.vectorize(lambda x: float(c(x)))(t)
            return out

        return wrapped
    if isinstance(c, tuple):
        ts, vs = np.asarray(c[0], float), np.asarray(c[1], float)
        return lambda t: np.interp(t, ts, vs)
    const = float(c)
    return lambda t: np.full(np.shape(t), const)


@dataclass
class GronwallSpec:
    """Data of the integral inequality: constant C, exponent sigma, rates."""

    C: float
    sigma: float
    a: CoefLike = 0.0
    b: CoefLike = 0.0
    t0: float = 0.0
    horizon: float = 1.0

    def __post_init__(self):
        if self.C < 0.0:
            raise ValueError("C must be nonnegative")
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        self._a = _as_callable(self.a)
        self._b = _as_callable(self.b)


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative composite-trapezoid integral of samples y at increasing
    x, zero at x[0]."""
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def _integrals(spec: GronwallSpec, t: float):
    ts = np.linspace(spec.t0, t, GRID_POINTS)
    a_vals = spec._a(ts)
    b_vals = spec._b(ts)
    if np.any(a_vals < -1e-14) or np.any(b_vals < -1e-14):
        raise ValueError("rates a(.), b(.) must be nonnegative")
    A = _cumtrapz(a_vals, ts)
    return ts, a_vals, b_vals, A


def _bound_on_grid(spec: GronwallSpec, t: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Evaluate the matching-case formula on the GRID_POINTS grid.

    Returns (bound_at_t, grid, bracket_on_grid); the bracket is only
    meaningful for sigma > 1.
    """
    C, sigma = spec.C, spec.sigma
    ts, a_vals, b_vals, A = _integrals(spec, t)
    bracket = np.array([])

    if abs(sigma - 1.0) < 1e-13:
        val = C * float(np.exp(_cumtrapz(a_vals + b_vals, ts)[-1]))
        return val, ts, bracket

    om = 1.0 - sigma
    weighted = b_vals * np.exp(-om * A)  # b e^{(sigma-1)A(tau)}
    Bint = _cumtrapz(weighted, ts)

    if sigma < 1.0:
        inner = C**om + om * Bint[-1]
        val = float(np.exp(A[-1]) * inner ** (1.0 / om))
        return val, ts, bracket

    # sigma > 1: bound exists only while the bracket stays positive.
    if C == 0.0:
        return 0.0, ts, bracket
    bracket = C**om - (sigma - 1.0) * Bint
    if bracket[-1] <= 0.0:
        return np.inf, ts, bracket
    val = float(np.exp(A[-1]) * bracket[-1] ** (-1.0 / (sigma - 1.0)))
    return val, ts, bracket


def _check_horizon_admissibility(spec: GronwallSpec) -> None:
    """Sufficient condition at the declared horizon: C strictly below
    exp[(1-sigma) int a]^{1/(sigma-1)} [(sigma-1) int b]^{-1/(sigma-1)}."""
    t_end = spec.t0 + spec.horizon
    ts, a_vals, b_vals, A = _integrals(spec, t_end)
    int_b = _cumtrapz(b_vals, ts)[-1]
    if int_b <= 0.0 or spec.C == 0.0:
        return
    sigma = spec.sigma
    # log of exp[(1-sigma) int a]^{1/(sigma-1)} [(sigma-1) int b]^{-1/(sigma-1)}
    log_rhs = -A[-1] - np.log((sigma - 1.0) * int_b) / (sigma - 1.0)
    if not np.log(spec.C) < log_rhs:
        rhs = float(np.exp(min(log_rhs, 700.0)))
        raise GronwallInadmissibleError(
            "horizon admissibility violated: C = "
            f"{spec.C:.6g} is not below the critical value {rhs:.6g} at the "
            f"declared horizon t0 + h = {t_end:.6g}"
        )


def gronwall_bound(spec: GronwallSpec, t: float) -> float:
    """Evaluate the bound at time t in [t0, t0 + horizon].

    For sigma > 1 the horizon admissibility condition is enforced first and
    the bracket is additionally checked pointwise up to t; a crossing raises
    with the maximal admissible time attached.
    """
    if not spec.t0 <= t <= spec.t0 + spec.horizon + 1e-12:
        raise ValueError(
            f"t = {t} outside [t0, t0 + horizon] = "
            f"[{spec.t0}, {spec.t0 + spec.horizon}]"
        )
    if t == spec.t0:
        return spec.C

    if spec.sigma > 1.0 and abs(spec.sigma - 1.0) > 1e-13:
        _check_horizon_admissibility(spec)

    val, ts, bracket = _bound_on_grid(spec, t)
    if spec.sigma > 1.0 and bracket.size and np.any(bracket <= 0.0):
        first = int(np.argmax(bracket <= 0.0))
        raise GronwallInadmissibleError(
            "bracket of the sigma > 1 bound crosses zero before the "
            f"requested time t = {t:.6g}",
            max_admissible_t=float(ts[max(first - 1, 0)]),
        )
    return val
