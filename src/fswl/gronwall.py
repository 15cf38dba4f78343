"""Closed-form evaluator for the generalized Gronwall inequality.

For eta(t) <= C + integral_{t0}^{t} ( a eta + b eta^sigma ) with constant
rates a, b >= 0, the bound is the exact solution of the equality case
eta' = a eta + b eta^sigma, eta(t0) = C (Bihari, Acta Math. Acad. Sci.
Hungar. 7 (1956) 81-94).  With tau = t - t0 and E_k(tau) the integral of
e^{kr} over [0, tau], that is tau for k = 0 and expm1(k tau)/k otherwise:

  sigma = 1 or b = 0:  C e^{(a+b) tau}
  sigma != 1:          e^{a tau} [C^{1-sigma} + (1-sigma) b E_{(sigma-1)a}(tau)]^{1/(1-sigma)}

For sigma > 1 the classical sufficient condition at the declared horizon h,
C^{1-sigma} > (sigma-1) b h e^{(sigma-1)ah}, is checked first: it keeps the
bracket positive on [t0, t0 + h], since E_k(tau) <= h e^{kh} for k >= 0.  A
bracket still not positive in floating point (within rounding of that
margin, or in the 1e-12 slack past t0 + h) is refused too.  A factor that
leaves the float range on its own (e^{a tau} with a tiny C, say) is taken
in logs with its small cofactor, and only a bound beyond the float range
reads inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

__all__ = ["GronwallSpec", "GronwallInadmissibleError", "gronwall_bound"]


class GronwallInadmissibleError(ValueError):
    """The sigma > 1 bound does not extend to the requested time."""


@dataclass
class GronwallSpec:
    """Data of the integral inequality: constant C, exponent sigma, constant
    rates a and b."""

    C: float
    sigma: float
    a: float = 0.0
    b: float = 0.0
    t0: float = 0.0
    horizon: float = 1.0

    def __post_init__(self):
        for name in ("C", "sigma", "a", "b"):
            value = getattr(self, name)
            if not isinstance(value, Real):
                raise TypeError(f"{name} must be a constant, got {type(value).__name__}")
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
            setattr(self, name, float(value))
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")


def gronwall_bound(spec: GronwallSpec, t: float) -> float:
    """Evaluate the bound at time t in [t0, t0 + horizon]."""
    C, sigma, a, b, t0, h = spec.C, spec.sigma, spec.a, spec.b, spec.t0, spec.horizon
    if not t0 <= t <= t0 + h + 1e-12:
        raise ValueError(f"t = {t} outside [t0, t0 + horizon] = [{t0}, {t0 + h}]")
    # from C = 0 the bound leaves 0 only when sigma < 1 and b > 0
    if t == t0 or C == 0.0 and (sigma >= 1.0 or b == 0.0):
        return C
    tau, om = t - t0, 1.0 - sigma
    linear = abs(om) < 1e-13 or b == 0.0
    k = -om * a
    if sigma > 1.0 and not linear:
        # log of the critical value e^{-ah} [(sigma-1) b h]^{-1/(sigma-1)}
        log_rhs = -a * h + (math.log(-om) + math.log(b) + math.log(h)) / om
        if not math.log(C) < log_rhs:
            raise GronwallInadmissibleError(
                f"horizon admissibility violated: C = {C:.6g} is not below the critical "
                f"value {math.exp(min(log_rhs, 700.0)):.6g} at the declared horizon "
                f"t0 + h = {t0 + h:.6g}")
    try:
        if linear:
            return C * math.exp((a + b) * tau)
        E = tau if k == 0.0 else math.expm1(k * tau) / k
        if sigma < 1.0:
            return math.exp(a * tau) * (C**om + om * b * E) ** (1.0 / om)
        # the bracket over C^{1-sigma}, which itself may leave the float range
        bracket = _positive(1.0 + om * b * C**-om * E, t)
        return math.exp(a * tau) * C * bracket ** (1.0 / om)
    except OverflowError:
        pass
    # e^{a tau}, E_k(tau) or C^{sigma-1} left the float range on its own:
    # the same formula, each product of one of them with a small factor
    # taken as exp of a sum of logs.  inf bounds every eta, so a bound that
    # overflows in this form too reads inf
    try:
        if linear:
            return math.exp((a + b) * tau + math.log(C))
        if sigma < 1.0:  # k <= 0, so E did not overflow
            return math.exp(a * tau + math.log(C**om + om * b * E) / om)
        log_E = math.log(tau) if k == 0.0 else k * tau + math.log(-math.expm1(-k * tau) / k)
        bracket = _positive(1.0 - math.exp(math.log(-om * b) - om * math.log(C) + log_E), t)
        return math.exp(a * tau + math.log(C) + math.log(bracket) / om)
    except OverflowError:
        return math.inf


def _positive(bracket: float, t: float) -> float:
    """The sigma > 1 bracket, refused unless positive in floating point."""
    if not bracket > 0.0:
        raise GronwallInadmissibleError(
            f"bracket of the sigma > 1 bound is not positive at t = {t:.6g}")
    return bracket
