"""Exact Fourier-multiplier solution operators for the linear flows.

The perturbed dispersive group multiplies each mode by
exp(-i(|k|^{2s} + eps^a k^2) t) and is a unitary group on every Sobolev
level; the regularizing heat semigroup multiplies by exp(-eps^b k^2 t) and
contracts.  The exponents are fixed for every run: a = EXPONENT_A = 4 and
b = EXPONENT_B = 7.  Applying the flows as exact multipliers is what makes
the Duhamel formulation attractive numerically: the linear part carries no
time-stepping error at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, as_order
from .sobolev import InequalityReport

__all__ = [
    "PropagatorSpec",
    "check_perturbation",
    "schrodinger_group_apply",
    "heat_semigroup_apply",
    "check_heat_smoothing",
    "heat_smoothing_constant",
]


# The exponents of the perturbation eps^a k^2 and eps^b k^2 that the
# analysis fixes: the regularized system carries eps^4 Du and eps^7 Dv.
# Ints, like the config keys perturbation.a and b that may restate them.
EXPONENT_A, EXPONENT_B = 4, 7


def check_perturbation(eps: float) -> None:
    """Raise ValueError, its message led by the field at fault, unless
    0 < eps < 1: the one check of the perturbation that PropagatorSpec and
    PerturbedRun hold."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")


@dataclass(frozen=True)
class PropagatorSpec:
    """Perturbation strength and fractional order of the two linear flows."""

    eps: float
    s: float

    def __post_init__(self):
        object.__setattr__(self, "s", as_order(self.s))
        check_perturbation(self.eps)

    @property
    def dispersive_coeff(self) -> float:
        return self.eps**EXPONENT_A

    @property
    def heat_coeff(self) -> float:
        return self.eps**EXPONENT_B

    def phase_symbol(self, grid) -> np.ndarray:
        """omega(k) = |k|^{2s} + eps^a k^2."""
        return grid.frac_symbol(self.s) + self.dispersive_coeff * grid.k**2


def schrodinger_group_apply(u: Field, t: float, p: PropagatorSpec) -> Field:
    """Unit-modulus multiplier exp(-i omega(k) t); defined for all real t."""
    omega = p.phase_symbol(u.grid)
    out = u.spectrum * np.exp(-1j * omega * t)
    vals = u.grid.from_spectrum(out)
    return Field(u.grid, vals, flavor="complex")


def heat_semigroup_apply(v: Field, t: float, p: PropagatorSpec) -> Field:
    """Contraction multiplier exp(-eps^b k^2 t), t >= 0."""
    if t < 0.0:
        raise ValueError(f"heat semigroup requires t >= 0, got t = {t}")
    mult = np.exp(-p.heat_coeff * v.grid.k**2 * t)
    return v.with_spectrum(v.spectrum * mult)


def heat_smoothing_constant(p: PropagatorSpec) -> float:
    """Explicit constant 1/sqrt(pi eps^b) of the gradient smoothing bound."""
    return 1.0 / np.sqrt(np.pi * p.heat_coeff)


def check_heat_smoothing(v: Field, t: float, p: PropagatorSpec) -> InequalityReport:
    """||d_x W(t) v||_2 <= t^{-1/2}/sqrt(pi eps^b) ||v||_2 for t > 0."""
    if t <= 0.0:
        raise ValueError(f"smoothing bound requires t > 0, got t = {t}")
    w = heat_semigroup_apply(v, t, p)
    grad = w.with_spectrum(w.spectrum * v.grid.deriv_symbol())
    rhs = heat_smoothing_constant(p) / np.sqrt(t) * v.norm_l2()
    return InequalityReport(lhs=grad.norm_l2(), rhs=rhs)
