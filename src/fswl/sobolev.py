"""Fractional Sobolev norms, their equivalence, and the sharp inequalities.

The H^s norm is computed from the Bessel weights (1+k^2)^s; the split
quantity ||f||_2 + ||(-D)^{s/2} f||_2 with multiplier weights 1+|k|^{2s} is
equivalent to it, with grid-dependent constants m_s, M_s obtained by
scanning the weight ratio over the resolved wavenumbers (the ratio is never
pinned analytically, so the artifact derives it).

Inequality checks return reports, never raise on failure: a violated bound
is data, the caller decides what to assert.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np

from .fractional import cns_constant, pair_correlation_integral
from .grid import Field, GridSpec, as_order

__all__ = [
    "NormReport",
    "InequalityReport",
    "hs_norm",
    "check_equivalence",
    "check_algebra",
    "check_chain_rule",
    "check_linf_interp",
    "check_product_bound",
    "norm_equivalence_constants",
    "random_band_limited",
    "sup_interp_constant",
]

# Slack allowed when asserting proved inequalities on exact arithmetic-free
# floating point data.
DEFAULT_SLACK = 1e-10


@dataclass
class NormReport:
    """All the norms of one field at one fractional order."""

    l2: float
    hs_fourier: float
    frac_grad_l2: float


@dataclass
class InequalityReport:
    """Outcome of one inequality (or identity) evaluation."""

    name: str
    s: float
    lhs: float
    rhs: float
    constant_used: float
    margin: float
    witness: str
    seed: int | None = None
    kind: str = "upper_bound"  # or "identity"
    tolerance: float = DEFAULT_SLACK

    @property
    def passed(self) -> bool:
        if self.kind == "identity":
            scale = max(abs(self.lhs), abs(self.rhs), 1.0)
            return bool(abs(self.margin) <= self.tolerance * scale)
        return bool(self.margin >= -self.tolerance)

    def to_json(self) -> str:
        d = asdict(self)
        d["passed"] = self.passed
        return json.dumps(
            d, sort_keys=True,
            default=lambda o: float(o) if isinstance(o, np.floating) else o,
        )


def _weighted_norm(f: Field, weights: np.ndarray) -> float:
    # weights multiply |c_k|^2, so the norm of (-D)^sigma f takes the
    # squared symbol, i.e. frac_symbol(2*sigma).
    return float(
        np.sqrt(f.grid.measure * np.sum(weights * np.abs(f.spectrum) ** 2))
    )


def hs_norm(f: Field, s) -> NormReport:
    """L^2, Bessel H^s, and fractional-gradient norms of a field."""
    s = as_order(s).s
    grid = f.grid
    bessel = (1.0 + grid.k**2) ** s
    return NormReport(
        l2=f.norm_l2(),
        hs_fourier=_weighted_norm(f, bessel),
        frac_grad_l2=_weighted_norm(f, grid.frac_symbol(s)),
    )


def check_equivalence(f: Field, s) -> InequalityReport:
    """Identity: Gagliardo seminorm = 2 C_{1,s}^{-1} ||(-D)^{s/2} f||_2^2."""
    s = as_order(s).s
    gag = pair_correlation_integral(f, f, s)
    frac = _weighted_norm(f, f.grid.frac_symbol(s))
    rhs = 2.0 / cns_constant(s) * frac**2
    return InequalityReport(
        name="gagliardo_fourier_identity",
        s=s,
        lhs=gag,
        rhs=rhs,
        constant_used=2.0 / cns_constant(s),
        margin=rhs - gag,
        witness=repr(f),
        kind="identity",
        tolerance=1e-6,
    )


def norm_equivalence_constants(grid: GridSpec, s) -> tuple[float, float]:
    """Grid-dependent constants (m_s, M_s) of the two-norm equivalence.

    Scans rho(kappa) = (1+kappa^2)^s / (1+kappa^{2s}) over the resolved
    wavenumbers; then for every field on this grid

        m_s (l2 + frac_grad) <= hs_fourier <= M_s (l2 + frac_grad).
    """
    s = as_order(s).s
    kappa = np.abs(grid.k)
    ratio = (1.0 + kappa**2) ** s / (1.0 + kappa ** (2.0 * s))
    m_s = float(np.sqrt(ratio.min() / 2.0))
    M_s = float(np.sqrt(ratio.max()))
    return m_s, M_s


def sup_interp_constant(s) -> float:
    """The constant 2/sqrt(pi(2s-1)) of the sup-norm interpolation bound."""
    s = as_order(s).s
    if not 0.5 < s < 1.0:
        raise ValueError(f"interpolation bound requires 1/2 < s < 1, got {s}")
    return 2.0 / np.sqrt(np.pi * (2.0 * s - 1.0))


def check_linf_interp(f: Field, s) -> InequalityReport:
    """||f||_inf <= 2/sqrt(pi(2s-1)) ||f||_2^{1-1/(2s)} ||(-D)^{s/2}f||_2^{1/(2s)}.

    Requires a mean-free field: the constant mode carries no fractional
    energy, so the bound cannot hold for it on the torus.
    """
    s = as_order(s).s
    const = sup_interp_constant(s)
    rep = hs_norm(f, s)
    lhs = f.norm_sup()
    rhs = const * rep.l2 ** (1.0 - 0.5 / s) * rep.frac_grad_l2 ** (0.5 / s)
    return InequalityReport(
        name="sup_interpolation",
        s=s,
        lhs=lhs,
        rhs=rhs,
        constant_used=const,
        margin=rhs - lhs,
        witness=repr(f),
    )


def check_product_bound(f: Field, s) -> InequalityReport:
    """||(-D)^{s/2}|f|^2||_2 <= 2 ||f||_inf ||(-D)^{s/2}f||_2.

    This unsquared statement is what holds and what is verified; a variant
    with the left side squared is dimensionally inconsistent (it fails for
    any rescaled witness) and is deliberately not asserted.
    """
    s = as_order(s).s
    if not 0.5 < s < 1.0:
        raise ValueError(f"product bound requires 1/2 < s < 1, got {s}")
    grid = f.grid
    sq = Field(grid, np.abs(f.values) ** 2, flavor="real")
    lhs = _weighted_norm(sq, grid.frac_symbol(s))
    rhs = 2.0 * f.norm_sup() * _weighted_norm(f, grid.frac_symbol(s))
    return InequalityReport(
        name="square_product_bound",
        s=s,
        lhs=lhs,
        rhs=rhs,
        constant_used=2.0,
        margin=rhs - lhs,
        witness=repr(f),
    )


def check_chain_rule(
    F: Callable[[np.ndarray], np.ndarray],
    fprime_sup: float,
    f: Field,
    s,
    name: str = "chain_rule",
) -> InequalityReport:
    """||(-D)^{s/2} F(f)||_2 <= ||F'||_inf ||(-D)^{s/2} f||_2, F(0) = 0."""
    s = as_order(s).s
    grid = f.grid
    Ff = Field(grid, F(f.values), flavor=f.flavor)
    lhs = _weighted_norm(Ff, grid.frac_symbol(s))
    rhs = fprime_sup * _weighted_norm(f, grid.frac_symbol(s))
    return InequalityReport(
        name=name,
        s=s,
        lhs=lhs,
        rhs=rhs,
        constant_used=fprime_sup,
        margin=rhs - lhs,
        witness=repr(f),
    )


def check_algebra(f: Field, g: Field, s, ensemble_const: float = 2.0) -> InequalityReport:
    """Ratio ||fg||_{H^s} / (||f||_{H^s} ||g||_{H^s}) against a configured cap.

    The sharp constant is not available analytically; the cap is an
    empirical ensemble constant, and the report carries the realized ratio.
    """
    s = as_order(s).s
    if s <= 0.5:
        raise ValueError(f"algebra property requires s > 1/2, got {s}")
    prod = f * g
    num = hs_norm(prod, s).hs_fourier
    den = hs_norm(f, s).hs_fourier * hs_norm(g, s).hs_fourier
    ratio = num / den if den > 0 else 0.0
    return InequalityReport(
        name="hs_algebra",
        s=s,
        lhs=ratio,
        rhs=ensemble_const,
        constant_used=ensemble_const,
        margin=ensemble_const - ratio,
        witness=f"{f!r} * {g!r}",
    )


def random_band_limited(
    grid: GridSpec,
    rng: np.random.Generator,
    flavor: str = "complex",
    band: int | None = None,
) -> Field:
    """Ensemble member: spectral amplitudes |k|^{-1} x standard normal,
    uniform phases, band limited to N/4, mean-free."""
    N = grid.n_points
    band = band if band is not None else N // 4
    j = np.fft.fftfreq(N, d=1.0 / N)
    coeffs = np.zeros(N, dtype=np.complex128)
    sel = (np.abs(j) >= 1) & (np.abs(j) <= band)
    amps = rng.standard_normal(sel.sum()) / np.abs(grid.k[sel])
    phases = rng.uniform(0.0, 2.0 * np.pi, sel.sum())
    coeffs[sel] = amps * np.exp(1j * phases)
    if flavor == "real":
        half = coeffs.copy()
        idx = np.arange(N)
        conj_idx = (-idx) % N
        coeffs = 0.5 * (half + np.conj(half[conj_idx]))
    fld = Field.from_spectrum(grid, coeffs, flavor="complex")
    if flavor == "real":
        return Field(grid, fld.values.real, flavor="real")
    return fld
