"""Fractional Sobolev norms, their equivalence, and the sharp inequalities.

The H^s norm is computed from the Bessel weights (1+k^2)^s; the split
quantity ||f||_2 + ||(-D)^{s/2} f||_2 with multiplier weights 1+|k|^{2s} is
equivalent to it, with grid-dependent constants m_s, M_s obtained by
scanning the weight ratio over the resolved wavenumbers (the ratio is never
pinned analytically, so the artifact derives it).

Inequality checks return reports, never raise on failure: a violated bound
is data, the caller decides what to assert.

Each norm and inequality is computed once, by a private helper over samples
stacked as (rows, N) with batched FFTs; a per-field function is that helper
on one row plus its report.  The verify ensembles draw their members with
the same rng calls as ``random_band_limited`` and evaluate them in row
blocks of ``BLOCK_SAMPLES``, which bounds the padded sup buffers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .fractional import cns_constant, pair_correlation_integral
from .grid import Field, GridSpec, as_coupled_order, as_order

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

# Empirical ensemble cap on the H^s algebra ratio of ``check_algebra``.
ALGEBRA_CAP = 2.0


@dataclass
class NormReport:
    """All the norms of one field at one fractional order."""

    l2: float
    hs_fourier: float
    frac_grad_l2: float


@dataclass
class InequalityReport:
    """Outcome of one inequality (or identity) evaluation."""

    lhs: float
    rhs: float
    kind: str = "upper_bound"  # or "identity"
    tolerance: float = DEFAULT_SLACK

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        if self.kind == "identity":
            scale = max(abs(self.lhs), abs(self.rhs), 1.0)
            return bool(abs(self.margin) <= self.tolerance * scale)
        return bool(_passes(self.margin, self.tolerance))


class _Rows:
    """Samples of fields on one grid stacked as (rows, N), with their
    spectra and, on first use, their padded sup norms."""

    def __init__(self, grid: GridSpec, values: np.ndarray, spec: np.ndarray | None = None):
        self.grid = grid
        self.values = values
        self.spec = grid.to_spectrum(values) if spec is None else spec

    @classmethod
    def of(cls, f: Field) -> "_Rows":
        """One-row view of a field, sharing its cached spectrum."""
        return cls(f.grid, f.values[None], f.spectrum[None])

    @cached_property
    def sup(self) -> np.ndarray:
        return self.grid.sup_norm(self.spec)


def _passes(margin, tolerance=DEFAULT_SLACK):
    """Pass rule of an upper bound, elementwise: margin >= -tolerance."""
    return margin >= -tolerance


def _l2_rows(rows: _Rows) -> np.ndarray:
    return np.sqrt(rows.grid.integral(np.abs(rows.values) ** 2))


def _weighted_rows(rows: _Rows, weights: np.ndarray) -> np.ndarray:
    # weights multiply |c_k|^2, so the norm of (-D)^sigma f takes the
    # squared symbol, i.e. frac_symbol(2*sigma).
    return np.sqrt(rows.grid.weighted_sq(rows.spec, weights))


def _hs_rows(rows: _Rows, s: float):
    """(l2, hs_fourier, frac_grad_l2) of every row."""
    grid = rows.grid
    return (_l2_rows(rows), _weighted_rows(rows, (1.0 + grid.k**2) ** s),
            _weighted_rows(rows, grid.frac_symbol(s)))


def _linf_interp_rows(rows: _Rows, s: float):
    """(lhs, rhs) of the sup-norm interpolation bound for every row."""
    rhs = (sup_interp_constant(s) * _l2_rows(rows) ** (1.0 - 0.5 / s)
           * _weighted_rows(rows, rows.grid.frac_symbol(s)) ** (0.5 / s))
    return rows.sup, rhs


def _product_bound_rows(rows: _Rows, s: float):
    """(lhs, rhs) of the square product bound for every row."""
    grid = rows.grid
    sym = grid.frac_symbol(s)
    lhs = _weighted_rows(_Rows(grid, np.abs(rows.values) ** 2), sym)
    return lhs, 2.0 * rows.sup * _weighted_rows(rows, sym)


def _chain_rule_rows(F, fprime_sup: float, rows: _Rows, s: float):
    """(lhs, rhs) of the chain rule bound for every row; F acts elementwise."""
    grid = rows.grid
    sym = grid.frac_symbol(s)
    lhs = _weighted_rows(_Rows(grid, F(rows.values)), sym)
    return lhs, fprime_sup * _weighted_rows(rows, sym)


def _algebra_rows(f: _Rows, g: _Rows, s: float) -> np.ndarray:
    """||fg||_{H^s} / (||f||_{H^s} ||g||_{H^s}) of paired rows; 0 where the
    denominator vanishes."""
    grid = f.grid
    bessel = (1.0 + grid.k**2) ** s
    num = _weighted_rows(_Rows(grid, f.values * g.values), bessel)
    den = _weighted_rows(f, bessel) * _weighted_rows(g, bessel)
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def hs_norm(f: Field, s) -> NormReport:
    """L^2, Bessel H^s, and fractional-gradient norms of a field."""
    l2, hs, frac = _hs_rows(_Rows.of(f), as_order(s))
    return NormReport(l2=float(l2[0]), hs_fourier=float(hs[0]), frac_grad_l2=float(frac[0]))


def check_equivalence(f: Field, s) -> InequalityReport:
    """Identity: Gagliardo seminorm = 2 C_{1,s}^{-1} ||(-D)^{s/2} f||_2^2."""
    s = as_order(s)
    gag = pair_correlation_integral(f, f, s)
    frac = hs_norm(f, s).frac_grad_l2
    rhs = 2.0 / cns_constant(s) * frac**2
    return InequalityReport(lhs=gag, rhs=rhs, kind="identity", tolerance=1e-6)


def norm_equivalence_constants(grid: GridSpec, s) -> tuple[float, float]:
    """Grid-dependent constants (m_s, M_s) of the two-norm equivalence.

    Scans rho(kappa) = (1+kappa^2)^s / (1+kappa^{2s}) over the resolved
    wavenumbers; then for every field on this grid

        m_s (l2 + frac_grad) <= hs_fourier <= M_s (l2 + frac_grad).
    """
    s = as_order(s)
    kappa = np.abs(grid.k)
    ratio = (1.0 + kappa**2) ** s / (1.0 + kappa ** (2.0 * s))
    m_s = float(np.sqrt(ratio.min() / 2.0))
    M_s = float(np.sqrt(ratio.max()))
    return m_s, M_s


def sup_interp_constant(s) -> float:
    """The constant 2/sqrt(pi(2s-1)) of the sup-norm interpolation bound."""
    s = as_coupled_order(s)
    return 2.0 / np.sqrt(np.pi * (2.0 * s - 1.0))


def _bound_report(pair) -> InequalityReport:
    """The report of an upper bound from its (lhs, rhs) arrays of one row."""
    lhs, rhs = (float(a[0]) for a in pair)
    return InequalityReport(lhs=lhs, rhs=rhs)


def check_linf_interp(f: Field, s) -> InequalityReport:
    """||f||_inf <= 2/sqrt(pi(2s-1)) ||f||_2^{1-1/(2s)} ||(-D)^{s/2}f||_2^{1/(2s)}.

    Requires a mean-free field: the constant mode carries no fractional
    energy, so the bound cannot hold for it on the torus.
    """
    s = as_coupled_order(s)
    return _bound_report(_linf_interp_rows(_Rows.of(f), s))


def check_product_bound(f: Field, s) -> InequalityReport:
    """||(-D)^{s/2}|f|^2||_2 <= 2 ||f||_inf ||(-D)^{s/2}f||_2.

    This unsquared statement is what holds and what is verified; a variant
    with the left side squared is dimensionally inconsistent (it fails for
    any rescaled witness) and is deliberately not asserted.
    """
    s = as_coupled_order(s)
    return _bound_report(_product_bound_rows(_Rows.of(f), s))


def check_chain_rule(
    F: Callable[[np.ndarray], np.ndarray],
    fprime_sup: float,
    f: Field,
    s,
) -> InequalityReport:
    """||(-D)^{s/2} F(f)||_2 <= ||F'||_inf ||(-D)^{s/2} f||_2, F(0) = 0.

    F acts elementwise on sample arrays of any shape.
    """
    s = as_order(s)
    return _bound_report(_chain_rule_rows(F, fprime_sup, _Rows.of(f), s))


def check_algebra(f: Field, g: Field, s) -> InequalityReport:
    """Ratio ||fg||_{H^s} / (||f||_{H^s} ||g||_{H^s}) against ALGEBRA_CAP.

    The sharp constant is not available analytically; the cap is an
    empirical ensemble constant, and the report carries the realized ratio.
    """
    s = as_coupled_order(s)
    return _bound_report((_algebra_rows(_Rows.of(f), _Rows.of(g), s), [ALGEBRA_CAP]))


@lru_cache(maxsize=16)
def _band_modes(grid: GridSpec, band: int):
    """Mask of the modes 1 <= |j| <= band, their |k|, and the index of each
    mode's conjugate partner."""
    N = grid.n_points
    j = np.fft.fftfreq(N, d=1.0 / N)
    sel = (np.abs(j) >= 1) & (np.abs(j) <= band)
    modes = (sel, np.abs(grid.k[sel]), (-np.arange(N)) % N)
    for a in modes:
        a.setflags(write=False)
    return modes


def _band_limited_spectrum(grid: GridSpec, rng: np.random.Generator, flavor: str,
                           band: int | None) -> np.ndarray:
    """Coefficients of one ensemble member (see ``random_band_limited``)."""
    N = grid.n_points
    sel, kabs, conj_idx = _band_modes(grid, band if band is not None else N // 4)
    amps = rng.standard_normal(kabs.size) / kabs
    phases = rng.uniform(0.0, 2.0 * np.pi, kabs.size)
    coeffs = np.zeros(N, dtype=np.complex128)
    coeffs[sel] = amps * np.exp(1j * phases)
    if flavor == "real":
        coeffs = 0.5 * (coeffs + np.conj(coeffs[conj_idx]))
    return coeffs


def random_band_limited(
    grid: GridSpec,
    rng: np.random.Generator,
    flavor: str = "complex",
    band: int | None = None,
) -> Field:
    """Ensemble member: spectral amplitudes |k|^{-1} x standard normal,
    uniform phases, band limited to N/4, mean-free."""
    fld = Field.from_spectrum(grid, _band_limited_spectrum(grid, rng, flavor, band))
    if flavor == "real":
        return Field(grid, fld.values.real, flavor="real")
    return fld


def _band_limited_rows(grid: GridSpec, rng: np.random.Generator, n: int,
                       flavors: tuple[str, ...]) -> list[_Rows]:
    """n ensemble members, one draw per flavor each, stacked per flavor.

    Members are drawn one after another, each flavor in turn, so the rng
    stream and every row equal those of per-member ``random_band_limited``
    calls in that order (samples from the same ifft, spectra from the same
    fft of them).
    """
    draws = [[_band_limited_spectrum(grid, rng, fl, None) for fl in flavors] for _ in range(n)]
    out = []
    for fl, coeffs in zip(flavors, zip(*draws)):
        values = grid.from_spectrum(np.array(coeffs))
        out.append(_Rows(grid, np.ascontiguousarray(values.real) if fl == "real" else values))
    return out
