"""The fractional Laplacian in its two equivalent forms, and its inverse.

Two independent evaluation routes are provided on purpose:

* ``frac_laplacian_spectral`` multiplies the spectrum by |k|^(2s) — the
  Fourier-symbol definition, exact on resolved modes.
* ``frac_laplacian_singular`` evaluates the principal-value integral

      C_{1,s} P.V. integral  (f(x) - f(y)) / |x - y|^(1+2s) dy

  entirely in real space: symmetric pairing 2f(x)-f(x+h)-f(x-h) tames the
  singularity, off-grid values come from a periodic cardinal quintic
  B-spline, and the periodic images beyond one period are folded into the
  kernel weight with a Hurwitz zeta function.  No FFT of the operand enters
  this route, so agreement of the two is a genuine cross-check of the
  normalization constant and of the equivalence of the definitions.

The same pairing machinery provides the double-integral quadratures used by
the Gagliardo seminorm and the nonlocal bilinear form, and its geometric
panel generator and panel rule serve the pointwise entropy quadratures.

Outside the Taylor-handled inner region [0, h1] both routes take one fixed
rule: ``CELL_NODES`` Gauss-Legendre nodes on every grid cell of [h1, 2L].
At a node h the paired difference is a zero-sum stencil of spline taps on
the coefficient array c: the taps at x + h (and x - h) less those at x.  The
nodes of a cell share their tap indices, and the tap weights are quintics in
the offset within the cell, so the rule converges geometrically and needs no
refinement.  The operator folds the weighted stencils of all nodes into one
kernel K on the lags d and takes the outer sum as -sum_d K[d] (c[x+d] -
c[x]); the double integral first forms the structure function S[d] = sum_x
(c_v[x+d] - c_v[x]) conj(c_w[x+d] - c_w[x]) and then needs 144 lag terms of
S per cell.  Both work on coefficient differences, built in row blocks, so a
constant field gives exact zeros; still no FFT of the operand.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .grid import Field, GridSpec, ZeroModeError, as_order

__all__ = [
    "cns_constant",
    "frac_laplacian_spectral",
    "frac_laplacian_singular",
    "riesz_inverse",
    "PeriodicInterpolant",
    "periodic_tail_weight",
    "pair_correlation_integral",
]


# ---------------------------------------------------------------------------
# Normalization constant
# ---------------------------------------------------------------------------

def cns_constant(s) -> float:
    """Normalization C_{1,s} = [ integral (1 - cos z)/|z|^(1+2s) dz ]^(-1).

    The integral has the closed form C_{1,s} = s 4^s Gamma(1/2 + s) /
    (sqrt(pi) Gamma(1 - s)) (Di Nezza, Palatucci & Valdinoci, Bull. Sci.
    Math. 136 (2012), eq. (3.2)).
    """
    s = as_order(s)
    return s * 4.0**s * math.gamma(0.5 + s) / (math.sqrt(math.pi) * math.gamma(1.0 - s))


# ---------------------------------------------------------------------------
# Spectral route
# ---------------------------------------------------------------------------

def frac_laplacian_spectral(f: Field, s) -> Field:
    """Apply |k|^(2s) to the spectrum; zero mode annihilated."""
    sym = f.grid.frac_symbol(as_order(s))
    return f.with_spectrum(f.spectrum * sym)


def riesz_inverse(f: Field, s) -> Field:
    """Divide the spectrum by |k|^(2s) on nonzero modes.

    The constant mode is not invertible; input must be mean-free.
    """
    s = as_order(s)
    if not f.is_mean_free():
        raise ZeroModeError(
            "inverse undefined: input carries a nonzero constant mode "
            f"(c0 = {f.spectrum[0]:.3e})"
        )
    sym = f.grid.frac_symbol(s)
    out = np.zeros_like(f.spectrum)
    nz = sym != 0.0
    out[nz] = f.spectrum[nz] / sym[nz]
    return f.with_spectrum(out)


# ---------------------------------------------------------------------------
# Real-space route
# ---------------------------------------------------------------------------

# Poles of the quintic B-spline prefilter, the roots of
# z^4 + 26 z^3 + 66 z^2 + 26 z + 1 inside the unit circle (Unser, IEEE Signal
# Process. Mag. 16(6), 1999), and its gain.
_POLES = (-0.43057534709997379185, -0.04309628820326465382)
_GAIN = 120.0

# _TAPS[p, m]: coefficient of u^p in the weight of coefficient j - 2 + m at
# x = x_j + u dx, u in [0, 1): the six quintic B-spline pieces.
_TAPS = np.array([
    [1, 26, 66, 26, 1, 0],
    [-5, -50, 0, 50, 5, 0],
    [10, 20, -60, 20, 10, 0],
    [-10, 20, 0, -20, 10, 0],
    [5, -20, 30, -20, 5, 0],
    [-1, 5, -10, 10, -5, 1],
]) / 120.0


def _tap_weights(u: np.ndarray) -> np.ndarray:
    """Weights of the six taps at fractional offsets u, shape (6, *u.shape),
    by Horner's rule."""
    coefs = _TAPS.reshape(_TAPS.shape + (1,) * np.ndim(u))
    w = coefs[-1]
    for c in coefs[-2::-1]:
        w = w * u + c
    return w


def _bspline_coefficients(values: np.ndarray) -> np.ndarray:
    """Periodic quintic B-spline coefficients that interpolate ``values``:
    a causal and an anticausal first-order recursion per pole, started from
    exact geometric sums over one period."""
    c = (_GAIN * values).tolist()
    n = len(c)
    for z in _POLES:
        zk = z ** np.arange(n)
        scale = 1.0 / (1.0 - z**n)
        c[0] = scale * np.dot(zk, c[:1] + c[:0:-1]).item()
        for k in range(1, n):
            c[k] += z * c[k - 1]
        c[-1] = -z * scale * (c[-1] + np.dot(zk[1:], c[:-1]).item())
        for k in range(n - 2, -1, -1):
            c[k] = z * (c[k + 1] - c[k])
    return np.array(c)


def _spline_taps(t: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tap table of the spline at t grid cells from x_0: the coefficient
    indices (reduced mod n) and weights of its six taps, each of shape
    (6, *t.shape), so that the value there is sum_m w[m] c[idx[m]]."""
    j = np.floor(t)
    w = _tap_weights(t - j)
    idx = (j.astype(np.intp) + np.arange(-2, 4).reshape((6,) + (1,) * np.ndim(t))) % n
    return idx, w


class PeriodicInterpolant:
    """Periodic cardinal quintic B-spline through the samples of a grid field.

    ``__call__`` evaluates it at arbitrary points, a 6-tap stencil on the
    coefficient array.
    """

    def __init__(self, grid: GridSpec, values: np.ndarray):
        self.grid = grid
        self._coefs = _bspline_coefficients(np.asarray(values))

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        t = (np.asarray(pts) + self.grid.half_length) / self.grid.dx
        idx, w = _spline_taps(t, self.grid.n_points)
        return sum(w[m] * self._coefs[idx[m]] for m in range(6))


# Euler-Maclaurin for the Hurwitz zeta: the first terms summed directly, the
# rest as the tail integral, the half term and Bernoulli corrections B_2j.
_ZETA_HEAD = 12
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _hurwitz_zeta(a: float, q: np.ndarray) -> np.ndarray:
    """sum_{m>=0} (q + m)^(-a) for a > 1, q > 0."""
    q = np.asarray(q, dtype=float)
    head = sum((q + m) ** -a for m in range(_ZETA_HEAD))
    x = q + _ZETA_HEAD
    tail = x ** (1.0 - a) / (a - 1.0) + 0.5 * x**-a
    term = a * x ** (-a - 1.0)  # a (a+1) ... (a+2j-2) x^(-a-2j+1)
    for j, b in enumerate(_BERNOULLI, start=1):
        tail += b / math.factorial(2 * j) * term
        term = term * (a + 2 * j - 1) * (a + 2 * j) / x**2
    return head + tail


def periodic_tail_weight(h: np.ndarray, s: float, L: float) -> np.ndarray:
    """Kernel weight sum_{m>=0} (h + 2mL)^(-1-2s) for h in (0, 2L].

    Folding all periodic images of the kernel into a single weight lets the
    h-integration stop at one period with no truncation error; the sum is a
    Hurwitz zeta value.
    """
    period = 2.0 * L
    return period ** (-1.0 - 2.0 * s) * _hurwitz_zeta(1.0 + 2.0 * s, h / period)


def _panel_edges(lo: float, hi: float, splits=()) -> np.ndarray:
    """Geometric panel edges from lo > 0 to hi: the width doubles away from
    lo (kernel steepest there) and the doubling restarts at every split point
    inside (lo, hi) (where the integrand is only Lipschitz)."""
    if not lo > 0.0:
        raise ValueError(f"geometric panels need lo > 0, got {lo!r}")
    pts = [lo, *sorted(p for p in splits if lo < p < hi), hi]
    edges = []
    for a, b in zip(pts[:-1], pts[1:]):
        while a < b:
            edges.append(a)
            a *= 2.0
    edges.append(hi)
    return np.array(edges)


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n and
    shared read-only by every caller."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_nodes(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on every
    nonempty panel [edges[i], edges[i+1]], concatenated in panel order."""
    x, w = _leggauss(n)
    a, b = np.asarray(edges[:-1]), np.asarray(edges[1:])
    keep = b > a
    mid, half = 0.5 * (a + b)[keep, None], 0.5 * (b - a)[keep, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def special_jacobi(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for integral_0^1 f(t) t^beta dt.

    Golub-Welsch (Math. Comp. 23 (1969) 221): the Gauss-Jacobi nodes for the
    weight (1 + x)^beta on [-1, 1] are the eigenvalues of the symmetric
    Jacobi matrix of the recurrence, and each weight is the integral of the
    weight function times the squared first eigenvector component.
    """
    k = np.arange(1, n)
    ab = 2.0 * k + beta
    diag = np.empty(n)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta**2 / (ab * (ab + 2.0))
    off = np.sqrt(4.0 * k**2 * (k + beta) ** 2 / (ab**2 * (ab + 1.0) * (ab - 1.0)))
    x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    t = 0.5 * (x + 1.0)
    return t, vecs[0] ** 2 / (beta + 1.0)


# Gauss-Legendre nodes per grid cell of the outer rule, and half-width of the
# Taylor-handled inner region in grid cells.
CELL_NODES = 12
INNER_CELLS = 4.0

# Coefficients of the even Taylor expansion of 2f(x) - f(x+h) - f(x-h):
# term m contributes -2 f^(2m)(x) h^(2m) / (2m)!.
_TAYLOR_ORDERS = (1, 2, 3, 4)
_TAYLOR_COEFS = {m: -2.0 / math.factorial(2 * m) for m in _TAYLOR_ORDERS}


def _spectral_derivative(grid: GridSpec, spec: np.ndarray, order: int) -> np.ndarray:
    d = grid.deriv_symbol() ** order
    return grid.from_spectrum(spec * d)


def _spectral_radius(grid: GridSpec, *specs: np.ndarray) -> float:
    """Largest wavenumber carrying non-negligible amplitude.

    The four-term expansion of the paired difference is only valid within
    the field's own Taylor radius, so the inner cut must shrink for fields
    with content near the grid limit.
    """
    k = np.abs(grid.k)
    worst = 0.0
    for spec in specs:
        amp = np.abs(spec)
        top = float(amp.max())
        if top <= 0.0:
            continue
        active = k[amp > 1e-12 * top]
        if active.size:
            worst = max(worst, float(active.max()))
    return worst


def _inner_cut(grid: GridSpec, *specs: np.ndarray) -> float:
    h1 = INNER_CELLS * grid.dx
    k_eff = _spectral_radius(grid, *specs)
    if k_eff > 0.0:
        h1 = min(h1, 0.75 / k_eff)
    return h1


def _image_correction(h1: float, s: float, L: float):
    """8-point Gauss-Legendre nodes h and weights on [0, h1], and the smooth
    image correction weight(h) - h^(-1-2s) of the folded kernel there."""
    hc, wc = _panel_nodes(np.array([0.0, h1]), 8)
    return hc, wc, periodic_tail_weight(hc, s, L) - hc ** (-1.0 - 2.0 * s)


def _inner_moments(h1: float, s: float, L: float) -> dict[int, float]:
    """Integrals of h^(2m) against the image-folded kernel over [0, h1].

    The singular part h^(-1-2s) integrates analytically; the smooth image
    correction by Gauss-Legendre.
    """
    hc, wc, corr = _image_correction(h1, s, L)
    return {
        m: h1 ** (2 * m - 2.0 * s) / (2 * m - 2.0 * s)
        + float(np.sum(wc * hc ** (2 * m) * corr))
        for m in _TAYLOR_ORDERS
    }


def _outer_cells(grid: GridSpec, h1: float, s: float):
    """The outer rule over [h1, 2L]: ``CELL_NODES`` Gauss-Legendre nodes on
    every grid cell [j dx, (j+1) dx], the first cell starting at h1.

    Returns the cell indices j, and the fractional offsets u = h/dx - j of
    the nodes with their weights against the full image-folded kernel, both
    of shape (cells, CELL_NODES).  The spline taps are polynomials in u on
    each cell, so the fixed rule converges geometrically.
    """
    dx = grid.dx
    j = np.arange(math.floor(h1 / dx), grid.n_points)
    start = np.maximum(h1 / dx - j, 0.0)[:, None]
    x, w = _leggauss(CELL_NODES)
    u = start + (1.0 - start) * 0.5 * (1.0 + x)
    wt = (1.0 - start) * 0.5 * dx * w
    return j, u, wt * periodic_tail_weight((j[:, None] + u) * dx, s, grid.half_length)


def _cell_stencil(j: np.ndarray, u: np.ndarray, n: int, both_sides: bool):
    """Zero-sum tap table of the paired difference at the nodes h = (j + u) dx
    on the spline coefficients: indices of shape (cells, taps), shared by all
    nodes of a cell, and weights of shape (cells, nodes, taps).  The stencil
    is f(x+h) + f(x-h) - 2f(x) (18 taps) if ``both_sides``, else f(x+h) - f(x)
    (12 taps).  The u = 0 taps reproduce the samples f(x)."""
    m = np.arange(-2, 4)
    cell = j[:, None]
    idx, w = [cell + m], [_tap_weights(u)]
    if both_sides:
        idx.append(m - cell - 1)
        w.append(_tap_weights(1.0 - u))
    w.append(np.broadcast_to(-len(w) * _TAPS[0][:, None, None], w[0].shape))
    idx.append(np.broadcast_to(m, idx[0].shape))
    return np.concatenate(idx, axis=1) % n, np.moveaxis(np.concatenate(w), 0, -1)


# Entries of one row block of the difference matrix, and the most lag terms
# of one block of cells in the double integral.
_BLOCK_ENTRIES = 1 << 17


def _difference_coefficients(values: np.ndarray) -> np.ndarray:
    """Spline coefficients of ``values - values[0]``.  The prefilter
    reproduces constants, so no coefficient difference changes, and a
    constant field gets exactly equal coefficients."""
    return _bspline_coefficients(values - values[0])


def _difference_rows(c: np.ndarray):
    """Row blocks (rows, D[rows]) of D[x, d] = c[(x + d) mod n] - c[x].

    The differences vanish exactly on a constant field, where a correlation
    of c minus c times the kernel sum would leave round-off.  The n x n
    matrix is never formed: each block holds at most ``_BLOCK_ENTRIES``.
    """
    n = len(c)
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([c, c[:-1]]), n)
    step = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, n, step):
        rows = slice(lo, min(lo + step, n))
        yield rows, windows[rows] - c[rows, None]


def frac_laplacian_singular(f: Field, s) -> Field:
    """Principal-value singular-integral evaluation of the operator.

    Uses the symmetric pairing 2f(x) - f(x+h) - f(x-h): the integrand is then
    O(h^(1-2s)) at the origin and the inner region integrates analytically
    against its Taylor expansion (even derivatives are exact spectral
    derivatives of the band-limited representative; they never touch the
    fractional symbol).  The outer region takes the fixed cell-aligned rule
    of ``_outer_cells``.
    """
    s = as_order(s)
    grid = f.grid
    L = grid.half_length
    n = grid.n_points
    c = _difference_coefficients(f.values)
    h1 = _inner_cut(grid, f.spectrum)

    total = np.zeros(n, dtype=np.complex128)
    for m, moment in _inner_moments(h1, s, L).items():
        total += _TAYLOR_COEFS[m] * _spectral_derivative(grid, f.spectrum, 2 * m) * moment

    # The weighted stencils of all nodes fold into one kernel K on the lags,
    # and the outer sum is -sum_d K[d] (c[x+d] - c[x]).
    j, u, wt = _outer_cells(grid, h1, s)
    idx, taps = _cell_stencil(j, u, n, both_sides=True)
    kernel = np.bincount(idx.ravel(), np.einsum("cqt,cq->ct", taps, wt).ravel(), minlength=n)
    for rows, diff in _difference_rows(c):
        total[rows] -= diff @ kernel
    vals = cns_constant(s) * total
    if f.flavor == "real":
        return Field(grid, vals.real, flavor="real")
    return Field(grid, vals, flavor="complex")


# ---------------------------------------------------------------------------
# Pair-difference double integrals (Gagliardo-type)
# ---------------------------------------------------------------------------

def pair_correlation_integral(v: Field, w: Field, s) -> float:
    """Double integral of (v(x)-v(y)) conj(w(x)-w(y)) / |x-y|^(1+2s).

    x runs over the torus window and y over the whole line via the periodic
    extension; the image tail is folded into the kernel weight exactly.  The
    diagonal singularity is handled by the same Taylor-in-h treatment as the
    pointwise operator, with cross inner products of spectral derivatives.
    """
    s = as_order(s)
    if v.grid is not w.grid and v.grid != w.grid:
        raise ValueError("fields must share a grid")
    grid = v.grid
    L = grid.half_length
    dx = grid.dx
    n = grid.n_points
    h1 = _inner_cut(grid, v.spectrum, w.spectrum)

    # J(h) = int (v(x+h)-v(x)) conj(w(x+h)-w(x)) dx expands in even powers of
    # h with coefficients (-1)^(m+1) 2/(2m)! Re<v^(m), w^(m)>.
    inner = 0.0
    for m, moment in _inner_moments(h1, s, L).items():
        dv = _spectral_derivative(grid, v.spectrum, m)
        dw = _spectral_derivative(grid, w.spectrum, m)
        ip = float(np.real(np.sum(dv * np.conj(dw)))) * dx
        inner += (-1.0) ** (m + 1) * 2.0 / math.factorial(2 * m) * ip * moment

    # Coefficient structure function S[d] = sum_x (c_v[x+d] - c_v[x])
    # conj(c_w[x+d] - c_w[x]).  For a zero-sum stencil k of the difference
    # at h, sum_x (k * c_v)[x] conj((k * c_w)[x]) = -1/2 sum_{d,d'} k_d k_d'
    # S[d - d'].  The nodes of one cell share their 12 tap indices, so their
    # weighted tap products fold into a 12 x 12 Gram matrix, each cell adds
    # 144 terms to one kernel on the lags, and no pass over x remains.
    c_v = _difference_coefficients(v.values)
    c_w = c_v if w is v else _difference_coefficients(w.values)
    S = sum(np.einsum("xd,xd->d", dv, dw.conj())
            for (_, dv), (_, dw) in zip(_difference_rows(c_v), _difference_rows(c_w)))

    j, u, wt = _outer_cells(grid, h1, s)
    kernel = np.zeros(n)
    step = _BLOCK_ENTRIES // 12**2
    for lo in range(0, len(j), step):
        cells = slice(lo, lo + step)
        idx, taps = _cell_stencil(j[cells], u[cells], n, both_sides=False)
        gram = np.swapaxes(taps * wt[cells, :, None], 1, 2) @ taps
        lag = (idx[:, :, None] - idx[:, None, :]) % n
        kernel += np.bincount(lag.ravel(), gram.ravel(), minlength=n)
    return 2.0 * inner - dx * float(np.dot(kernel, S).real)
