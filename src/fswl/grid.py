"""Periodic grid, Fourier conventions, and field containers.

Functions live on the symmetric torus [-L, L) sampled at N equispaced
collocation points.  Spectra are Fourier-series coefficients c_k of
f(x) = sum_k c_k exp(i k x) on the discrete wavenumbers k_j = pi*j/L,
j = -N/2 .. N/2-1 (FFT ordering), obtained as fft(samples)/N.  A real
field has c_{-k} = conj(c_k), so its half spectrum j = 0 .. N/2 (rfft
ordering, same 1/N) carries all of it.  Spatial quadrature is the
rectangle rule dx * sum, which is exact for resolved band-limited
integrands; the induced Parseval identity is

    dx * sum |f_j|^2  =  2L * sum |c_k|^2.

Every other module builds on these conventions, so multiplier formulas,
the Parseval sum and the rectangle rule are written against them exactly
once, here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GridError",
    "ZeroModeError",
    "GridSpec",
    "Field",
    "make_grid",
    "as_order",
    "as_coupled_order",
]

# Imaginary contamination allowed in a real-flavored field, relative to its
# amplitude.  Operations that should preserve realness are exact multipliers,
# so anything above this indicates a bug rather than roundoff.
REAL_IMAG_RTOL = 1e-9

# Relative size of the zero mode below which a field counts as mean-free.
ZERO_MODE_RTOL = 1e-9

# Rows (stored samples, ensemble members) per batched pass.  It bounds the
# FFT temporaries, so peak memory does not grow with the number of rows.
BLOCK_SAMPLES = 16

# Bytes of the buffers through which ``GridSpec.sup_norm`` pads and transforms
# a chunk of rows, 24 per padded point: a few rows per FFT call keep its SIMD
# lanes busy, and the padded block of BLOCK_SAMPLES rows is never held whole.
SUP_CHUNK_BYTES = 192 * 1024

# Largest N, eight times the finest grid the docs use (8192).  A stored (u, v)
# sample is 2 MB at 2**16, so a mistyped N like 2**40 fails here, unallocated.
MAX_N = 2**16


class GridError(ValueError):
    """Invalid grid construction parameters."""


class ZeroModeError(ValueError):
    """Operation undefined on the constant (k = 0) mode."""


@dataclass(frozen=True)
class GridSpec:
    """Truncated periodic spatial domain [-L, L) with N collocation points."""

    half_length: float
    n_points: int

    def __post_init__(self):
        if self.n_points & (self.n_points - 1) or not 8 <= self.n_points <= MAX_N:
            raise GridError(
                f"n_points must be a power of two in [8, {MAX_N}], got {self.n_points}"
            )
        # a tiny L gives dx = 0, and 2L overflows for a huge one
        if not 0.0 < self.dx < math.inf:
            raise GridError(f"half_length must give a spacing 2L/N that is positive and "
                            f"finite, got {self.half_length} at N = {self.n_points}")
        # the solver's symbols square the largest wavenumber pi N / (2L); it is
        # squared by a product here, since a float ** raises on overflow
        k_max = math.pi * self.n_points / (2.0 * self.half_length)
        if not k_max * k_max < math.inf:
            raise GridError(f"half_length must give a largest squared wavenumber "
                            f"(pi N / (2L))**2 that is finite, got {self.half_length} "
                            f"at N = {self.n_points}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.n_points

    @property
    def measure(self) -> float:
        """Total length of the torus, 2L."""
        return 2.0 * self.half_length

    @property
    def x(self) -> np.ndarray:
        """Collocation points -L, -L+dx, ..., L-dx."""
        return -self.half_length + self.dx * np.arange(self.n_points)

    @property
    def k(self) -> np.ndarray:
        """Wavenumbers pi*j/L in FFT ordering, j = 0..N/2-1, -N/2..-1."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    @property
    def nyquist_index(self) -> int:
        """Position of the unpaired mode j = -N/2 in FFT ordering."""
        return self.n_points // 2

    def to_spectrum(self, samples: np.ndarray) -> np.ndarray:
        """Fourier coefficients c_k from collocation samples."""
        return np.fft.fft(samples, norm="forward")

    def from_spectrum(self, coeffs: np.ndarray) -> np.ndarray:
        """Collocation samples from Fourier coefficients c_k."""
        return np.fft.ifft(coeffs, norm="forward")

    def to_half_spectrum(self, samples: np.ndarray) -> np.ndarray:
        """Coefficients c_k, j = 0..N/2, of real samples (last axis): the
        first N/2 + 1 entries of ``to_spectrum``; the rest are their
        conjugates."""
        return np.fft.rfft(samples, norm="forward")

    def from_half_spectrum(self, coeffs: np.ndarray) -> np.ndarray:
        """Real collocation samples from the coefficients c_k, j = 0..N/2,
        the j < 0 half being their conjugates.  The imaginary parts of the
        zero and Nyquist modes are ignored."""
        return np.fft.irfft(coeffs, self.n_points, norm="forward")

    def weighted_sq(self, spec: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Parseval sum 2L * sum_k weights |c_k|^2 along the last axis."""
        return self.measure * np.sum(weights * np.abs(spec) ** 2, axis=-1)

    def integral(self, values: np.ndarray) -> np.ndarray:
        """Rectangle rule: dx times the real part of the sum along the last axis."""
        return self.dx * np.real(np.sum(values, axis=-1))

    def sup_norm(self, coeffs: np.ndarray) -> np.ndarray:
        """Sup norm of the band-limited function(s) with coefficients
        ``coeffs`` (last axis), on an eight-times zero-padded refinement.

        Collocation alone can undersample the true maximum of the underlying
        band-limited function; padding recovers it to high accuracy.  The
        rows are padded and transformed a chunk at a time, in place, through
        buffers of at most SUP_CHUNK_BYTES (one row when a row alone is
        larger); the result has the shape of ``coeffs`` without its last
        axis, a float for one row.
        """
        N = self.n_points
        M = 8 * N
        half = N // 2
        rows = coeffs.reshape(-1, N)
        chunk = max(1, min(len(rows), SUP_CHUNK_BYTES // (24 * M)))
        fine = np.zeros((chunk, M), dtype=np.complex128)
        modulus = np.empty((chunk, M))
        out = np.empty(len(rows))
        for lo in range(0, len(rows), chunk):
            block = rows[lo : lo + chunk]
            pad = fine[: len(block)]
            pad[:, half:-half] = 0  # the last transform overwrote the padding
            np.multiply(block[:, :half], M, out=pad[:, :half])
            np.multiply(block[:, -half:], M, out=pad[:, -half:])
            np.fft.ifft(pad, out=pad)
            np.max(np.abs(pad, out=modulus[: len(block)]), axis=1, out=out[lo : lo + len(block)])
        return out.reshape(coeffs.shape[:-1])[()]

    def dealias_mask(self) -> np.ndarray:
        """Boolean 2/3-rule mask: keep |j| <= N/3, drop the rest.

        The kept modes form the band, into which quadratic interactions of
        its own modes cannot alias.  The mask defines that band: the solver
        steps band rows at its indices, the smallness condition projects the
        data onto it, and a test function's resolution check measures the
        energy outside it.  The unpaired Nyquist mode is always dropped.
        """
        j = np.fft.fftfreq(self.n_points, d=1.0 / self.n_points)
        mask = np.abs(j) <= self.n_points // 3
        mask[self.nyquist_index] = False
        return mask

    def frac_symbol(self, order: float) -> np.ndarray:
        """|k|**(2*order) with the zero mode and the Nyquist mode zeroed.

        The Nyquist mode has no conjugate partner, so it is removed from all
        fractional-power multipliers to keep real fields exactly real.
        """
        k = self.k
        sym = np.zeros_like(k)
        nz = k != 0.0
        sym[nz] = np.abs(k[nz]) ** (2.0 * order)
        sym[self.nyquist_index] = 0.0
        return sym

    def deriv_symbol(self) -> np.ndarray:
        """ik with the Nyquist mode zeroed (first spectral derivative)."""
        d = 1j * self.k
        d[self.nyquist_index] = 0.0
        return d


def make_grid(L: float, N: int) -> GridSpec:
    """Build the periodic grid on [-L, L) with N a power of two in [8, MAX_N]."""
    return GridSpec(half_length=float(L), n_points=int(N))


def as_order(s) -> float:
    """The fractional order s as a float; ValueError outside (0, 1).  The
    coupled system and its estimates take only ``as_coupled_order``."""
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {s}")
    return s


def as_coupled_order(s) -> float:
    """The fractional order s as a float; ValueError outside (1/2, 1), where
    the coupled estimates hold (2/sqrt(pi(2s-1)) blows up at s = 1/2)."""
    if not 0.5 < (s := float(s)) < 1.0:
        raise ValueError(f"s must lie in (1/2, 1), got {s}")
    return s


class Field:
    """Grid-sampled function with a cached spectrum.

    Immutable by convention: the sample array is write-protected and all
    operations return new instances.  ``flavor`` is 'complex' for the
    short-wave unknown and 'real' for the long-wave unknown; real-flavored
    fields store float arrays and reject meaningful imaginary content.
    """

    __slots__ = ("grid", "values", "flavor", "_spectrum")

    def __init__(self, grid: GridSpec, values: np.ndarray, flavor: str = "complex"):
        if flavor not in ("complex", "real"):
            raise ValueError(f"unknown flavor {flavor!r}")
        values = np.asarray(values)
        if values.shape != (grid.n_points,):
            raise ValueError(
                f"samples shape {values.shape} does not match grid ({grid.n_points},)"
            )
        if flavor == "real":
            if np.iscomplexobj(values):
                scale = float(np.max(np.abs(values))) or 1.0
                imag = float(np.max(np.abs(values.imag)))
                if imag > REAL_IMAG_RTOL * max(scale, 1.0):
                    raise ValueError(
                        f"real-flavored field has imaginary part {imag:.3e}"
                    )
                values = values.real
            values = np.array(values, dtype=np.float64)
        else:
            values = np.array(values, dtype=np.complex128)
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self.flavor = flavor
        self._spectrum = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_function(cls, grid: GridSpec, fn: Callable, flavor: str = "complex") -> "Field":
        return cls(grid, fn(grid.x), flavor=flavor)

    @classmethod
    def from_spectrum(cls, grid: GridSpec, coeffs: np.ndarray, flavor: str = "complex") -> "Field":
        return cls(grid, grid.from_spectrum(coeffs), flavor=flavor)

    @classmethod
    def zero(cls, grid: GridSpec, flavor: str = "complex") -> "Field":
        dtype = np.float64 if flavor == "real" else np.complex128
        return cls(grid, np.zeros(grid.n_points, dtype=dtype), flavor=flavor)

    # -- spectral access --------------------------------------------------

    @property
    def spectrum(self) -> np.ndarray:
        """Fourier coefficients c_k; cached, read-only."""
        if self._spectrum is None:
            spec = self.grid.to_spectrum(self.values)
            spec.setflags(write=False)
            self._spectrum = spec
        return self._spectrum

    def with_spectrum(self, coeffs: np.ndarray) -> "Field":
        """New field of the same flavor from modified coefficients."""
        vals = self.grid.from_spectrum(coeffs)
        return Field(self.grid, vals, flavor=self.flavor)

    def mean(self) -> complex:
        return complex(self.spectrum[0])

    def is_mean_free(self) -> bool:
        scale = float(np.sqrt(np.sum(np.abs(self.spectrum) ** 2))) or 1.0
        return abs(self.spectrum[0]) <= ZERO_MODE_RTOL * max(scale, 1.0)

    # -- norms (rectangle-rule / Parseval) --------------------------------

    def norm_l2(self) -> float:
        return float(np.sqrt(self.grid.integral(np.abs(self.values) ** 2)))

    def norm_l4_4(self) -> float:
        """Fourth power of the L^4 norm."""
        return float(self.grid.integral(np.abs(self.values) ** 4))

    def norm_h1(self) -> float:
        return float(np.sqrt(self.grid.weighted_sq(self.spectrum, 1.0 + self.grid.k**2)))

    def norm_sup(self) -> float:
        """Sup norm on the padded refinement of ``GridSpec.sup_norm``."""
        return float(self.grid.sup_norm(self.spectrum))

    # -- algebra -----------------------------------------------------------

    def _like(self, values: np.ndarray, flavor: str | None = None) -> "Field":
        return Field(self.grid, values, flavor=flavor or self.flavor)

    def translated(self, cells: int) -> "Field":
        """Translation by an integer number of grid cells (exact)."""
        return self._like(np.roll(self.values, cells))

    def __repr__(self) -> str:
        return (
            f"Field(N={self.grid.n_points}, L={self.grid.half_length}, "
            f"flavor={self.flavor!r}, l2={self.norm_l2():.4g})"
        )
