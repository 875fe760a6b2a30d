"""Harmonic analysis on the unit disk.

Schwarz integral, boundary conjugation, truncated power series
evaluation, and nontangential (Stolz) approach paths.  Every transform
here acts on periodic data through the FFT, with no per-coefficient
loop; the winding of a direction field never reaches this module,
because measurable_arg reduces it before conjugation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary_data import BoundaryFunction
from .errors import ConfigurationError, DataError, DomainError

RAY_CHUNK = 64  # scales per real matrix product in eval_on_rays


# ----------------------------------------------------------------------
# power series
# ----------------------------------------------------------------------

@dataclass
class SeriesEvaluator:
    """Truncated power series sum c_n z^n, evaluated on the open unit disk.

    Trailing exact-zero coefficients are dropped, at least one term kept;
    a series that drops some copies what it keeps, so the tail's buffer
    is freed, and any other keeps its array.
    No value changes: Horner's steps over top zero coefficients give
    exact zeros, and a matrix product over all-zero blocks adds zeros.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.ndim != 1 or len(c) == 0:
            raise DataError("series coefficients must be a nonempty 1-d array")
        nonzero = np.flatnonzero(c)
        n = nonzero[-1] + 1 if len(nonzero) else 1
        self.coefficients = c[:n].copy() if n < len(c) else c

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z) >= 1.0):
            raise DomainError("series evaluation requires |z| < 1")
        return self._horner(z)

    def _horner(self, z):
        c = self.coefficients
        out = np.full(np.shape(z), c[-1], dtype=complex)
        for k in range(len(c) - 2, -1, -1):
            out *= z
            out += c[k]
        return out

    def derivative(self) -> "SeriesEvaluator":
        c = self.coefficients
        if len(c) == 1:
            return SeriesEvaluator(np.zeros(1, dtype=complex))
        n = np.arange(1, len(c))
        return SeriesEvaluator(c[1:] * n)

    def integrate(self) -> "SeriesEvaluator":
        """Termwise antiderivative with F(0) = 0."""
        c = self.coefficients
        n = np.arange(1, len(c) + 1)
        return SeriesEvaluator(np.concatenate([[0.0], c / n]))

    def eval_on_circle(self, rho: float, M: int) -> np.ndarray:
        """Values at z = rho*exp(2*pi*i*k/M), k = 0..M-1: one ray scale."""
        return self.eval_on_rays(np.array([rho]), M)[0]

    def fold(self, V: int) -> np.ndarray:
        """The coefficients zero-padded to q = ceil(L/V) blocks of V, as
        the read-only (q, 2V) float view that eval_on_rays multiplies."""
        c = self.coefficients
        blocks = np.zeros(-(-len(c) // V) * V, dtype=complex)
        blocks[:len(c)] = c
        blocks = blocks.reshape(-1, V).view(float)
        blocks.flags.writeable = False
        return blocks

    def eval_on_rays(self, scales: np.ndarray, V: int,
                     blocks: np.ndarray | None = None) -> np.ndarray:
        """Values at z = s * exp(2*pi*i*v/V) for each complex scale s.

        Returns an array of shape (len(scales), V).  Used for fast fans
        of Stolz-path points: a path point z_j = zeta_v * s_j shares the
        scale s_j across all V vertices.

        With n = k*V + m the folded bin m is s^m * sum_k c_{kV+m} (s^V)^k,
        a matrix product: the powers P[i, k] = (s_i^V)^k, k < q = ceil(L/V),
        times the (q, V) blocks of the coefficients.  It runs as real
        products (dgemm) on the blocks' float view, (q, 2V) with re/im
        interleaved, which needs no copy: Re P times it gives P @ B for
        real P, and Im P times it, rotated by i, is added only when a
        scale is complex.  Scales go in chunks of RAY_CHUNK into one
        preallocated output, each finished by its s^m factor and an
        inverse FFT copied back into its rows, so the peak is the output
        plus one chunk.  (ifft's ``out=`` would save that copy but needs
        NumPy 2.)  blocks, fold(V) when given, spares calls on the same V
        their own padded copy of the coefficients.
        No complex product: a complex BLAS call here (OpenBLAS zgemm)
        was seen to slow later complex powers and exponentials in the
        same process about tenfold.
        """
        s = np.asarray(scales, dtype=complex).reshape(-1, 1)
        blocks = self.fold(V) if blocks is None else blocks
        out = np.empty((len(s), V), dtype=complex)
        for i in range(0, len(s), RAY_CHUNK):
            sc, acc = s[i:i + RAY_CHUNK], out[i:i + RAY_CHUNK]
            P = _running_powers(sc ** V, len(blocks))
            np.matmul(np.ascontiguousarray(P.real), blocks, out=acc.view(float))
            if np.any(P.imag):
                acc += 1j * (np.ascontiguousarray(P.imag) @ blocks).view(complex)
            acc *= _running_powers(sc, V)
            acc[:] = np.fft.ifft(acc, axis=1)
        out *= V
        return out


def _running_powers(x: np.ndarray, n: int) -> np.ndarray:
    """x^k for k < n along axis 1 by running product; x has shape (m, 1)."""
    p = np.empty((len(x), n), dtype=complex)
    p[:, 0] = 1.0
    p[:, 1:] = x
    return np.cumprod(p, axis=1, out=p)


# ----------------------------------------------------------------------
# boundary transforms
# ----------------------------------------------------------------------

def analytic_coefficients(samples: np.ndarray) -> np.ndarray:
    """Coefficients of the analytic completion of real boundary samples.

    c_0 = mean, c_n = 2*rfft(samples)[n]/N for 0 < n < N/2; the resulting
    series has real part reproducing the band-limited interpolant and
    imaginary part 0 at the origin.
    """
    s = np.asarray(samples, dtype=float)
    N = len(s)
    c = np.fft.rfft(s)[:N // 2] / N
    c[1:] *= 2.0
    return c


def unit_powers(c, L: int, n: int | None = None) -> np.ndarray:
    """e^{i k c} for k < n (default L), one row per angle c.  With k = a*m + b
    and m = ceil(sqrt(L)) it is the outer product of e^{i a m c} and
    e^{i b c}, m + ceil(n/m) exponentials per angle; a prefix is bitwise
    the first n of L."""
    c = np.asarray(c, dtype=float).reshape(-1, 1, 1)
    n = L if n is None else n
    m = math.isqrt(L - 1) + 1
    a, b = np.arange(-(-n // m)), np.arange(m)
    rows = np.exp(1j * m * c * a[:, None]) * np.exp(1j * c * b)
    return rows.reshape(len(c), len(a) * m)[:, :n]


def sawtooth_coefficients(c: np.ndarray, J: np.ndarray, L: int,
                          n: int | None = None) -> np.ndarray:
    """The first n (default L) of the L Taylor coefficients of
    sum_j (i J_j/pi) log(1 - z/zeta_j), zeta_j = e^{i c_j}, the analytic
    completion of the jumps sum_j J_j (pi - (theta - c_j) mod 2 pi)/(2 pi)
    (Eckhoff, Math. Comp. 64, 1995): 0, then -i J e^{-i n c}/(pi n).
    O(jumps * n), and bitwise the first n of L."""
    n = L if n is None else n
    t = np.zeros(n, dtype=complex)
    for cj, Jj in zip(c, J):
        row = unit_powers(-cj, L, n)[0]
        row *= Jj
        t += row
    t[:1] = 0.0
    t[1:] *= -1j / (np.pi * np.arange(1, n))
    return t


def schwarz_integral(bf: BoundaryFunction) -> SeriesEvaluator:
    """Analytic function with boundary real part bf and Im = 0 at z = 0."""
    if bf.kind != "real":
        raise DataError("schwarz_integral requires real-valued boundary data")
    return SeriesEvaluator(analytic_coefficients(bf.samples))


def conjugate_boundary(bf: BoundaryFunction, L: int | None = None) -> BoundaryFunction:
    """Boundary values of the harmonic conjugate (conjugate vanishing at 0)
    on L >= N uniform nodes, by band-limited interpolation of bf: one real
    inverse FFT, since Im(c_n e^{in theta}) = Re(-i c_n e^{in theta})."""
    if bf.kind != "real":
        raise DataError("conjugate_boundary requires real-valued boundary data")
    L = L or bf.N
    if L < bf.N:
        raise ConfigurationError(
            f"target grid L={L} is below N={bf.N}")
    c = analytic_coefficients(bf.samples)
    buf = np.zeros(L // 2 + 1, dtype=complex)
    buf[:len(c)] = -0.5j * L * c
    return BoundaryFunction(samples=np.fft.irfft(buf, L), kind="real",
                            jumps=bf.jumps)


# ----------------------------------------------------------------------
# nontangential limits
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StolzPath:
    """Dyadic approach path to exp(i*angle) inside a Stolz region.

    Points z_j = zeta * r_j * exp(i*kappa*(1 - r_j)) with r_j = 1 - 2^-j
    for j = j_min..j_max; kappa = 0 is the radial path.
    """

    angle: float
    aperture: float = 0.0
    j_min: int = 3
    j_max: int = 7

    def __post_init__(self):
        if self.j_max < self.j_min + 3:
            raise ConfigurationError(
                f"Stolz path needs at least 4 points (j_max >= j_min + 3), "
                f"got j_min={self.j_min}, j_max={self.j_max}")

    @property
    def radii(self) -> np.ndarray:
        return 1.0 - 2.0 ** (-np.arange(self.j_min, self.j_max + 1, dtype=float))

    @property
    def scales(self) -> np.ndarray:
        r = self.radii
        return r * np.exp(1j * self.aperture * (1.0 - r))


def default_j_max(N: int) -> int:
    """Deepest dyadic level resolvable by an N-node construction.

    Never below 6: a Stolz path needs four levels from j_min = 3 even
    when coarse grids cannot truly resolve that depth.
    """
    return max(6, int(np.floor(np.log2(N / 8.0))))


def converged_sequence(values: np.ndarray, tol: float) -> np.ndarray:
    """Convergence flag(s) for approach sequences along the last axis.

    The last successive difference must be below tol, and either the last
    three differences are non-increasing or they are all already at the
    rounding floor (below tol*1e-3), which keeps the flag stable when the
    sequence has converged to machine precision and the differences are
    pure noise.
    """
    v = np.asarray(values)
    if v.shape[-1] < 4:
        raise ConfigurationError("convergence check needs at least 4 path values")
    d = np.abs(np.diff(v, axis=-1))
    mono = (d[..., -3] >= d[..., -2]) & (d[..., -2] >= d[..., -1])
    small = np.max(d[..., -3:], axis=-1) < tol * 1e-3
    return (d[..., -1] < tol) & (mono | small)

