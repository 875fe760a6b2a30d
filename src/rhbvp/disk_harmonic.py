"""Harmonic analysis on the unit disk.

Schwarz integral, boundary conjugation, truncated power series
evaluation, and nontangential (Stolz) approach paths.  Every transform
here acts on periodic data through the FFT; the winding of a direction
field never reaches this module, because measurable_arg reduces it
before conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary_data import BoundaryFunction
from .errors import ConfigurationError, DataError, DomainError


# ----------------------------------------------------------------------
# power series
# ----------------------------------------------------------------------

@dataclass
class SeriesEvaluator:
    """Truncated power series sum c_n z^n, evaluated on the open unit disk."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.ndim != 1 or len(c) == 0:
            raise DataError("series coefficients must be a nonempty 1-d array")
        self.coefficients = c

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
        """Values at z = rho*exp(2*pi*i*k/M), k = 0..M-1, via FFT."""
        c = self.coefficients
        scaled = c * rho ** np.arange(len(c))
        return np.fft.ifft(_blocks(scaled, M).sum(axis=0)) * M

    def eval_on_rays(self, scales: np.ndarray, V: int) -> np.ndarray:
        """Values at z = s * exp(2*pi*i*v/V) for each complex scale s.

        Returns an array of shape (len(scales), V).  Used for fast fans
        of Stolz-path points: a path point z_j = zeta_v * s_j shares the
        scale s_j across all V vertices.

        With n = k*V + m the folded bin m is s^m * sum_k c_{kV+m} (s^V)^k,
        so the coefficients are reshaped once into q = ceil(L/V) blocks
        of V and one Horner pass in s^V over the blocks serves every
        scale at once; the s^m factor and a batched inverse FFT finish.
        Plain elementwise numpy on purpose: a complex BLAS product here
        (OpenBLAS zgemm) was seen to slow later complex powers and
        exponentials in the same process about tenfold.
        """
        s = np.asarray(scales, dtype=complex).reshape(-1, 1)
        blocks = _blocks(self.coefficients, V)
        sV = s ** V
        acc = np.repeat(blocks[-1][None, :], len(s), axis=0)
        for row in blocks[-2::-1]:
            acc *= sV
            acc += row
        powers = np.empty_like(acc)  # s^m, m < V, by running product
        powers[:, 0] = 1.0
        powers[:, 1:] = s
        acc *= np.cumprod(powers, axis=1, out=powers)
        return np.fft.ifft(acc, axis=1) * V


def _blocks(coeffs: np.ndarray, M: int) -> np.ndarray:
    """c_n zero-padded to q*M terms as a (q, M) array; row k holds n = kM + m."""
    L = len(coeffs)
    q = -(-L // M)
    buf = np.zeros(q * M, dtype=complex)
    buf[:L] = coeffs
    return buf.reshape(q, M)


# ----------------------------------------------------------------------
# boundary transforms
# ----------------------------------------------------------------------

def analytic_coefficients(samples: np.ndarray) -> np.ndarray:
    """Coefficients of the analytic completion of real boundary samples.

    c_0 = mean, c_n = 2*fft(samples)[n]/N for 0 < n < N/2; the resulting
    series has real part reproducing the band-limited interpolant and
    imaginary part 0 at the origin.
    """
    s = np.asarray(samples, dtype=float)
    N = len(s)
    F = np.fft.fft(s) / N
    c = np.zeros(N // 2, dtype=complex)
    c[0] = F[0].real
    c[1:] = 2.0 * F[1:N // 2]
    return c


def schwarz_integral(bf: BoundaryFunction) -> SeriesEvaluator:
    """Analytic function with boundary real part bf and Im = 0 at z = 0."""
    if bf.kind != "real":
        raise DataError("schwarz_integral requires real-valued boundary data")
    return SeriesEvaluator(analytic_coefficients(bf.samples))


def _boundary_values_of_series(c: np.ndarray, L: int) -> np.ndarray:
    """Values of sum c_n exp(i n theta) at L uniform nodes via padded iFFT."""
    if len(c) > L:
        raise ConfigurationError(
            f"target grid L={L} is below the series length {len(c)}")
    buf = np.zeros(L, dtype=complex)
    buf[:len(c)] = c
    return np.fft.ifft(buf) * L


def conjugate_boundary(bf: BoundaryFunction, L: int | None = None) -> BoundaryFunction:
    """Boundary values of the harmonic conjugate (conjugate vanishing at 0)
    on L uniform nodes, by band-limited interpolation of bf."""
    if bf.kind != "real":
        raise DataError("conjugate_boundary requires real-valued boundary data")
    H = _boundary_values_of_series(analytic_coefficients(bf.samples), L or bf.N)
    # a copy, not a view: the view would keep the complex values alive
    return BoundaryFunction(samples=H.imag.copy(), kind="real", jumps=bf.jumps)


def exp_series(b: np.ndarray, M: int | None = None) -> np.ndarray:
    """Power series coefficients of exp(sum b_k z^k), length M.

    Standard recurrence: w_0 = exp(b_0), n*w_n = sum_{k=1}^{n} k*b_k*w_{n-k}.
    """
    b = np.asarray(b, dtype=complex)
    M = M or len(b)
    w = np.zeros(M, dtype=complex)
    w[0] = np.exp(b[0])
    kb = np.arange(len(b)) * b
    for n in range(1, M):
        kmax = min(n, len(b) - 1)
        stop = n - kmax - 1
        seg = w[n - 1:stop:-1] if stop >= 0 else w[n - 1::-1]
        w[n] = np.dot(kb[1:kmax + 1], seg) / n
    return w


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

