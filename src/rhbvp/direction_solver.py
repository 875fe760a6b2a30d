"""From analytic solutions to harmonic ones.

The directional problem grad u . nu -> phi is solved by taking f from
the Riemann-Hilbert construction and setting u = Re F + d0 with F an
antiderivative of f (F' = f, F(0) = 0).  Then (u_x, u_y) = (Re f, -Im f)
and the directional derivative along a unit direction e (as a complex
number) is Re(e * f).

HarmonicSolution builds F with antiderivative: the Taylor terms
n < SAMPLES/2 of f, or of f * omega' on a map, whose modulus times
RHO_SAMPLE^n is at least DROP_TOL times the largest whatever N is, read
off the exact series of f and of omega' (f is never sampled) and
integrated termwise.  antiderivative_from_circle recovers F by FFT from
samples of any other function on the circle of radius RHO_SAMPLE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary_data import BoundaryFunction, DirectionField
from .disk_harmonic import SeriesEvaluator
from .errors import (ConfigurationError, DataError, DomainError,
                     RepresentationError, count)
from .rh_solver import AnalyticSolution, SolverParams, solve_rh

RHO_SAMPLE = 0.5  # radius at which F's terms are weighed
M_MAX = 2 ** 26  # antiderivative's largest M
DROP_TOL = 1e-14  # coefficients below DROP_TOL * max are dropped
# F keeps the terms with RHO_SAMPLE^n above DROP_TOL, n < 47 whatever N
# is; four times as many samples, rounded up to a power of two, recover
# them and leave the non-decay check's tail band at rounding level
SAMPLES = 1 << int(np.ceil(np.log2(4 * np.log(DROP_TOL) / np.log(RHO_SAMPLE))))


def antiderivative(sol: AnalyticSolution, M: int = SAMPLES,
                   cmap=None) -> SeriesEvaluator:
    """Antiderivative F with F(0) = 0 of d = f, or of d = f * omega' for
    the ConformalMap cmap, from f's exact series (taylor_coefficients).

    F keeps the terms n < M/2 with |d_n| RHO_SAMPLE^n at least DROP_TOL
    times the largest.  d_n for n < K needs only f_n for n < K, and
    |f_n| <= a + b n gives |d_n| <= (a + b n) ||omega'||_1, a bound that
    times RHO_SAMPLE^n does not increase for n >= RHO_SAMPLE / (1 -
    RHO_SAMPLE): once it is below DROP_TOL times the largest term of
    n < K, no n >= K is kept.  K starts where RHO_SAMPLE^n is DROP_TOL^2
    and doubles, up to M/2, until that holds.  M is read by
    errors.count, from 8 to M_MAX.
    """
    count(M, "M", 8, M_MAX)
    half = M // 2
    K = min(half, int(np.ceil(2 * np.log(DROP_TOL) / np.log(RHO_SAMPLE))))
    while True:
        d, a, b = sol.taylor_coefficients(K)
        if cmap is not None:
            op = cmap.omega_prime.coefficients
            d, l1 = np.convolve(d, op)[:K], float(np.abs(op).sum())
            a, b = a * l1, b * l1
        d = d * RHO_SAMPLE ** np.arange(K, dtype=float)
        top = float(np.max(np.abs(d)))
        if K == half or (a + b * K) * RHO_SAMPLE ** K < DROP_TOL * top:
            return _kept_integral(d, top)
        K = min(half, 2 * K)


def antiderivative_from_circle(vals: np.ndarray) -> SeriesEvaluator:
    """F from M samples of f on the circle of radius RHO_SAMPLE."""
    vals = np.asarray(vals, dtype=complex)
    M = len(vals)
    if not np.all(np.isfinite(vals)):
        raise RepresentationError("f is non-finite on the sampling circle")
    d = np.fft.fft(vals)[:M // 2] / M
    mag = np.abs(d)
    top = float(np.max(mag))
    # non-decaying |d_n| = |c_n| * rho^n means no convergent series here
    mid = float(np.max(mag[M // 8:M // 4]))
    last = float(np.max(mag[7 * M // 16:M // 2]))
    if last > 1e-12 * top and last >= 0.5 * mid:
        raise RepresentationError(
            "recovered coefficients do not decay "
            f"(|c_n| rho^n ~ {last:.2e} at the tail vs {mid:.2e} mid-band); "
            "reduce RHO_SAMPLE or check analyticity")
    return _kept_integral(d, top)


def _kept_integral(d: np.ndarray, top: float) -> SeriesEvaluator:
    """F from d_n = f_n RHO_SAMPLE^n whose largest modulus is top: the
    terms below DROP_TOL * top are dropped, the rest rescaled by
    RHO_SAMPLE^-n and integrated termwise."""
    if top == 0.0:
        return SeriesEvaluator(np.zeros(1))
    c = d.copy()
    c[np.abs(d) < DROP_TOL * top] = 0.0
    nz = np.flatnonzero(np.abs(c))
    c = c[:nz[-1] + 1]
    c *= RHO_SAMPLE ** -np.arange(len(c), dtype=float)
    return SeriesEvaluator(c).integrate()


@dataclass
class HarmonicSolution:
    """u = Re F + d0 with grad u read off f = F'.

    F defaults to antiderivative(f_source, cmap=conformal_map).  nu and
    phi default to f_source's; a nu whose samples differ from f_source's
    is refused, since the verifier pairs f with f_source.nu.
    """

    f_source: AnalyticSolution
    F: SeriesEvaluator | None = None
    d0: float = 0.0
    nu: DirectionField | None = None
    phi: BoundaryFunction | None = None
    conformal_map: object | None = None  # ConformalMap when transplanted
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        src = self.f_source
        if self.nu is not None and not np.array_equal(self.nu.samples,
                                                      src.nu.samples):
            raise ConfigurationError(
                "nu differs from the direction field f_source was solved for")
        self.nu = src.nu if self.nu is None else self.nu
        self.phi = src.phi if self.phi is None else self.phi
        if self.F is None:
            self.F = antiderivative(src, cmap=self.conformal_map)

    def contains(self, w) -> np.ndarray:
        """Mask of the points w inside the solution's domain."""
        if self.conformal_map is None:
            return np.abs(np.asarray(w, dtype=complex)) < 1.0
        return self.conformal_map.contains(w)

    def _preimage(self, w):
        if self.conformal_map is None:
            z = np.asarray(w, dtype=complex)
            if np.any(np.abs(z) >= 1.0):
                raise DomainError("evaluation requires |z| < 1")
            return z
        return self.conformal_map.invert(w)

    def u(self, w):
        return self.F._horner(self._preimage(w)).real + self.d0

    __call__ = u

    def f(self, w):
        """The derivative generating u; on mapped domains this is dF/dw
        at the query point (chain rule cancels the map derivative)."""
        return self.f_source.f(self._preimage(w))

    def grad(self, w):
        """(u_x, u_y) = (Re f, -Im f)."""
        fv = self.f(w)
        return fv.real, -fv.imag

    def dir_deriv(self, w, direction):
        """Directional derivative along a unit complex direction."""
        e = np.asarray(direction, dtype=complex)
        if np.any(np.abs(np.abs(e) - 1.0) > 1e-8):
            raise DataError("direction must be unit-modulus")
        return (e * self.f(w)).real

    def on_grid(self, xs: np.ndarray, ys: np.ndarray):
        """u on a Cartesian grid; returns (U, mask) with NaN off-domain."""
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        W = X + 1j * Y
        mask = self.contains(W)
        U = np.full(W.shape, np.nan)
        U[mask] = self.u(W[mask])
        return U, mask


def solve_directional(nu: DirectionField, phi: BoundaryFunction,
                      params: SolverParams | None = None) -> HarmonicSolution:
    """Solve grad u . nu -> phi nontangentially a.e. on the unit circle."""
    params = params or SolverParams()
    sol = solve_rh(nu, phi, params)
    return HarmonicSolution(f_source=sol, d0=params.d0, notes=list(sol.notes))
