"""From analytic solutions to harmonic ones.

The directional problem grad u . nu -> phi is solved by taking f from
the Riemann-Hilbert construction and setting u = Re F + d0 with F an
antiderivative of f (F' = f, F(0) = 0).  Then (u_x, u_y) = (Re f, -Im f)
and the directional derivative along a unit direction e (as a complex
number) is Re(e * f).

The antiderivative is recovered spectrally: f is sampled on a circle of
radius rho_sample, the power series coefficients are read off the FFT,
sub-threshold coefficients are dropped, and the series is integrated
termwise.  Non-decaying recovered coefficients mean f is not represented
by a power series at this radius and raise RepresentationError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary_data import BoundaryFunction, DirectionField
from .disk_harmonic import SeriesEvaluator
from .errors import (ConfigurationError, DataError, DomainError,
                     RepresentationError)
from .rh_solver import AnalyticSolution, SolverParams, solve_rh


def antiderivative(sol: AnalyticSolution, M: int = 4096,
                   rho_sample: float = 0.5,
                   drop_tol: float = 1e-14) -> SeriesEvaluator:
    """Antiderivative F of the solution's f with F(0) = 0, as a power series.

    f is sampled at max(M, 4N) points of the circle of radius rho_sample;
    coefficients n >= M/2 are not recovered.
    """
    M = max(M, 4 * sol.N)
    vals = sol.f_on_scales(np.array([rho_sample]), M)[0]
    return antiderivative_from_circle(vals, rho_sample, drop_tol)


def antiderivative_from_circle(vals: np.ndarray, rho_sample: float = 0.5,
                               drop_tol: float = 1e-14) -> SeriesEvaluator:
    """Antiderivative recovery from samples of f on a centered circle."""
    vals = np.asarray(vals, dtype=complex)
    M = len(vals)
    if not np.all(np.isfinite(vals)):
        raise RepresentationError("f is non-finite on the sampling circle")
    d = np.fft.fft(vals) / M
    mag = np.abs(d[:M // 2])
    top = float(np.max(mag))
    if top == 0.0:
        return SeriesEvaluator(np.zeros(1))
    # non-decaying |d_n| = |c_n| * rho^n means no convergent series here
    mid = float(np.max(mag[M // 8:M // 4]))
    last = float(np.max(mag[7 * M // 16:M // 2]))
    if last > 1e-12 * top and last >= 0.5 * mid:
        raise RepresentationError(
            "recovered coefficients do not decay "
            f"(|c_n| rho^n ~ {last:.2e} at the tail vs {mid:.2e} mid-band); "
            "reduce rho_sample or check analyticity")
    c = d[:M // 2].copy()
    c[mag < drop_tol * top] = 0.0
    nz = np.flatnonzero(np.abs(c))
    c = c[:nz[-1] + 1] if len(nz) else c[:1]
    c *= rho_sample ** -np.arange(len(c), dtype=float)
    return SeriesEvaluator(c).integrate()


@dataclass
class HarmonicSolution:
    """u = Re F + d0 with grad u read off f = F'.

    nu and phi default to f_source's; a nu whose samples differ from
    f_source's is refused, since the verifier pairs f with f_source.nu.
    """

    F: SeriesEvaluator
    f_source: AnalyticSolution
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
        if self.conformal_map is None:
            mask = np.abs(W) < 1.0
        else:
            mask = self.conformal_map.contains(W)
        U = np.full(W.shape, np.nan)
        if np.any(mask):
            U[mask] = self.u(W[mask])
        return U, mask


def solve_directional(nu: DirectionField, phi: BoundaryFunction,
                      params: SolverParams | None = None) -> HarmonicSolution:
    """Solve grad u . nu -> phi nontangentially a.e. on the unit circle."""
    params = params or SolverParams(N=nu.N)
    sol = solve_rh(nu, phi, params)
    F = antiderivative(sol, M=4 * sol.N, rho_sample=params.rho_sample,
                       drop_tol=params.drop_tol)
    return HarmonicSolution(F=F, d0=params.d0, f_source=sol,
                            notes=list(sol.notes))
