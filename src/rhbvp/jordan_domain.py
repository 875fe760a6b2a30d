"""Star-like Jordan domains via Theodorsen's boundary correspondence.

A domain with boundary {rho(a) * exp(i a)} (rho positive, smooth, with
|rho'/rho| < 1) is the image of the disk under omega(z) = z * exp(S(z))
where S is the Schwarz integral of log rho composed with the boundary
correspondence sigma.  sigma solves Theodorsen's equation
sigma = t + K[log rho(sigma)], K the boundary conjugation, by Newton steps
from sigma = t (Wegmann, "Ein Iterationsverfahren zur konformen
Abbildung", Numer. Math. 30, 1978).  At the converged sigma the map's
boundary values are omega(e^{it_j}) = rho(sigma_j) e^{i sigma_j}, so the
Taylor coefficients of omega are one FFT of those points, cut where the
rest is rounding noise (Wegmann, "Methods for numerical conformal
mapping", Handbook of Complex Analysis vol. 2, 2005).

Solutions transplant: boundary data pulled back through the
correspondence is solved on the disk, F integrates f * omega', whose
series is the product of the exact series of f and omega', and
u(w) = Re F(omega^{-1}(w)) + d0 with gradient read off the disk
solution directly (the chain rule cancels omega').  The Neumann problem
is the case of the image inner normal, transplant_solve's default
direction, as solve_neumann's is on the disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .boundary_data import (BoundaryFunction, DirectionField, TWO_PI,
                            as_function, grid_nodes)
from .direction_solver import HarmonicSolution
from .disk_harmonic import SeriesEvaluator, trim_tail
from .errors import (ConfigurationError, ConvergenceDomainError,
                     ConvergenceError, DataError, InvariantViolation,
                     PointQueryError, RepresentationError)
from .neumann import compatibility_note
from .rh_solver import SolverParams, solve_rh

THEODORSEN_TOL = 1e-13  # sup-norm update of sigma that ends the iteration
THEODORSEN_MAX_ITER = 200
INVERT_TOL = 1e-13  # Newton step, relative to 1 + max |w|
INVERT_PHASES = (1e-2, 1e-4, 1e-8)  # relative l1 tails of omega's cut series
INVERT_MAX_ITER = 60


@dataclass
class ConformalMap:
    """omega maps the unit disk onto the star-like domain of radius rho."""

    rho: Callable
    rho_source: str
    correspondence: np.ndarray  # sigma at the nodes t_j = 2*pi*j/N
    omega: SeriesEvaluator
    omega_prime: SeriesEvaluator
    residual: float
    iterations: int
    slope: float = 0.0

    @property
    def N(self) -> int:
        return len(self.correspondence)

    def boundary_nodes(self) -> np.ndarray:
        return self.omega.eval_on_circle(1.0, self.N)

    def contains(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=complex)
        return np.abs(w) < np.asarray(self.rho(np.angle(w)), dtype=float) \
            * (1.0 - 1e-12)

    @cached_property
    def _newton_phases(self) -> list:
        """(omega cut, its derivative, sqrt(tau)) for each tau in
        INVERT_PHASES whose cut, at the least degree d with
        sum_{n >= d} |c_n| <= tau * sum |c_n|, is shorter than the next."""
        c = self.omega.coefficients
        tail = np.cumsum(np.abs(c[::-1]))[::-1]  # sum_{n >= k} |c_n|
        cuts = [int(np.sum(tail > tau * tail[0])) for tau in INVERT_PHASES]
        phases = []
        for tau, d, nxt in zip(INVERT_PHASES, cuts, cuts[1:] + [len(c)]):
            if d < nxt:
                cut = SeriesEvaluator(c[:d])
                phases.append((cut, cut.derivative(), np.sqrt(tau)))
        return phases

    def invert(self, w) -> np.ndarray:
        """Newton inversion of omega, in the shape of w; point queries that
        fail raise PointQueryError.

        Points that contains() rejects fail before any Newton step.  Newton
        runs in phases (inexact Newton; Dembo, Eisenstat and Steihaug,
        1982): on each cut omega of _newton_phases a point leaves once its
        own step is below sqrt(tau), then on the full omega once it is
        below INVERT_TOL * (1 + max |w|).  A step evaluates only the points
        still moving, so on star3's CLI grid the phases do 0.54 of the
        Horner work of the full series alone.  The final residual check
        covers every point."""
        w = np.asarray(w, dtype=complex)
        flat = w.ravel()
        if flat.size == 0:
            return flat.reshape(w.shape)
        outside = int(np.sum(~self.contains(flat)))
        if outside:
            raise PointQueryError(
                f"map inversion failed at {outside} of {flat.size} points "
                f"(outside the domain)")
        z = flat / np.maximum(np.asarray(self.rho(np.angle(flat)), float), 1e-12)
        z *= 0.99
        full = (self.omega, self.omega_prime,
                INVERT_TOL * (1.0 + np.max(np.abs(flat))))
        for omega, omega_prime, tol in self._newton_phases + [full]:
            active = np.arange(flat.size)  # flat indices of the moving points
            for _ in range(INVERT_MAX_ITER):
                za = z[active]
                step = omega._horner(za)
                step -= flat[active]
                step /= omega_prime._horner(za)
                za -= step
                # keep iterates inside the closed disk
                r = np.abs(za)
                bad = r >= 1.0
                if np.any(bad):
                    za[bad] = za[bad] / r[bad] * (1.0 - 1e-9)
                z[active] = za
                active = active[np.abs(step) >= tol]
                if active.size == 0:
                    break
        resid = np.abs(self.omega._horner(z) - flat)
        ok = resid < 1e-9 * (1.0 + np.abs(flat))
        if not np.all(ok):
            raise PointQueryError(
                f"map inversion failed at {int(np.sum(~ok))} of {flat.size} "
                f"points (max residual {float(np.max(resid)):.3e})")
        return z.reshape(np.shape(w)) if np.ndim(w) else complex(z[0])


def theodorsen_map(rho, N: int = 1024) -> ConformalMap:
    """Conformal map onto the star-like domain with radius function rho.

    Each Newton step delta solves delta - K[theta delta] = r, with the
    update r = t + K[log rho(sigma)] - sigma and theta = (log rho)'(sigma):
    U = theta delta + i K[theta delta] has Re((1 + i theta) U) = theta r
    and Im U(0) = 0 (winding 0), so U = e^{K[beta] - i beta} (q + i (K[q]
    + c)), beta = arctan theta, q = theta r cos(beta) e^{-K[beta]}, c =
    tan(mean beta) mean q.  sigma + delta is t + K[log rho(sigma) + Re U].
    theta = d/dt log rho(sigma) / sigma' from trim_tail-cut series; the
    step whose update is below THEODORSEN_TOL is the last.  A failed omega'
    check is a RepresentationError when omega keeps >= N/2 terms."""
    fn, src = as_function(rho, var="a", what="a radius function")
    t = grid_nodes(N)
    rvals = np.asarray(fn(t), dtype=float)
    if not np.all(np.isfinite(rvals)) or np.any(rvals <= 0):
        raise DataError("radius function must be positive and finite")
    lr = np.log(rvals)  # the class: max |d(log rho)/da| < 1
    dlr = np.fft.irfft(1j * np.arange(N // 2 + 1) * np.fft.rfft(lr), N)
    slope = float(np.max(np.abs(dlr)))
    if slope >= 1.0:
        raise ConvergenceDomainError(
            f"max |rho'/rho| = {slope:.4f} >= 1: outside the Theodorsen "
            f"contraction region")

    def K(x):  # conjugate_boundary's conjugation, without its data checks
        return np.fft.irfft(np.r_[0.0, -1j * np.fft.rfft(x)[1:-1]], N)

    def d_dt(x):  # spectral derivative, rounding noise cut first
        c = trim_tail(np.fft.rfft(x))
        return np.fft.irfft(1j * np.arange(len(c)) * c, N)

    sigma = t.copy()
    for iterations in range(1, THEODORSEN_MAX_ITER + 1):
        ls = np.log(np.asarray(fn(np.mod(sigma, TWO_PI)), dtype=float))
        r = t + K(ls) - sigma
        delta = float(np.max(np.abs(r)))
        theta = d_dt(ls) / (1.0 + d_dt(sigma - t))  # (log rho)'(sigma)
        beta = np.arctan(theta)
        cb, eb = np.cos(beta), np.exp(K(beta))
        q = theta * r * cb / eb
        c = np.tan(np.mean(beta)) * np.mean(q)
        sigma = t + K(ls + eb * cb * (q + theta * (K(q) + c)))
        if delta < THEODORSEN_TOL:
            break
    else:
        raise ConvergenceError(
            f"Theodorsen iteration did not reach {THEODORSEN_TOL:g} within "
            f"{THEODORSEN_MAX_ITER} steps (last update {delta:.3e})")

    radii = np.asarray(fn(np.mod(sigma, TWO_PI)), dtype=float)
    om = np.fft.fft(radii * np.exp(1j * sigma))[:N // 2 + 1] / N
    om[0] = 0.0
    om = trim_tail(om)  # Newton inversion pays for every term kept
    omega = SeriesEvaluator(om)
    omega_prime = omega.derivative()

    wb = omega.eval_on_circle(1.0, N)
    residual = float(np.max(np.abs(np.abs(wb)
                                   - np.asarray(fn(np.angle(wb)), dtype=float))))

    def broken(msg):  # an omega of at least N/2 terms: N is too small
        if len(om) < N // 2:
            return InvariantViolation(msg)
        return RepresentationError(
            f"N = {N} does not resolve the domain: omega keeps {len(om)} "
            f"of {N // 2 + 1} terms, and {msg}")

    if not (om[1].real > 0 and abs(om[1].imag) <= 1e-12 * max(1.0, om[1].real)):
        raise broken(f"omega'(0) must be real positive, got {om[1]:.6g}")
    probe = np.concatenate([r * np.exp(2j * np.pi * np.arange(256) / 256)
                            for r in (0.3, 0.6, 0.95)])
    opv = np.abs(omega_prime._horner(probe))
    if float(np.min(opv)) < 1e-10 * float(np.max(opv)):
        raise broken("omega' vanishes inside |z| <= 0.95")

    return ConformalMap(rho=fn, rho_source=src, correspondence=sigma,
                        omega=omega, omega_prime=omega_prime,
                        residual=residual, iterations=iterations, slope=slope)


def image_inner_normal(cmap: ConformalMap) -> DirectionField:
    """Inner normal of the image domain at omega(exp(i t)), in parameter t.

    The counterclockwise tangent is i e^{it} omega'/|omega'|, so the
    inner normal is -e^{it} omega'/|omega'|: winding one plus a smooth
    remainder from the map derivative.
    """
    t = grid_nodes(cmap.N)
    opb = cmap.omega_prime.eval_on_circle(1.0, cmap.N)
    vals = -np.exp(1j * t) * opb / np.abs(opb)
    return DirectionField.from_samples(vals)


def transplant_solve(cmap: ConformalMap, phi: BoundaryFunction,
                     params: SolverParams | None = None,
                     nu: DirectionField | None = None) -> HarmonicSolution:
    """Directional problem on the image domain, data in the parameter t.

    nu defaults to the image inner normal: the Neumann problem, whose
    solution carries the compatibility note.  The disk problem for the
    pulled-back pair is solved, F integrates f * omega', and the returned
    solution evaluates through Newton inversion; the map note says when
    omega keeps >= N/2 terms (N may not resolve the domain)."""
    params = params or SolverParams()
    if phi.N != cmap.N:
        raise ConfigurationError(
            f"boundary data N={phi.N} does not match the map N={cmap.N}")
    sol = solve_rh(image_inner_normal(cmap) if nu is None else nu, phi, params)
    d = len(cmap.omega.coefficients)
    notes = sol.notes + [
        f"transplanted through a degree-{d} map (residual "
        f"{cmap.residual:.3e}, {cmap.iterations} iterations)"
        + ("" if d < cmap.N // 2 else f"; omega keeps {d} of "
           f"{cmap.N // 2 + 1} terms: N = {cmap.N} may not resolve the domain")]
    note = compatibility_note(phi, cmap) if nu is None else None
    return HarmonicSolution(f_source=sol, d0=params.d0, conformal_map=cmap,
                            notes=notes + ([note] if note else []))
