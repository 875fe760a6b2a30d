"""Star-like Jordan domains via Theodorsen's conformal map iteration.

A domain with boundary {rho(a) * exp(i a)} (rho positive, smooth, with
|rho'/rho| < 1) is the image of the disk under omega(z) = z * exp(S(z))
where S is the Schwarz integral of log rho composed with the boundary
correspondence sigma.  sigma solves the fixed point

    sigma(t) = t + H[log rho(sigma(.))](t)

with H the boundary conjugation; iteration from sigma = identity is
contractive under the slope condition.

Solutions transplant: boundary data pulled back through the
correspondence is solved on the disk, the antiderivative integrates
f * omega', and u(w) = Re F(omega^{-1}(w)) + d0 with gradient read off
the disk solution directly (the chain rule cancels omega').
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .boundary_data import (BoundaryFunction, DirectionField, TWO_PI,
                            grid_nodes)
from .direction_solver import (HarmonicSolution, antiderivative_from_circle)
from .disk_harmonic import (SeriesEvaluator, analytic_coefficients,
                            exp_series, _boundary_values_of_series)
from .errors import (ConfigurationError, ConvergenceDomainError,
                     ConvergenceError, DataError, InvariantViolation,
                     PointQueryError)
from .expressions import parse_expression
from .neumann import compatibility_note
from .rh_solver import SolverParams, solve_rh

# omega keeps its significant degree: exp_series leaves a tail of terms
# near the rounding floor (~1e-18), and Newton inversion pays for every
# term it keeps.
OMEGA_TAIL_TOL = 16.0 * np.finfo(float).eps


def _as_radius_fn(rho) -> tuple[Callable, str]:
    if callable(rho):
        return rho, getattr(rho, "source", "<callable>")
    if isinstance(rho, (int, float)):
        r = float(rho)
        return (lambda a: np.full(np.shape(a), r, dtype=float)), repr(r)
    if isinstance(rho, str):
        return parse_expression(rho, var="a"), rho
    raise ConfigurationError(f"cannot interpret {rho!r} as a radius function")


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
        return _boundary_values_of_series(self.omega.coefficients, self.N)

    def contains(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=complex)
        return np.abs(w) < np.asarray(self.rho(np.angle(w)), dtype=float) \
            * (1.0 - 1e-12)

    def invert(self, w, tol: float = 1e-13, max_iter: int = 60) -> np.ndarray:
        """Newton inversion of omega; point queries that fail raise."""
        w = np.asarray(w, dtype=complex)
        flat = np.atleast_1d(w).astype(complex)
        z = flat / np.maximum(np.asarray(self.rho(np.angle(flat)), float), 1e-12)
        z *= 0.99
        dom = np.abs
        for _ in range(max_iter):
            fz = self.omega._horner(z) - flat
            step = fz / self.omega_prime._horner(z)
            z = z - step
            # keep iterates inside the closed disk
            r = dom(z)
            bad = r >= 1.0
            if np.any(bad):
                z[bad] = z[bad] / r[bad] * (1.0 - 1e-9)
            if np.max(np.abs(step)) < tol * (1.0 + np.max(np.abs(flat))):
                break
        resid = np.abs(self.omega._horner(z) - flat)
        ok = resid < 1e-9 * (1.0 + np.abs(flat))
        if not np.all(ok):
            raise PointQueryError(
                f"map inversion failed at {int(np.sum(~ok))} of {flat.size} "
                f"points (max residual {float(np.max(resid)):.3e})")
        return z.reshape(np.shape(w)) if np.ndim(w) else complex(z[0])


def _trim_tail(c: np.ndarray) -> np.ndarray:
    """c without the trailing terms whose summed magnitude is at most
    OMEGA_TAIL_TOL * sum |c|; this moves the series by no more than that
    anywhere on the closed disk."""
    tail = np.cumsum(np.abs(c[::-1]))[::-1]  # tail[k] = sum_{n >= k} |c_n|
    drop = tail <= OMEGA_TAIL_TOL * tail[0]
    return c[:len(c) - int(np.sum(drop))]


def theodorsen_map(rho, N: int = 1024, tol: float = 1e-13,
                   max_iter: int = 200) -> ConformalMap:
    """Conformal map onto the star-like domain with radius function rho."""
    fn, src = _as_radius_fn(rho)
    t = grid_nodes(N)
    rvals = np.asarray(fn(t), dtype=float)
    if not np.all(np.isfinite(rvals)) or np.any(rvals <= 0):
        raise DataError("radius function must be positive and finite")
    # contraction requires |d(log rho)/da| < 1
    lr = np.log(rvals)
    freqs = np.fft.fftfreq(N, d=1.0 / N)
    dlr = np.fft.ifft(1j * freqs * np.fft.fft(lr)).real
    slope = float(np.max(np.abs(dlr)))
    if slope >= 1.0:
        raise ConvergenceDomainError(
            f"max |rho'/rho| = {slope:.4f} >= 1: outside the Theodorsen "
            f"contraction region")

    sigma = t.copy()
    iterations = 0
    history = []
    for iterations in range(1, max_iter + 1):
        ls = np.log(np.asarray(fn(np.mod(sigma, TWO_PI)), dtype=float))
        c = analytic_coefficients(ls)
        H = _boundary_values_of_series(c, N).imag
        new = t + H
        delta = float(np.max(np.abs(new - sigma)))
        sigma = new
        history.append(delta)
        if delta < tol:
            break
    else:
        raise ConvergenceError(
            f"Theodorsen iteration did not reach {tol:g} within {max_iter} "
            f"steps (last update {history[-1]:.3e})")

    ls = np.log(np.asarray(fn(np.mod(sigma, TWO_PI)), dtype=float))
    b = analytic_coefficients(ls)
    om = _trim_tail(np.concatenate([[0.0], exp_series(b, N // 2)]))
    omega = SeriesEvaluator(om)
    omega_prime = omega.derivative()

    wb = _boundary_values_of_series(om, N)
    residual = float(np.max(np.abs(np.abs(wb)
                                   - np.asarray(fn(np.angle(wb)), dtype=float))))

    if abs(om[0]) > 1e-14:
        raise InvariantViolation("omega(0) must be 0")
    if not (om[1].real > 0 and abs(om[1].imag) <= 1e-12 * max(1.0, om[1].real)):
        raise InvariantViolation(
            f"omega'(0) must be real positive, got {om[1]:.6g}")
    probe = np.concatenate([r * np.exp(2j * np.pi * np.arange(256) / 256)
                            for r in (0.3, 0.6, 0.95)])
    opv = np.abs(omega_prime._horner(probe))
    if float(np.min(opv)) < 1e-10 * float(np.max(opv)):
        raise InvariantViolation("omega' vanishes inside |z| <= 0.95")

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
    opb = _boundary_values_of_series(cmap.omega_prime.coefficients, cmap.N)
    vals = -np.exp(1j * t) * opb / np.abs(opb)
    return DirectionField.from_samples(vals)


def pullback(cmap: ConformalMap, func_of_w: Callable, kind: str = "real",
             jumps=()) -> BoundaryFunction:
    """Boundary data on the image, pulled back to the parameter circle."""
    wb = cmap.boundary_nodes()
    vals = np.asarray(func_of_w(wb))
    if kind == "real":
        vals = vals.real if np.iscomplexobj(vals) else vals
    return BoundaryFunction(samples=vals, kind=kind, jumps=tuple(jumps))


def transplant_solve(cmap: ConformalMap, phi: BoundaryFunction,
                     params: SolverParams | None = None,
                     nu: DirectionField | None = None) -> HarmonicSolution:
    """Directional problem on the image domain, data in the parameter t.

    nu defaults to the image inner normal (Neumann problem).  The disk
    problem for the pulled-back pair is solved, F integrates f * omega',
    and the returned solution evaluates through Newton inversion.
    """
    params = params or SolverParams(N=cmap.N)
    if phi.N != cmap.N:
        raise ConfigurationError(
            f"boundary data N={phi.N} does not match the map N={cmap.N}")
    if nu is None:
        nu = image_inner_normal(cmap)
    sol = solve_rh(nu, phi, params)
    M = 4 * sol.N
    fv = sol.f_on_scales(np.array([params.rho_sample]), M)[0]
    opv = cmap.omega_prime.eval_on_circle(params.rho_sample, M)
    F = antiderivative_from_circle(fv * opv, params.rho_sample, params.drop_tol)
    notes = list(sol.notes)
    notes.append(f"transplanted through a degree-{len(cmap.omega.coefficients)} "
                 f"map (residual {cmap.residual:.3e}, "
                 f"{cmap.iterations} iterations)")
    return HarmonicSolution(F=F, d0=params.d0, f_source=sol,
                            conformal_map=cmap, notes=notes)


def transplant_neumann(cmap: ConformalMap, phi: BoundaryFunction,
                       params: SolverParams | None = None) -> HarmonicSolution:
    """Neumann problem on the image domain (data in the parameter t)."""
    hs = transplant_solve(cmap, phi, params)
    note = compatibility_note(phi, cmap)
    if note:
        hs.notes.append(note)
    return hs
