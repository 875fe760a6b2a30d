"""Riemann-Hilbert solver on the unit disk.

Given a unit-modulus direction field nu and real boundary data phi,
constructs analytic f with Re(nu(zeta) * f(z)) -> phi(zeta)
nontangentially at almost every boundary point:

    alpha = measurable argument of nu (winding split)
    A     = Schwarz integral of alpha,  H = boundary conjugate of alpha
    psi   = phi * exp(-H)
    f     = exp(-i A) * (S[psi] + i * p)

where p is the Herglotz-type homogeneous term attached to hom_points.
The pairing telescopes on the boundary: nu * exp(-i A) = exp(H), so
Re(nu f) = exp(H) * Re(S[psi] + i p) -> exp(H) * psi = phi.

psi is formed on an internally refined grid (refine * N nodes, exact
piece evaluation) and the solution series keeps refine*N/2 coefficients;
this lowers the representation floor near jumps of phi without changing
the contract.  Any construction satisfying the boundary verifier is
admissible; the verifier is the contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .boundary_data import (BoundaryFunction, DirectionField, TWO_PI,
                            measurable_arg)
from .disk_harmonic import (SchwarzEvaluator, SeriesEvaluator,
                            analytic_coefficients, conjugate_boundary,
                            schwarz_integral)
from .errors import (ConfigurationError, DataError, DomainError,
                     NumericalRangeError)

CLAMP_LOG = float(np.log(1e12))  # exp(H) confined to [1e-12, 1e12]


@dataclass
class SolverParams:
    """Discretization and construction parameters shared by the solvers."""

    N: int = 1024
    cut: float = 0.0
    refine: int = 8
    rho_sample: float = 0.5
    drop_tol: float = 1e-14
    d0: float = 0.0
    hom_points: tuple[float, ...] = ()
    hom_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        if self.refine < 1 or (self.refine & (self.refine - 1)) != 0:
            raise ConfigurationError(
                f"params.refine must be a power of two >= 1, got {self.refine}")
        if not (0.0 < self.rho_sample < 1.0):
            raise ConfigurationError(
                f"params.rho_sample must lie in (0, 1), got {self.rho_sample}")
        self.hom_points = tuple(float(a) % TWO_PI for a in self.hom_points)
        self.hom_coeffs = tuple(float(c) for c in self.hom_coeffs)
        for i, a in enumerate(self.hom_points):
            for b in self.hom_points[:i]:
                if abs(a - b) < 1e-12 or abs(abs(a - b) - TWO_PI) < 1e-12:
                    raise ConfigurationError(
                        f"hom_points contains a duplicate angle {a:.6g}")
        if self.hom_coeffs and self.hom_points and \
                len(self.hom_coeffs) != len(self.hom_points) + 1:
            raise ConfigurationError(
                "hom_coeffs must have length len(hom_points) + 1 "
                "(constant coefficient first)")


def herglotz_term(hom_points: Sequence[float], hom_coeffs: Sequence[float], z):
    """p(z) = c_0 + sum_k c_k * i * (zeta_k + z)/(zeta_k - z).

    Each summand has vanishing real part after the i * p pairing, so these
    span homogeneous solutions with boundary poles at the zeta_k.  Terms
    with c_k = 0 are skipped: adding an exact zero does not change a float,
    and a family member evaluates its one pole, not all k.
    """
    z = np.asarray(z, dtype=complex)
    if not hom_coeffs:
        return np.zeros(z.shape, dtype=complex)
    out = np.full(z.shape, complex(hom_coeffs[0]), dtype=complex)
    for a, c in zip(hom_points, hom_coeffs[1:]):
        if c == 0.0:
            continue
        zk = np.exp(1j * a)
        out = out + c * 1j * (zk + z) / (zk - z)
    return out


@dataclass
class AnalyticSolution:
    """Solution f of the directional boundary value problem on the disk."""

    nu: DirectionField
    phi: BoundaryFunction
    alpha: BoundaryFunction
    A: SchwarzEvaluator
    weight_boundary: BoundaryFunction
    psi: BoundaryFunction
    g: SeriesEvaluator
    hom_points: tuple[float, ...]
    hom_coeffs: tuple[float, ...]
    params: SolverParams
    notes: list[str] = field(default_factory=list)

    @property
    def N(self) -> int:
        return self.nu.N

    def f(self, z):
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z) >= 1.0):
            raise DomainError("solution evaluation requires |z| < 1")
        return self._assemble(self.A._horner(z), z, self.g._horner)

    __call__ = f

    def f_on_scales(self, scales: np.ndarray, V: int) -> np.ndarray:
        """f at z = s * exp(2*pi*i*v/V) for each scale s, shape (len(s), V).

        FFT-folded evaluation of both series; the winding log factor and
        the Herglotz term are applied pointwise.
        """
        scales = np.asarray(scales, dtype=complex)
        gv = self.g.eval_on_rays(scales, V)
        return self._assemble(
            self.A.eval_on_rays(scales, V),
            scales[:, None] * np.exp(2j * np.pi * np.arange(V) / V)[None, :],
            lambda _: gv)

    def _assemble(self, a, z, g):
        """exp(-i A) * (g + i p) at z, from the series part a of A at z and
        the map g from z to g's values.  Pass a as a temporary and keep exp
        before g(z): at most one array of A's values is then alive."""
        a = self.A.with_winding(z, a)
        a = np.exp(-1j * a)
        return a * (g(z) + 1j * herglotz_term(self.hom_points, self.hom_coeffs, z))

    def boundary_pairing_residual(self) -> float:
        """max_j |nu_j * w_j - exp(H_j)| over nodes, w = weight_boundary.

        Telescoping check of the construction; exact up to rounding except
        at clamped nodes.
        """
        prod = self.nu.samples * self.weight_boundary.samples
        return float(np.max(np.abs(prod.imag) / np.maximum(np.abs(prod), 1e-30)))


def solve_rh(nu: DirectionField, phi: BoundaryFunction,
             params: SolverParams | None = None) -> AnalyticSolution:
    """Construct the analytic solution for (nu, phi) on the unit disk."""
    params = params or SolverParams(N=nu.N)
    if phi.kind != "real":
        raise DataError("boundary data phi must be real-valued")
    if nu.N != phi.N:
        raise ConfigurationError(
            f"nu and phi live on different grids (N={nu.N} vs {phi.N})")
    if params.hom_coeffs and not params.hom_points and len(params.hom_coeffs) != 1:
        raise ConfigurationError("hom_coeffs without hom_points must be (c0,)")
    notes: list[str] = []

    alpha = measurable_arg(nu)
    A = schwarz_integral(alpha)

    L = params.refine * nu.N
    Hfull = conjugate_boundary(alpha, L)
    H = Hfull.samples
    n_clamped = int(np.sum(np.abs(H) > CLAMP_LOG))
    if n_clamped:
        notes.append(f"conjugate clamped at {n_clamped} of {L} refined nodes "
                     f"(|H| limited to {CLAMP_LOG:.2f})")
    Hc = np.clip(H, -CLAMP_LOG, CLAMP_LOG)

    phi_L = phi.resample(L).samples
    psi_L = phi_L * np.exp(-Hc)
    if not np.all(np.isfinite(psi_L)):
        bad = int(np.flatnonzero(~np.isfinite(psi_L))[0])
        raise NumericalRangeError(
            f"psi non-finite at refined node {bad} despite clamping")

    g = SeriesEvaluator(analytic_coefficients(psi_L))

    step = params.refine
    psi = BoundaryFunction(samples=psi_L[::step], kind="real",
                           jumps=tuple(sorted(set(phi.jumps) | set(alpha.jumps))))
    wb = np.exp(-1j * alpha.samples + Hc[::step])
    weight_boundary = BoundaryFunction(samples=wb, kind="complex",
                                       jumps=alpha.jumps)

    return AnalyticSolution(nu=nu, phi=phi, alpha=alpha, A=A,
                            weight_boundary=weight_boundary, psi=psi, g=g,
                            hom_points=params.hom_points,
                            hom_coeffs=params.hom_coeffs,
                            params=params, notes=notes)


def default_hom_points(k: int) -> tuple[float, ...]:
    """k distinct boundary angles avoiding the default cut at 0."""
    return tuple((TWO_PI * m + np.pi) / k for m in range(k))


def homogeneous_family(nu: DirectionField, points: Sequence[float] | int,
                       params: SolverParams | None = None) -> list[AnalyticSolution]:
    """Homogeneous solutions (phi = 0) spanned by the Herglotz terms.

    Returns k + 1 members for k distinguished points: the constant member
    (c_0 = 1) followed by one member per point.  f is linear in the
    Herglotz coefficients, so one solve with phi = 0 serves every member;
    the members are copies of it that differ only in hom_coeffs, params
    and notes, and share its alpha, A, weight, psi and g.  hom_points and
    hom_coeffs preset in params are ignored.
    """
    if isinstance(points, int):
        points = default_hom_points(points)
    points = tuple(float(a) % TWO_PI for a in points)
    base = params or SolverParams(N=nu.N)
    zero_phi = BoundaryFunction(samples=np.zeros(nu.N), kind="real")
    sol = solve_rh(nu, zero_phi, replace(base, hom_points=points, hom_coeffs=()))
    members = []
    k = len(points)
    for j in range(k + 1):
        coeffs = tuple(1.0 if i == j else 0.0 for i in range(k + 1))
        p = replace(base, hom_points=points, hom_coeffs=coeffs)
        members.append(replace(sol, hom_coeffs=coeffs, params=p,
                               notes=list(sol.notes)))
    return members


def cr_residual(sol, z, h: float = 1e-5) -> float:
    """Cauchy-Riemann residual |df/dx + i df/dy| / scale by central differences."""
    z = np.asarray(z, dtype=complex)
    fx = (sol.f(z + h) - sol.f(z - h)) / (2 * h)
    fy = (sol.f(z + 1j * h) - sol.f(z - 1j * h)) / (2 * h)
    scale = np.maximum(np.abs(fx) + np.abs(fy), 1.0)
    return float(np.max(np.abs(fx + 1j * fy) / scale))
