"""Riemann-Hilbert solver on the unit disk.

Given a unit-modulus direction field nu and real boundary data phi,
constructs analytic f with Re(nu(zeta) * f(z)) -> phi(zeta)
nontangentially at almost every boundary point, by Gakhov's index
reduction (Boundary Value Problems, 1966, sections 40-41):

    nu    = zeta^w * nu0, nu0 of winding 0, alpha0 = arg nu0
    A     = Schwarz integral of alpha0,  H = boundary conjugate of alpha0
    psi   = phi * exp(-H),  T = S[psi]
    f     = z^k * exp(-i A) * (T + i p)                        (w = -k <= 0)
    f     = exp(-i A) * (T + i p + sum_j b_j H_j) / z^k        (w = k > 0)

where p is the Herglotz-type homogeneous term attached to hom_points and
H_j(z) = (zeta_j + z)/(zeta_j - z) sits at the 2k - 1 index poles
zeta_j = exp(i*(cut + 2*pi*j/(2k - 1))).  The real b_j cancel the Taylor
coefficients 0..k-1 of the bracket, so f is analytic at 0; they vanish
exactly when a classical solution exists.  The pairing telescopes on
the boundary: nu * exp(-i A) * zeta^-w = exp(H), and Re(i p) = Re(b_j H_j)
= 0 away from the poles, so Re(nu f) -> exp(H) * psi = phi.

psi is formed on an internally refined grid (refine * N nodes, exact
piece evaluation) and the solution series keeps refine*N/2 coefficients;
this lowers the representation floor near jumps of phi without changing
the contract.  Any construction satisfying the boundary verifier is
admissible; the verifier is the contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .boundary_data import (BoundaryFunction, DirectionField, TWO_PI,
                            measurable_arg)
from .disk_harmonic import (SeriesEvaluator, analytic_coefficients,
                            conjugate_boundary, schwarz_integral)
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
                "(constant or cut-dipole coefficient first)")


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


def index_poles(w: int, cut: float) -> tuple[float, ...]:
    """Angles cut + 2*pi*j/(2w - 1) of the index poles; none for w <= 0."""
    m = 2 * w - 1
    return tuple((cut + TWO_PI * j / m) % TWO_PI for j in range(max(m, 0)))


@dataclass
class AnalyticSolution:
    """Solution f of the directional boundary value problem on the disk.

    index is the winding w of nu, alpha the argument of nu0 and A its
    Schwarz integral.  g is z^k * T for w = -k <= 0, and T shifted down
    by k for w = k > 0, whose first k terms head keeps.
    """

    nu: DirectionField
    phi: BoundaryFunction
    alpha: BoundaryFunction
    A: SeriesEvaluator
    weight_boundary: BoundaryFunction
    psi: BoundaryFunction
    g: SeriesEvaluator
    index: int
    head: np.ndarray
    hom_points: tuple[float, ...]
    hom_coeffs: tuple[float, ...]
    params: SolverParams
    notes: list[str] = field(default_factory=list)

    @property
    def N(self) -> int:
        return self.nu.N

    @property
    def index_poles(self) -> tuple[float, ...]:
        return index_poles(self.index, self.params.cut)

    @cached_property
    def index_coeffs(self) -> np.ndarray:
        """The real b_j with which sum_j b_j H_j, H = 1 + 2 sum zeta^-n z^n,
        cancels the Taylor terms r_n, n < w, of T + i p.  On the 2w - 1
        equally spaced poles this is the inverse DFT
        b_j = -Re(sum_n r_n zeta_j^n) / (2w - 1)."""
        w = self.index
        c = np.asarray(self.hom_coeffs or (0.0,) * (len(self.hom_points) + 1))
        n = np.arange(w)
        h = 2.0 * np.exp(-1j * np.multiply.outer(n, self.hom_points))
        h[0] = 1.0
        r = (self.head - (h * c[1:]).sum(axis=1)
             - 1j * c[0] * n * np.exp(-1j * n * self.params.cut))
        zn = np.exp(1j * np.multiply.outer(self.index_poles, n))
        return -(zn * r).sum(axis=1).real / (2 * w - 1)

    def f(self, z):
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z) >= 1.0):
            raise DomainError("solution evaluation requires |z| < 1")
        return self._assemble(self.A._horner(z), z, self.g._horner)

    __call__ = f

    def f_on_scales(self, scales: np.ndarray, V: int) -> np.ndarray:
        """f at z = s * exp(2*pi*i*v/V) for each scale s, shape (len(s), V).

        FFT-folded evaluation of both series; the pole terms are applied
        pointwise.
        """
        scales = np.asarray(scales, dtype=complex)
        gv = self.g.eval_on_rays(scales, V)
        return self._assemble(
            self.A.eval_on_rays(scales, V),
            scales[:, None] * np.exp(2j * np.pi * np.arange(V) / V)[None, :],
            lambda _: gv)

    def _assemble(self, a, z, g):
        """exp(-i A) * (g + pole terms) at z, from A's values a at z and
        the map g from z to a fresh array of g's values, which takes the
        pole terms and the product in place.  Pass a as a temporary and
        keep exp before g(z): at most one array of A's values is alive."""
        a = np.exp(-1j * a)
        acc = g(z)
        self._add_pole_terms(z, acc)
        return np.multiply(a, acc, out=acc)

    def _add_pole_terms(self, z, acc):
        """Add the bracket's closed-form part at z to acc: z^k * i p for
        w = -k <= 0.  For w = k > 0 each term beta * H of i p + b_j H_j less
        its Taylor terms below z^k is 2 beta zeta^-k / (1 - z/zeta) over z^k.
        c_0 multiplies the cut dipole -z*zeta_c/(zeta_c - z)^2, not the
        constant that no real b_j could cancel; over z^k that is
        -i c_0 zeta_c^-k (k - (k-1) q)/(1 - q)^2 with q = z/zeta_c."""
        w = self.index
        if w <= 0:
            ip = 1j * herglotz_term(self.hom_points, self.hom_coeffs, z)
            acc += ip if w == 0 else z ** -w * ip
            return
        c = self.hom_coeffs or (0.0,) * (len(self.hom_points) + 1)
        for a, beta in zip(self.hom_points + self.index_poles,
                           [-x for x in c[1:]] + self.index_coeffs.tolist()):
            if beta != 0.0:
                q = z * np.exp(-1j * a)
                acc += 2.0 * beta * np.exp(-1j * w * a) / np.subtract(1.0, q, out=q)
        if c[0]:
            q = z * np.exp(-1j * self.params.cut)
            acc += (-1j * c[0] * np.exp(-1j * w * self.params.cut)
                    * (w - (w - 1) * q) / (1.0 - q) ** 2)

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

    w, alpha = measurable_arg(nu)
    A = schwarz_integral(alpha)

    L = params.refine * nu.N
    H = conjugate_boundary(alpha, L).samples
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

    T = analytic_coefficients(psi_L)
    g = SeriesEvaluator(np.concatenate([np.zeros(-w), T]) if w < 0 else T[w:])

    psi = BoundaryFunction(samples=psi_L[::params.refine], kind="real",
                           jumps=tuple(sorted(set(phi.jumps) | set(alpha.jumps))))
    wb = np.exp(-1j * (alpha.samples + w * nu.theta) + Hc[::params.refine])
    weight_boundary = BoundaryFunction(samples=wb, kind="complex",
                                       jumps=alpha.jumps)

    return AnalyticSolution(nu=nu, phi=phi, alpha=alpha, A=A,
                            weight_boundary=weight_boundary, psi=psi, g=g,
                            index=w, head=T[:max(w, 0)],
                            hom_points=params.hom_points,
                            hom_coeffs=params.hom_coeffs,
                            params=params, notes=notes)


def default_hom_points(k: int) -> tuple[float, ...]:
    """k distinct boundary angles avoiding the default cut at 0."""
    return tuple((TWO_PI * m + np.pi) / k for m in range(k))


def homogeneous_family(nu: DirectionField, points: Sequence[float] | int,
                       params: SolverParams | None = None) -> list[AnalyticSolution]:
    """Homogeneous solutions (phi = 0) spanned by the Herglotz terms.

    Returns k + 1 members for k distinguished points: the first-coefficient
    member (the constant for winding <= 0, the cut dipole for winding >= 1)
    followed by one member per point.  f is linear in the Herglotz
    coefficients, so one solve with phi = 0 serves every member; the
    members are copies of it that differ only in hom_coeffs, params and
    notes, and share its alpha, A, weight, psi and g (each member solves
    its own b_j).  hom_points and hom_coeffs preset in params are ignored.
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
