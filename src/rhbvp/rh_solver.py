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

where p = c_0 + sum_j c_j i (zeta_j + z)/(zeta_j - z) is the Herglotz
term attached to hom_points and H_j(z) = (zeta_j + z)/(zeta_j - z) sits
at the 2k - 1 index poles zeta_j = exp(i*(cut + 2*pi*j/(2k - 1))).  The
real b_j cancel the Taylor coefficients 0..k-1 of the bracket, so f is
analytic at 0; they vanish exactly when a classical solution exists.
The pairing telescopes on the boundary: nu * exp(-i A) * zeta^-w =
exp(H), and Re(i p) = Re(b_j H_j) = 0 away from the poles, so
Re(nu f) -> exp(H) * psi = phi.  Both kinds of pole enter f as one sum
of 2 beta zeta^-m / (1 - z/zeta), m = max(w, 0), for every winding.

solve_rh runs two stages: reduce_field does what depends on nu alone
(w, alpha0, A, H) into a frozen ReducedField, and ReducedField.solve forms
psi and T's parts for one phi, so a caller with many data reduces nu once.
psi is formed on the N nodes.  A jump J of piecewise phi at an angle c (a
junction, or declared inside a piece) is a jump J exp(-H(c)) of psi, the
boundary real part of (i J exp(-H(c))/pi) log(1 - z e^{-ic}), whose
series is exact (Eckhoff, Math. Comp. 64, 1995); it is kept as an atom
beside the first N/2 terms of psi's continuous rest.  F reads T's first
terms, and g, at most REFINE * N / 2 terms, exact zeros at the top
dropped, is formed where f is first evaluated.  Only a field whose alpha0
has jumps, where exp(-H) has power singularities, forms psi on REFINE * N
nodes from phi's exact values there.  Any construction satisfying the
boundary verifier is admissible; the verifier is the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter
from typing import Sequence

import numpy as np

from .boundary_data import (BoundaryFunction, DirectionField, TWO_PI,
                            jump_sawtooths, jump_limits, measurable_arg)
from .disk_harmonic import (SeriesEvaluator, analytic_coefficients,
                            conjugate_boundary, sawtooth_coefficients,
                            schwarz_integral, unit_powers)
from .errors import (ConfigurationError, DataError, DomainError,
                     NumericalRangeError, RepresentationError)

CLAMP_LOG = float(np.log(1e12))  # exp(H) confined to [1e-12, 1e12]
REFINE = 8  # g: at most REFINE * N / 2 terms; alpha jumps: psi on REFINE * N nodes


def _real(value) -> float:
    """float(value) for a finite number; a bool or a string is a
    TypeError, and a non-finite number a ValueError."""
    if isinstance(value, (bool, np.bool_, str)):
        raise TypeError(f"not a number: {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"not finite: {value!r}")
    return x


@dataclass
class SolverParams:
    """Construction parameters shared by the solvers (the grid size is the
    data's).  cut and d0 take a finite number, hom_points and hom_coeffs
    finite numbers; anything else, a bool, a string or a NaN included, is
    a ConfigurationError."""

    cut: float = 0.0
    d0: float = 0.0
    hom_points: tuple[float, ...] = ()
    hom_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        for name, kind in (
                ("cut", _real), ("d0", _real),
                ("hom_points", lambda v: tuple(_real(a) % TWO_PI for a in v)),
                ("hom_coeffs", lambda v: tuple(map(_real, v)))):
            value = getattr(self, name)
            try:
                setattr(self, name, kind(value))
            except TypeError:
                raise ConfigurationError(
                    f"params.{name} has the wrong type: {value!r}") from None
            except (ValueError, OverflowError):
                raise ConfigurationError(
                    f"params.{name} must be finite, got {value!r}") from None
        a = np.sort(self.hom_points)
        close = np.diff(a, append=a[:1] + TWO_PI) < 1e-12  # with the wrap gap
        if np.any(close):
            dup = a[(int(np.argmax(close)) + 1) % len(a)]
            raise ConfigurationError(
                f"hom_points contains a duplicate angle {dup:.6g}")
        if self.hom_coeffs and len(self.hom_coeffs) != len(self.hom_points) + 1:
            raise ConfigurationError(
                "hom_coeffs must have length len(hom_points) + 1 "
                "(constant or cut-dipole coefficient first)")


def index_poles(w: int, cut: float) -> tuple[float, ...]:
    """Angles cut + 2*pi*j/(2w - 1) of the index poles; none for w <= 0."""
    m = 2 * w - 1
    return tuple((cut + TWO_PI * j / m) % TWO_PI for j in range(max(m, 0)))


@dataclass(frozen=True)
class ReducedField:
    """What the construction takes from nu alone, made by reduce_field:
    the winding index, alpha = arg nu0, A = S[alpha], H = H[alpha] clamped
    to CLAMP_LOG on the N nodes (on REFINE * N nodes when alpha has
    jumps), and the clamp note.  Its arrays
    are read-only, so solutions and callers may share one reduction."""

    field: DirectionField
    index: int
    alpha: BoundaryFunction
    A: SeriesEvaluator
    H: np.ndarray
    weight_boundary: BoundaryFunction
    notes: tuple[str, ...] = ()

    def boundary_pairing_residual(self) -> float:
        """max_j |nu_j * w_j - exp(H_j)| over nodes, w = weight_boundary.

        Telescoping check of the construction; exact up to rounding except
        at clamped nodes.
        """
        prod = self.field.samples * self.weight_boundary.samples
        return float(np.max(np.abs(prod.imag) / np.maximum(np.abs(prod), 1e-30)))

    def solve(self, phi: BoundaryFunction,
              params: SolverParams | None = None) -> "AnalyticSolution":
        """The phi stage: psi = phi * exp(-H) and T = S[psi]'s parts.

        On H's grid of N nodes, each jump J of piecewise phi at an angle
        c, a junction or a jump declared inside a piece, is kept as an
        atom, c and J exp(-H(c)); the rest of psi, with any jump whose
        one-sided limit is infinite, gives the first N/2 terms.  No
        series is formed here.  With H on the refined grid (alpha has
        jumps) psi is formed on it from phi's values there, and the rest
        is all of T."""
        N = self.field.N
        params = params or SolverParams()
        if phi.kind != "real":
            raise DataError("boundary data phi must be real-valued")
        if N != phi.N:
            raise ConfigurationError(
                f"nu and phi live on different grids (N={N} vs {phi.N})")
        psi = phi.resample(len(self.H)).samples * np.exp(-self.H)
        if not np.all(np.isfinite(psi)):
            bad = int(np.flatnonzero(~np.isfinite(psi))[0])
            raise NumericalRangeError(f"psi non-finite at node {bad} of "
                                      f"{len(psi)} despite clamping")
        c = J = np.zeros(0)
        rest = psi
        if len(psi) > N:
            psi = psi[::REFINE].copy()
        elif phi.pieces is not None and phi.jumps:
            c, left, right = jump_limits(phi.pieces, phi.samples, phi.jumps)
            H_c = (unit_powers(c, len(self.A.coefficients))  # Im A(e^{ic})
                   * self.A.coefficients).sum(axis=1).imag
            J = (right - left) * np.exp(-np.clip(H_c, -CLAMP_LOG, CLAMP_LOG))
            c, J = c[np.isfinite(J)], J[np.isfinite(J)]  # inf stays in rest
            rest = psi - jump_sawtooths(N, c, J)
        psi = BoundaryFunction(samples=psi, kind="real",
                               jumps=set(phi.jumps) | set(self.alpha.jumps))
        return AnalyticSolution(reduced=self, phi=phi, psi=psi, jump_angles=c,
                                jump_sizes=J, rest=analytic_coefficients(rest),
                                params=params, notes=list(self.notes))


def reduce_field(nu: DirectionField) -> ReducedField:
    """The nu stage: index reduction, A = S[alpha0] and the clamped
    conjugate H = H[alpha0] on the N nodes, or on REFINE * N nodes when
    alpha0 has jumps."""
    w, alpha = measurable_arg(nu)
    A = schwarz_integral(alpha)
    L = REFINE * nu.N if alpha.jumps else nu.N
    H = conjugate_boundary(alpha, L).samples
    n_clamped = int(np.sum(np.abs(H) > CLAMP_LOG))
    nodes = "refined nodes" if L > nu.N else "nodes"
    notes = (f"conjugate clamped at {n_clamped} of {L} {nodes} "
             f"(|H| limited to {CLAMP_LOG:.2f})",) if n_clamped else ()
    Hc = np.clip(H, -CLAMP_LOG, CLAMP_LOG)
    wb = BoundaryFunction(samples=np.exp(-1j * (alpha.samples + w * nu.theta)
                                         + Hc[::L // nu.N]),
                          kind="complex", jumps=alpha.jumps)
    for a in (alpha.samples, A.coefficients, Hc, wb.samples):
        a.flags.writeable = False
    return ReducedField(field=nu, index=w, alpha=alpha, A=A, H=Hc,
                        weight_boundary=wb, notes=notes)


@dataclass
class AnalyticSolution:
    """Solution f of the directional boundary value problem on the disk.

    nu, index, alpha and A read through to reduced, its ReducedField, and
    hom_points and hom_coeffs to params.  T is kept as its jumps' angles
    and sizes and its continuous rest's coefficients; g, z^k * T for
    w = -k <= 0 and T shifted down by k for w = k > 0, is formed from
    them where f is first evaluated.
    """

    reduced: ReducedField
    phi: BoundaryFunction
    psi: BoundaryFunction
    jump_angles: np.ndarray
    jump_sizes: np.ndarray
    rest: np.ndarray
    params: SolverParams
    notes: list[str] = field(default_factory=list)
    # g and the fans of exp(-i A), g and z by (scales, V), shared by the
    # members of one homogeneous family; None (no store) for every other
    _fans: dict | None = field(default=None, init=False, repr=False,
                               compare=False)

    nu = property(attrgetter("reduced.field"))
    index = property(attrgetter("reduced.index"))
    alpha = property(attrgetter("reduced.alpha"))
    A = property(attrgetter("reduced.A"))
    hom_points = property(attrgetter("params.hom_points"))
    hom_coeffs = property(attrgetter("params.hom_coeffs"))

    @property
    def N(self) -> int:
        return self.nu.N

    @property
    def index_poles(self) -> tuple[float, ...]:
        return index_poles(self.index, self.params.cut)

    def bracket(self, n: int) -> np.ndarray:
        """T's first n terms, bitwise those of bracket(L): the jumps'
        series cut at L = REFINE * N / 2 plus the rest's, zeros past L.
        O(jumps * n); g pays it at L, once per solution whose f is
        evaluated."""
        L = REFINE * self.N // 2
        T = sawtooth_coefficients(self.jump_angles, self.jump_sizes, L,
                                  min(n, L))
        T[:min(n, len(self.rest))] += self.rest[:n]
        return T if n <= L else np.pad(T, (0, n - L))

    @cached_property
    def g(self) -> SeriesEvaluator:
        """g from bracket(L), formed once, for a family once in its store."""
        store = {} if self._fans is None else self._fans
        if "g" not in store:
            T, w = self.bracket(REFINE * self.N // 2), self.index
            store["g"] = SeriesEvaluator(
                np.concatenate([np.zeros(-w), T]) if w < 0 else T[w:])
        return store["g"]

    @cached_property
    def index_coeffs(self) -> np.ndarray:
        """The real b_j with which sum_j b_j H_j, H = 1 + 2 sum zeta^-n z^n,
        cancels the Taylor terms r_n, n < w, of T + i p.  On the 2w - 1
        equally spaced poles this is the inverse DFT
        b_j = -Re(sum_n r_n zeta_j^n) / (2w - 1).  Empty for w <= 0."""
        w = self.index
        c = np.asarray(self.hom_coeffs or (0.0,) * (len(self.hom_points) + 1))
        n = np.arange(w)
        h = 2.0 * np.exp(-1j * np.multiply.outer(n, self.hom_points))
        h[:1] = 1.0
        r = (self.bracket(max(w, 0)) - (h * c[1:]).sum(axis=1)
             - 1j * c[0] * n * np.exp(-1j * n * self.params.cut))
        zn = np.exp(1j * np.multiply.outer(self.index_poles, n))
        return -(zn * r).sum(axis=1).real / (2 * w - 1)

    def f(self, z):
        """f at the points z, in the shape of z (a scalar for a scalar).

        Both series by Horner; when A is one constant term (the disk
        normal's), exp(-i A) is the scalar exp(-i A_0) and A is not
        evaluated."""
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z) >= 1.0):
            raise DomainError("solution evaluation requires |z| < 1")
        zs = np.atleast_1d(z)  # the pole terms work in place
        return self._assemble(self._weight(lambda: self.A._horner(zs)),
                              self.g._horner(zs), zs).reshape(z.shape)[()]

    __call__ = f

    def f_on_scales(self, scales: np.ndarray, V: int,
                    folds: tuple | None = None) -> np.ndarray:
        """f at z = s * exp(2*pi*i*v/V) for each scale s, shape (len(s), V).

        FFT-folded evaluation of both series; the pole terms are applied
        pointwise.  When A is one constant term (the disk normal's),
        exp(-i A) is the scalar exp(-i A_0): no fan of A and no exponential
        per point.  A family member evaluates exp(-i A), g and z once per
        (scales, V) for the whole family and assembles from a copy of g.
        folds, self.folds(V) when given, lends the series' padded
        coefficient blocks to calls on the same V.
        """
        scales = np.asarray(scales, dtype=complex)
        fold_A, fold_g = folds or (None, None)
        fans = {} if self._fans is None else self._fans
        key = (scales.tobytes(), V)
        if key not in fans:
            ea = self._weight(lambda: self.A.eval_on_rays(scales, V, fold_A))
            fans[key] = (ea, self.g.eval_on_rays(scales, V, fold_g),
                         scales[:, None] * np.exp(2j * np.pi * np.arange(V) / V))
        ea, gv, z = fans[key]
        return self._assemble(ea, gv if self._fans is None else gv.copy(), z)

    def folds(self, V: int) -> tuple:
        """(A.fold(V), g.fold(V)), to lend to f_on_scales."""
        return self.A.fold(V), self.g.fold(V)

    def _weight(self, A_values):
        """exp(-i A) from A's values, A_values(), or the scalar
        exp(-i A_0), without calling A_values, when A is one term."""
        c = self.A.coefficients
        return np.exp(-1j * (c[0] if len(c) == 1 else A_values()))

    def _assemble(self, ea, acc, z):
        """exp(-i A) * (g + pole terms) at z from ea = exp(-i A) and acc,
        a fresh array of g's values that takes the pole terms and the
        product in place.  Callers form ea before g's values, so at most
        one array of A's values is alive."""
        self._add_pole_terms(z, acc)
        return np.multiply(ea, acc, out=acc)

    def taylor_coefficients(self, K: int) -> tuple[np.ndarray, float, float]:
        """f's first K Taylor coefficients f_n, with (a, b) such that
        |f_n| <= a + b n for every n, when exp(-i A) is the scalar
        exp(-i A_0) (A is one term; a RepresentationError otherwise).

        The coefficient form of the pole sum _add_pole_terms adds
        pointwise: f_n = exp(-i A_0) (g_n + P_n), where each pole adds
        2 beta zeta^(-m-n) to P_n, m = max(w, 0); for w <= 0, P_0 also
        takes i c_0 + sum c_j and P is shifted up by -w (the factor
        z^-w); for w > 0 the cut dipole adds
        -i c_0 zeta_c^-w (w + n) zeta_c^-n.  |g_n| <= max |rest| + sum |J|/pi
        and each pole's term has constant modulus, so only the dipole
        grows, linearly.  Only T's first K + w terms are formed."""
        c_A = self.A.coefficients
        if len(c_A) != 1:
            raise RepresentationError(
                "f has a closed-form Taylor series only when A is constant")
        w = self.index
        s = max(-w, 0)
        amp, angles, const, dipole = self._pole_sum()
        n = np.arange(max(K - s, 0))
        P = np.exp(-1j * np.multiply.outer(n, angles)) @ amp
        if w <= 0:
            P[:1] += const
        elif dipole:
            P += dipole * (w + n) * np.exp(-1j * n * self.params.cut)
        t = np.zeros(K, dtype=complex)
        t[s:] = self.bracket(max(K + w, 0))[max(w, 0):] + P
        e = np.exp(-1j * c_A[0])
        a = abs(e) * (np.max(np.abs(self.rest), initial=0.0)
                      + np.sum(np.abs(self.jump_sizes)) / np.pi
                      + np.sum(np.abs(amp)) + abs(const) + abs(dipole) * w)
        return e * t, float(a), float(abs(e) * abs(dipole))

    def _pole_sum(self):
        """The amplitudes 2 beta zeta^-m and angles of the poles with a
        nonzero beta, the constant i c_0 + sum c_j (0 for w > 0) and the
        cut dipole's -i c_0 zeta_c^-w (0 for w <= 0)."""
        w = self.index
        m = max(w, 0)
        c = self.hom_coeffs or (0.0,) * (len(self.hom_points) + 1)
        angles = np.array(self.hom_points + self.index_poles)
        beta = np.array([-x for x in c[1:]] + self.index_coeffs.tolist())
        keep = beta != 0.0
        angles, beta = angles[keep], beta[keep]
        amp = 2.0 * beta * np.exp(-1j * m * angles)
        if w <= 0:
            return amp, angles, 1j * c[0] + sum(c[1:]), 0.0
        dipole = -1j * c[0] * np.exp(-1j * w * self.params.cut) if c[0] else 0.0
        return amp, angles, 0.0, dipole

    def _add_pole_terms(self, z, acc):
        """Add the bracket's closed-form part at z to acc.  Each Herglotz
        pole (beta = -c_j) and index pole (beta = b_j) adds
        2 beta zeta^-m / (1 - z/zeta), m = max(w, 0): for w = k > 0 that is
        beta H_j less its Taylor terms below z^k, over z^k, and for w <= 0
        i p = i c_0 + sum c_j + sum_j 2 (-c_j) / (1 - z/zeta_j), so the
        sum takes that constant and is multiplied by z^-w.  For w > 0, c_0
        multiplies the cut dipole -z*zeta_c/(zeta_c - z)^2, not the
        constant that no real b_j could cancel; over z^k that is
        -i c_0 zeta_c^-k (k - (k-1) q)/(1 - q)^2 with q = z/zeta_c."""
        w = self.index
        amp, angles, const, dipole = self._pole_sum()
        part = acc if w > 0 else np.full(z.shape, const)
        for a, coef in zip(angles, amp):
            q = z * np.exp(-1j * a)
            np.subtract(1.0, q, out=q)
            part += np.divide(coef, q, out=q)
        if w <= 0:
            acc += part if w == 0 else z ** -w * part
        elif dipole:
            q = z * np.exp(-1j * self.params.cut)
            acc += dipole * (w - (w - 1) * q) / (1.0 - q) ** 2


def solve_rh(nu: DirectionField, phi: BoundaryFunction,
             params: SolverParams | None = None) -> AnalyticSolution:
    """Construct the analytic solution for (nu, phi) on the unit disk."""
    return reduce_field(nu).solve(phi, params)


def default_hom_points(k: int) -> tuple[float, ...]:
    """k distinct boundary angles avoiding the default cut at 0."""
    return tuple((TWO_PI * m + np.pi) / k for m in range(k))


def homogeneous_family(nu: DirectionField, points: Sequence[float] | int,
                       params: SolverParams | None = None) -> list[AnalyticSolution]:
    """Homogeneous solutions (phi = 0) spanned by the Herglotz terms.

    Returns k + 1 members for k distinguished points: the first-coefficient
    member (the constant for winding <= 0, the cut dipole for winding >= 1)
    followed by one member per point.  f is linear in the Herglotz
    coefficients, so one solve with phi = 0, one reduction of nu, serves
    every member; the members are copies of it that differ only in
    params (so in hom_coeffs) and notes, and share its reduced field, psi
    and T (each member solves its own b_j) and one store of g, formed
    where f is first evaluated, and of fans, so f_on_scales evaluates A
    and g once per fan for the whole family.  hom_points and hom_coeffs
    preset in params are ignored.
    """
    if isinstance(points, int):
        points = default_hom_points(points)
    points = tuple(float(a) % TWO_PI for a in points)
    base = params or SolverParams()
    zero_phi = BoundaryFunction(samples=np.zeros(nu.N), kind="real")
    sol = solve_rh(nu, zero_phi, replace(base, hom_points=points, hom_coeffs=()))
    members = []
    fans: dict = {}
    k = len(points)
    for j in range(k + 1):
        coeffs = tuple(1.0 if i == j else 0.0 for i in range(k + 1))
        p = replace(base, hom_points=points, hom_coeffs=coeffs)
        members.append(replace(sol, params=p, notes=list(sol.notes)))
        members[-1]._fans = fans
    return members
