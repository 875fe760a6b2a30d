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

The weight is one series, exp(-i A) = E0 * E with E0 = exp(-i A_0), so
f = E0 * (h + pole terms) with h = E * g plus the polynomial that
synthetic division splits off each pole (Henrici, Applied and
Computational Complex Analysis I, 1974, sec. 1.6).

solve_rh runs two stages: reduce_field does what depends on nu alone
(w, alpha0, A, H; E where first read) into a frozen ReducedField, and
ReducedField.solve forms psi and T's parts for one phi, so a caller
with many data reduces nu once.
psi is formed on the N nodes.  A jump J of piecewise phi at an angle c (a
junction, or declared inside a piece) is a jump J exp(-H(c)) of psi, the
boundary real part of (i J exp(-H(c))/pi) log(1 - z e^{-ic}), whose
series is exact (Eckhoff, Math. Comp. 64, 1995); it is kept as an atom
beside the first N/2 terms of psi's continuous rest.  F reads T's first
terms, and g, at most REFINE * N / 2 terms, exact zeros at the top
dropped, is formed where f is first evaluated.  Only a field whose alpha0
has jumps, where exp(-H) has power singularities, forms psi and samples
E on REFINE * N nodes.  Any construction satisfying the boundary
verifier is admissible; the verifier is the contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter
from typing import Sequence

import numpy as np

from .boundary_data import (BoundaryFunction, DirectionField, TWO_PI,
                            jump_sawtooths, measurable_arg)
from .disk_harmonic import (SeriesEvaluator, analytic_coefficients,
                            circle_series, conjugate_boundary,
                            sawtooth_coefficients, schwarz_integral,
                            unit_powers)
from .errors import (ConfigurationError, DataError, DomainError,
                     NumericalRangeError, count, real)

CLAMP_LOG = float(np.log(1e12))  # exp(H) confined to [1e-12, 1e12]
REFINE = 8  # g: at most REFINE * N / 2 terms; alpha jumps: psi on REFINE * N nodes


@dataclass
class SolverParams:
    """Construction parameters shared by the solvers (the grid size is the
    data's).  cut and d0, and the items of hom_points and hom_coeffs (any
    non-string iterable), are read by errors.real: a finite int, float
    or numpy real, or a ConfigurationError naming params.<name>."""

    cut: float = 0.0
    d0: float = 0.0
    hom_points: tuple[float, ...] = ()
    hom_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        self.cut, self.d0 = real(self.cut, "params.cut"), real(self.d0, "params.d0")
        for name in ("hom_points", "hom_coeffs"):
            value, label = getattr(self, name), f"params.{name}"
            try:
                items = iter(None if isinstance(value, str) else value)
            except TypeError:
                raise ConfigurationError(
                    f"{label} has the wrong type: {value!r}") from None
            setattr(self, name, tuple([real(a, label) for a in items]))
        self.hom_points = tuple([a % TWO_PI for a in self.hom_points])
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
    jumps), and the clamp note; the weight exp(-i A) = E0 * E is formed
    where first read.  Its arrays are read-only, so solutions and callers
    may share one reduction."""

    field: DirectionField
    index: int
    alpha: BoundaryFunction
    A: SeriesEvaluator
    H: np.ndarray
    notes: tuple[str, ...] = ()

    @property
    def E0(self) -> complex:
        return np.exp(-1j * self.A.coefficients[0])

    @cached_property
    def E(self) -> SeriesEvaluator:
        """exp(-i (A - A_0)) as a series with E_0 = 1 exactly: [1] when A
        is one term, else circle_series from M = len(H) samples.  Formed
        once per reduction, where first read; read-only."""
        c = self.A.coefficients
        e = np.ones(1, dtype=complex)
        if len(c) > 1:
            e = circle_series(lambda M: np.exp(
                -1j * (self.A.eval_on_circle(1.0, M) - c[0])), len(self.H))
            e[0] = 1.0
        E = SeriesEvaluator(e)
        E.coefficients.flags.writeable = False
        return E

    def solve(self, phi: BoundaryFunction,
              params: SolverParams | None = None) -> "AnalyticSolution":
        """The phi stage: psi = phi * exp(-H) and T = S[psi]'s parts.

        On H's grid of N nodes each jump J of phi.limits at an angle c is
        kept as an atom, c and J exp(-H(c)); the rest of psi, with any
        jump whose one-sided limit is infinite, gives the first N/2 terms,
        and no piece is read nor series formed.  With H on the refined
        grid (alpha has jumps) psi is formed on it from phi's values
        there, and the rest is all of T."""
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
        c, J, rest = np.zeros(0), np.zeros(0), psi
        if len(psi) == N and len(phi.limits[0]):
            c, left, right = phi.limits
            H_c = (unit_powers(c, len(self.A.coefficients))  # Im A(e^{ic})
                   * self.A.coefficients).sum(axis=1).imag
            J = (right - left) * np.exp(-np.clip(H_c, -CLAMP_LOG, CLAMP_LOG))
            c, J = c[np.isfinite(J)], J[np.isfinite(J)]  # inf stays in rest
            rest = psi - jump_sawtooths(N, c, J)
        return AnalyticSolution(reduced=self, phi=phi, jump_angles=c,
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
    for a in (alpha.samples, A.coefficients, Hc):
        a.flags.writeable = False
    return ReducedField(field=nu, index=w, alpha=alpha, A=A, H=Hc, notes=notes)


@dataclass
class AnalyticSolution:
    """Solution f of the directional boundary value problem on the disk.

    nu, index, alpha and A read through to reduced, its ReducedField, and
    hom_points and hom_coeffs to params.  T is kept as its jumps' angles
    and sizes and its continuous rest's coefficients; g, z^k * T for
    w = -k <= 0 and T shifted down by k for w = k > 0, and h, E * g plus
    the poles' remainder, are formed from them where f is first
    evaluated.
    """

    reduced: ReducedField
    phi: BoundaryFunction
    jump_angles: np.ndarray
    jump_sizes: np.ndarray
    rest: np.ndarray
    params: SolverParams
    notes: list[str] = field(default_factory=list)
    # g, E * g and the fans of E * g and z by (scales, V), shared by the
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
        evaluated.  Without jumps, or for n <= 1 (each jump's series
        starts with 0), only zeros are formed, signed as the empty jump
        series leaves them."""
        L = REFINE * self.N // 2
        if len(self.jump_angles) and n > 1:
            T = sawtooth_coefficients(self.jump_angles, self.jump_sizes, L,
                                      min(n, L))
        else:
            T = np.zeros(min(n, L), dtype=complex)
            T.imag[1:] = -0.0
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

    def _Eg(self) -> SeriesEvaluator:
        """E * g (g when E is [1]), for a family once in its store; any
        other solution keeps only h."""
        store = {} if self._fans is None else self._fans
        if "Eg" not in store:
            e = self.reduced.E.coefficients
            store["Eg"] = self.g if len(e) == 1 else SeriesEvaluator(
                np.convolve(e, self.g.coefficients))
        return store["Eg"]

    @cached_property
    def h(self) -> SeriesEvaluator:
        """f / E0 less the pointwise pole terms: E * g plus the poles'
        remainder."""
        R = self._poles[-1]
        return SeriesEvaluator(np.polynomial.polynomial.polyadd(
            self._Eg().coefficients, R)) if len(R) else self._Eg()

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
        """f = E0 * (h + pole terms) at the points z, in the shape of z
        (a scalar for a scalar), h by Horner."""
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z) >= 1.0):
            raise DomainError("solution evaluation requires |z| < 1")
        zs = np.atleast_1d(z)  # the pole terms work in place
        return self._assemble(self.h._horner(zs), zs).reshape(z.shape)[()]

    __call__ = f

    def f_on_scales(self, scales: np.ndarray, V: int,
                    folds: np.ndarray | None = None) -> np.ndarray:
        """f at z = s * exp(2*pi*i*v/V) for each scale s, shape (len(s), V).

        One FFT-folded fan of h, the pole terms applied pointwise.  A
        family member fans E * g and z once per (scales, V) for the whole
        family and adds its own remainder's fan to a copy.  folds,
        self.folds(V), lends the fanned series' blocks to calls on one V.
        """
        scales = np.asarray(scales, dtype=complex)
        fans = {} if self._fans is None else self._fans
        key = (scales.tobytes(), V)
        if key not in fans:
            fans[key] = (self._fanned.eval_on_rays(scales, V, folds),
                         scales[:, None] * np.exp(2j * np.pi * np.arange(V) / V))
        acc, z = fans[key]
        if self._fans is not None:
            acc = acc.copy()
            R = self._poles[-1]
            if len(R):
                acc += SeriesEvaluator(R).eval_on_rays(scales, V)
        return self._assemble(acc, z)

    @property
    def _fanned(self) -> SeriesEvaluator:
        """The series f_on_scales fans: h, or E * g for a family member."""
        return self.h if self._fans is None else self._Eg()

    def folds(self, V: int) -> np.ndarray:
        """self._fanned.fold(V), to lend to f_on_scales."""
        return self._fanned.fold(V)

    def _assemble(self, acc, z):
        """E0 * (h + pole terms) at z from acc, a fresh array of h's
        values that takes the pole terms and the product in place."""
        self._add_pole_terms(z, acc)
        return np.multiply(self.reduced.E0, acc, out=acc)

    def taylor_coefficients(self, K: int) -> tuple[np.ndarray, float, float]:
        """f's first K Taylor coefficients f_n, with (a, b) such that
        |f_n| <= a + b n for every n.

        f_n = E0 (h_n + P_n): h_n from T's first K + w terms times E, plus
        the remainder; each pole adds its amplitude times zeta^(-n) to
        P_n; for w <= 0, P_0 also takes the constant and P is shifted up
        by -w; for w > 0 the cut dipole adds d ((a - b) n + a) zeta_c^-n.
        |g_n| <= max |rest| + sum |J|/pi, so |(E * g)_n| <= ||E||_1 times
        that; only the dipole's term grows, linearly."""
        w = self.index
        s = max(-w, 0)
        amp, angles, const, dipole, (da, db), R = self._poles
        n = np.arange(max(K - s, 0))
        P = np.exp(-1j * np.multiply.outer(n, angles)) @ amp
        if w <= 0:
            P[:1] += const
        elif dipole:
            P += (dipole * ((da - db) * n + da)
                  * np.exp(-1j * n * self.params.cut))
        t = np.zeros(K, dtype=complex)
        t[s:] = self.bracket(max(K + w, 0))[max(w, 0):]
        e = self.reduced.E.coefficients
        if len(e) > 1:
            t = np.convolve(e, t)[:K]
        t[:min(K, len(R))] += R[:K]
        t[s:] += P
        E0, g_n = self.reduced.E0, (np.max(np.abs(self.rest), initial=0.0)
                                    + np.sum(np.abs(self.jump_sizes)) / np.pi)
        a = abs(E0) * (np.abs(e).sum() * g_n + np.abs(R).max(initial=0.0)
                       + np.sum(np.abs(amp)) + abs(const)
                       + abs(dipole) * abs(da))
        return E0 * t, float(a), float(abs(E0) * abs(dipole) * abs(da - db))

    @cached_property
    def _poles(self):
        """(amp, angles, const, dipole, (a, b), remainder): the pole sum
        split against E.  A pole with beta != 0 has amplitude
        2 beta zeta^-m, m = max(w, 0), times E(zeta); its _divided Q joins
        the remainder.  For w <= 0 the constant i c_0 + sum c_j stays
        pointwise, the remainder takes const * (E - 1), and all is
        shifted up by -w.  For w > 0 the cut dipole d = -i c_0 zeta_c^-w
        times (w - (w-1) q)/(1 - q)^2 = 1/(1 - q)^2 + (w - 1)/(1 - q) is
        split twice (Q2 from Q): d (a - b q)/(1 - q)^2 pointwise, with
        b = Q(zeta) + (w - 1) E(zeta), a = E(zeta) + b, and
        d (Q2 + (w - 1) Q) in the remainder.  E = [1] leaves no
        remainder and amp, a = w, b = w - 1 as they were."""
        w = self.index
        m, k = max(w, 0), max(-w, 0)
        c = self.hom_coeffs or (0.0,) * (len(self.hom_points) + 1)
        angles = np.array(self.hom_points + self.index_poles)
        beta = np.array([-x for x in c[1:]] + self.index_coeffs.tolist())
        keep = beta != 0.0
        angles, beta = angles[keep], beta[keep]
        amp = 2.0 * beta * np.exp(-1j * m * angles)
        e = self.reduced.E.coefficients
        R = np.zeros(k + len(e) if len(e) > 1 else 0, dtype=complex)
        for j in range(len(angles) if len(R) else 0):
            v, Q = _divided(e, angles[j])
            R[k:k + len(Q)] += amp[j] * Q
            amp[j] *= v
        const = dipole = 0.0
        da, db = w, w - 1
        if w <= 0:
            const = 1j * c[0] + sum(c[1:])
            R[k + 1:] += const * e[1:]
        elif c[0]:
            dipole = -1j * c[0] * np.exp(-1j * w * self.params.cut)
            v, Q = _divided(e, self.params.cut)
            qv, Q2 = _divided(Q, self.params.cut)
            db = qv + (w - 1) * v
            da = v + db
            R[:len(Q)] += dipole * (w - 1) * Q
            R[:len(Q2)] += dipole * Q2
        return amp, angles, const, dipole, (da, db), R if R.any() else R[:0]

    def _add_pole_terms(self, z, acc):
        """Add the pointwise pole terms at z to acc.  Each Herglotz pole
        (beta = -c_j) and index pole (beta = b_j) adds its amplitude
        over 1 - z/zeta: for w = k > 0 that is beta H_j less its Taylor
        terms below z^k, over z^k, and for w <= 0
        i p = i c_0 + sum c_j + sum_j 2 (-c_j) / (1 - z/zeta_j), so the
        sum takes that constant and is multiplied by z^-w.  For w > 0, c_0
        multiplies the cut dipole -z*zeta_c/(zeta_c - z)^2, not the
        constant that no real b_j could cancel; over z^k that is
        d (a - b q)/(1 - q)^2 with q = z/zeta_c (see _poles)."""
        w = self.index
        amp, angles, const, dipole, (da, db), _ = self._poles
        part = acc if w > 0 else np.full(z.shape, const)
        for a, coef in zip(angles, amp):
            q = z * np.exp(-1j * a)
            np.subtract(1.0, q, out=q)
            part += np.divide(coef, q, out=q)
        if w <= 0:
            acc += part if w == 0 else z ** -w * part
        elif dipole:
            q = z * np.exp(-1j * self.params.cut)
            acc += dipole * (da - db * q) / (1.0 - q) ** 2


def _divided(e: np.ndarray, angle: float):
    """(E(zeta), Q) with E(z) / (1 - z/zeta) = E(zeta) / (1 - z/zeta) + Q(z)
    for E = sum e_n z^n and zeta = e^{i angle}: the synthetic division
    Q_m = -zeta^-m sum_{n > m} e_n zeta^n (Henrici, Applied and
    Computational Complex Analysis I, 1974, sec. 1.6)."""
    p = np.exp(1j * angle * np.arange(len(e)))
    x = e * p
    tail = np.cumsum(x[::-1])[::-1]
    return x.sum(), -tail[1:] * p[:-1].conj()


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
    params (so in hom_coeffs) and notes, and share its reduced field
    and T (each member solves its own b_j) and one store of g and E * g,
    formed where f is first evaluated, and of their fans, so f_on_scales
    evaluates E * g once per fan for the whole family and each member
    adds the fan of its own remainder, shorter than E.  An integer
    points is a count of default_hom_points, read by errors.count;
    otherwise each point is read by errors.real.  hom_points and
    hom_coeffs preset in params are ignored.
    """
    if isinstance(points, (int, np.integer, np.bool_)):
        points = default_hom_points(count(points, "points", 0))
    points = tuple(real(a, "points") % TWO_PI for a in points)
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
