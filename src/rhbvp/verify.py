"""Boundary verification and solution certificates.

The verifier is the contract: a solution is accepted when the pairing
Re(nu * f) attains the boundary target nontangentially at a sufficient
fraction of probe vertices.  Probes run along Stolz paths at several
apertures; a vertex passes when every aperture's estimate lands within
tolerance and its approach sequence is flagged converged.

Vertices within delta of a jump of the data, of an index pole (reason
cut-neighborhood), or of a homogeneous pole are excluded and annotated;
everything is recorded per vertex in a report with a fixed column order.

Also here: radial attainment tables (boundary values of u and Neumann
difference quotients), mean-value Laplacian residuals, the numerical
rank certificate for solution families, and chord recovery of u from
its directional derivative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .boundary_data import BoundaryFunction, TWO_PI, wrap_angle
from .disk_harmonic import (RAY_CHUNK, StolzPath, converged_sequence,
                            default_j_max)
from .errors import ConfigurationError, DataError, DomainError, count, real
from .rh_solver import AnalyticSolution

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(12)

DEFAULT_APERTURES = (0.0, 0.5, -0.5, 1.0, -1.0)
J_DEEP = 20  # radial tables integrate out to radius 1 - 2^-J_DEEP
J_FLAG = (3, 12)  # dyadic levels whose u values must converge
J_QUOT = 16  # dyadic level of the Neumann difference quotient
LAPLACIAN_H = 1e-3  # radius of the mean-value stencil
CHORD_PANELS = 6  # 12-point Gauss panels along a recovery chord
V_MAX = 2 ** 20  # the most probe vertices a verifier setting may ask for


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def disk_grid(n: int = 101, half_width: float = 0.95):
    """Cartesian grid points of the square [-hw, hw]^2 inside the disk."""
    xs = np.linspace(-half_width, half_width, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    Z = (X + 1j * Y).ravel()
    return Z[np.abs(Z) < 1.0]


def _wrapped_dist(angles: np.ndarray, centers: Sequence[float]) -> np.ndarray:
    if not centers:
        return np.full(len(angles), np.inf)
    diffs = wrap_angle(angles[:, None] - np.asarray(centers)[None, :])
    return np.min(np.abs(diffs), axis=1)


def _exclusions(angles: np.ndarray, delta: float,
                jump_centers: Sequence[float], cut_centers: Sequence[float],
                pole_centers: Sequence[float]):
    """Exclusion mask and per-vertex reasons, priority jump > cut > pole."""
    cats = (("jump-neighborhood", jump_centers),
            ("cut-neighborhood", cut_centers),
            ("hom-pole-neighborhood", pole_centers))
    n_centers = sum(len(c) for _, c in cats)
    budget = 2.0 * delta * n_centers
    if budget > 0.05 * TWO_PI:
        raise ConfigurationError(
            f"exclusion zones would cover {budget / TWO_PI:.1%} of the "
            f"boundary (> 5%); reduce delta or the number of special points")
    excluded = np.zeros(len(angles), dtype=bool)
    reasons = np.array(["-"] * len(angles), dtype=object)
    for name, centers in cats[::-1]:  # low priority first, high overwrites
        if not centers:
            continue
        hit = _wrapped_dist(angles, centers) <= delta
        excluded |= hit
        reasons[hit] = name
    return excluded, reasons, budget


def _check_settings(**settings) -> None:
    """ConfigurationError unless errors.count reads V (from 8 to V_MAX),
    errors.real each other scalar setting and each item of apertures, a
    sequence or a 1-d array.  Only the settings given are checked."""
    if "V" in settings:
        count(settings.pop("V"), "V", 8, V_MAX)
    apertures = settings.pop("apertures", ())
    if isinstance(apertures, np.ndarray) and apertures.ndim == 1:
        apertures = list(apertures)
    if isinstance(apertures, (str, bytes)) or not isinstance(apertures, Sequence):
        raise ConfigurationError(f"apertures has the wrong type: {apertures!r}")
    for name, val in [*settings.items(), *(("apertures", a) for a in apertures)]:
        real(val, name)


def _solution_specials(src: AnalyticSolution, target_jumps: Sequence[float]):
    """(jump, cut, pole) angle lists of a solution and its target's jumps;
    the index poles take the cut-neighborhood reason."""
    jumps = set(target_jumps) | set(src.phi.jumps) | set(src.alpha.jumps)
    return sorted(jumps), sorted(src.index_poles), sorted(src.hom_points)


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

REPORT_COLUMNS = ("angle", "target", "estimate", "error",
                  "converged", "excluded", "reason")
_REPORT_ROW = "%.17g,%.17g,%.17g,%.17g,%d,%d,%s"  # one line per vertex


@dataclass
class VerificationReport:
    angles: np.ndarray
    target: np.ndarray
    estimate: np.ndarray
    error: np.ndarray
    converged: np.ndarray
    excluded: np.ndarray
    reasons: np.ndarray
    pass_fraction: float
    certified_fraction: float
    residual_stats: tuple[float, float]
    settings: dict
    notes: list[str] = field(default_factory=list)

    def serialize(self) -> str:
        lines = ["# rhbvp verification report"]
        lines.append("# settings: " + json.dumps(self.settings, sort_keys=True))
        for note in self.notes:
            lines.append("# note: " + note)
        lines.append(",".join(REPORT_COLUMNS))
        cols = (self.angles, self.target, self.estimate, self.error,
                self.converged, self.excluded, self.reasons)
        lines.extend(map(_REPORT_ROW.__mod__,
                         zip(*(col.tolist() for col in cols))))
        lines.append(f"# pass_fraction = {self.pass_fraction:.17g}")
        lines.append(f"# certified_fraction = {self.certified_fraction:.17g}")
        lines.append(f"# residual_max = {self.residual_stats[0]:.17g}")
        lines.append(f"# residual_mean = {self.residual_stats[1]:.17g}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the verifier
# ----------------------------------------------------------------------

def verify_solution(hsol, target: BoundaryFunction | None = None,
                    V: int = 500, tol: float = 1e-3, delta: float = 1e-2,
                    apertures: Sequence[float] = DEFAULT_APERTURES) -> VerificationReport:
    """Certify that f_source's Re(nu f) attains the target nontangentially.

    A vertex passes when it converged at every aperture and all aperture
    estimates are within tol of the target.  certified_fraction divides
    the passed vertices by the non-excluded ones, pass_fraction by the
    non-excluded ones that converged.  On the disk the report adds the
    radial table's fractions and the Laplacian residual on disk_grid(21, 0.9).
    """
    target = target if target is not None else hsol.phi
    if target is None:
        raise ConfigurationError("verification requires a boundary target")
    _check_settings(V=V, tol=tol, delta=delta, apertures=apertures)
    if len(apertures) == 0:
        raise ConfigurationError(f"apertures must be non-empty, got {apertures!r}")
    src = hsol.f_source

    angles = TWO_PI * np.arange(V) / V
    targets = np.asarray(target.on_uniform_grid(V), dtype=float)
    nu_vals = np.asarray(src.nu.base.on_uniform_grid(V), dtype=complex)

    N = src.N
    j_max = default_j_max(N)
    # every path has the same levels, so the fan is (apertures, K, V)
    scales = np.stack([StolzPath(angle=0.0, aperture=k, j_min=3,
                                 j_max=j_max).scales for k in apertures])
    fvals = src.f_on_scales(scales.ravel(), V).reshape(*scales.shape, V)
    pairing = (nu_vals * fvals).real
    conv = converged_sequence(pairing.swapaxes(1, 2), tol).all(axis=0)
    err_per_ap = np.abs(pairing[:, -1] - targets)  # (apertures, V)
    est, err = pairing[0, -1], err_per_ap.max(axis=0)

    jumps, cuts, poles = _solution_specials(src, target.jumps)
    excluded, reasons, budget = _exclusions(angles, delta, jumps, cuts, poles)

    denom = (~excluded) & conv
    ok_per_ap = err_per_ap <= tol
    passed = denom & ok_per_ap.all(axis=0)
    pass_fraction = float(passed.sum() / denom.sum()) if denom.any() else 0.0
    certified_fraction = (float(passed.sum() / (~excluded).sum())
                          if (~excluded).any() else 0.0)

    agree = (ok_per_ap == ok_per_ap[0]).all(axis=0)
    agreement = float(np.mean(agree[denom])) if denom.any() else 1.0

    notes = list(hsol.notes)
    if not denom.any():
        notes.append("no vertex both converged and non-excluded; "
                     "pass_fraction reported as 0")

    settings = {
        "V": int(V), "tol": float(tol), "delta": float(delta),
        "apertures": list(map(float, apertures)),
        "N": int(N), "j_max": int(j_max),
        "excluded_count": int(excluded.sum()),
        "excluded_measure": float(budget),
        "aperture_agreement": agreement,
        "converged_fraction": float(np.mean(conv[~excluded]))
        if (~excluded).any() else 0.0,
    }

    if hsol.conformal_map is None:
        table = radial_u_table(hsol, V=V, tol=tol, delta=delta)
        settings["radial_flag_fraction"] = table.flag_fraction
        ok = table.valid
        settings["radial_quotient_fraction_1e-2"] = float(np.mean(
            np.abs(table.quotient_est[ok] - targets[ok]) <= 1e-2)) if ok.any() else 0.0
        u_kept = table.u_boundary[~table.excluded]
        settings["u_boundary_range"] = ([float(u_kept.min()), float(u_kept.max())]
                                        if u_kept.size else [])
        stats = laplacian_residual(hsol.u, disk_grid(21, 0.9))
        residual_stats = (stats.max_residual, stats.mean_residual)
    else:
        residual_stats = (float("nan"), float("nan"))

    return VerificationReport(
        angles=angles, target=targets, estimate=est, error=err,
        converged=conv, excluded=excluded, reasons=reasons,
        pass_fraction=pass_fraction, certified_fraction=certified_fraction,
        residual_stats=residual_stats,
        settings=settings, notes=notes)


# ----------------------------------------------------------------------
# radial attainment and Neumann quotients
# ----------------------------------------------------------------------

@dataclass
class RadialTable:
    """u along rays at dyadic depths, its boundary values, and quotients.

    u_edges[k, v] is u at radius edges[k] along the ray of vertex v;
    u_boundary is the numerical nontangential boundary value of u, the
    limit extrapolated from the three deepest levels.  quotient_est holds
    the Neumann difference quotient (u(r_j) - u_boundary)/(1 - r_j) at the
    deepest quotient level, which attains the boundary data where u does.
    """

    angles: np.ndarray
    edges: np.ndarray
    u_edges: np.ndarray
    u_boundary: np.ndarray
    flags: np.ndarray
    quotient_est: np.ndarray
    excluded: np.ndarray
    flag_fraction: float

    @property
    def valid(self) -> np.ndarray:
        return (~self.excluded) & self.flags


def radial_u_table(hsol, V: int = 500, tol: float = 1e-3,
                   delta: float = 1e-2) -> RadialTable:
    """Integrate du/dr = Re(e^{i theta} f) along V rays with Gauss panels.

    Panels are dyadically graded toward the boundary so the cumulative
    values converge even when f is unbounded at the rim (integrable
    singularities).  edges[j] = 1 - 2^-j for 3 <= j <= J_DEEP; the
    convergence flags read levels J_FLAG, the quotient level J_QUOT.

    u_boundary is two Richardson steps over the levels J_DEEP - 2 .. J_DEEP,
    R_k[j] = (2^k R_{k-1}[j] - R_{k-1}[j-1]) / (2^k - 1), which cancel the
    2^-j and 4^-j terms of u(1) - u(1 - 2^-j) where u is smooth up to the
    rim (Sidi, Practical Extrapolation Methods, 2003, ch. 1-2).  On a ray
    into a jump u grows like log(1 / (1 - r)) and has no boundary value;
    such vertices are excluded.

    f is evaluated and integrated RAY_CHUNK // 12 panels at a time (one
    matrix block of eval_on_rays), the chunks sharing one padded copy of
    each series, so the table needs O(RAY_CHUNK * V) memory rather than
    O(12 * P * V) for its P panels.
    """
    if hsol.conformal_map is not None:
        raise ConfigurationError("radial tables are disk-native; verify "
                                 "transplanted solutions via the pairing")
    _check_settings(V=V, tol=tol, delta=delta)
    angles = TWO_PI * np.arange(V) / V
    edges = np.concatenate([[0.0, 0.5, 0.75],
                            1.0 - 2.0 ** (-np.arange(3, J_DEEP + 1, dtype=float))])
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    nodes = mids[:, None] + halfs[:, None] * _GAUSS_X[None, :]  # (P, 12)

    src = hsol.f_source
    folds = src.folds(V)
    phase = np.exp(1j * angles)[None, :]
    P = len(mids)
    panel_int = np.empty((P, V))
    step = RAY_CHUNK // 12
    for i in range(0, P, step):
        integrand = (phase * src.f_on_scales(nodes[i:i + step].ravel(), V,
                                                  folds)).real
        panel_int[i:i + step] = (integrand.reshape(-1, 12, V)
                                 * _GAUSS_W[None, :, None]).sum(axis=1)
        del integrand  # and its complex base, before the next chunk
    panel_int *= halfs[:, None]
    u_edges = np.concatenate([np.zeros((1, V)), np.cumsum(panel_int, axis=0)])
    u_edges += hsol.d0

    rich = u_edges[-3:]
    for k in (1, 2):
        rich = (2.0 ** k * rich[1:] - rich[:-1]) / (2.0 ** k - 1)
    u_boundary = rich[0]
    lo, hi = J_FLAG
    flags = converged_sequence(u_edges[lo:hi + 1].T, tol)

    jumps, cuts, poles = _solution_specials(src, ())
    excluded, _, _ = _exclusions(angles, delta, jumps, cuts, poles)

    quotient_est = (u_edges[J_QUOT] - u_boundary) * 2.0 ** J_QUOT

    valid_mask = ~excluded
    flag_fraction = float(np.mean(flags[valid_mask])) if valid_mask.any() else 0.0
    return RadialTable(angles=angles, edges=edges, u_edges=u_edges,
                       u_boundary=u_boundary, flags=flags,
                       quotient_est=quotient_est,
                       excluded=excluded, flag_fraction=flag_fraction)


# ----------------------------------------------------------------------
# interior certificates
# ----------------------------------------------------------------------

@dataclass
class LaplacianStats:
    max_residual: float
    mean_residual: float
    n_points: int
    n_skipped: int


def laplacian_residual(u: Callable, points: np.ndarray) -> LaplacianStats:
    """Mean-value Laplacian residual of u at interior points.

    Delta u(z) ~ (4/h^2) * (mean of u(z + h e^{2 pi i k/8}), k = 0..7,
    minus u(z)); the five-point stencil is the 4-node case.  For u = x^2
    the estimate is exactly 2.  For harmonic u = Re F the circle mean
    aliases only the Taylor terms of order 8, 16, ..., so the residual
    is O((h/d)^8) with d the distance to the nearest singularity of F,
    above a rounding floor of about eps |u| / h^2.  (Trefethen &
    Weideman, "The exponentially convergent trapezoidal rule", SIAM
    Review 56, 2014.)

    h = LAPLACIAN_H.  Points with any of the 8 nodes outside the unit disk
    are skipped and counted.
    """
    z = np.asarray(points, dtype=complex).ravel()
    stencil = LAPLACIAN_H * np.exp(2j * np.pi * np.arange(8) / 8)
    ok = np.ones(len(z), dtype=bool)
    for s in stencil:
        ok &= np.abs(z + s) < 1.0
    zin = z[ok]
    if len(zin) == 0:
        return LaplacianStats(float("nan"), float("nan"), 0, int(len(z)))
    nodes = (zin[:, None] + stencil[None, :]).ravel()
    ring = np.asarray(u(nodes), dtype=float).reshape(len(zin), len(stencil))
    acc = ring.mean(axis=1) - np.asarray(u(zin), dtype=float)
    res = 4.0 * np.abs(acc) / LAPLACIAN_H ** 2
    return LaplacianStats(float(np.max(res)), float(np.mean(res)),
                          int(len(zin)), int(len(z) - len(zin)))


@dataclass
class DimensionCertificate:
    sigma_min: float
    singular_values: np.ndarray
    n_rows: int
    n_points: int
    rank: int
    notes: list[str] = field(default_factory=list)


def certificate_points(M: int = 64) -> np.ndarray:
    """Deterministic well-spread interior points (golden-angle spiral)."""
    m = np.arange(M)
    r = 0.15 + 0.75 * (m + 0.5) / M
    gamma = np.pi * (3.0 - np.sqrt(5.0))
    return r * np.exp(1j * gamma * m)


def dimension_certificate(rows: Sequence[Callable],
                          points: np.ndarray | None = None) -> DimensionCertificate:
    """Smallest singular value of the row-normalized value matrix.

    Each row is one candidate solution evaluated at the sample points;
    sigma_min bounded away from 0 certifies linear independence of the
    family at the sampled resolution.  The default samples
    max(64, 2 * rows) points; explicit points must be at least as many
    as the rows, since fewer points cannot separate them.  rank counts
    the singular values above eps * rows * sigma_max.  A numerically
    zero row stops the certificate with sigma_min, singular values and
    rank all 0.
    """
    if len(rows) < 2:
        raise ConfigurationError("dimension certificate needs at least 2 rows")
    if points is None:
        pts = certificate_points(max(64, 2 * len(rows)))
    else:
        pts = np.asarray(points, dtype=complex)
        if len(pts) < len(rows):
            raise ConfigurationError(
                f"dimension certificate of {len(rows)} rows needs at least "
                f"{len(rows)} sample points, got {len(pts)}")
    A = np.empty((len(rows), len(pts)))
    notes = []
    for i, fn in enumerate(rows):
        A[i] = np.asarray(fn(pts), dtype=float)
        nrm = np.linalg.norm(A[i])
        if nrm < 1e-300:
            notes.append(f"row {i} is numerically zero")
            return DimensionCertificate(0.0, np.zeros(len(rows)), len(rows),
                                        len(pts), 0, notes)
        A[i] /= nrm
    svals = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(svals > np.finfo(float).eps * len(rows) * svals[0]))
    return DimensionCertificate(float(svals[-1]), svals, len(rows), len(pts),
                                rank, notes)


def chord_recovery(hsol, z0: complex, z1: complex) -> tuple[float, float]:
    """Recover u(z1) from u(z0) plus the chord integral of the pairing.

    u(z1) = u(z0) + |z1 - z0| * int_0^1 Re(e * f(z0 + t (z1 - z0))) dt
    with e the unit chord direction; when e equals the field nu along the
    chord the integrand is the attained boundary pairing.  Returns
    (recovered, direct).
    """
    z0 = complex(z0)
    z1 = complex(z1)
    if not np.all(hsol.contains(np.array([z0, z1]))):
        raise DomainError("chord endpoints must lie inside the domain")
    span = z1 - z0
    if abs(span) == 0:
        raise DataError("chord endpoints coincide")
    e = span / abs(span)
    edges = np.linspace(0.0, 1.0, CHORD_PANELS + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    t = (mids[:, None] + halfs[:, None] * _GAUSS_X[None, :]).ravel()
    pts = z0 + t * span
    vals = (e * hsol.f(pts)).real.reshape(CHORD_PANELS, 12)
    integral = float(np.sum(vals * _GAUSS_W[None, :] * halfs[:, None]))
    recovered = float(hsol.u(z0)) + abs(span) * integral
    direct = float(hsol.u(z1))
    return recovered, direct
