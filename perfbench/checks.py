"""Correctness checks of the benchmark, computed apart from rhbvp.

Every check takes the program's outputs (callables u and f, sampled
values, written files) and compares them with a computation made here:
a mean-value stencil, an extrapolated radial limit, a central-difference
gradient, a ray integral by Gauss panels, closed forms, an independent
Theodorsen map, or counts made from the grid specification.  Each check
returns an error measure; the workloads compare it with a tolerance.
None of them compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(12)


def ang_dist(theta, centers) -> np.ndarray:
    """Distance on the circle from each angle to the nearest center."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if len(centers) == 0:
        return np.full(theta.shape, np.inf)
    d = np.mod(theta[:, None] - np.asarray(centers, float)[None, :] + np.pi,
               TWO_PI) - np.pi
    return np.min(np.abs(d), axis=1)


def disk_points(n: int, radius: float) -> np.ndarray:
    """Points of an n x n grid over [-radius, radius]^2 with |z| <= radius."""
    xs = np.linspace(-radius, radius, n)
    z = (xs[:, None] + 1j * xs[None, :]).ravel()
    return z[np.abs(z) <= radius]


def ring_points(radius: float, count: int, offset: float = 0.0) -> np.ndarray:
    return radius * np.exp(1j * (offset + TWO_PI * np.arange(count) / count))


# ----------------------------------------------------------------------
# interior properties
# ----------------------------------------------------------------------

def harmonic_residual(u, points, h: float = 1e-3, nodes: int = 16) -> float:
    """max |Laplacian u| estimated by a 16-node circle mean of radius h.

    (4/h^2) * (mean of u on the circle - u at the centre) is exact for
    |z|^2 and, for harmonic u, off by O((h/d)^16) with d the distance to
    the nearest singularity.
    """
    z = np.asarray(points, dtype=complex).ravel()
    ring = h * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    around = np.asarray(u((z[:, None] + ring[None, :]).ravel()), float)
    mean = around.reshape(len(z), nodes).mean(axis=1)
    return float(np.max(4.0 * np.abs(mean - np.asarray(u(z), float)) / h**2))


def gradient_error(u, f_values, points, h: float = 1e-5) -> float:
    """max |central-difference grad u - (Re f, -Im f)|, relative to max(1, |f|)."""
    z = np.asarray(points, dtype=complex).ravel()
    ux = (np.asarray(u(z + h), float) - np.asarray(u(z - h), float)) / (2 * h)
    uy = (np.asarray(u(z + 1j * h), float)
          - np.asarray(u(z - 1j * h), float)) / (2 * h)
    fv = np.asarray(f_values, dtype=complex).ravel()
    err = np.maximum(np.abs(ux - fv.real), np.abs(uy + fv.imag))
    return float(np.max(err) / max(1.0, float(np.max(np.abs(fv)))))


def approach_radii(j_max: int) -> np.ndarray:
    """Radii 1 - 2^-j, j = 3..j_max, of a dyadic radial approach."""
    return 1.0 - 2.0 ** -np.arange(3, j_max + 1, dtype=float)


def radial_limit(values: np.ndarray) -> np.ndarray:
    """Boundary limit from values at approach_radii (first axis).

    Two Richardson steps with ratio 2 remove the O(1 - r) and O((1 - r)^2)
    terms of the radial expansion; the deepest estimate is returned.
    """
    v = np.asarray(values)
    r1 = 2.0 * v[1:] - v[:-1]
    r2 = (4.0 * r1[1:] - r1[:-1]) / 3.0
    return r2[-1]


def pairing_on_radii(f, nu_values, theta, radii) -> np.ndarray:
    """Re(nu(theta) f(r e^{i theta})), shape (len(radii), len(theta))."""
    z = radii[:, None] * np.exp(1j * np.asarray(theta))[None, :]
    fz = np.asarray(f(z.ravel()), dtype=complex).reshape(z.shape)
    return (np.asarray(nu_values)[None, :] * fz).real


# ----------------------------------------------------------------------
# ray integral of f, the reference for u along radii
# ----------------------------------------------------------------------

def ray_integral(f, points) -> np.ndarray:
    """int_0^|z| Re(e^{i arg z} f(r e^{i arg z})) dr = u(z) - u(0).

    12-point Gauss panels graded dyadically toward the boundary, so that
    each panel is no longer than its distance to |z| = 1.
    """
    z = np.asarray(points, dtype=complex).ravel()
    out = np.empty(len(z))
    for i, zi in enumerate(z):
        r_end, e = abs(zi), zi / abs(zi)
        edges = [0.0]
        k = 1
        while 1.0 - 2.0 ** -k < r_end:
            edges.append(1.0 - 2.0 ** -k)
            k += 1
        edges.append(r_end)
        edges = np.asarray(edges)
        mids = 0.5 * (edges[1:] + edges[:-1])
        halfs = 0.5 * (edges[1:] - edges[:-1])
        r = (mids[:, None] + halfs[:, None] * _GAUSS_X[None, :]).ravel()
        vals = (e * np.asarray(f(r * e), dtype=complex)).real
        out[i] = np.sum(vals.reshape(len(mids), 12) * _GAUSS_W[None, :]
                        * halfs[:, None])
    return out


# ----------------------------------------------------------------------
# rank
# ----------------------------------------------------------------------

def smallest_singular_value(rows) -> float:
    """sigma_min of the row-normalised matrix of sampled functions."""
    A = np.asarray(rows, dtype=float)
    A = A / np.linalg.norm(A, axis=1, keepdims=True)
    return float(np.linalg.svd(A, compute_uv=False)[-1])


# ----------------------------------------------------------------------
# star-like domains: an independent Theodorsen map
# ----------------------------------------------------------------------

def theodorsen_boundary(rho, N: int, tol: float = 1e-14, max_iter: int = 1000):
    """Boundary correspondence of the disk onto {|w| < rho(arg w)}.

    Fixed point sigma = t + H[log rho(sigma)] with H the FFT conjugation.
    Returns (t, sigma, w, nu): w = omega(e^{it}) and nu the inner unit
    normal there, -w (1 + z S'(z)) / |.|, S the Schwarz integral of
    log rho(sigma).
    """
    t = TWO_PI * np.arange(N) / N
    k = np.fft.fftfreq(N, d=1.0 / N)
    sigma = t.copy()
    for _ in range(max_iter):
        ls = np.fft.fft(np.log(rho(sigma)))
        new = t + np.fft.ifft(-1j * np.sign(k) * ls).real
        step = float(np.max(np.abs(new - sigma)))
        sigma = new
        if step < tol:
            break
    else:
        raise ArithmeticError("reference Theodorsen iteration did not converge")
    c = np.fft.fft(np.log(rho(sigma))) / N
    zs = np.fft.ifft(np.where(k > 0, 2.0 * k * c, 0.0)) * N
    w = rho(sigma) * np.exp(1j * sigma)
    nu = -w * (1.0 + zs)
    return t, sigma, w, nu / np.abs(nu)


def trig_expression(values: np.ndarray, rel_tol: float = 1e-14,
                    chunk: int = 24) -> str:
    """Expression in t of the trigonometric interpolant of real samples.

    Coefficients below rel_tol times the largest are dropped; terms are
    grouped in parentheses so the expression nests shallowly.
    """
    N = len(values)
    c = np.fft.rfft(values) / N
    floor = rel_tol * float(np.max(np.abs(c)))
    terms = [repr(float(c[0].real))]
    for n in range(1, N // 2):
        a, b = 2.0 * c[n].real, -2.0 * c[n].imag
        if abs(a) > floor:
            terms.append(f"{float(a)!r}*cos({n}*t)")
        if abs(b) > floor:
            terms.append(f"{float(b)!r}*sin({n}*t)")
    groups = ["(" + " + ".join(terms[i:i + chunk]) + ")"
              for i in range(0, len(terms), chunk)]
    return " + ".join(groups)


# ----------------------------------------------------------------------
# files written by the CLI
# ----------------------------------------------------------------------

def read_csv(path) -> np.ndarray:
    """Numeric rows of a CSV with one header line, shape (rows, columns)."""
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def grid_count(nx: int, ny: int, half_width: float, inside) -> int:
    """Number of Cartesian grid points for which inside(w) holds."""
    xs = np.linspace(-half_width, half_width, nx)
    ys = np.linspace(-half_width, half_width, ny)
    w = (xs[:, None] + 1j * ys[None, :]).ravel()
    return int(np.sum(inside(w)))


def read_report(path) -> dict:
    """pass_fraction, notes and (angle, target) rows of a verification report."""
    notes, rows, tail = [], [], {}
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# note: "):
                notes.append(line[len("# note: "):])
            elif line.startswith("# ") and " = " in line:
                key, val = line[2:].split(" = ", 1)
                tail[key] = float(val)
            elif line and line[0] not in "#a":
                parts = line.split(",")
                rows.append((float(parts[0]), float(parts[1])))
    return {"notes": notes, "rows": np.asarray(rows), **tail}


def flux_in_note(notes) -> float | None:
    """The compatibility integral quoted by a nonclassical-solution note."""
    key = "compatibility integral of the data is "
    for note in notes:
        if key in note:
            return float(note.split(key, 1)[1].split(",", 1)[0])
    return None
