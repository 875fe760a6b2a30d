"""The three workloads of the benchmark.

Each workload builds its inputs from a seed in its constructor (that is
the set-up that setup_s times) and then runs rounds: a fixed list of
operations, each timed on its own and then checked by the code in
checks.py with timing stopped.  A caller drives a round through a
recorder object with two methods: op(name, run, check) times run(),
then calls check(output, expect), where expect(check_name, ok, detail)
records a failed check; count(name, value) adds to a traced counter.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks as C

TWO_PI = C.TWO_PI

# Checks that fail on every run because u = Re F keeps too few terms of
# F near the rim (HarmonicSolution.u, direction_solver.antiderivative).
# Their operations are counted as failed; any other failed check makes
# the run incorrect.
KNOWN_FAULTS = {
    ("cli.verify.step_neumann", "rim_u_vs_ray_integral"),
    ("cli.verify.star3", "closed_form_u"),
}


def _fmt(x: float) -> str:
    return repr(float(x))


def _trig_terms_expr(terms) -> str:
    """terms: (a0, k, a, b) -> 'a0 + a*cos(k*t) + b*sin(k*t) + ...'."""
    parts = []
    for a0, k, a, b in terms:
        parts.append(_fmt(a0))
        if k:
            parts.append(f"{_fmt(a)}*cos({k}*t) + {_fmt(b)}*sin({k}*t)")
    return " + ".join(parts)


class Piecewise:
    """Piecewise data a0 + a cos(kt) + b sin(kt) (sums of such) on [0, 2pi).

    Evaluation, flux and jumps are computed here, apart from rhbvp.
    """

    def __init__(self, edges, terms):
        self.edges = np.asarray(edges, dtype=float)
        self.terms = [tuple(t) for t in terms]  # one tuple of terms per piece

    @classmethod
    def random(cls, rng) -> "Piecewise":
        """Three pieces, jumps in (0.3, 2 pi - 0.3) at least 0.4 apart."""
        while True:
            cuts = np.sort(rng.uniform(0.3, TWO_PI - 0.3, 2))
            if cuts[1] - cuts[0] > 0.4:
                break
        terms = [((rng.uniform(-1, 1), int(rng.integers(1, 4)),
                   rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),)
                 for _ in range(3)]
        return cls(np.concatenate([[0.0], cuts, [TWO_PI]]), terms)

    def __add__(self, other: "Piecewise") -> "Piecewise":
        edges = np.union1d(self.edges, other.edges)
        mids = 0.5 * (edges[1:] + edges[:-1])
        terms = [self.terms[self._piece(m)] + other.terms[other._piece(m)]
                 for m in mids]
        return Piecewise(edges, terms)

    def _piece(self, theta):
        idx = np.searchsorted(self.edges, np.mod(theta, TWO_PI), side="right") - 1
        return np.clip(idx, 0, len(self.terms) - 1)

    def spec(self) -> list[dict]:
        return [{"from": float(lo), "to": float(hi), "expr": _trig_terms_expr(tt)}
                for lo, hi, tt in zip(self.edges[:-1], self.edges[1:], self.terms)]

    def __call__(self, theta) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        idx = self._piece(theta)
        out = np.zeros(len(theta))
        for p, tt in enumerate(self.terms):
            m = idx == p
            for a0, k, a, b in tt:
                out[m] += a0 + a * np.cos(k * theta[m]) + b * np.sin(k * theta[m])
        return out

    def flux(self) -> float:
        """Exact integral over the circle."""
        total = 0.0
        for lo, hi, tt in zip(self.edges[:-1], self.edges[1:], self.terms):
            for a0, k, a, b in tt:
                total += a0 * (hi - lo)
                if k:
                    total += (a * (np.sin(k * hi) - np.sin(k * lo))
                              - b * (np.cos(k * hi) - np.cos(k * lo))) / k
        return total

    def jump_sum(self) -> float:
        """Sum of |jumps| at the edges, which bounds the node-rule flux error."""
        left = self(self.edges[1:] - 1e-13)
        right = self(np.mod(self.edges[1:], TWO_PI))
        return float(np.sum(np.abs(right - left)))


def _trig_u(coef, z):
    """u = -Re sum (a_k - i b_k) z^k / k solves the Neumann problem for
    phi = sum a_k cos(k t) + b_k sin(k t) with u(0) = 0."""
    z = np.asarray(z, dtype=complex)
    return -sum(((a - 1j * b) * z**k / k) for k, (a, b) in enumerate(coef, 1)).real


def _flux_tolerance(N: int, pw: Piecewise, flux: float) -> float:
    # the package integrates by the node mean: error <= (2 pi / N) * sum |jump|,
    # and its note prints six significant digits
    return TWO_PI / N * (pw.jump_sum() + 1e-9) + 1e-5 * abs(flux) + 1e-12


def _check_flux_note(expect, notes, pw: Piecewise, N: int):
    flux = pw.flux()
    quoted = C.flux_in_note(notes)
    expect("nonclassical_note", quoted is not None
           and abs(quoted - flux) <= _flux_tolerance(N, pw, flux),
           f"note flux {quoted} vs integral {flux:.6g}")


# ----------------------------------------------------------------------
# disk_certify
# ----------------------------------------------------------------------

class DiskCertify:
    """Solve and certify disk problems at N = 16384 (V = 500, tol 1e-2).

    Step-data Neumann with nonzero flux, and a smooth problem for an
    oblique winding-one field nu = exp(i(t + pi + a sin(t - b))).
    """

    name = "disk_certify"

    def __init__(self, R, rng, small: bool, workdir: Path, configs: Path):
        self.R = R
        self.N = 4096 if small else 16384
        self.V, self.tol = 500, 1e-2
        self.j_max = int(np.log2(self.N / 8))
        self.limit_tol = 16.0 / self.N
        while True:
            cuts = np.sort(rng.uniform(0.4, TWO_PI - 0.4, 3))
            if np.min(np.diff(cuts)) > 0.6:
                break
        while True:
            levels = rng.uniform(-1, 1, 4)
            self.step = Piecewise(np.concatenate([[0.0], cuts, [TWO_PI]]),
                                  [((v, 0, 0.0, 0.0),) for v in levels])
            if abs(self.step.flux()) > 0.05:
                break
        self.step_bf = R.build_boundary_function(self.step.spec(), self.N)

        a, b = rng.uniform(0.2, 0.5), rng.uniform(0.0, TWO_PI)
        self.beta = lambda t: t + np.pi + a * np.sin(t - b)
        self.nu = R.DirectionField.from_angle(
            f"t + pi + {_fmt(a)}*sin(t - {_fmt(b)})", self.N)
        c = rng.uniform(-1, 1, 7)
        self.oblique = Piecewise([0.0, TWO_PI], [tuple(
            (c[0] if k == 1 else 0.0, k, c[2 * k - 1] / k, c[2 * k] / k)
            for k in (1, 2, 3))])
        self.oblique_bf = R.build_boundary_function(
            self.oblique.spec()[0]["expr"], self.N)

    def round(self, rec):
        R = self.R
        rec.op("disk.step_neumann",
               lambda: self._certify(R.solve_neumann(self.step_bf)),
               lambda out, expect: self._check(
                   out, expect, self.step, lambda t: -np.exp(1j * t), neumann=True))
        rec.op("disk.oblique_directional",
               lambda: self._certify(R.solve_directional(self.nu, self.oblique_bf)),
               lambda out, expect: self._check(
                   out, expect, self.oblique, lambda t: np.exp(1j * self.beta(t)),
                   neumann=False))

    def _certify(self, hs):
        return hs, self.R.verify_solution(hs, V=self.V, tol=self.tol)

    def _check(self, out, expect, data: Piecewise, nu_of, neumann: bool):
        hs, report = out
        expect("report_target",
               np.max(np.abs(report.target - data(report.angles))) <= 1e-12)
        expect("pass_fraction", report.pass_fraction >= 0.9,
               f"pass_fraction {report.pass_fraction:.4f}")
        if neumann:  # only the Neumann solver checks the flux
            _check_flux_note(expect, hs.notes, data, self.N)

        theta = TWO_PI * (np.arange(64) + 0.5) / 64
        theta = theta[C.ang_dist(theta, data.edges) >= 0.2]
        radii = C.approach_radii(self.j_max)
        limit = C.radial_limit(C.pairing_on_radii(hs.f, nu_of(theta), theta, radii))
        err = float(np.max(np.abs(limit - data(theta))))
        expect("boundary_limit", err <= self.limit_tol, f"max error {err:.3e}")

        res = C.harmonic_residual(hs.u, C.disk_points(15, 0.9))
        expect("harmonic", res <= 1e-6, f"residual {res:.3e}")
        pts = np.concatenate([C.ring_points(0.6, 8, 0.1), C.ring_points(0.3, 4)])
        gerr = C.gradient_error(hs.u, hs.f(pts), pts)
        expect("gradient", gerr <= 1e-6, f"error {gerr:.3e}")


# ----------------------------------------------------------------------
# family_solve
# ----------------------------------------------------------------------

class FamilySolve:
    """Many solutions for the inner normal of the disk at N = 4096.

    One homogeneous family (32 seeded poles) with the antiderivative of
    each member, its rank certificate, and 32 seeded Neumann data sets:
    cos t, trigonometric polynomials, piecewise data with jumps, and sums
    of two piecewise sets for the linearity check.
    """

    name = "family_solve"

    def __init__(self, R, rng, small: bool, workdir: Path, configs: Path):
        self.R = R
        self.N = 2048 if small else 4096
        k, n_trig, n_piece, n_sum = (6, 2, 3, 1) if small else (32, 11, 16, 4)
        self.j_max = int(np.log2(self.N / 8))
        self.limit_tol = 16.0 / self.N
        self.member_tol = 32.0 / self.N
        self.nu = R.disk_inner_normal(self.N).field
        self.poles = ((TWO_PI * np.arange(k) + np.pi) / k
                      + rng.uniform(-0.25, 0.25, k) * TWO_PI / k)

        # Trigonometric sets have no sin t term: the construction fixes
        # Im S[psi](0) = 0, which makes its solution the classical one only
        # when Im f(0) = b_1 = 0; otherwise it adds a homogeneous member.
        self.data = [("trig", [(1.0, 0.0)])]  # cos t: f = -1
        for _ in range(n_trig):
            coef = [tuple(rng.uniform(-1, 1, 2) / j) for j in range(1, 4)]
            coef[0] = (coef[0][0], 0.0)
            self.data.append(("trig", coef))
        pieces = [Piecewise.random(rng) for _ in range(n_piece)]
        self.data += [("piecewise", pw) for pw in pieces]
        for _ in range(n_sum):
            i, j = rng.choice(n_piece, 2, replace=False)
            self.data.append(("sum", (pieces[i] + pieces[j], i, j)))
        self.phis = []
        for kind, d in self.data:
            if kind == "trig":
                spec = " + ".join(f"{_fmt(a)}*cos({n}*t) + {_fmt(b)}*sin({n}*t)"
                                  for n, (a, b) in enumerate(d, 1))
            else:
                spec = (d if kind == "piecewise" else d[0]).spec()
            self.phis.append(R.build_boundary_function(spec, self.N))
        self._piece_index = {id(pw): m for m, pw in enumerate(pieces)}
        self._piece_u: dict[int, object] = {}

    def round(self, rec):
        R = self.R
        self._piece_u = {}
        fam = rec.op("family.homogeneous", self._family, self._check_family)
        rec.op("family.certificate",
               lambda: R.dimension_certificate(
                   [h.u for h in fam] + [lambda z: np.ones(np.shape(z))]),
               lambda cert, expect: self._check_certificate(cert, expect, fam))
        for m, ((kind, d), phi) in enumerate(zip(self.data, self.phis)):
            rec.op(f"family.neumann.{m:02d}",
                   lambda phi=phi: R.solve_neumann(phi),
                   lambda hs, expect, kind=kind, d=d: self._check_data(
                       hs, expect, kind, d))

    def _family(self):
        R = self.R
        members = R.homogeneous_family(self.nu, list(self.poles))
        return [R.HarmonicSolution(F=R.antiderivative(m, M=4 * self.N), d0=0.0,
                                   f_source=m, nu=self.nu, phi=m.phi)
                for m in members]

    def _rays(self, sol, V):
        """f at radius 0.5 and along the approach radii, at V vertices."""
        scales = np.concatenate([[0.5], C.approach_radii(self.j_max)])
        return sol.f_on_scales(scales.astype(complex), V)

    def _check_family(self, fam, expect):
        expect("members", len(fam) == len(self.poles) + 1, f"{len(fam)} members")
        V = 256
        theta = TWO_PI * np.arange(V) / V
        keep = ((C.ang_dist(theta, self.poles) >= 0.05)
                & (C.ang_dist(theta, [0.0]) >= 0.3))
        worst_lim = worst_grad = 0.0
        for h in fam:
            fv = self._rays(h.f_source, V)
            pairing = (-np.exp(1j * theta)[None, :] * fv[1:]).real
            rel = np.abs(C.radial_limit(pairing)) / np.maximum(np.abs(fv[-1]), 1.0)
            worst_lim = max(worst_lim, float(np.max(rel[keep])))
            pts = 0.5 * np.exp(1j * theta[::32])
            worst_grad = max(worst_grad, C.gradient_error(h.u, fv[0, ::32], pts))
        expect("homogeneous_limit", worst_lim <= self.member_tol,
               f"max |Re(nu f)| / |f| {worst_lim:.3e}")
        expect("gradient", worst_grad <= 1e-6, f"error {worst_grad:.3e}")

    def _check_certificate(self, cert, expect, fam):
        expect("sigma_min", cert.sigma_min > 1e-8, f"sigma_min {cert.sigma_min:.3e}")
        pts = np.concatenate([C.ring_points(r, 24, r) for r in (0.3, 0.6, 0.85)])
        own = C.smallest_singular_value([h.u(pts) for h in fam]
                                        + [np.ones(len(pts))])
        expect("own_sigma_min", own > 1e-8, f"sigma_min {own:.3e}")

    def _check_data(self, hs, expect, kind, d):
        N = self.N
        if kind == "trig":
            z = C.disk_points(21, 0.95)
            scale = 1.0 + sum(abs(a) + abs(b) for a, b in d)
            err = float(np.max(np.abs(hs.u(z) - _trig_u(d, z))))
            expect("closed_form_u", err <= 1e-10 * scale, f"error {err:.3e}")
            if d == [(1.0, 0.0)]:
                fz = hs.f(C.ring_points(0.5, 8))
                expect("closed_form_f", np.max(np.abs(fz + 1.0)) <= 1e-10)
            expect("no_note", C.flux_in_note(hs.notes) is None)
            return
        pw = d if kind == "piecewise" else d[0]
        _check_flux_note(expect, hs.notes, pw, N)
        res = C.harmonic_residual(hs.u, C.disk_points(11, 0.9))
        expect("harmonic", res <= 1e-6, f"residual {res:.3e}")

        V = 128
        fv = self._rays(hs.f_source, V)
        theta = TWO_PI * np.arange(V) / V
        keep = C.ang_dist(theta, pw.edges) >= 0.2
        pairing = (-np.exp(1j * theta)[None, :] * fv[1:]).real
        err = float(np.max(np.abs(C.radial_limit(pairing) - pw(theta))[keep]))
        expect("boundary_limit", err <= self.limit_tol, f"max error {err:.3e}")
        pts = 0.5 * np.exp(1j * theta[::16])
        gerr = C.gradient_error(hs.u, fv[0, ::16], pts)
        expect("gradient", gerr <= 1e-6, f"error {gerr:.3e}")

        z = np.concatenate([C.ring_points(r, 16, r) for r in (0.2, 0.4, 0.6)])
        if kind == "piecewise":
            self._piece_u[self._piece_index[id(pw)]] = hs.u
        else:
            _, i, j = d
            if i in self._piece_u and j in self._piece_u:
                lin = float(np.max(np.abs(hs.u(z) - self._piece_u[i](z)
                                          - self._piece_u[j](z))))
                expect("linearity", lin <= 1e-8, f"error {lin:.3e}")
            else:
                expect("linearity", False, "a summand failed to solve")


# ----------------------------------------------------------------------
# cli_star
# ----------------------------------------------------------------------

ELLIPSE_RHO = "0.8/sqrt(1 - (1 - 0.8^2)*cos(a)^2)"
STAR3_RHO = "1 + 0.2*cos(3*a)"
RHO = {ELLIPSE_RHO: lambda a: 0.8 / np.sqrt(1.0 - (1.0 - 0.8**2) * np.cos(a)**2),
       STAR3_RHO: lambda a: 1.0 + 0.2 * np.cos(3.0 * a)}
GRID = {"nx": 101, "ny": 101, "half_width": 0.95}  # rhbvp.cli default


class CliStar:
    """rhbvp.cli.main in-process: the shipped configs and two star domains.

    The star configs are Neumann `verify` runs (tol 1e-2) whose data is
    s times the normal component of the x direction, built from an
    independent Theodorsen map, so that the exact solution is u = s x + c.
    (Both domains are symmetric about the real axis, so the construction's
    normalisation picks this solution; for another direction it adds a
    homogeneous member.)  The ellipse takes a seeded s; rho = 1 + 0.2 cos 3a
    keeps s = 1.
    """

    name = "cli_star"

    def __init__(self, R, rng, small: bool, workdir: Path, configs: Path):
        self.R = R
        self.N = 256 if small else 1024
        self.configs = configs
        self.out = workdir / "cli"
        self.out.mkdir(parents=True)
        self.n_flag = ["--n", str(self.N)] if small else []
        self.shipped = {name: json.loads((configs / f"{name}.json").read_text())
                        for name in ("smooth_neumann", "step_neumann",
                                     "ellipse_map", "homogeneous_family")}
        if self.shipped["ellipse_map"]["domain"]["starlike"]["rho"] != ELLIPSE_RHO:
            raise ValueError("configs/ellipse_map.json names another domain")
        self.ellipse_sigma = None
        self.stars = {}
        for name, rho, scale in (("ellipse", ELLIPSE_RHO,
                                  rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)),
                                 ("star3", STAR3_RHO, 1.0)):
            t, sigma, w, nu = C.theodorsen_boundary(RHO[rho], self.N)
            if name == "ellipse":
                self.ellipse_sigma = sigma
            cfg = {"problem": "neumann", "domain": {"starlike": {"rho": rho}},
                   "phi": C.trig_expression(scale * nu.real),
                   "params": {"N": self.N},
                   "verify": {"V": 500, "tol": 1e-2},
                   "outputs": {"field_csv": f"{name}_field.csv",
                               "report": f"{name}_report.txt"}}
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(cfg))
            self.stars[name] = (path, rho, scale)
        self._step_ref = None

    def _main(self, command, config):
        return self.R.cli.main([command, "--config", str(config), "--out",
                                str(self.out), "--quiet"] + self.n_flag)

    def round(self, rec):
        cfg = self.configs
        for name, command, config, check in (
                ("cli.solve.smooth_neumann", "solve",
                 cfg / "smooth_neumann.json", self._check_smooth),
                ("cli.verify.step_neumann", "verify",
                 cfg / "step_neumann.json", self._check_step),
                ("cli.map.ellipse_map", "map",
                 cfg / "ellipse_map.json", self._check_map),
                ("cli.family.homogeneous_family", "family",
                 cfg / "homogeneous_family.json", self._check_family),
                ("cli.verify.ellipse", "verify", self.stars["ellipse"][0],
                 lambda rc, expect: self._check_star(rc, expect, "ellipse")),
                ("cli.verify.star3", "verify", self.stars["star3"][0],
                 lambda rc, expect: self._check_star(rc, expect, "star3"))):
            rec.op(name, lambda c=command, p=config: self._main(c, p),
                   lambda rc, expect, check=check: self._check_files(
                       rc, expect, check, rec))
            for path in self.out.iterdir():
                path.unlink()

    def _check_files(self, rc, expect, check, rec):
        expect("exit_code", rc == 0, f"exit code {rc}")
        rec.count("cli.bytes_written",
                  sum(p.stat().st_size for p in self.out.iterdir()))
        if rc == 0:
            check(rc, expect)

    def _field(self, expect, name, inside, grid=GRID):
        rows = C.read_csv(self.out / name)
        want = C.grid_count(grid["nx"], grid["ny"], grid["half_width"], inside)
        expect("csv_rows", len(rows) == want, f"{len(rows)} rows, {want} in domain")
        return rows[:, 0] + 1j * rows[:, 1], rows[:, 2]

    def _check_smooth(self, rc, expect):
        # phi = cos t: f = -1, so u = -x + d0
        w, u = self._field(expect, "smooth_field.csv", lambda w: np.abs(w) < 1.0)
        spread = float(np.ptp(u + w.real))
        expect("closed_form_u", spread <= 2e-9, f"spread of u + x {spread:.3e}")

    def _check_step(self, rc, expect):
        w, u = self._field(expect, "step_field.csv", lambda w: np.abs(w) < 1.0)
        step = Piecewise([0.0, np.pi, TWO_PI], [((1.0, 0, 0.0, 0.0),),
                                                ((0.0, 0, 0.0, 0.0),)])
        report = C.read_report(self.out / "step_report.txt")
        expect("pass_fraction", report["pass_fraction"] >= 0.9,
               f"pass_fraction {report['pass_fraction']:.4f}")
        expect("report_target", np.max(np.abs(
            report["rows"][:, 1] - step(report["rows"][:, 0]))) <= 1e-12)
        _check_flux_note(expect, report["notes"], step, self.N)

        u0 = u[np.argmin(np.abs(w))]
        inner = np.flatnonzero(np.abs(w) <= 0.6)[::8][:64]
        rim = np.argsort(-np.abs(w))[:64]
        if self._step_ref is None:  # the package's f for the same data
            phi = self.R.build_boundary_function(self.shipped["step_neumann"]["phi"],
                                                 self.N)
            f = self.R.solve_neumann(phi).f
            self._step_ref = (C.ray_integral(f, w[inner]), C.ray_integral(f, w[rim]))
        for check, idx, ref in (("interior_u_vs_ray_integral", inner, self._step_ref[0]),
                                ("rim_u_vs_ray_integral", rim, self._step_ref[1])):
            err = float(np.max(np.abs(u[idx] - u0 - ref)))
            expect(check, err <= 1e-6, f"max |u - ray integral of f| {err:.3e}")

    def _check_map(self, rc, expect):
        rows = C.read_csv(self.out / "ellipse_correspondence.csv")
        rho = RHO[ELLIPSE_RHO]
        t, sigma, w, res = rows[:, 0], rows[:, 1], rows[:, 2] + 1j * rows[:, 3], rows[:, 4]
        expect("rows", len(rows) == self.N and np.allclose(
            t, TWO_PI * np.arange(self.N) / self.N, rtol=0, atol=1e-14))
        own = np.abs(np.abs(w) - rho(np.angle(w)))
        expect("boundary_residual", np.max(own) <= 1e-10, f"{np.max(own):.3e}")
        expect("residual_column", np.max(np.abs(res - own)) <= 1e-13)
        dsig = float(np.max(np.abs(sigma - self.ellipse_sigma)))
        expect("correspondence", dsig <= 1e-10, f"max sigma difference {dsig:.3e}")
        summary = json.loads((self.out / "ellipse_map.json").read_text())
        expect("summary", summary["iterations"] >= 1 and summary["residual"] <= 1e-10)

    def _check_family(self, rc, expect):
        cfg = self.shipped["homogeneous_family"]
        grid = cfg["outputs"]["grid"]
        k = len(cfg["params"]["hom_points"])
        cols = []
        for j in range(k + 1):
            w, u = self._field(expect, f"family_member{j:02d}.csv",
                               lambda w: np.abs(w) < 1.0, grid)
            expect("u_origin", abs(u[np.argmin(np.abs(w))]) <= 1e-12)
            cols.append(u)
        own = C.smallest_singular_value(cols + [np.ones(len(cols[0]))])
        expect("own_sigma_min", own > 1e-8, f"sigma_min {own:.3e}")
        cert = json.loads((self.out / "family_certificate.json").read_text())
        expect("certificate", cert["members"] == k + 1 and cert["sigma_min"] > 1e-8)

    def _check_star(self, rc, expect, name):
        path, rho_src, scale = self.stars[name]
        rho = RHO[rho_src]
        w, u = self._field(expect, f"{name}_field.csv",
                           lambda w: np.abs(w) < rho(np.angle(w)) * (1.0 - 1e-12))
        dev = float(np.ptp(u - scale * w.real)) / 2
        expect("closed_form_u", dev <= 1e-6, f"max |u - s x - c| {dev:.3e}")
        report = C.read_report(self.out / f"{name}_report.txt")
        expect("pass_fraction", report["pass_fraction"] >= 0.9,
               f"pass_fraction {report['pass_fraction']:.4f}")
        expect("no_note", C.flux_in_note(report["notes"]) is None)
        cmap = self.R.theodorsen_map(rho_src, N=self.N)
        wb = cmap.boundary_nodes()
        bres = float(np.max(np.abs(np.abs(wb) - rho(np.angle(wb)))))
        expect("boundary_residual", bres <= 1e-10, f"{bres:.3e}")
        probe = w[:: max(1, len(w) // 64)]
        back = cmap.omega(cmap.invert(probe))
        inv = float(np.max(np.abs(back - probe)))
        expect("inverse", inv <= 1e-9, f"max |omega(invert(w)) - w| {inv:.3e}")


WORKLOADS = {cls.name: cls for cls in (DiskCertify, FamilySolve, CliStar)}
