"""Command line interface.

Subcommands:
  solve    solve the configured problem, write the field CSV
  verify   solve, run the boundary verifier, write the report (+ CSV)
  family   homogeneous family for the configured points + rank certificate
  map      Theodorsen map for a star-like domain, correspondence table

One JSON config drives everything; unknown keys anywhere are errors
naming the offending paths.  Exit codes: 0 success, 1 usage/configuration
errors, 2 numerical failures.  Output files are guarded by .lock files
and partial outputs are removed when a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .boundary_data import (BoundaryFunction, DirectionField,
                            build_boundary_function, grid_nodes)
from .direction_solver import (HarmonicSolution, antiderivative,
                               solve_directional)
from .errors import (ConfigurationError, NumericalError, RHBVPError,
                     UsageError)
from .jordan_domain import image_inner_normal, theodorsen_map, transplant_solve
from .neumann import compatibility_note, disk_inner_normal
from .rh_solver import SolverParams, homogeneous_family
from .verify import dimension_certificate, verify_solution

DEFAULTS = {"N": 1024, "V": 500, "tol": 1e-3, "delta": 1e-2,
            "grid": {"nx": 101, "ny": 101, "half_width": 0.95}}

_SCHEMA = {
    "problem": None,
    "domain": {"starlike": {"rho": None}},
    "nu": None,
    "phi": None,
    "params": {"N": None, "cut": None, "rho_sample": None, "refine": None,
               "hom_points": None, "hom_coeffs": None, "d0": None},
    "verify": {"V": None, "tol": None, "delta": None, "apertures": None,
               "target": None},
    "outputs": {"field_csv": None, "report": None,
                "grid": {"nx": None, "ny": None, "half_width": None}},
}


def _collect_unknown(cfg, schema, prefix="", out=None):
    out = out if out is not None else []
    if not isinstance(cfg, dict):
        return out
    for key, val in cfg.items():
        path = f"{prefix}{key}"
        if key not in schema:
            out.append(path)
            continue
        sub = schema[key]
        if isinstance(sub, dict) and isinstance(val, dict):
            _collect_unknown(val, sub, path + ".", out)
    return out


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")
    unknown = _collect_unknown(cfg, _SCHEMA)
    # "phi" pieces and "domain" strings are validated downstream
    if unknown:
        raise ConfigurationError(
            "unknown config keys: " + ", ".join(sorted(unknown)))
    return cfg


def _validated_n(cfg: dict, override: int | None) -> int:
    n = override if override is not None else cfg.get("params", {}).get(
        "N", DEFAULTS["N"])
    if not isinstance(n, int) or n < 16 or (n & (n - 1)) != 0:
        raise ConfigurationError(
            f"params.N must be a power of two with N >= 16, got {n!r}")
    return n


def _build_params(cfg: dict, N: int) -> SolverParams:
    p = cfg.get("params", {})
    return SolverParams(
        N=N,
        cut=float(p.get("cut", 0.0)),
        refine=int(p.get("refine", 8)),
        rho_sample=float(p.get("rho_sample", 0.5)),
        d0=float(p.get("d0", 0.0)),
        hom_points=tuple(p.get("hom_points", ())),
        hom_coeffs=tuple(p.get("hom_coeffs", ())),
    )


def _build_domain(cfg: dict, N: int):
    dom = cfg.get("domain", "disk")
    if dom == "disk":
        return None
    if isinstance(dom, dict) and set(dom) == {"starlike"}:
        rho = dom["starlike"].get("rho")
        if rho is None:
            raise ConfigurationError("domain.starlike.rho is required")
        return theodorsen_map(rho, N=N)
    raise ConfigurationError(f"domain must be 'disk' or {{'starlike': ...}}, "
                             f"got {dom!r}")


def _build_phi(cfg: dict, N: int) -> BoundaryFunction:
    if "phi" not in cfg:
        raise ConfigurationError("config requires 'phi' boundary data")
    return build_boundary_function(cfg["phi"], N)


def _build_nu(cfg: dict, N: int, cmap):
    spec = cfg.get("nu", "normal")
    if spec == "normal":
        if cmap is None:
            return disk_inner_normal(N).field
        return image_inner_normal(cmap)
    if isinstance(spec, dict) and set(spec) == {"angle"}:
        spec = spec["angle"]
    if isinstance(spec, str):
        return DirectionField.from_angle(spec, N)
    raise ConfigurationError(
        f"nu must be 'normal' or a direction-angle expression, got {spec!r}")


def _solve(cfg: dict, N: int, trace):
    params = _build_params(cfg, N)
    cmap = _build_domain(cfg, N)
    phi = _build_phi(cfg, N)
    problem = cfg.get("problem", "neumann")
    if problem not in ("neumann", "directional"):
        raise ConfigurationError(
            f"problem must be 'neumann' or 'directional', got {problem!r}")
    nu = _build_nu(cfg, N, cmap)
    if cmap is None:
        hs = solve_directional(nu, phi, params)
    else:
        hs = transplant_solve(cmap, phi, params, nu=nu)
    # Neumann is the directional problem for the inner normal plus a note
    if problem == "neumann" and cfg.get("nu", "normal") == "normal":
        note = compatibility_note(phi, cmap)
        if note:
            hs.notes.append(note)
    trace(f"solve: N={N} refine={params.refine} "
          f"winding={hs.f_source.index} "
          f"series_terms={len(hs.F.coefficients)} d0={params.d0:g}")
    for note in hs.notes:
        trace("note: " + note)
    return hs, params, cmap


def _grid_spec(cfg: dict):
    g = dict(DEFAULTS["grid"])
    g.update(cfg.get("outputs", {}).get("grid", {}) or {})
    nx, ny, hw = int(g["nx"]), int(g["ny"]), float(g["half_width"])
    if nx < 2 or ny < 2 or not (0 < hw < 1.0e6):
        raise ConfigurationError(f"invalid outputs.grid: {g!r}")
    return nx, ny, hw


def _write_field_csv(path: str, hs: HarmonicSolution, nx, ny, hw, trace):
    xs = np.linspace(-hw, hw, nx)
    ys = np.linspace(-hw, hw, ny)
    U, mask = hs.on_grid(xs, ys)
    ycols = [f",{y:.17g}," for y in ys.tolist()]
    with open(path, "w") as fh:
        fh.write("x,y,u\n")
        # one join per x-row: a whole-file string would raise peak memory
        for x, row, keep in zip(xs.tolist(), U, mask):
            js = np.flatnonzero(keep)
            x = f"{x:.17g}"
            fh.write("".join([f"{x}{ycols[j]}{u:.17g}\n"
                              for j, u in zip(js.tolist(), row[js].tolist())]))
    trace(f"field: {int(mask.sum())} in-domain points -> {path}")


def _verify_cfg(cfg: dict, flag_tol: float | None):
    v = cfg.get("verify", {}) or {}
    return {
        "V": int(v.get("V", DEFAULTS["V"])),
        "tol": float(flag_tol if flag_tol is not None
                     else v.get("tol", DEFAULTS["tol"])),
        "delta": float(v.get("delta", DEFAULTS["delta"])),
        "apertures": tuple(v.get("apertures", (0.0, 0.5, -0.5, 1.0, -1.0))),
        "target": v.get("target"),
    }


class _OutputGuard:
    """Lock files around outputs; failed runs leave no partial files."""

    def __init__(self):
        self.locks: list[str] = []
        self.written: list[str] = []

    def acquire(self, path: str):
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise ConfigurationError(f"output directory does not exist: {parent}")
        lock = path + ".lock"
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConfigurationError(
                f"output {path} is locked by another run ({lock} exists)"
            ) from None
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        self.locks.append(lock)
        self.written.append(path)

    def cleanup_partial(self):
        for path in self.written:
            if os.path.exists(path):
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def release(self):
        for lock in self.locks:
            if os.path.exists(lock):
                try:
                    os.unlink(lock)
                except OSError:
                    pass


def _out_paths(cfg: dict, out_dir: str | None, command: str):
    outs = cfg.get("outputs", {}) or {}
    field = outs.get("field_csv")
    report = outs.get("report") if command != "solve" else None
    if command in ("solve", "map", "family") and field is None:
        raise ConfigurationError("outputs.field_csv is required")
    if command in ("verify", "family") and report is None:
        raise ConfigurationError("outputs.report is required")

    def rebase(p):
        if p is None:
            return None
        if out_dir and not os.path.isabs(p):
            return os.path.join(out_dir, p)
        return p

    return rebase(field), rebase(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rhbvp",
        description="Riemann-Hilbert directional/Neumann boundary value solver")
    parser.add_argument("command", choices=["solve", "verify", "family", "map"])
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="directory for outputs")
    parser.add_argument("--n", type=int, default=None, help="override params.N")
    parser.add_argument("--tol", type=float, default=None,
                        help="override verify.tol")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed echoed into reports (sampling is "
                             "deterministic)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    def trace(msg: str):
        if not args.quiet:
            print(msg)

    guard = _OutputGuard()
    try:
        cfg = load_config(args.config)
        N = _validated_n(cfg, args.n)
        field_path, report_path = _out_paths(cfg, args.out, args.command)
        for p in (field_path, report_path):
            if p is not None:
                guard.acquire(p)
        trace(f"config: {json.dumps(cfg, sort_keys=True)}")

        if args.command == "map":
            _run_map(cfg, N, field_path, report_path, trace)
        elif args.command == "family":
            _run_family(cfg, N, field_path, report_path, trace, guard)
        else:
            hs, params, cmap = _solve(cfg, N, trace)
            if field_path is not None:
                nx, ny, hw = _grid_spec(cfg)
                _write_field_csv(field_path, hs, nx, ny, hw, trace)
            if args.command == "verify":
                vc = _verify_cfg(cfg, args.tol)
                target = None
                if vc["target"] is not None:
                    target = build_boundary_function(vc["target"], N)
                report = verify_solution(
                    hs, target=target, V=vc["V"], tol=vc["tol"],
                    delta=vc["delta"], apertures=vc["apertures"])
                report.settings["config_echo"] = json.dumps(cfg, sort_keys=True)
                report.settings["seed"] = args.seed
                with open(report_path, "w") as fh:
                    fh.write(report.serialize())
                trace(f"verify: pass_fraction={report.pass_fraction:.4f} "
                      f"certified_fraction={report.certified_fraction:.4f} "
                      f"excluded={report.settings['excluded_count']} "
                      f"-> {report_path}")
        guard.release()
        return 0
    except UsageError as exc:
        guard.cleanup_partial()
        guard.release()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        guard.cleanup_partial()
        guard.release()
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except RHBVPError as exc:
        guard.cleanup_partial()
        guard.release()
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_map(cfg: dict, N: int, field_path, report_path, trace):
    cmap = _build_domain(cfg, N)
    if cmap is None:
        raise ConfigurationError("map command requires a starlike domain")
    degree = len(cmap.omega.coefficients)
    trace(f"map: iterations={cmap.iterations} residual={cmap.residual:.3e} "
          f"slope={cmap.slope:.3f} degree={degree}")
    wb = cmap.boundary_nodes()
    node_res = np.abs(np.abs(wb) - np.asarray(cmap.rho(np.angle(wb)), float))
    cols = (grid_nodes(N), cmap.correspondence, wb.real, wb.imag, node_res)
    with open(field_path, "w") as fh:
        fh.write("t,sigma,re_w,im_w,residual\n")
        fh.writelines(f"{t:.17g},{s:.17g},{x:.17g},{y:.17g},{r:.17g}\n"
                      for t, s, x, y, r in zip(*(c.tolist() for c in cols)))
    if report_path is not None:
        with open(report_path, "w") as fh:
            fh.write(json.dumps({
                "iterations": cmap.iterations,
                "residual": cmap.residual,
                "slope": cmap.slope,
                "rho": cmap.rho_source,
                "N": cmap.N,
                "degree": degree,
            }, sort_keys=True) + "\n")


def _run_family(cfg: dict, N: int, field_path, report_path, trace, guard):
    params = _build_params(cfg, N)
    if not params.hom_points:
        raise ConfigurationError("family command requires params.hom_points")
    cmap = _build_domain(cfg, N)
    if cmap is not None:
        raise ConfigurationError("family command is disk-native")
    nu = _build_nu(cfg, N, None)
    members = homogeneous_family(nu, params.hom_points, params)

    base, ext = os.path.splitext(field_path)
    nx, ny, hw = _grid_spec(cfg)
    rows = []
    member_paths = []
    for j, sol in enumerate(members):
        F = antiderivative(sol, M=4 * sol.N, rho_sample=params.rho_sample)
        hs = HarmonicSolution(F=F, d0=params.d0, f_source=sol)
        rows.append(hs.u)
        p = f"{base}_member{j:02d}{ext}"
        member_paths.append(p)
        guard.acquire(p)
        _write_field_csv(p, hs, nx, ny, hw, trace)
    rows.append(lambda z: np.ones(np.shape(z)))  # the d0 direction
    cert = dimension_certificate(rows)
    trace(f"family: {len(members)} members, sigma_min={cert.sigma_min:.6g} "
          f"rank={cert.rank}")
    if report_path is not None:
        with open(report_path, "w") as fh:
            fh.write(json.dumps({
                "members": len(members),
                "sigma_min": cert.sigma_min,
                "rank": cert.rank,
                "singular_values": list(map(float, cert.singular_values)),
                "hom_points": list(params.hom_points),
                "files": member_paths,
            }, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
