"""Command line interface.

Subcommands:
  solve    solve the configured problem, write the field CSV
  verify   solve, run the boundary verifier, write the report (+ CSV)
  family   homogeneous family for the configured points + rank certificate
  map      Theodorsen map for a star-like domain, correspondence table

One JSON config drives everything; unknown keys anywhere are errors
naming the offending paths.  A key the config leaves out takes the
default of the library call it feeds (SolverParams, verify_solution),
except params.N, the grid size, which defaults to DEFAULT_N.
Exit codes: 0 success, 1 usage/configuration errors (bad arguments
included), 2 numerical failures.  Output files are guarded by .lock files
and partial outputs are removed when a run fails for any reason.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from .boundary_data import (BoundaryFunction, DirectionField,
                            build_boundary_function, grid_nodes)
from .direction_solver import HarmonicSolution, solve_directional
from .errors import ConfigurationError, NumericalError, RHBVPError
from .jordan_domain import theodorsen_map, transplant_neumann, transplant_solve
from .neumann import disk_inner_normal, solve_neumann
from .rh_solver import REFINE, SolverParams, homogeneous_family
from .verify import dimension_certificate, verify_solution

DEFAULT_N = 1024  # grid size when neither params.N nor --n sets it
DEFAULT_GRID = {"nx": 101, "ny": 101, "half_width": 0.95}

_SCHEMA = {
    "problem": None,
    "domain": {"starlike": {"rho": None}},
    "nu": None,
    "phi": None,
    "params": {"N": None, "cut": None, "hom_points": None, "hom_coeffs": None,
               "d0": None},
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


def _section(cfg: dict, path: str) -> dict:
    """The object at the dotted config path, {} where it is absent or null;
    a value of any other type is a ConfigurationError."""
    val, keys = cfg, path.split(".")
    for i, key in enumerate(keys):
        val = val.get(key)
        if val is None:
            return {}
        if not isinstance(val, dict):
            raise ConfigurationError(
                f"{'.'.join(keys[:i + 1])} has the wrong type: {val!r}")
    return val


def _validated_n(cfg: dict, override: int | None) -> int:
    n = override if override is not None else _section(cfg, "params").get(
        "N", DEFAULT_N)
    if not isinstance(n, int) or n < 16 or (n & (n - 1)) != 0:
        raise ConfigurationError(
            f"params.N must be a power of two with N >= 16, got {n!r}")
    return n


def _build_params(cfg: dict) -> SolverParams:
    """SolverParams from the params section less N, which sizes the grid."""
    return SolverParams(**{k: v for k, v in _section(cfg, "params").items()
                           if k != "N"})


def _build_domain(cfg: dict, N: int):
    dom = cfg.get("domain", "disk")
    if dom == "disk":
        return None
    if isinstance(dom, dict) and set(dom) == {"starlike"}:
        rho = _section(cfg, "domain.starlike").get("rho")
        if rho is None:
            raise ConfigurationError("domain.starlike.rho is required")
        return theodorsen_map(rho, N=N)
    raise ConfigurationError(f"domain must be 'disk' or {{'starlike': ...}}, "
                             f"got {dom!r}")


def _build_phi(cfg: dict, N: int) -> BoundaryFunction:
    if "phi" not in cfg:
        raise ConfigurationError("config requires 'phi' boundary data")
    return build_boundary_function(cfg["phi"], N)


def _build_nu(cfg: dict, N: int) -> DirectionField | None:
    """The configured direction field; None for the inner normal."""
    spec = cfg.get("nu", "normal")
    if spec == "normal":
        return None
    if isinstance(spec, dict) and set(spec) == {"angle"}:
        spec = spec["angle"]
    if isinstance(spec, str):
        return DirectionField.from_angle(spec, N)
    raise ConfigurationError(
        f"nu must be 'normal' or a direction-angle expression, got {spec!r}")


def _solve(cfg: dict, N: int, trace):
    params = _build_params(cfg)
    cmap = _build_domain(cfg, N)
    phi = _build_phi(cfg, N)
    problem = cfg.get("problem", "neumann")
    if problem not in ("neumann", "directional"):
        raise ConfigurationError(
            f"problem must be 'neumann' or 'directional', got {problem!r}")
    nu = _build_nu(cfg, N)
    if problem == "neumann" and nu is None:
        hs = (solve_neumann(phi, params) if cmap is None
              else transplant_neumann(cmap, phi, params))
    elif cmap is None:
        hs = solve_directional(nu or disk_inner_normal(N).field, phi, params)
    else:  # nu None is the image inner normal
        hs = transplant_solve(cmap, phi, params, nu=nu)
    trace(f"solve: N={N} refine={REFINE} "
          f"winding={hs.f_source.index} "
          f"series_terms={len(hs.F.coefficients)} d0={params.d0:g}")
    for note in hs.notes:
        trace("note: " + note)
    return hs, params, cmap


def _grid_spec(cfg: dict):
    g = dict(DEFAULT_GRID)
    g.update(_section(cfg, "outputs.grid"))
    try:
        nx, ny, hw = int(g["nx"]), int(g["ny"]), float(g["half_width"])
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"outputs.grid has the wrong type: {g!r}") from None
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


_VERIFY_KINDS = {"V": int, "tol": float, "delta": float,
                 "apertures": lambda a: tuple(map(float, a))}


def _verify_cfg(cfg: dict, flag_tol: float | None) -> dict:
    """verify_solution keywords for the verify keys the config sets, with
    --tol over verify.tol; the target stays a raw spec."""
    v = dict(_section(cfg, "verify"))
    if flag_tol is not None:
        v["tol"] = flag_tol
    for key, kind in _VERIFY_KINDS.items():
        if key in v:
            try:
                v[key] = kind(v[key])
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"verify.{key} has the wrong type: {v[key]!r}") from None
    return v


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

    def release(self, failed: bool):
        """Remove the locks, and after a failure the outputs first."""
        for path in (self.written if failed else []) + self.locks:
            with contextlib.suppress(OSError):
                os.unlink(path)


def _out_paths(cfg: dict, out_dir: str | None, command: str):
    outs = _section(cfg, "outputs")
    field = outs.get("field_csv")
    report = outs.get("report") if command != "solve" else None
    if command in ("solve", "map", "family") and field is None:
        raise ConfigurationError("outputs.field_csv is required")
    if command in ("verify", "family") and report is None:
        raise ConfigurationError("outputs.report is required")

    def rebase(key, p):
        if p is None:
            return None
        if not isinstance(p, str):
            raise ConfigurationError(f"outputs.{key} has the wrong type: {p!r}")
        if out_dir and not os.path.isabs(p):
            return os.path.join(out_dir, p)
        return p

    return rebase("field_csv", field), rebase("report", report)


class _Parser(argparse.ArgumentParser):
    """Bad arguments are usage errors: usage text on stderr, exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="rhbvp",
        description="Riemann-Hilbert directional/Neumann boundary value solver")
    parser.add_argument("command", choices=["solve", "verify", "family", "map"])
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="directory for outputs")
    parser.add_argument("--n", type=int, default=None, help="override params.N")
    parser.add_argument("--tol", type=float, default=None,
                        help="override verify.tol")
    parser.add_argument("--quiet", action="store_true")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, bad arguments 1
        return exc.code

    def trace(msg: str):
        if not args.quiet:
            print(msg)

    guard = _OutputGuard()
    failed = True
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
            vkw = _verify_cfg(cfg, args.tol) if args.command == "verify" else {}
            hs, params, cmap = _solve(cfg, N, trace)
            if field_path is not None:
                nx, ny, hw = _grid_spec(cfg)
                _write_field_csv(field_path, hs, nx, ny, hw, trace)
            if args.command == "verify":
                target = vkw.pop("target", None)
                if target is not None:
                    target = build_boundary_function(target, N)
                report = verify_solution(hs, target=target, **vkw)
                report.settings["config_echo"] = json.dumps(cfg, sort_keys=True)
                with open(report_path, "w") as fh:
                    fh.write(report.serialize())
                trace(f"verify: pass_fraction={report.pass_fraction:.4f} "
                      f"certified_fraction={report.certified_fraction:.4f} "
                      f"excluded={report.settings['excluded_count']} "
                      f"-> {report_path}")
        failed = False
        return 0
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except RHBVPError as exc:  # UsageError and its subclasses
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:  # any failure, typed or not, leaves no lock and no partial file
        guard.release(failed)


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
    params = _build_params(cfg)
    if not params.hom_points:
        raise ConfigurationError("family command requires params.hom_points")
    cmap = _build_domain(cfg, N)
    if cmap is not None:
        raise ConfigurationError("family command is disk-native")
    nu = _build_nu(cfg, N) or disk_inner_normal(N).field
    members = homogeneous_family(nu, params.hom_points, params)

    base, ext = os.path.splitext(field_path)
    nx, ny, hw = _grid_spec(cfg)
    rows = []
    member_paths = []
    for j, sol in enumerate(members):
        hs = HarmonicSolution(f_source=sol, d0=params.d0)
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
