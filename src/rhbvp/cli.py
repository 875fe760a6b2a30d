"""Command line interface.

Subcommands:
  solve    solve the configured problem, write the field CSV
  verify   solve, run the boundary verifier, write the report (+ CSV)
  family   homogeneous family for the configured points + rank certificate
  map      Theodorsen map for a star-like domain, correspondence table

One JSON config drives everything.  load_config refuses the non-finite
numbers that Python's json module accepts, and checks the config against
_SCHEMA in one walk: unknown keys, values of the wrong JSON type and
values out of range are errors naming their paths.  A key the config
leaves out takes the default of the library call it feeds (SolverParams,
verify_solution), except params.N, the grid size, which defaults to
DEFAULT_N.  nu decides the problem: the inner normal (nu left out or
"normal") is the Neumann problem on every domain.  problem is only
checked, and "neumann" with another nu is an error.
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
from .jordan_domain import theodorsen_map, transplant_solve
from .neumann import disk_inner_normal, solve_neumann
from .rh_solver import SolverParams, homogeneous_family
from .verify import _check_settings, dimension_certificate, verify_solution

DEFAULT_N = 1024  # grid size when neither params.N nor --n sets it
DEFAULT_GRID = {"nx": 101, "ny": 101, "half_width": 0.95}
MAP_BLOCK_ROWS = 128  # rows of the map table formatted per write

# Each key's accepted JSON value: a dict is a section (an object, or null
# for absent), a type or [type] a leaf's, and None leaves the value to the
# library call it feeds; domain is the string "disk" or its section.
_SCHEMA = {
    "problem": None,
    "domain": ({"starlike": {"rho": None}}, str),
    "nu": None,
    "phi": None,
    "params": {"N": int, "cut": None, "hom_points": None, "hom_coeffs": None,
               "d0": None},
    "verify": {"V": int, "tol": float, "delta": float, "apertures": [float],
               "target": None},
    "outputs": {"field_csv": str, "report": str,
                "grid": {"nx": int, "ny": int, "half_width": float}},
}

# what a leaf of the right type must also satisfy
_RULES = {
    "problem": ("'neumann' or 'directional'",
                lambda p: p in ("neumann", "directional")),
    "params.N": ("a power of two with N >= 16",
                 lambda n: n >= 16 and n & (n - 1) == 0),
    "verify.apertures": ("non-empty", len),
    "outputs.grid.nx": ("at least 2", lambda n: n >= 2),
    "outputs.grid.ny": ("at least 2", lambda n: n >= 2),
    "outputs.grid.half_width": ("in (0, 1e6)", lambda h: 0 < h < 1.0e6),
}


def _has_type(val, kind) -> bool:
    """JSON typing: a bool is no number, an int is a float, [k] a list of k."""
    if isinstance(kind, list):
        return isinstance(val, list) and all(_has_type(v, kind[0]) for v in val)
    return (isinstance(val, (int, float) if kind is float else kind)
            and not isinstance(val, bool))


def _walk(cfg: dict, schema: dict, prefix: str, unknown: list, bad: list,
          entry=None):
    """Collect the unknown paths of cfg, and messages for values of the
    wrong type or out of range.  A wrong type is reported at the
    second-level entry that holds it (verify.V, outputs.grid), with that
    entry's value."""
    for key, val in cfg.items():
        path = prefix + key
        if key not in schema:
            unknown.append(path)
            continue
        spec = schema[key]
        section, kind = (spec if isinstance(spec, tuple) else
                         (spec, type(None)) if isinstance(spec, dict)
                         else (None, spec))
        if section is not None and isinstance(val, dict):
            _walk(val, section, path + ".", unknown, bad,
                  entry or ((path, val) if prefix else None))
        elif kind is not None and not _has_type(val, kind):
            at, shown = entry or (path, val)
            bad.append(f"{at} has the wrong type: {shown!r}")
        elif path in _RULES and not _RULES[path][1](val):
            bad.append(f"{path} must be {_RULES[path][0]}, got {val!r}")


def _check(cfg: dict) -> None:
    """ConfigurationError naming every unknown key and every value of the
    wrong type or out of range."""
    unknown, bad = [], []
    _walk(cfg, _SCHEMA, "", unknown, bad)
    if unknown:
        bad.insert(0, "unknown config keys: " + ", ".join(sorted(unknown)))
    if cfg.get("problem") == "neumann" and cfg.get("nu", "normal") != "normal":
        bad.append(f"problem 'neumann' takes the inner normal, so nu must be "
                   f"left out or 'normal', got {cfg['nu']!r}")
    if bad:
        raise ConfigurationError("; ".join(bad))


def _finite(text: str) -> float:
    """A JSON number as a float.  NaN, Infinity and literals beyond float
    range, such as 1e999, are no JSON numbers (RFC 8259, section 6)."""
    val = float(text)
    if not np.isfinite(val):
        raise ConfigurationError(f"config holds the non-finite number {text}")
    return val


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")
    _check(cfg)
    return cfg


def _validated_n(cfg: dict, override: int | None) -> int:
    """The grid size: --n, which obeys params.N's rule, over params.N."""
    if override is None:
        return (cfg.get("params") or {}).get("N", DEFAULT_N)
    _check({"params": {"N": override}})
    return override


def _build_params(cfg: dict) -> SolverParams:
    """SolverParams from the params section less N, which sizes the grid."""
    return SolverParams(**{k: v for k, v in (cfg.get("params") or {}).items()
                           if k != "N"})


def _build_domain(cfg: dict, N: int):
    dom = cfg.get("domain", "disk")
    if dom == "disk":
        return None
    if isinstance(dom, dict) and set(dom) == {"starlike"}:
        rho = (dom["starlike"] or {}).get("rho")
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
    nu = _build_nu(cfg, N)  # a malformed nu is refused before the map
    cmap = _build_domain(cfg, N)
    phi = _build_phi(cfg, N)
    if cmap is not None:  # nu None is the image inner normal
        hs = transplant_solve(cmap, phi, params, nu=nu)
    elif nu is None:
        hs = solve_neumann(phi, params)
    else:
        hs = solve_directional(nu, phi, params)
    trace(lambda: f"solve: N={N} g_terms={len(hs.f_source.g.coefficients)} "
          f"winding={hs.f_source.index} "
          f"series_terms={len(hs.F.coefficients)} d0={params.d0:g}")
    for note in hs.notes:
        trace("note: " + note)
    return hs, params, cmap


def _grid_spec(cfg: dict):
    g = {**DEFAULT_GRID, **((cfg.get("outputs") or {}).get("grid") or {})}
    return g["nx"], g["ny"], g["half_width"]


def _write_field_csv(path: str, hs: HarmonicSolution, nx, ny, hw, trace):
    """The in-domain rows x,y,u of the nx x ny grid on [-hw, hw]^2, each
    number as %.17g (an exact float round-trip).  Each x-row is one %
    over a template of its in-domain y columns, written on its own: a
    whole-file string would make memory grow with the grid."""
    xs = np.linspace(-hw, hw, nx)
    ys = np.linspace(-hw, hw, ny)
    U, mask = hs.on_grid(xs, ys)
    ycols = [f",{y:.17g},%.17g\n" for y in ys.tolist()]
    with open(path, "w") as fh:
        fh.write("x,y,u\n")
        for x, row, keep in zip(xs.tolist(), U, mask):
            js = np.flatnonzero(keep)
            if js.size:
                x = f"{x:.17g}"
                fh.write((x + x.join([ycols[j] for j in js.tolist()]))
                         % tuple(row[js].tolist()))
    trace(f"field: {int(mask.sum())} in-domain points -> {path}")


def _verify_cfg(cfg: dict, flag_tol: float | None, N: int) -> dict:
    """verify_solution keywords for the verify keys the config sets, with
    --tol over verify.tol and the target built, each setting checked as
    verify_solution checks it, before any solve."""
    v = dict(cfg.get("verify") or {})
    if flag_tol is not None:
        v["tol"] = flag_tol
    _check_settings(**{k: x for k, x in v.items() if k != "target"})
    if v.get("target") is not None:
        v["target"] = build_boundary_function(v["target"], N)
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
    outs = cfg.get("outputs") or {}
    field = outs.get("field_csv")
    report = outs.get("report") if command != "solve" else None
    if command in ("solve", "map", "family") and field is None:
        raise ConfigurationError("outputs.field_csv is required")
    if command in ("verify", "family") and report is None:
        raise ConfigurationError("outputs.report is required")

    # join keeps absolute paths, and "" leaves relative ones as they are
    return tuple(p if p is None else os.path.join(out_dir or "", p)
                 for p in (field, report))


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

    def trace(msg):  # a callable msg is formed only when printed
        if not args.quiet:
            print(msg() if callable(msg) else msg)

    guard = _OutputGuard()
    failed = True
    try:
        cfg = load_config(args.config)
        N = _validated_n(cfg, args.n)
        field_path, report_path = _out_paths(cfg, args.out, args.command)
        # family writes only <base>_memberNN<ext>, each locked where written
        for p in (None if args.command == "family" else field_path, report_path):
            if p is not None:
                guard.acquire(p)
        trace(f"config: {json.dumps(cfg, sort_keys=True)}")

        if args.command == "map":
            _run_map(cfg, N, field_path, report_path, trace)
        elif args.command == "family":
            _run_family(cfg, N, field_path, report_path, trace, guard)
        else:
            vkw = (_verify_cfg(cfg, args.tol, N) if args.command == "verify"
                   else {})
            hs, params, cmap = _solve(cfg, N, trace)
            if field_path is not None:
                _write_field_csv(field_path, hs, *_grid_spec(cfg), trace)
            if args.command == "verify":
                report = verify_solution(hs, **vkw)
                report.settings["config_echo"] = json.dumps(cfg, sort_keys=True)
                with open(report_path, "w") as fh:
                    fh.write(report.serialize())
                trace(f"verify: certified_fraction={report.certified_fraction:.4f} "
                      f"pass_fraction={report.pass_fraction:.4f} "
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
    row = "%.17g,%.17g,%.17g,%.17g,%.17g\n"
    with open(field_path, "w") as fh:
        fh.write("t,sigma,re_w,im_w,residual\n")
        # one % per block of rows: a whole-table string would raise peak memory
        for k in range(0, N, MAP_BLOCK_ROWS):
            block = np.column_stack([c[k:k + MAP_BLOCK_ROWS] for c in cols])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
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
    if cfg.get("domain", "disk") != "disk":  # refused before any map is built
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
