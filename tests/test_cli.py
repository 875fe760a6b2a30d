"""End-to-end CLI: configs, outputs, locks, exit codes."""

import json
import os
import re

import numpy as np
import pytest

import rhbvp as R
from rhbvp.cli import _write_field_csv, main
from rhbvp.verify import parse_report

ELLIPSE_RHO = "0.8/sqrt(1 - (1 - 0.8^2)*cos(a)^2)"


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _base_cfg(tmp_path, **extra):
    cfg = {"problem": "neumann", "phi": "cos(theta)",
           "params": {"N": 256},
           "outputs": {"field_csv": str(tmp_path / "field.csv"),
                       "report": str(tmp_path / "report.txt")}}
    cfg.update(extra)
    return cfg


def _read_field(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    return rows  # columns x, y, u


def _five_point_max(U, dx):
    """Largest five-point Laplacian over the finite grid cells."""
    lap = (U[2:, 1:-1] + U[:-2, 1:-1] + U[1:-1, 2:] + U[1:-1, :-2]
           - 4.0 * U[1:-1, 1:-1]) / (dx * dx)
    return float(np.max(np.abs(lap[np.isfinite(lap)])))


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

def test_solve_writes_field_csv(tmp_path, capsys):
    cfg = _base_cfg(tmp_path)
    rc = main(["solve", "--config", _write_cfg(tmp_path, cfg)])
    assert rc == 0
    rows = _read_field(tmp_path / "field.csv")
    assert open(tmp_path / "field.csv").readline().strip() == "x,y,u"
    # u = -x: the row nearest (0.5, 0)
    k = np.argmin((rows[:, 0] - 0.5) ** 2 + rows[:, 1] ** 2)
    assert abs(rows[k, 0] - 0.5) < 0.02
    assert abs(rows[k, 2] + rows[k, 0]) < 1e-9
    assert not os.path.exists(str(tmp_path / "field.csv") + ".lock")
    out = capsys.readouterr().out
    assert "in-domain points" in out and "grid laplacian stats" not in out


def test_solve_ignores_report_output(tmp_path):
    # only verify runs the verifier; solve neither locks nor writes the report
    cfg = _base_cfg(tmp_path)
    rc = main(["solve", "--config", _write_cfg(tmp_path, cfg), "--quiet"])
    assert rc == 0
    assert os.path.exists(tmp_path / "field.csv")
    assert not os.path.exists(tmp_path / "report.txt")
    assert not os.path.exists(str(tmp_path / "report.txt") + ".lock")


def test_solve_d0_shifts_field(tmp_path):
    cfg = _base_cfg(tmp_path)
    cfg["params"]["d0"] = 0.25
    rc = main(["solve", "--config", _write_cfg(tmp_path, cfg), "--quiet"])
    assert rc == 0
    rows = _read_field(tmp_path / "field.csv")
    k = np.argmin((rows[:, 0] - 0.5) ** 2 + rows[:, 1] ** 2)
    assert abs(rows[k, 2] - (0.25 - rows[k, 0])) < 1e-9


def test_field_csv_roundtrip_is_harmonic(tmp_path):
    cfg = _base_cfg(tmp_path)
    cfg["outputs"]["grid"] = {"nx": 41, "ny": 41, "half_width": 0.9}
    assert main(["solve", "--config", _write_cfg(tmp_path, cfg),
                 "--quiet"]) == 0
    rows = _read_field(tmp_path / "field.csv")
    xs = np.linspace(-0.9, 0.9, 41)
    U = np.full((41, 41), np.nan)
    ix = np.rint((rows[:, 0] + 0.9) / (xs[1] - xs[0])).astype(int)
    iy = np.rint((rows[:, 1] + 0.9) / (xs[1] - xs[0])).astype(int)
    U[ix, iy] = rows[:, 2]
    assert _five_point_max(U, xs[1] - xs[0]) < 1e-9


def _reference_field_csv(path, hs, nx, ny, hw):
    """The field CSV written one row per write, element by element."""
    xs = np.linspace(-hw, hw, nx)
    ys = np.linspace(-hw, hw, ny)
    U, mask = hs.on_grid(xs, ys)
    with open(path, "w") as fh:
        fh.write("x,y,u\n")
        for i in range(nx):
            for j in range(ny):
                if mask[i, j]:
                    fh.write(f"{xs[i]:.17g},{ys[j]:.17g},{U[i, j]:.17g}\n")


@pytest.mark.parametrize("domain", ["disk", "ellipse"])
def test_field_csv_matches_per_row_writer(tmp_path, domain):
    # nx != ny, and the grid reaches past the domain so points are masked
    phi = R.build_boundary_function("cos(theta) + 0.3*sin(2*theta)", 256)
    if domain == "disk":
        hs = R.solve_neumann(phi)
    else:
        hs = R.transplant_neumann(R.theodorsen_map(ELLIPSE_RHO, N=256), phi)
    nx, ny, hw = 23, 17, 1.05
    lines = []
    _write_field_csv(str(tmp_path / "cols.csv"), hs, nx, ny, hw, lines.append)
    _reference_field_csv(str(tmp_path / "rows.csv"), hs, nx, ny, hw)
    got = (tmp_path / "cols.csv").read_bytes()
    assert got == (tmp_path / "rows.csv").read_bytes()
    n_rows = got.count(b"\n") - 1
    assert 0 < n_rows < nx * ny
    assert lines == [f"field: {n_rows} in-domain points -> {tmp_path / 'cols.csv'}"]


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_report_end_to_end(tmp_path, capsys):
    cfg = _base_cfg(tmp_path)
    cfg["verify"] = {"V": 120}
    rc = main(["verify", "--config", _write_cfg(tmp_path, cfg),
               "--seed", "7"])
    assert rc == 0
    rep = parse_report((tmp_path / "report.txt").read_text())
    assert rep["pass_fraction"] > 0.99
    assert rep["settings"]["seed"] == 7
    assert json.loads(rep["settings"]["config_echo"]) == cfg
    assert rep["residual_max"] < 1e-6
    assert "grid_laplacian_max" not in rep["settings"]
    assert len(rep["rows"]) == 120
    assert "pass_fraction=" in capsys.readouterr().out


def _verify_run(tmp_path, name, **extra):
    """Run verify on phi = 1 (flux 2 pi); return (csv bytes, report lines)."""
    cfg = _base_cfg(tmp_path, phi="1", **extra)
    cfg["verify"] = {"V": 64, "tol": 1e-2}
    cfg["outputs"] = {"field_csv": str(tmp_path / f"{name}.csv"),
                      "report": str(tmp_path / f"{name}.txt"),
                      "grid": {"nx": 21, "ny": 21, "half_width": 0.9}}
    rc = main(["verify", "--config", _write_cfg(tmp_path, cfg, f"{name}.json"),
               "--quiet"])
    assert rc == 0
    return ((tmp_path / f"{name}.csv").read_bytes(),
            (tmp_path / f"{name}.txt").read_text().splitlines())


def _note_template(note):
    return re.sub(r"data is \S+, not 0", "data is X, not 0", note)


def test_neumann_is_directional_with_the_normal_plus_a_note(tmp_path):
    csv_n, rep_n = _verify_run(tmp_path, "neumann", problem="neumann")
    csv_d, rep_d = _verify_run(tmp_path, "directional", problem="directional",
                               nu="normal")
    assert csv_n == csv_d
    (set_n,), (set_d,) = ([line for line in rep if line.startswith("# settings: ")]
                          for rep in (rep_n, rep_d))
    s_n, s_d = (json.loads(line[len("# settings: "):]) for line in (set_n, set_d))
    # the settings differ only in the config echo
    assert s_n.pop("config_echo") != s_d.pop("config_echo") and s_n == s_d
    note, = [line for line in rep_n if "compatibility" in line]
    assert note.startswith("# note: compatibility integral of the data is 6.28319")
    assert ([line for line in rep_n if line not in (set_n, note)]
            == [line for line in rep_d if line != set_d])

    # a mapped domain gives the same note, with its own flux (the perimeter)
    _, rep_m = _verify_run(tmp_path, "ellipse", problem="neumann",
                           domain={"starlike": {"rho": ELLIPSE_RHO}})
    note_m, = [line for line in rep_m if "compatibility" in line]
    assert note_m != note and _note_template(note_m) == _note_template(note)


def test_verify_tol_flag_overrides_config(tmp_path):
    cfg = _base_cfg(tmp_path)
    cfg["verify"] = {"V": 64, "tol": 1e-3}
    rc = main(["verify", "--config", _write_cfg(tmp_path, cfg),
               "--tol", "1e-5", "--quiet"])
    assert rc == 0
    rep = parse_report((tmp_path / "report.txt").read_text())
    assert rep["settings"]["tol"] == 1e-5


def test_verify_against_wrong_target(tmp_path):
    cfg = _base_cfg(tmp_path)
    cfg["verify"] = {"V": 64, "target": "cos(3*theta)"}
    rc = main(["verify", "--config", _write_cfg(tmp_path, cfg), "--quiet"])
    assert rc == 0
    rep = parse_report((tmp_path / "report.txt").read_text())
    assert rep["pass_fraction"] < 0.05


# ----------------------------------------------------------------------
# usage errors (exit 1)
# ----------------------------------------------------------------------

def test_bad_n_override_names_key(tmp_path, capsys):
    cfg = _base_cfg(tmp_path)
    rc = main(["solve", "--config", _write_cfg(tmp_path, cfg), "--n", "100"])
    assert rc == 1
    assert "params.N must be a power of two" in capsys.readouterr().err


def test_unknown_keys_are_listed(tmp_path, capsys):
    cfg = _base_cfg(tmp_path)
    cfg["phy"] = 1
    cfg["params"]["Nx"] = 2
    rc = main(["solve", "--config", _write_cfg(tmp_path, cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown config keys" in err
    assert "params.Nx" in err and "phy" in err


def test_missing_config_file(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    rc = main(["solve", "--config", str(p)])
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_phi(tmp_path, capsys):
    cfg = _base_cfg(tmp_path)
    del cfg["phi"]
    rc = main(["solve", "--config", _write_cfg(tmp_path, cfg)])
    assert rc == 1
    assert "'phi'" in capsys.readouterr().err


def test_lock_conflict(tmp_path, capsys):
    cfg = _base_cfg(tmp_path)
    (tmp_path / "field.csv.lock").write_text("123")
    rc = main(["solve", "--config", _write_cfg(tmp_path, cfg)])
    assert rc == 1
    assert "locked" in capsys.readouterr().err


def test_failed_run_removes_partial_outputs(tmp_path):
    # the exclusion budget check fires only after the field CSV is
    # written; the guard must remove the partial CSV and all locks
    cfg = _base_cfg(tmp_path)
    cfg["phi"] = [{"from": 0.0, "to": np.pi, "expr": 1.0},
                  {"from": np.pi, "to": 2 * np.pi, "expr": 0.0}]
    cfg["verify"] = {"V": 64, "delta": 0.5}
    rc = main(["verify", "--config", _write_cfg(tmp_path, cfg), "--quiet"])
    assert rc == 1
    assert not os.path.exists(tmp_path / "field.csv")
    assert not os.path.exists(tmp_path / "report.txt")
    assert not any(str(p).endswith(".lock") for p in tmp_path.iterdir())


# ----------------------------------------------------------------------
# numerical errors (exit 2)
# ----------------------------------------------------------------------

def test_map_outside_contraction_exits_2(tmp_path, capsys):
    cfg = {"domain": {"starlike": {"rho": "exp(1.2*sin(a))"}},
           "outputs": {"field_csv": str(tmp_path / "map.csv")}}
    rc = main(["map", "--config", _write_cfg(tmp_path, cfg)])
    assert rc == 2
    assert ">= 1" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "map.csv")


# ----------------------------------------------------------------------
# map / family commands
# ----------------------------------------------------------------------

def test_map_command(tmp_path, capsys):
    cfg = {"domain": {"starlike": {"rho": ELLIPSE_RHO}},
           "params": {"N": 256},
           "outputs": {"field_csv": str(tmp_path / "map.csv"),
                       "report": str(tmp_path / "map.json")}}
    rc = main(["map", "--config", _write_cfg(tmp_path, cfg)])
    assert rc == 0
    first = open(tmp_path / "map.csv").readline().strip()
    assert first == "t,sigma,re_w,im_w,residual"
    rows = np.loadtxt(tmp_path / "map.csv", delimiter=",", skiprows=1)
    assert rows.shape == (256, 5)
    assert np.max(rows[:, 4]) < 1e-12
    meta = json.loads((tmp_path / "map.json").read_text())
    assert meta["N"] == 256 and meta["residual"] < 1e-12
    assert 0.2 < meta["slope"] < 0.25
    cmap = R.theodorsen_map(ELLIPSE_RHO, N=256)
    assert meta["degree"] == len(cmap.omega.coefficients) < 129
    out = capsys.readouterr().out
    assert "iterations=" in out and f"degree={meta['degree']}" in out


def test_map_csv_matches_per_row_writer(tmp_path):
    cfg = {"domain": {"starlike": {"rho": "1 + 0.2*cos(3*a)"}},
           "params": {"N": 256},
           "outputs": {"field_csv": str(tmp_path / "map.csv")}}
    assert main(["map", "--config", _write_cfg(tmp_path, cfg), "--quiet"]) == 0
    cmap = R.theodorsen_map("1 + 0.2*cos(3*a)", N=256)
    t = 2 * np.pi * np.arange(cmap.N) / cmap.N
    sig = cmap.correspondence
    wb = cmap.boundary_nodes()
    res = np.abs(np.abs(wb) - np.asarray(cmap.rho(np.angle(wb)), float))
    ref = ["t,sigma,re_w,im_w,residual\n"] + [
        f"{t[k]:.17g},{sig[k]:.17g},{wb[k].real:.17g},"
        f"{wb[k].imag:.17g},{res[k]:.17g}\n" for k in range(cmap.N)]
    with open(tmp_path / "map.csv", newline="") as fh:
        assert fh.readlines() == ref


def test_family_command(tmp_path, capsys):
    cfg = {"phi": "0", "params": {"N": 256,
                                  "hom_points": [1.0, 2.5, 4.0]},
           "outputs": {"field_csv": str(tmp_path / "fam.csv"),
                       "report": str(tmp_path / "fam.json"),
                       "grid": {"nx": 21, "ny": 21, "half_width": 0.8}}}
    rc = main(["family", "--config", _write_cfg(tmp_path, cfg)])
    assert rc == 0
    meta = json.loads((tmp_path / "fam.json").read_text())
    assert meta["members"] == 4
    assert meta["sigma_min"] > 1e-3
    assert len(meta["singular_values"]) == 5  # members + constant row
    assert meta["rank"] == 5
    for j in range(4):
        p = tmp_path / f"fam_member{j:02d}.csv"
        assert p.exists()
        assert not os.path.exists(str(p) + ".lock")
    out = capsys.readouterr().out
    assert "sigma_min=" in out and "rank=5" in out


def test_family_requires_points(tmp_path, capsys):
    cfg = {"phi": "0", "params": {"N": 64},
           "outputs": {"field_csv": str(tmp_path / "f.csv"),
                       "report": str(tmp_path / "f.json")}}
    rc = main(["family", "--config", _write_cfg(tmp_path, cfg)])
    assert rc == 1
    assert "hom_points" in capsys.readouterr().err


# ----------------------------------------------------------------------
# out-dir rebasing
# ----------------------------------------------------------------------

def test_out_dir_rebases_relative_paths(tmp_path):
    sub = tmp_path / "results"
    sub.mkdir()
    cfg = {"problem": "neumann", "phi": "cos(theta)", "params": {"N": 64},
           "outputs": {"field_csv": "field.csv"}}
    rc = main(["solve", "--config", _write_cfg(tmp_path, cfg),
               "--out", str(sub), "--quiet"])
    assert rc == 0
    assert (sub / "field.csv").exists()


def test_starlike_transplant_solve(tmp_path):
    # scaled disk radius 2, normal data cos(t): u = -Re(w)
    cfg = {"problem": "neumann", "phi": "cos(theta)",
           "domain": {"starlike": {"rho": "2"}},
           "params": {"N": 256},
           "outputs": {"field_csv": str(tmp_path / "w.csv"),
                       "grid": {"nx": 41, "ny": 41, "half_width": 1.9}}}
    rc = main(["solve", "--config", _write_cfg(tmp_path, cfg), "--quiet"])
    assert rc == 0
    rows = _read_field(tmp_path / "w.csv")
    np.testing.assert_allclose(rows[:, 2], -rows[:, 0], atol=1e-9)


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.mark.parametrize("name", ["smooth_neumann", "step_neumann",
                                  "homogeneous_family"])
def test_shipped_configs_clamp_no_conjugate(tmp_path, capsys, name):
    # the argument of nu0 is bounded, so its conjugate needs no clamp
    path = os.path.join(CONFIGS, f"{name}.json")
    command = "family" if name == "homogeneous_family" else "solve"
    assert main([command, "--config", path, "--out", str(tmp_path),
                 "--n", "256"]) == 0
    assert "clamped" not in capsys.readouterr().out
    with open(path) as fh:
        cfg = json.load(fh)
    nu = R.disk_inner_normal(256).field
    phi = R.build_boundary_function(cfg["phi"], 256)
    params = R.SolverParams(N=256, hom_points=tuple(
        cfg["params"].get("hom_points", ())))
    assert not R.solve_rh(nu, phi, params).notes
