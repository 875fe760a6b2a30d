"""End-to-end CLI: configs, outputs, locks, exit codes."""

import json
import os
import re

import numpy as np
import pytest

import rhbvp as R
import rhbvp.rh_solver as rh_solver
from rhbvp.cli import MAP_BLOCK_ROWS, _grid_spec, _write_field_csv, main
from report_parser import parse_report

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
        hs = R.transplant_solve(R.theodorsen_map(ELLIPSE_RHO, N=256), phi)
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
    rc = main(["verify", "--config", _write_cfg(tmp_path, cfg)])
    assert rc == 0
    rep = parse_report((tmp_path / "report.txt").read_text())
    assert rep["pass_fraction"] > 0.99
    assert "seed" not in rep["settings"]
    assert json.loads(rep["settings"]["config_echo"]) == cfg
    assert rep["residual_max"] < 1e-6
    assert "grid_laplacian_max" not in rep["settings"]
    assert len(rep["rows"]) == 120
    # certified_fraction is the headline, so it comes first
    out = capsys.readouterr().out
    assert re.search(r"^verify: certified_fraction=[0-9.]+ pass_fraction=",
                     out, re.M)


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


def _report_less_echo(rep):
    """The report lines, with the config echo left out of the settings."""
    lines = []
    for line in rep:
        if line.startswith("# settings: "):
            settings = json.loads(line[len("# settings: "):])
            del settings["config_echo"]
            line = settings
        lines.append(line)
    return lines


def test_neumann_is_directional_with_the_normal_plus_a_note(tmp_path):
    # the inner normal is the Neumann problem whatever problem says: the
    # reports agree line for line but for the config echo, note included
    notes = []
    for name, extra in [("disk", {}),
                        ("ellipse", {"domain": {"starlike": {"rho": ELLIPSE_RHO}}})]:
        csv_n, rep_n = _verify_run(tmp_path, f"{name}_n", problem="neumann",
                                   **extra)
        csv_d, rep_d = _verify_run(tmp_path, f"{name}_d",
                                   problem="directional", nu="normal", **extra)
        assert csv_n == csv_d
        assert rep_n != rep_d  # the echo differs
        assert _report_less_echo(rep_n) == _report_less_echo(rep_d)
        note, = [line for line in rep_n if "compatibility" in line]
        notes.append(note)
    assert notes[0].startswith("# note: compatibility integral of the data is 6.28319")
    # a mapped domain gives the same note, with its own flux (the perimeter)
    assert notes[1] != notes[0]
    assert _note_template(notes[1]) == _note_template(notes[0])


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


@pytest.mark.parametrize("argv, needle", [
    (["bogus", "--config", "x"], "invalid choice: 'bogus'"),
    (["solve"], "--config"),
    (["solve", "--config", "x", "--n", "abc"], "invalid int value: 'abc'"),
])
def test_bad_arguments_exit_1_with_usage(argv, needle, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: rhbvp") and needle in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage: rhbvp" in capsys.readouterr().out


def test_rho_sample_is_an_unknown_key(tmp_path, capsys):
    cfg = _base_cfg(tmp_path)
    cfg["params"]["rho_sample"] = 0.4
    assert main(["solve", "--config", _write_cfg(tmp_path, cfg)]) == 1
    assert "unknown config keys: params.rho_sample" in capsys.readouterr().err


def test_refine_is_an_unknown_key(tmp_path, capsys):
    cfg = _base_cfg(tmp_path)
    cfg["params"]["refine"] = 8
    assert main(["solve", "--config", _write_cfg(tmp_path, cfg)]) == 1
    assert "unknown config keys: params.refine" in capsys.readouterr().err


def test_neumann_runs_reuse_the_disk_reduction(tmp_path, monkeypatch):
    path = _write_cfg(tmp_path, _base_cfg(tmp_path))
    assert main(["solve", "--config", path, "--quiet"]) == 0
    calls = []
    real_arg = rh_solver.measurable_arg
    monkeypatch.setattr(rh_solver, "measurable_arg",
                        lambda nu: calls.append(nu) or real_arg(nu))
    os.remove(tmp_path / "field.csv")
    assert main(["solve", "--config", path, "--quiet"]) == 0
    assert calls == []


@pytest.mark.parametrize("command, section, values, needle", [
    ("solve", "params", {"cut": "x"}, "params.cut"),
    ("verify", "verify", {"V": "abc"}, "verify.V"),
    ("family", "params", {"hom_points": 3}, "params.hom_points"),
    ("verify", "verify", {"apertures": [0.0, "wide"]}, "verify.apertures"),
])
def test_wrong_type_exits_1_and_leaves_nothing(tmp_path, capsys, command,
                                               section, values, needle):
    good = _base_cfg(tmp_path)
    if command == "family":
        good["params"]["hom_points"] = [1.0, 2.0]
    bad = json.loads(json.dumps(good))
    bad.setdefault(section, {}).update(values)
    assert main([command, "--config", _write_cfg(tmp_path, bad), "--quiet"]) == 1
    assert needle in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    assert main([command, "--config", _write_cfg(tmp_path, good), "--quiet"]) == 0


@pytest.mark.parametrize("command, path, value, needle", [
    ("solve", "params", 3, "params has the wrong type"),
    ("solve", "params", [1], "params has the wrong type"),
    ("family", "params", [1], "params has the wrong type"),
    ("verify", "verify", [1], "verify has the wrong type"),
    ("solve", "outputs", 3, "outputs has the wrong type"),
    ("solve", "outputs.field_csv", 3, "outputs.field_csv has the wrong type"),
    ("solve", "outputs.grid", 3, "outputs.grid has the wrong type"),
    ("solve", "outputs.grid", [1], "outputs.grid has the wrong type"),
    ("solve", "outputs.grid", {"nx": "a"}, "outputs.grid has the wrong type"),
    ("family", "outputs.grid", {"nx": "a"}, "outputs.grid has the wrong type"),
    ("solve", "domain", {"starlike": 3}, "domain.starlike has the wrong type"),
    ("map", "domain", {"starlike": 3}, "domain.starlike has the wrong type"),
], ids=["params_int", "params_list", "family_params_list", "verify_list",
        "outputs_int", "field_csv_int", "grid_int", "grid_list", "grid_nx_str",
        "family_grid_nx_str", "starlike_int", "map_starlike_int"])
def test_wrong_section_type_exits_1_and_leaves_nothing(tmp_path, capsys, command,
                                                       path, value, needle):
    cfg = _base_cfg(tmp_path)
    if command == "family":
        cfg["params"]["hom_points"] = [1.0, 2.0]
    *parents, key = path.split(".")
    node = cfg
    for p in parents:
        node = node[p]
    node[key] = value
    assert main([command, "--config", _write_cfg(tmp_path, cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("path, value, needle", [
    ("verify.apertures", [], "verify.apertures must be non-empty"),
    ("phi", [[0, 1]], "boundary piece [0, 1] "),
    ("phi", {"from": 0, "to": 6.28, "expr": "1"}, "got {'from': 0, 'to': 6.28"),
    ("phi", [{"to": 6.28}], "boundary piece {'to': 6.28}"),
    ("phi", [], "list of pieces, got []"),
    ("phi", None, "list of pieces, got None"),
    ("verify.target", [[0, 1]], "boundary piece [0, 1] "),
    ("phi", True, "cannot interpret True"),
    ("verify.V", True, "verify.V has the wrong type: True"),
    ("verify.V", "500", "verify.V has the wrong type: '500'"),
    ("outputs.grid", {"nx": True}, "outputs.grid has the wrong type"),
    ("outputs.grid", {"ny": 41.0}, "outputs.grid has the wrong type"),
    ("outputs.grid.nx", 1, "outputs.grid.nx must be at least 2, got 1"),
    ("outputs.grid.half_width", 0, "half_width must be in (0, 1e6), got 0"),
    ("params.N", 100, "params.N must be a power of two"),
    ("params.d0", "0.5", "params.d0 has the wrong type: '0.5'"),
    ("params.cut", True, "params.cut has the wrong type: True"),
    ("nu", {"angle": "0.3"}, "problem 'neumann' takes the inner normal, so "
     "nu must be left out or 'normal', got {'angle': '0.3'}"),
], ids=["apertures_empty", "phi_short_triple", "phi_bare_object",
        "phi_piece_without_expr", "phi_empty", "phi_null", "target_short_triple",
        "phi_bool", "V_bool", "V_numeric_string", "grid_nx_bool",
        "grid_ny_float", "grid_nx_1", "grid_half_width_0", "N_100",
        "d0_numeric_string", "cut_bool", "neumann_with_other_nu"])
def test_malformed_config_exits_1_without_traceback(tmp_path, capsys,
                                                    monkeypatch, path, value,
                                                    needle):
    # every case is refused before the solve, which would raise here
    monkeypatch.setattr("rhbvp.cli.solve_neumann", None)
    cfg = _base_cfg(tmp_path)
    *parents, key = path.split(".")
    node = cfg
    for p in parents:
        node = node.setdefault(p, {})
    node[key] = value
    assert main(["verify", "--config", _write_cfg(tmp_path, cfg),
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command, extra, needle", [
    ("verify", {"problem": "bogus"}, "problem must be 'neumann' or"),
    ("verify", {"nu": {"angle": "0.3"}}, "problem 'neumann' takes the inner"),
    ("family", {"params": {"N": 256, "hom_points": [1.0, 2.0]}},
     "family command is disk-native"),
], ids=["bogus_problem", "neumann_with_other_nu", "family"])
def test_star_domain_configs_are_refused_before_the_map(tmp_path, capsys,
                                                        monkeypatch, command,
                                                        extra, needle):
    built = []
    monkeypatch.setattr("rhbvp.cli.theodorsen_map",
                        lambda *a, **k: built.append(a))
    cfg = _base_cfg(tmp_path, domain={"starlike": {"rho": ELLIPSE_RHO}},
                    **extra)
    assert main([command, "--config", _write_cfg(tmp_path, cfg),
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err
    assert built == []
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_a_direction_without_problem_is_the_directional_problem(tmp_path):
    # problem is only checked: left out or "directional", nu decides
    nu = "t + pi + 0.2*sin(t)"
    rows = []
    for name, extra in [("bare", {}), ("named", {"problem": "directional"})]:
        cfg = _base_cfg(tmp_path, nu={"angle": nu})
        del cfg["problem"]
        cfg.update(extra)
        cfg["outputs"] = {"field_csv": str(tmp_path / f"{name}.csv")}
        assert main(["solve", "--config", _write_cfg(tmp_path, cfg),
                     "--quiet"]) == 0
        rows.append((tmp_path / f"{name}.csv").read_bytes())
    assert rows[0] == rows[1]
    phi = R.build_boundary_function("cos(theta)", 256)
    hs = R.solve_directional(R.DirectionField.from_angle(nu, 256), phi)
    _write_field_csv(str(tmp_path / "lib.csv"), hs, *_grid_spec({}),
                     lambda msg: None)
    assert rows[0] == (tmp_path / "lib.csv").read_bytes()


@pytest.mark.parametrize("V", [2 ** 20 + 1, 10 ** 30], ids=["one_over", "huge"])
def test_verify_V_above_its_bound_exits_1(tmp_path, capsys, V):
    # 10**30 ended in numpy's untyped "Maximum allowed size exceeded"
    cfg = _base_cfg(tmp_path, verify={"V": V})
    assert main(["verify", "--config", _write_cfg(tmp_path, cfg),
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: V must be at most 1048576, got ")
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("argv, verify, needle", [
    ([], {"V": 10 ** 30}, "V must be at most 1048576, got "),
    (["--tol", "nan"], {}, "tol must be finite, got nan"),
], ids=["V_huge", "tol_nan"])
def test_verify_settings_are_checked_before_the_solve(tmp_path, capsys,
                                                      monkeypatch, argv,
                                                      verify, needle):
    # a bad verify setting is refused before any solve or field CSV
    solves = []
    monkeypatch.setattr("rhbvp.cli._solve", lambda *a: solves.append(a))
    cfg = _base_cfg(tmp_path, verify=verify)
    assert main(["verify", "--config", _write_cfg(tmp_path, cfg), *argv]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and needle in err
    assert "field:" not in out and "Traceback" not in err and not solves
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("bound, needle", [
    (True, "a bound of boundary piece [0, True, 't'] has the wrong type: True"),
    ("3.14", "a bound of boundary piece [0, '3.14', 't'] has the wrong type"),
], ids=["bool", "numeric_string"])
def test_piece_bound_of_the_wrong_type_exits_1(tmp_path, capsys, bound,
                                               needle):
    # both were read as numbers: True as 1.0, "3.14" as 3.14
    cfg = _base_cfg(tmp_path, phi=[[0, bound, "t"],
                                   [bound, 2 * np.pi, "0"]])
    assert main(["verify", "--config", _write_cfg(tmp_path, cfg),
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("fields, literal", [
    ('"phi": "cos(theta)", "params": {"d0": NaN}', "NaN"),
    ('"phi": "cos(theta)", "verify": {"tol": NaN}', "NaN"),
    ('"phi": "cos(theta)", "verify": {"apertures": [NaN]}', "NaN"),
    ('"phi": [[0, 3, 1], [3, NaN, 0]]', "NaN"),
    ('"phi": "cos(theta)", "params": {"cut": Infinity}', "Infinity"),
    ('"phi": "cos(theta)", "params": {"hom_points": [1e999]}', "1e999"),
], ids=["d0_nan", "tol_nan", "apertures_nan", "phi_piece_nan", "cut_infinity",
        "hom_points_1e999"])
def test_non_finite_config_numbers_exit_1(tmp_path, capsys, monkeypatch,
                                          fields, literal):
    # NaN, Infinity and 1e999 are no JSON numbers, though Python's json
    # reads them; each is refused before the solve, which would raise here
    monkeypatch.setattr("rhbvp.cli.solve_neumann", None)
    outputs = json.dumps(_base_cfg(tmp_path)["outputs"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{{fields}, "outputs": {outputs}}}')
    assert main(["verify", "--config", str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"non-finite number {literal}" in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_solve_takes_a_long_fourier_phi(tmp_path, capsys):
    # 1,199 terms: a sum longer than Python's recursion limit
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, 600) / np.arange(1, 601) ** 2
    terms = [repr(float(a[0]))] + [f"{float(a[k])!r}*{fn}({k}*t)"
                                   for fn in ("cos", "sin")
                                   for k in range(1, 600)]
    assert len(terms) == 1199
    cfg = _base_cfg(tmp_path, phi=" + ".join(terms))
    assert main(["solve", "--config", _write_cfg(tmp_path, cfg)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert (tmp_path / "field.csv").exists()


def test_too_deep_phi_exits_1_without_traceback(tmp_path, capsys):
    cfg = _base_cfg(tmp_path, phi="(" * 500 + "cos(t)" + ")" * 500)
    assert main(["solve", "--config", _write_cfg(tmp_path, cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nests deeper" in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_unexpected_exception_releases_locks_and_outputs(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")
    monkeypatch.setattr("rhbvp.cli.verify_solution", boom)
    cfg = _base_cfg(tmp_path)
    with pytest.raises(RuntimeError, match="boom"):
        main(["verify", "--config", _write_cfg(tmp_path, cfg), "--quiet"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


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
    # N = 64 fills part of one block of rows, N = 4096 writes several
    assert 64 < MAP_BLOCK_ROWS < 4096
    for N in (64, 256, 4096):
        cfg = {"domain": {"starlike": {"rho": "1 + 0.2*cos(3*a)"}},
               "params": {"N": N},
               "outputs": {"field_csv": str(tmp_path / f"map{N}.csv")}}
        assert main(["map", "--config", _write_cfg(tmp_path, cfg),
                     "--quiet"]) == 0
        cmap = R.theodorsen_map("1 + 0.2*cos(3*a)", N=N)
        t = 2 * np.pi * np.arange(cmap.N) / cmap.N
        sig = cmap.correspondence
        wb = cmap.boundary_nodes()
        res = np.abs(np.abs(wb) - np.asarray(cmap.rho(np.angle(wb)), float))
        ref = ["t,sigma,re_w,im_w,residual\n"] + [
            f"{t[k]:.17g},{sig[k]:.17g},{wb[k].real:.17g},"
            f"{wb[k].imag:.17g},{res[k]:.17g}\n" for k in range(cmap.N)]
        with open(tmp_path / f"map{N}.csv", newline="") as fh:
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


def test_failed_family_keeps_a_file_at_its_base_path(tmp_path, capsys):
    # family writes only <base>_memberNN<ext>, so a failure must not
    # remove a file that sits at the base path itself
    (tmp_path / "family.csv").write_text("keep\n")
    cfg = {"phi": "0", "params": {"N": 64},
           "outputs": {"field_csv": "family.csv", "report": "fam.json"}}
    rc = main(["family", "--config", _write_cfg(tmp_path, cfg),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "requires params.hom_points" in capsys.readouterr().err
    assert (tmp_path / "family.csv").read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json",
                                                          "family.csv"]


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


def test_quiet_solve_forms_no_whole_jump_series(tmp_path, capsys,
                                                sawtooth_lengths):
    # F reads the jump series' first terms; only the printed g_terms
    # line forms it whole
    path = os.path.join(CONFIGS, "step_neumann.json")
    (tmp_path / "quiet").mkdir()
    assert main(["solve", "--config", path, "--out", str(tmp_path / "quiet"),
                 "--quiet"]) == 0
    assert sawtooth_lengths and all(n < L for n, L in sawtooth_lengths)
    assert capsys.readouterr().out == ""
    sawtooth_lengths.clear()
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
    assert "g_terms=4095 " in capsys.readouterr().out
    assert sum(n == L for n, L in sawtooth_lengths) == 1


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
    params = R.SolverParams(hom_points=tuple(
        cfg["params"].get("hom_points", ())))
    assert not R.solve_rh(nu, phi, params).notes
