#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

Each check must accept the package's own output and reject a
deliberately wrong one (u + 1e-5 |z|^2, a sign-flipped f, a perturbed or
missing CSV row, a dropped note, ...).  Then every workload runs briefly
at a small size through run.py, which must report correct = true and
fail exactly its known-fault operations.

    python3 perfbench/selftest.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from run import CONFIGS, HERE, OUT, ROOT, WORKLOAD_NAMES, import_rhbvp  # noqa: E402
from workloads import KNOWN_FAULTS, WORKLOADS  # noqa: E402

R = import_rhbvp()


class Altered:
    """A solution with u, f, notes or f_source replaced on purpose."""

    def __init__(self, base, u=None, f=None, notes=None, f_source=None):
        self.u = u or base.u
        self.f = f or base.f
        self.notes = base.notes if notes is None else notes
        self.f_source = f_source or base.f_source


class NoTrace:
    def count(self, name, value):
        pass


def failed_checks(check, *args) -> set:
    names = set()
    check(*args, lambda name, ok, detail="": ok or names.add(name))
    return names


def expect_rejects(label, check, good, bad, names):
    """check passes on good, and fails on bad in every one of names."""
    assert failed_checks(check, *good) == set(), (label, failed_checks(check, *good))
    got = failed_checks(check, *bad)
    assert set(names) <= got, f"{label}: expected {names} to fail, got {got}"
    print(f"ok  {label}: rejected by {sorted(got)}")


def test_disk_checks(workdir):
    wl = WORKLOADS["disk_certify"](R, np.random.default_rng(7), True, workdir, CONFIGS)
    hs, report = wl._certify(R.solve_neumann(wl.step_bf))
    nu = lambda t: -np.exp(1j * t)  # noqa: E731

    def check(out, expect):
        wl._check(out, expect, wl.step, nu, neumann=True)

    expect_rejects("harmonicity, u + 1e-5|z|^2", check, [(hs, report)],
                   [(Altered(hs, u=lambda z: hs.u(z) + 1e-5 * np.abs(z)**2), report)],
                   ["harmonic"])
    expect_rejects("boundary attainment and gradient, sign-flipped f", check,
                   [(hs, report)], [(Altered(hs, f=lambda z: -hs.f(z)), report)],
                   ["boundary_limit", "gradient"])
    expect_rejects("nonclassical note missing", check, [(hs, report)],
                   [(Altered(hs, notes=[]), report)], ["nonclassical_note"])


def test_family_checks(workdir):
    wl = WORKLOADS["family_solve"](R, np.random.default_rng(7), True, workdir, CONFIGS)
    fam = wl._family()
    other = R.solve_rh(wl.nu, R.build_boundary_function("cos(t)", wl.N))
    wrong = fam[:1] + [Altered(fam[1], f_source=other)] + fam[2:]
    expect_rejects("homogeneous members, a member with data cos t",
                   wl._check_family, [fam], [wrong], ["homogeneous_limit"])
    cert = R.dimension_certificate([h.u for h in fam] + [lambda z: np.ones(np.shape(z))])
    dup = fam + fam[:1]
    expect_rejects("family rank, a repeated member",
                   lambda c, f, expect: wl._check_certificate(c, expect, f),
                   [cert, fam], [cert, dup], ["own_sigma_min"])

    solved = {}
    for m, ((kind, d), phi) in enumerate(zip(wl.data, wl.phis)):
        solved[m] = R.solve_neumann(phi)
        if kind == "piecewise":
            wl._check_data(solved[m], lambda *a: None, kind, d)
    m_cos = 0
    expect_rejects("closed form for cos t, f sign-flipped and u moved",
                   lambda hs, expect: wl._check_data(hs, expect, *wl.data[m_cos]),
                   [solved[m_cos]],
                   [Altered(solved[m_cos], u=lambda z: solved[m_cos].u(z) + 1e-6,
                            f=lambda z: -solved[m_cos].f(z))],
                   ["closed_form_u", "closed_form_f"])
    m_sum = len(wl.data) - 1
    hs = solved[m_sum]
    expect_rejects("linearity, u_sum shifted by 1e-6",
                   lambda h, expect: wl._check_data(h, expect, *wl.data[m_sum]),
                   [hs], [Altered(hs, u=lambda z: hs.u(z) + 1e-6)], ["linearity"])


def _perturb_csv(path, row, column, delta=None):
    lines = path.read_text().splitlines(keepends=True)
    if delta is None:
        del lines[1 + row]
    else:
        parts = lines[1 + row].rstrip("\n").split(",")
        parts[column] = repr(float(parts[column]) + delta)
        lines[1 + row] = ",".join(parts) + "\n"
    path.write_text("".join(lines))


def test_cli_checks(workdir):
    wl = WORKLOADS["cli_star"](R, np.random.default_rng(7), True, workdir, CONFIGS)
    rec = NoTrace()

    def case(label, command, config, check, alter, names):
        for p in wl.out.iterdir():
            p.unlink()
        rc = wl._main(command, config)
        good = failed_checks(lambda r, e: wl._check_files(r, e, check, rec), rc)
        assert good <= {c for op, c in KNOWN_FAULTS}, (label, good)
        alter()
        bad = failed_checks(lambda r, e: wl._check_files(r, e, check, rec), rc)
        assert set(names) <= bad - good, f"{label}: expected {names}, got {bad}"
        print(f"ok  {label}: rejected by {sorted(bad - good)}")

    smooth = CONFIGS / "smooth_neumann.json"
    case("smooth field CSV, one u perturbed by 1e-6", "solve", smooth,
         wl._check_smooth,
         lambda: _perturb_csv(wl.out / "smooth_field.csv", 500, 2, 1e-6),
         ["closed_form_u"])
    case("smooth field CSV, one row missing", "solve", smooth, wl._check_smooth,
         lambda: _perturb_csv(wl.out / "smooth_field.csv", 500, 2),
         ["csv_rows"])
    case("step field CSV, an interior u perturbed by 1e-5", "verify",
         CONFIGS / "step_neumann.json", wl._check_step,
         lambda: _perturb_csv(wl.out / "step_field.csv",
                              _first_row_within(wl.out / "step_field.csv", 0.6),
                              2, 1e-5),
         ["interior_u_vs_ray_integral"])
    case("map CSV, one boundary point moved by 1e-8", "map",
         CONFIGS / "ellipse_map.json", wl._check_map,
         lambda: _perturb_csv(wl.out / "ellipse_correspondence.csv", 3, 2, 1e-8),
         ["boundary_residual"])
    case("ellipse field CSV, one u perturbed by 1e-5", "verify",
         wl.stars["ellipse"][0],
         lambda rc, expect: wl._check_star(rc, expect, "ellipse"),
         lambda: _perturb_csv(wl.out / "ellipse_field.csv", 100, 2, 1e-5),
         ["closed_form_u"])
    assert failed_checks(lambda r, e: wl._check_files(r, e, wl._check_smooth, rec),
                         1) == {"exit_code"}
    print("ok  exit code 1: rejected by ['exit_code']")


def _first_row_within(path, radius):
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    return int(np.flatnonzero(np.abs(rows[:, 0] + 1j * rows[:, 1]) <= radius)[0])


def test_workloads_small():
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
             "--seconds", "1", "--trace", "1", "--small"],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        known = {op for op, _ in KNOWN_FAULTS if op.startswith(name.split("_")[0])}
        ops_per_round = 6 if name == "cli_star" else 1
        assert result["correct"], done.stdout
        assert (result["failed"] * ops_per_round
                == len(known) * result["attempted"]), done.stdout
        assert result["metrics"]["tracing.round_s"]["value"] > 0
        print(f"ok  {name} (small): attempted {result['attempted']}, "
              f"failed {result['failed']}")


def main() -> int:
    workdir = OUT / f"selftest-{os.getpid()}"
    try:
        test_disk_checks(workdir / "disk")
        test_family_checks(workdir / "family")
        test_cli_checks(workdir / "cli")
        test_workloads_small()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
