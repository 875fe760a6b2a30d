"""Verifier, reports, interior certificates."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import rhbvp as R
from rhbvp.errors import ConfigurationError, DataError, DomainError
from rhbvp.verify import (REPORT_COLUMNS, certificate_points, chord_recovery,
                          dimension_certificate, disk_grid,
                          laplacian_residual, parse_report, radial_u_table,
                          verify_solution)


def _step(N):
    return R.build_boundary_function(
        [{"from": 0.0, "to": np.pi, "expr": 1.0},
         {"from": np.pi, "to": 2 * np.pi, "expr": 0.0}], N)


def _five_point_stats(U, dx):
    """(max, mean) of the five-point Laplacian over the finite grid cells."""
    lap = (U[2:, 1:-1] + U[:-2, 1:-1] + U[1:-1, 2:] + U[1:-1, :-2]
           - 4.0 * U[1:-1, 1:-1]) / (dx * dx)
    vals = np.abs(lap[np.isfinite(lap)])
    return float(np.max(vals)), float(np.mean(vals))


# ----------------------------------------------------------------------
# the verifier
# ----------------------------------------------------------------------

def test_verify_smooth_solution_passes(neumann_cos):
    rep = verify_solution(neumann_cos, V=200, tol=1e-3)
    assert rep.pass_fraction > 0.99
    assert rep.settings["aperture_agreement"] == 1.0
    assert rep.settings["converged_fraction"] > 0.99
    assert rep.settings["radial_flag_fraction"] > 0.95
    assert rep.residual_stats[0] < 1e-6


def test_verify_memory_is_independent_of_V_times_N():
    # a dense V x N interpolation matrix alone would take 125 MiB here
    hs = R.solve_neumann(_step(16384))
    tracemalloc.start()
    try:
        rep = verify_solution(hs, V=500, tol=1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.pass_fraction > 0.9
    assert peak < 32 * 2 ** 20


def test_verify_wrong_target_fails(neumann_cos):
    rep = verify_solution(neumann_cos,
                          target=R.build_boundary_function("cos(3*theta)",
                                                           1024),
                          V=200, tol=1e-3)
    assert rep.pass_fraction < 0.05


def test_verify_step_excludes_special_points(neumann_step):
    rep = verify_solution(neumann_step, V=200, tol=1e-2)
    assert rep.pass_fraction > 0.95
    # jump at pi plus jump/cut at 0 produce exclusion annotations
    assert rep.settings["excluded_count"] >= 2
    reasons = set(rep.reasons[rep.excluded])
    assert "jump-neighborhood" in reasons or "cut-neighborhood" in reasons


def test_verify_refinement_does_not_regress():
    stats = {}
    for N in (512, 2048):
        hs = R.solve_neumann(_step(N))
        rep = verify_solution(hs, V=200, tol=1e-2)
        stats[N] = (rep.pass_fraction, rep.settings["converged_fraction"])
    assert stats[2048][0] >= stats[512][0] - 0.02
    assert stats[2048][1] > stats[512][1]


def test_verify_determinism(neumann_cos):
    a = verify_solution(neumann_cos, V=120, tol=1e-3).serialize()
    b = verify_solution(neumann_cos, V=120, tol=1e-3).serialize()
    assert a == b


def test_verify_exclusion_budget_guard(neumann_step):
    with pytest.raises(ConfigurationError, match="5%"):
        verify_solution(neumann_step, V=100, delta=0.5)


def test_verify_rejects_tiny_vertex_count(neumann_cos):
    with pytest.raises(ConfigurationError, match="at least 8"):
        verify_solution(neumann_cos, V=4)


def test_verify_requires_target():
    # phi defaults to f_source's, so the target is missing only when the
    # solution was built without one
    hs = R.solve_neumann(R.build_boundary_function("cos(theta)", 64))
    bare = dataclasses.replace(
        hs, f_source=dataclasses.replace(hs.f_source, phi=None), phi=None)
    with pytest.raises(ConfigurationError, match="target"):
        verify_solution(bare, V=50)


@pytest.mark.parametrize("angle, passed, certified, non_excluded", [
    ("2*t", 1.0, 141, 495),  # converges at 141 of 495 vertices
    ("0.3", 56 / 57, 224, 500),
], ids=["winding_2", "constant_0.3"])
def test_certified_fraction_counts_unconverged_vertices(
        phi_cos_1024, angle, passed, certified, non_excluded):
    # pass_fraction divides only by the converged vertices and so reads
    # near 1 when most vertices never converge; certified_fraction does not
    hs = R.solve_directional(R.DirectionField.from_angle(angle, 1024),
                             phi_cos_1024)
    rep = verify_solution(hs, V=500, tol=1e-2)
    assert int((~rep.excluded).sum()) == non_excluded
    assert rep.pass_fraction == pytest.approx(passed, abs=1e-12)
    assert rep.certified_fraction == pytest.approx(certified / non_excluded,
                                                   abs=1e-12)
    assert rep.certified_fraction < 0.5 < rep.pass_fraction


def test_radial_quotient_fraction_of_empty_valid_set(neumann_cos):
    # at tol 1e-15 no ray's u converges, so no vertex is valid: the
    # fraction reads 0 like the other fractions, with no empty-mean warning
    rep = verify_solution(neumann_cos, V=50, tol=1e-15)
    assert rep.settings["radial_flag_fraction"] == 0.0
    assert rep.settings["radial_quotient_fraction_1e-2"] == 0.0


@pytest.fixture(scope="module")
def ellipse_4096():
    return R.theodorsen_map("0.8/sqrt(1 - (1 - 0.8^2)*cos(a)^2)", N=4096)


@pytest.mark.parametrize("case", ["disk w=0", "disk w=1", "ellipse"])
def test_verifier_rejects_data_off_by_ten_tol(case, ellipse_4096):
    # a solution for phi + 10 tol is certified nowhere against phi, while
    # the solution for phi itself is certified almost everywhere
    N, tol = 4096, 1e-2
    solve = {
        "disk w=0": lambda phi: R.solve_directional(
            R.DirectionField.from_angle("0.3 + 0.2*cos(t)", N), phi),
        "disk w=1": R.solve_neumann,
        "ellipse": lambda phi: R.transplant_neumann(ellipse_4096, phi),
    }[case]
    phi = R.build_boundary_function("cos(t)", N)
    off = R.build_boundary_function(f"cos(t) + {10 * tol!r}", N)
    good = verify_solution(solve(phi), V=500, tol=tol)
    bad = verify_solution(solve(off), target=phi, V=500, tol=tol)
    assert good.certified_fraction >= 0.95
    assert bad.certified_fraction == 0.0


# ----------------------------------------------------------------------
# report round trip
# ----------------------------------------------------------------------

def test_report_roundtrip(neumann_step):
    rep = verify_solution(neumann_step, V=64, tol=1e-2)
    text = rep.serialize()
    assert text.splitlines()[0] == "# rhbvp verification report"
    assert ",".join(REPORT_COLUMNS) in text
    back = parse_report(text)
    assert back["settings"] == rep.settings
    assert back["pass_fraction"] == rep.pass_fraction
    assert back["certified_fraction"] == rep.certified_fraction
    assert back["residual_max"] == rep.residual_stats[0]
    assert len(back["rows"]) == 64
    i = 17
    row = back["rows"][i]
    assert row[0] == rep.angles[i]
    assert row[2] == rep.estimate[i]
    assert row[4] == bool(rep.converged[i])
    assert row[6] == rep.reasons[i]
    assert any("compatibility" in n for n in back["notes"])


def _reference_serialize(rep):
    """The report text built one row at a time with per-element indexing."""
    lines = ["# rhbvp verification report"]
    lines.append("# settings: " + json.dumps(rep.settings, sort_keys=True))
    for note in rep.notes:
        lines.append("# note: " + note)
    lines.append(",".join(REPORT_COLUMNS))
    for i in range(len(rep.angles)):
        lines.append(
            f"{rep.angles[i]:.17g},{rep.target[i]:.17g},"
            f"{rep.estimate[i]:.17g},{rep.error[i]:.17g},"
            f"{int(rep.converged[i])},{int(rep.excluded[i])},"
            f"{rep.reasons[i]}")
    lines.append(f"# pass_fraction = {rep.pass_fraction:.17g}")
    lines.append(f"# certified_fraction = {rep.certified_fraction:.17g}")
    lines.append(f"# residual_max = {rep.residual_stats[0]:.17g}")
    lines.append(f"# residual_mean = {rep.residual_stats[1]:.17g}")
    return "\n".join(lines) + "\n"


def test_serialize_matches_per_row_reference(neumann_step):
    rep = verify_solution(neumann_step, V=500, tol=1e-2)
    assert rep.excluded.any() and not rep.excluded.all()
    assert rep.converged.any() and not rep.converged.all()
    assert rep.serialize() == _reference_serialize(rep)


# ----------------------------------------------------------------------
# radial tables
# ----------------------------------------------------------------------

def test_radial_table_shapes(neumann_cos):
    t = radial_u_table(neumann_cos, V=100)
    assert t.u_edges.shape == (len(t.edges), 100)
    assert t.edges[0] == 0.0 and t.edges[-1] == 1 - 2.0 ** -34
    assert t.flag_fraction > 0.95
    # u = -cos(theta) * r on each ray: boundary value -cos(theta);
    # the ray through the argument cut at 0 is excluded (clamped node)
    ok = ~t.excluded
    assert not ok[0] and ok.sum() >= 98
    np.testing.assert_allclose(t.u_boundary[ok], -np.cos(t.angles[ok]),
                               atol=1e-6)


def test_radial_table_rejects_transplants():
    cmap = R.theodorsen_map(2.0, N=256)
    phi = R.build_boundary_function("cos(t)", 256)
    hs = R.transplant_neumann(cmap, phi)
    with pytest.raises(ConfigurationError, match="disk-native"):
        radial_u_table(hs, V=50)


# ----------------------------------------------------------------------
# interior certificates
# ----------------------------------------------------------------------

@pytest.mark.parametrize("u", [
    lambda z: (z ** 2).real,
    # harmonic, pole 0.2 outside the grid: a five-point stencil reports
    # its fourth-derivative curvature here (1.25e-2)
    lambda z: (1.0 / (1.1 - z)).real,
], ids=["re_z2", "re_inv_pole_1.1"])
def test_laplacian_harmonic_quadratic(u):
    stats = laplacian_residual(u, disk_grid(31, 0.9))
    assert stats.max_residual < 1e-8
    assert stats.n_skipped == 0


def test_laplacian_detects_nonharmonic():
    stats = laplacian_residual(lambda z: z.real ** 2, disk_grid(31, 0.9))
    assert abs(stats.max_residual - 2.0) < 1e-4
    assert abs(stats.mean_residual - 2.0) < 1e-4


def test_laplacian_skips_boundary_stencils():
    pts = np.array([0.9999 + 0j, 0.0 + 0j])
    stats = laplacian_residual(lambda z: z.real, pts, h=1e-3)
    assert stats.n_skipped == 1 and stats.n_points == 1


def test_lattice_laplacian_stats(neumann_cos):
    xs = np.linspace(-0.9, 0.9, 41)
    U, _ = neumann_cos.on_grid(xs, xs)
    mx, mean = _five_point_stats(U, xs[1] - xs[0])
    assert mx < 1e-9 and mean < 1e-10


# ----------------------------------------------------------------------
# dimension certificates
# ----------------------------------------------------------------------

def test_certificate_points_deterministic_interior():
    pts = certificate_points()
    assert len(pts) == 64
    assert np.max(np.abs(pts)) < 1.0
    assert np.array_equal(pts, certificate_points())


def test_dimension_duplicate_rows_collapse():
    u = lambda z: np.asarray(z).real
    cert = dimension_certificate([u, u])
    assert cert.sigma_min < 1e-12


def test_dimension_independent_rows():
    rows = [lambda z: np.asarray(z).real,
            lambda z: np.ones(np.shape(z))]
    cert = dimension_certificate(rows)
    assert cert.sigma_min > 0.1
    assert cert.n_rows == 2


def test_dimension_zero_row_notes():
    rows = [lambda z: np.asarray(z).real,
            lambda z: np.zeros(np.shape(z))]
    cert = dimension_certificate(rows)
    assert cert.sigma_min == 0.0
    assert any("numerically zero" in n for n in cert.notes)


def test_dimension_needs_two_rows():
    with pytest.raises(ConfigurationError, match="at least 2"):
        dimension_certificate([lambda z: np.asarray(z).real])


def test_dimension_certificate_points_cover_rows():
    rows = [(lambda k: (lambda z: (np.asarray(z) ** k).real))(k)
            for k in range(40)]
    assert dimension_certificate(rows).n_points == 80
    assert dimension_certificate(rows[:6]).n_points == 64
    with pytest.raises(ConfigurationError, match="at least 80 sample points"):
        dimension_certificate(rows + rows, points=certificate_points(64))


def test_dimension_rank_drops_for_repeated_row():
    rows = [(lambda k: (lambda z: (np.asarray(z) ** k).real))(k)
            for k in range(6)]
    cert = dimension_certificate(rows)
    assert cert.rank == cert.n_rows == 6
    cert = dimension_certificate(rows + [rows[3]])
    assert cert.n_rows == 7 and cert.rank == 6


def test_homogeneous_family_dimension(hom_family_cos):
    rows = [(lambda m: (lambda z: m.f(z).real))(m) for m in hom_family_cos]
    cert = dimension_certificate(rows)
    assert cert.sigma_min > 5e-3
    assert cert.n_rows == 11


# ----------------------------------------------------------------------
# chord recovery
# ----------------------------------------------------------------------

def test_chord_recovery_matches_direct(neumann_cos):
    rec, direct = chord_recovery(neumann_cos, 0.1 + 0.2j, -0.4 + 0.5j)
    assert abs(rec - direct) < 1e-9
    assert abs(direct - 0.4) < 1e-9  # u = -Re w


def test_chord_recovery_validation(neumann_cos):
    with pytest.raises(DomainError):
        chord_recovery(neumann_cos, 0.0, 1.5)
    with pytest.raises(DataError, match="coincide"):
        chord_recovery(neumann_cos, 0.3, 0.3)
