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
                          laplacian_residual, radial_u_table, verify_solution)
from report_parser import parse_report


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


@pytest.fixture(scope="module")
def neumann_step_16384():
    return R.solve_neumann(_step(16384))


def _verify_peak(hs, **kw):
    """(report, tracemalloc peak in bytes) of one verify_solution call."""
    tracemalloc.start()
    try:
        rep = verify_solution(hs, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rep, peak


def test_verify_memory_is_independent_of_V_times_N(neumann_step_16384):
    # a dense V x N interpolation matrix alone would take 125 MiB here
    rep, peak = _verify_peak(neumann_step_16384, V=500, tol=1e-2)
    assert rep.pass_fraction > 0.9
    assert peak < 32 * 2 ** 20


def test_verify_peak_memory_is_one_chunk(neumann_step_16384):
    # f on all 240 radii of the table takes 1.8 MiB at V = 500 before its
    # complex temporaries; in chunks of 60 radii the peak is 3.2 MiB
    _, peak = _verify_peak(neumann_step_16384, V=500, tol=1e-2)
    assert peak < 8 * 2 ** 20


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


def test_estimate_is_the_radial_path_at_its_deepest_level(neumann_step):
    # the estimate column is Re(nu f) at r = 1 - 2^-j_max on the radial
    # path (aperture 0), not on any tilted Stolz path
    rep = verify_solution(neumann_step)
    src = neumann_step.f_source
    r = 1.0 - 2.0 ** -rep.settings["j_max"]
    assert rep.settings["apertures"][0] == 0.0 and r == 1.0 - 2.0 ** -7
    nu = src.nu.base.on_uniform_grid(len(rep.angles))
    want = (nu * src.f(r * np.exp(1j * rep.angles))).real
    np.testing.assert_allclose(rep.estimate, want, rtol=0, atol=1e-12)


def test_verify_exclusion_budget_guard(neumann_step):
    with pytest.raises(ConfigurationError, match="5%"):
        verify_solution(neumann_step, V=100, delta=0.5)


def test_verify_rejects_tiny_vertex_count(neumann_cos):
    with pytest.raises(ConfigurationError, match="at least 8"):
        verify_solution(neumann_cos, V=4)


@pytest.mark.parametrize("check, kw, match", [
    (radial_u_table, {"V": 0}, "V must be an integer"),
    (radial_u_table, {"V": 500.0}, "V must be an integer"),
    (verify_solution, {"V": 500.0}, "V must be an integer"),
    (radial_u_table, {"V": True}, "V must be an integer"),
    (verify_solution, {"V": True}, "V must be an integer"),
    (radial_u_table, {"tol": float("nan")}, "tol must be finite"),
    (radial_u_table, {"delta": float("inf")}, "delta must be finite"),
    (verify_solution, {"tol": "x"}, "tol has the wrong type"),
    (verify_solution, {"apertures": ["a"]}, "apertures has the wrong type"),
    (verify_solution, {"tol": [1e-3]}, "tol has the wrong type"),
    (verify_solution, {"tol": "1e-3"}, "tol has the wrong type"),
    (radial_u_table, {"tol": "1e-3"}, "tol has the wrong type"),
    (verify_solution, {"tol": True}, "tol has the wrong type"),
    (radial_u_table, {"tol": np.True_}, "tol has the wrong type"),
    (verify_solution, {"delta": "0.01"}, "delta has the wrong type"),
    (radial_u_table, {"delta": [0.01]}, "delta has the wrong type"),
    (verify_solution, {"delta": np.array(0.01)}, "delta has the wrong type"),
    (verify_solution, {"apertures": ["0.5"]}, "apertures has the wrong type"),
    (verify_solution, {"apertures": "0.5"}, "apertures has the wrong type"),
    (verify_solution, {"apertures": 0.5}, "apertures has the wrong type"),
    (verify_solution, {"apertures": [0.0, True]}, "apertures has the wrong type"),
    (verify_solution, {"apertures": [[0.0, 0.5]]}, "apertures has the wrong type"),
    (verify_solution, {"apertures": np.array([[0.0, 0.5]])},
     "apertures has the wrong type"),
], ids=["table_V_zero", "table_V_float", "verify_V_float", "table_V_bool",
        "verify_V_bool", "table_tol_nan", "table_delta_inf", "verify_tol_str",
        "verify_apertures_str", "verify_tol_list", "verify_tol_numeric_str",
        "table_tol_numeric_str", "verify_tol_bool", "table_tol_numpy_bool",
        "verify_delta_numeric_str", "table_delta_list", "verify_delta_0d_array",
        "verify_apertures_numeric_str", "verify_apertures_str_whole",
        "verify_apertures_scalar", "verify_apertures_bool",
        "verify_apertures_nested", "verify_apertures_2d_array"])
def test_settings_errors_are_typed(neumann_cos, check, kw, match):
    with pytest.raises(ConfigurationError, match=match):
        check(neumann_cos, **kw)


def test_numpy_integer_vertex_count_is_accepted(neumann_cos):
    # the report's settings line is JSON, which takes no numpy integer
    V = np.int64(64)
    assert (verify_solution(neumann_cos, V=V).serialize()
            == verify_solution(neumann_cos, V=64).serialize())
    assert np.array_equal(radial_u_table(neumann_cos, V=V).u_edges,
                          radial_u_table(neumann_cos, V=64).u_edges)


def test_numpy_and_integer_settings_are_accepted(neumann_cos):
    # the report's settings line is JSON, which takes no float32 or int64
    got = verify_solution(neumann_cos, V=64, tol=np.float32(0.5),
                          delta=np.int64(0), apertures=np.array([0.0, 0.5]))
    want = verify_solution(neumann_cos, V=64, tol=0.5, delta=0.0,
                           apertures=[0.0, 0.5])
    assert got.serialize() == want.serialize()


@pytest.mark.parametrize("apertures", [[], (), np.array([])],
                         ids=["list", "tuple", "array"])
def test_verify_rejects_empty_apertures(neumann_cos, apertures):
    with pytest.raises(ConfigurationError, match="apertures must be non-empty"):
        verify_solution(neumann_cos, V=50, apertures=apertures)


@pytest.mark.parametrize("name, value", [
    ("tol", float("nan")), ("delta", float("nan")),
    ("apertures", (0.0, float("nan"))), ("apertures", [float("inf")])],
    ids=["tol", "delta", "apertures_nan", "apertures_inf"])
def test_verify_rejects_non_finite_settings(neumann_cos, name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        verify_solution(neumann_cos, V=50, **{name: value})


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
        "ellipse": lambda phi: R.transplant_solve(ellipse_4096, phi),
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

    # a mapped domain has no Laplacian residual: residual_max is nan
    cmap = R.theodorsen_map("1 + 0.2*cos(3*a)", N=256)
    mapped = verify_solution(
        R.transplant_solve(cmap, R.build_boundary_function("cos(t)", 256)),
        V=64, tol=1e-2)
    assert np.isnan(mapped.residual_stats[0])
    assert mapped.serialize() == _reference_serialize(mapped)
    assert "# residual_max = nan\n" in mapped.serialize()

    # jumps at 2.5 and 5, the index pole at 0 and homogeneous poles at 1, 4
    phi = R.build_boundary_function(
        [[0, 2.5, "cos(t)"], [2.5, 5.0, "cos(t) + 0.5"],
         [5.0, 2 * np.pi, "cos(t)"]], 1024)
    hs = R.solve_directional(
        R.DirectionField.from_angle("t + pi + 0.3*sin(t)", 1024), phi,
        R.SolverParams(hom_points=[1.0, 4.0], hom_coeffs=[0.5, 1.0, -1.0]))
    rep = verify_solution(hs, V=500, tol=1e-2)
    assert set(rep.reasons.tolist()) == {"-", "jump-neighborhood",
                                         "cut-neighborhood",
                                         "hom-pole-neighborhood"}
    assert rep.serialize() == _reference_serialize(rep)


# ----------------------------------------------------------------------
# radial tables
# ----------------------------------------------------------------------

def test_radial_table_shapes(neumann_cos):
    t = radial_u_table(neumann_cos, V=100)
    assert t.u_edges.shape == (len(t.edges), 100)
    assert t.edges[0] == 0.0 and t.edges[-1] == 1 - 2.0 ** -20
    assert t.flag_fraction > 0.95
    # u = -cos(theta) * r on each ray: boundary value -cos(theta);
    # the ray through the argument cut at 0 is excluded (clamped node)
    ok = ~t.excluded
    assert not ok[0] and ok.sum() >= 98
    np.testing.assert_allclose(t.u_boundary[ok], -np.cos(t.angles[ok]),
                               atol=1e-6)


@pytest.fixture(scope="module")
def oblique_cos(phi_cos_1024):
    return R.solve_directional(
        R.DirectionField.from_angle("t + pi + 0.3*sin(t - 1)", 1024),
        phi_cos_1024)


@pytest.mark.parametrize("V", [8, 64, 500])
@pytest.mark.parametrize("case", ["step", "oblique"])
def test_radial_table_equals_the_whole_fan(request, case, V):
    # 20 panels go in chunks of 5 panels; the whole fan evaluates all 240
    # radii in one f_on_scales call
    hs = request.getfixturevalue({"step": "neumann_step",
                                  "oblique": "oblique_cos"}[case])
    table = radial_u_table(hs, V=V)
    edges = table.edges
    x, w = np.polynomial.legendre.leggauss(12)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halfs[:, None] * x[None, :]).ravel()
    fvals = hs.f_source.f_on_scales(nodes, V)
    integrand = (np.exp(1j * table.angles)[None, :] * fvals).real
    panel_int = (integrand.reshape(len(mids), 12, V)
                 * w[None, :, None]).sum(axis=1)
    panel_int *= halfs[:, None]
    want = np.concatenate([np.zeros((1, V)), np.cumsum(panel_int, axis=0)])
    want += hs.d0
    assert len(mids) == 20
    assert np.array_equal(table.u_edges, want)


def test_radial_table_extrapolates_u_to_the_rim(neumann_cos):
    # u = -r cos(theta): two Richardson steps over levels 18..20 leave
    # rounding alone (the partial sum at level 20 is up to 2^-20 short,
    # at level 34 5.8e-11)
    t = radial_u_table(neumann_cos, V=500)
    ok = ~t.excluded
    assert np.max(np.abs(t.u_boundary[ok] + np.cos(t.angles[ok]))) <= 1e-13


def _deep_u_boundary(hs, V):
    """u's boundary values from 34 dyadic Gauss panels on f by Horner,
    extrapolated by two Richardson steps over levels 32..34."""
    edges = np.concatenate([[0.0, 0.5, 0.75],
                            1.0 - 2.0 ** -np.arange(3, 35, dtype=float)])
    x, w = np.polynomial.legendre.leggauss(12)
    mids, halfs = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    r = mids[:, None] + halfs[:, None] * x[None, :]
    ray = np.exp(2j * np.pi * np.arange(V) / V)
    f = hs.f_source.f(r[..., None] * ray)  # (panels, 12, V)
    panels = np.einsum("pkv,k->pv", (ray * f).real, w) * halfs[:, None]
    u = hs.d0 + np.cumsum(panels, axis=0)
    rich = u[-3:]
    for k in (1, 2):
        rich = (2.0 ** k * rich[1:] - rich[:-1]) / (2.0 ** k - 1)
    return rich[0]


@pytest.mark.parametrize("case", ["step", "three_piece"])
def test_radial_table_boundary_matches_a_deep_table(request, case):
    # jump data: u is smooth up to the rim away from the excluded jumps;
    # 20 levels extrapolated agree with 34 (to 7e-14 here); the raw
    # partial sum at level 34 is 5.8e-11 (step) and 8.7e-11 away
    if case == "step":
        hs = request.getfixturevalue("neumann_step")
    else:
        hs = R.solve_neumann(R.build_boundary_function(
            [[0, 1.0, "cos(t) + 0.5"], [1.0, 3.7, "-0.3*sin(3*t)"],
             [3.7, 2 * np.pi, "1 + 0.5*cos(2*t)"]], 1024))
    V = 64
    t = radial_u_table(hs, V=V)
    ok = ~t.excluded
    assert ok.sum() >= 60
    assert np.max(np.abs(t.u_boundary[ok] - _deep_u_boundary(hs, V)[ok])) <= 1e-12


def test_verify_reads_the_radial_table(neumann_step):
    # away from the defaults, each of tol and delta moves flag_fraction
    # here (0.99 at the defaults, 0.49 with tol alone, 1.0 with delta alone);
    # u_boundary_range leaves out the excluded rays into the jumps, where
    # u grows like log(1 / (1 - r))
    rep = verify_solution(neumann_step, V=200, tol=1e-5, delta=4e-2)
    table = radial_u_table(neumann_step, V=200, tol=1e-5, delta=4e-2)
    assert rep.settings["radial_flag_fraction"] == table.flag_fraction
    kept = table.u_boundary[~table.excluded]
    assert table.excluded.any()
    assert rep.settings["u_boundary_range"] == [float(np.min(kept)),
                                                float(np.max(kept))]
    assert np.max(table.u_boundary) > np.max(kept)


def test_verify_with_every_vertex_excluded_has_no_u_range():
    # a jump on each of the 8 vertices
    phi = R.build_boundary_function(
        [{"from": k * np.pi / 4, "to": (k + 1) * np.pi / 4, "expr": k % 2}
         for k in range(8)], 1024)
    rep = verify_solution(R.solve_neumann(phi), V=8, delta=1e-3)
    assert rep.excluded.all()
    assert rep.settings["u_boundary_range"] == []
    assert rep.certified_fraction == 0.0


def test_radial_table_rejects_transplants():
    cmap = R.theodorsen_map(2.0, N=256)
    phi = R.build_boundary_function("cos(t)", 256)
    hs = R.transplant_solve(cmap, phi)
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
    stats = laplacian_residual(lambda z: z.real, pts)
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


def test_chord_recovery_on_a_mapped_domain():
    # rho = 1 + 0.2 cos 3a is 1.2 at a = 0 and about 0.84 at arg(0.3 + 0.9i)
    cmap = R.theodorsen_map("1 + 0.2*cos(3*a)", N=1024)
    hs = R.transplant_solve(cmap, R.build_boundary_function("cos(t)", 1024))
    rec, direct = chord_recovery(hs, 0.1, 1.0)
    assert abs(rec - direct) < 1e-6
    chord_recovery(hs, 0.1, 1.1)
    with pytest.raises(DomainError, match="inside the domain"):
        chord_recovery(hs, 0.1, 0.3 + 0.9j)
