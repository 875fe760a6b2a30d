"""Antiderivative recovery and the harmonic wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rhbvp as R
from rhbvp.boundary_data import grid_nodes
from rhbvp.direction_solver import (RHO_SAMPLE, SAMPLES,
                                    antiderivative_from_circle,
                                    solve_directional)
from rhbvp.disk_harmonic import SeriesEvaluator
from rhbvp.errors import (ConfigurationError, DataError, DomainError,
                          RepresentationError)
from rhbvp.rh_solver import SolverParams

LOG2 = 0.6931471805599453


def _const_nu(N):
    return R.DirectionField.from_samples(np.ones(N, dtype=complex))


def _on_circle(f, M=4096, rho=0.5):
    """Samples of f at M uniform points of the circle of radius rho."""
    return f(rho * np.exp(2j * np.pi * np.arange(M) / M))


# ----------------------------------------------------------------------
# antiderivative
# ----------------------------------------------------------------------

def test_antiderivative_of_one_is_z():
    F = antiderivative_from_circle(_on_circle(np.ones_like))
    assert F(np.array([0.0]))[0] == 0.0
    assert abs(F(np.array([0.5 + 0j]))[0] - 0.5) < 1e-14


def test_antiderivative_geometric_series_log():
    F = antiderivative_from_circle(_on_circle(lambda z: 1.0 / (1.0 - z)))
    assert abs(F(np.array([0.5 + 0j]))[0] - LOG2) < 1e-12


def test_antiderivative_rejects_interior_pole():
    with pytest.raises(RepresentationError, match="decay"):
        antiderivative_from_circle(_on_circle(lambda z: 1.0 / (0.3 - z)))


def test_antiderivative_rejects_nonfinite_samples():
    vals = np.ones(64, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(RepresentationError, match="non-finite"):
        antiderivative_from_circle(vals)


def test_antiderivative_of_zero():
    F = antiderivative_from_circle(np.zeros(64, dtype=complex))
    assert F(np.array([0.4 + 0.1j]))[0] == 0.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=1, max_size=6))
def test_antiderivative_matches_termwise_integral(coeffs):
    c = np.asarray(coeffs)
    F = antiderivative_from_circle(
        _on_circle(lambda z: np.polynomial.polynomial.polyval(z, c), M=512))
    z = np.array([0.35 - 0.2j, -0.6 + 0.1j, 0.05j])
    want = np.polynomial.polynomial.polyval(
        z, np.concatenate([[0.0], c / (1 + np.arange(len(c)))]))
    np.testing.assert_allclose(F(z), want, atol=1e-10)


# ----------------------------------------------------------------------
# harmonic wrapper
# ----------------------------------------------------------------------

def test_directional_constant_field_quadratic():
    # nu = 1, phi = cos: f = z, F = z^2/2, u = Re(z^2)/2
    N = 256
    hs = solve_directional(_const_nu(N),
                           R.build_boundary_function("cos(theta)", N))
    assert abs(hs.u(np.array([0.5 + 0j]))[0] - 0.125) < 1e-12
    gx, gy = hs.grad(np.array([0.3 + 0.2j]))
    assert abs(gx[0] - 0.3) < 1e-12 and abs(gy[0] + 0.2) < 1e-12


def test_dir_deriv_and_unit_check():
    N = 128
    hs = solve_directional(_const_nu(N),
                           R.build_boundary_function("cos(theta)", N))
    z = np.array([0.3 + 0.2j])
    assert abs(hs.dir_deriv(z, 1.0 + 0j)[0] - 0.3) < 1e-12
    assert abs(hs.dir_deriv(z, 1j)[0] + 0.2) < 1e-12
    with pytest.raises(DataError, match="unit"):
        hs.dir_deriv(z, 2.0 + 0j)


def _scalar_case(name, request):
    """A solution whose f has pole terms: Neumann step data, windings 0
    and -1 with Herglotz poles, and the ellipse transplant."""
    if name == "step":
        return request.getfixturevalue("neumann_step")
    if name == "ellipse":
        return R.transplant_solve(request.getfixturevalue("ellipse_map"),
                                    R.build_boundary_function("cos(t)", 1024))
    N = 256
    angle = {"w0_hom": "0.3 + 0.2*cos(t)", "wm1": "-t + 0.3 + 0.2*cos(t)"}[name]
    return solve_directional(
        R.DirectionField.from_angle(angle, N),
        R.build_boundary_function("cos(theta)", N),
        SolverParams(hom_points=(1.0, 4.0), hom_coeffs=(0.5, 1.0, -1.0)))


@pytest.mark.parametrize("name", ["step", "w0_hom", "wm1", "ellipse"])
def test_scalar_point_equals_a_one_element_array(name, request):
    hs = _scalar_case(name, request)
    z0, one = 0.3 - 0.2j, np.array([0.3 - 0.2j])
    f0 = hs.f(z0)
    assert np.ndim(f0) == 0 and f0 == hs.f(one)[0]
    assert hs.f_source.f(z0) == hs.f_source.f(one)[0]
    assert [np.ndim(g) for g in hs.grad(z0)] == [0, 0]
    assert hs.grad(z0) == tuple(g[0] for g in hs.grad(one))
    d0 = hs.dir_deriv(z0, 1j)
    assert np.ndim(d0) == 0 and d0 == hs.dir_deriv(one, 1j)[0]


def test_gradient_matches_finite_differences(neumann_cos):
    rng = np.random.default_rng(7)
    z = 0.5 * np.exp(2j * np.pi * rng.uniform(0, 1, 12))
    h = 1e-6
    ux = (neumann_cos.u(z + h) - neumann_cos.u(z - h)) / (2 * h)
    uy = (neumann_cos.u(z + 1j * h) - neumann_cos.u(z - 1j * h)) / (2 * h)
    gx, gy = neumann_cos.grad(z)
    np.testing.assert_allclose(ux, gx, atol=1e-6)
    np.testing.assert_allclose(uy, gy, atol=1e-6)


def test_d0_shifts_value_at_origin():
    N = 128
    hs = solve_directional(_const_nu(N),
                           R.build_boundary_function("cos(theta)", N),
                           SolverParams(d0=2.5))
    assert abs(hs.u(np.array([0.0 + 0j]))[0] - 2.5) < 1e-14


def test_on_grid_masks_exterior(neumann_cos):
    xs = np.linspace(-1.2, 1.2, 25)
    U, mask = neumann_cos.on_grid(xs, xs)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    np.testing.assert_array_equal(mask, np.hypot(X, Y) < 1.0)
    assert np.all(np.isnan(U[~mask]))
    assert np.all(np.isfinite(U[mask]))
    c = 12  # xs[12] = 0
    assert abs(U[c, c] - neumann_cos.u(np.array([0j]))[0]) < 1e-15


def test_evaluation_outside_disk_raises(neumann_cos):
    with pytest.raises(DomainError):
        neumann_cos.u(np.array([1.05 + 0j]))


def test_neumann_cos_matches_closed_form(neumann_cos):
    # inner-normal data cos: u = -Re z + d0, f = -1
    rng = np.random.default_rng(11)
    z = 0.9 * np.sqrt(rng.uniform(0, 1, 50)) * \
        np.exp(2j * np.pi * rng.uniform(0, 1, 50))
    np.testing.assert_allclose(neumann_cos.u(z), -z.real, atol=1e-10)
    np.testing.assert_allclose(neumann_cos.f(z), -np.ones_like(z),
                               atol=1e-10)


def test_harmonic_solution_defaults_nu_and_phi_to_its_source():
    hs = R.solve_neumann(R.build_boundary_function("cos(theta)", 64))
    bare = R.HarmonicSolution(F=hs.F, f_source=hs.f_source)
    assert bare.nu is hs.f_source.nu and bare.phi is hs.f_source.phi
    # an equal field built apart is the same pairing
    same = R.DirectionField.from_samples(-np.exp(1j * grid_nodes(64)))
    assert same is not hs.f_source.nu
    assert R.HarmonicSolution(F=hs.F, f_source=hs.f_source, nu=same).nu is same


def test_harmonic_solution_refuses_a_different_nu():
    hs = R.solve_neumann(R.build_boundary_function("cos(theta)", 64))
    with pytest.raises(ConfigurationError, match="f_source"):
        R.HarmonicSolution(F=hs.F, f_source=hs.f_source, nu=_const_nu(64))


# ----------------------------------------------------------------------
# F has one home: HarmonicSolution builds it
# ----------------------------------------------------------------------

def _written_out_exact_F(sol, M=256, cmap=None):
    """F by the closed form written out: d_n, f's exact coefficients
    n < M/2, convolved with those of omega' on a map, those with
    |d_n| 0.5^n below 1e-14 of the largest dropped, integrated termwise."""
    d = sol.taylor_coefficients(M // 2)[0]
    if cmap is not None:
        d = np.convolve(d, cmap.omega_prime.coefficients)[:M // 2]
    mag = np.abs(d) * 0.5 ** np.arange(M // 2)
    c = np.where(mag < 1e-14 * np.max(mag), 0.0, d)
    c = c[:np.flatnonzero(c)[-1] + 1]
    return np.concatenate([[0.0], c / np.arange(1, len(c) + 1)])


def _step_phi(N):
    return R.build_boundary_function(
        [{"from": 0.0, "to": np.pi, "expr": 1.0},
         {"from": np.pi, "to": 2 * np.pi, "expr": 0.0}], N)


@pytest.mark.parametrize("N", [256, 1024])
def test_harmonic_solution_builds_F_on_the_disk(N, monkeypatch):
    # the normal's exp(-i A) is constant: F is read off f's series, and
    # f is neither sampled nor fanned
    hs = R.solve_neumann(_step_phi(N))
    monkeypatch.setattr(SeriesEvaluator, "eval_on_rays", None)
    F = R.HarmonicSolution(f_source=hs.f_source).F.coefficients
    assert np.array_equal(F, hs.F.coefficients)
    want = _written_out_exact_F(hs.f_source)
    assert len(F) == len(want)
    np.testing.assert_allclose(F, want, rtol=0, atol=1e-15)


def test_oblique_solution_builds_F_from_its_exact_series(monkeypatch):
    # a turning weight reads F off f's series too: f is not sampled
    N = 256
    hs = solve_directional(R.DirectionField.from_angle("0.3 + 0.2*cos(t)", N),
                           _step_phi(N))
    assert len(hs.f_source.reduced.E.coefficients) > 1
    monkeypatch.setattr(SeriesEvaluator, "eval_on_rays", None)
    F = R.HarmonicSolution(f_source=hs.f_source).F.coefficients
    assert np.array_equal(F, hs.F.coefficients)
    want = _written_out_exact_F(hs.f_source)
    assert len(F) == len(want)
    np.testing.assert_allclose(F, want, rtol=0, atol=1e-15)


@pytest.fixture(scope="module")
def ellipse_solution(ellipse_map):
    phi = R.build_boundary_function("cos(t) + 0.3*sin(2*t)", 1024)
    return R.transplant_solve(ellipse_map, phi)


def test_transplant_solve_builds_F_through_the_map(ellipse_map,
                                                   ellipse_solution,
                                                   monkeypatch):
    # the exact series of f times that of omega': once E, the image
    # normal's turning weight, is formed, f is neither sampled nor fanned
    sol = ellipse_solution.f_source
    assert len(sol.reduced.E.coefficients) > 1
    want = _written_out_exact_F(sol, cmap=ellipse_map)
    assert not np.array_equal(_written_out_exact_F(sol), want)
    for name in ("f_on_scales", "f"):
        monkeypatch.setattr(type(sol), name, None)
    for name in ("eval_on_rays", "eval_on_circle"):
        monkeypatch.setattr(SeriesEvaluator, name, None)
    monkeypatch.setattr(np.fft, "fft", None)
    hs = R.HarmonicSolution(f_source=sol, conformal_map=ellipse_map)
    F = hs.F.coefficients
    assert np.array_equal(F, ellipse_solution.F.coefficients)
    assert len(F) == len(want)
    np.testing.assert_allclose(F, want, rtol=0, atol=1e-15)


def test_family_member_F_is_built_from_its_own_f(hom_family_cos):
    for m in (hom_family_cos[0], hom_family_cos[4]):
        F = R.HarmonicSolution(f_source=m).F
        want = _written_out_exact_F(m)
        assert len(F.coefficients) == len(want)
        np.testing.assert_allclose(F.coefficients, want, rtol=0, atol=1e-15)
        assert np.array_equal(R.antiderivative(m).coefficients,
                              F.coefficients)


def _sampled_F(sol, M, cmap=None):
    """The sampled construction, whatever sol's weight: f, times omega'
    on a map, at M points of |z| = RHO_SAMPLE."""
    vals = sol.f_on_scales(np.array([RHO_SAMPLE]), M)[0]
    if cmap is not None:
        vals = vals * cmap.omega_prime.eval_on_circle(RHO_SAMPLE, M)
    return antiderivative_from_circle(vals)


def _points_within_06(seed):
    """400 random points of |z| <= 0.6 and 64 on |z| = 0.6."""
    rng = np.random.default_rng(seed)
    z = 0.6 * np.sqrt(rng.uniform(0, 1, 400)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, 400))
    return np.concatenate([z, 0.6 * np.exp(2j * np.pi * np.arange(64) / 64)])


@pytest.fixture(scope="module")
def constant_weight_cases():
    """Solutions on the disk normal, whose exp(-i A) is constant."""
    N = 1024
    nu = R.disk_inner_normal(N).field
    family = R.homogeneous_family(nu, 8)
    three = R.build_boundary_function(
        [[0, 1.0, "cos(t) + 0.5"], [1.0, 3.7, "-0.3*sin(3*t)"],
         [3.7, 2 * np.pi, "1 + 0.5*cos(2*t)"]], N)
    return {"step": R.solve_neumann(_step_phi(N)).f_source,
            "three_piece": R.solve_neumann(three).f_source,
            "member0": family[0], "member3": family[3], "member8": family[8]}


@pytest.mark.parametrize("name", ["step", "three_piece", "member0", "member3",
                                  "member8"])
@pytest.mark.parametrize("M", [SAMPLES, 4096])
def test_exact_F_matches_the_sampled_construction(constant_weight_cases, name, M):
    sol = constant_weight_cases[name]
    F, G = R.antiderivative(sol, M=M), _sampled_F(sol, M)
    assert len(F.coefficients) == len(G.coefficients)
    z = _points_within_06(M)
    assert np.max(np.abs(F._horner(z) - G._horner(z))) < 1e-12


@pytest.mark.parametrize("M", [SAMPLES, 4096])
def test_mapped_F_matches_the_sampled_construction(ellipse_map,
                                                   ellipse_solution, M):
    sol = ellipse_solution.f_source
    F = R.antiderivative(sol, M=M, cmap=ellipse_map)
    G = _sampled_F(sol, M, ellipse_map)
    assert len(F.coefficients) == len(G.coefficients)
    z = _points_within_06(M)
    assert np.max(np.abs(F._horner(z) - G._horner(z))) < 1e-14


def test_exact_F_forms_no_coefficient_it_would_drop(constant_weight_cases,
                                                    ellipse_map,
                                                    ellipse_solution,
                                                    monkeypatch):
    # f_n formed for every n < M/2 keeps the same terms as the bounded
    # length the construction forms, on the disk and, with f * omega'
    # in place of f, on a map; faint low terms beside a unit coefficient
    # at n = 149 make it form more than its first length
    faint = R.solve_neumann(R.build_boundary_function(
        "1e-20*cos(t) + cos(150*t)", 1024)).f_source
    lengths = []
    real = type(faint).taylor_coefficients
    monkeypatch.setattr(type(faint), "taylor_coefficients",
                        lambda self, K: lengths.append(K) or real(self, K))
    cases = [(sol, None) for sol in constant_weight_cases.values()]
    cases += [(ellipse_solution.f_source, ellipse_map), (faint, None)]
    for sol, cmap in cases:
        lengths.clear()
        F = R.antiderivative(sol, M=16384, cmap=cmap).coefficients
        formed = list(lengths)
        d = sol.taylor_coefficients(8192)[0]
        if cmap is not None:
            d = np.convolve(d, cmap.omega_prime.coefficients)[:8192]
        mag = np.abs(d) * 0.5 ** np.arange(8192)
        kept = np.flatnonzero(mag >= 1e-14 * np.max(mag))
        assert len(F) == kept[-1] + 2
        np.testing.assert_array_equal(np.flatnonzero(F[1:]), kept)
    assert formed == [94, 188]


@pytest.mark.parametrize("M", [0, 1, 2, 3, 7, -4, 2.5, True, "256", None])
@pytest.mark.parametrize("weight", ["constant", "oblique"])
def test_antiderivative_refuses_a_bad_sample_count(M, weight):
    nu = (R.disk_inner_normal(64).field if weight == "constant" else
          R.DirectionField.from_angle("0.3 + 0.2*cos(t)", 64))
    sol = R.solve_rh(nu, R.build_boundary_function("cos(theta)", 64))
    with pytest.raises(ConfigurationError, match="M must be an integer"):
        R.antiderivative(sol, M=M)
    assert len(R.antiderivative(sol, M=np.int64(8)).coefficients) >= 1


@pytest.fixture(scope="module")
def step_Fs():
    """{N: (F, F from 4N samples)} for 0/1 step data."""
    out = {}
    for N in (256, 1024, 16384):
        sol = R.solve_neumann(R.build_boundary_function(
            [{"from": 0.0, "to": np.pi, "expr": 1.0},
             {"from": np.pi, "to": 2 * np.pi, "expr": 0.0}], N)).f_source
        out[N] = R.antiderivative(sol), R.antiderivative(sol, M=4 * N)
    return out


def test_F_length_does_not_grow_with_N(step_Fs):
    # the kept terms are set by RHO_SAMPLE and DROP_TOL, not by N
    assert len({len(F.coefficients) for F, _ in step_Fs.values()}) == 1


@pytest.mark.parametrize("N", [256, 1024, 16384])
def test_F_from_fixed_samples_matches_4N_samples(step_Fs, N):
    F, F4 = step_Fs[N]
    rng = np.random.default_rng(N)
    z = 0.6 * np.sqrt(rng.uniform(0, 1, 500)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, 500))
    z = np.concatenate([z, 0.6 * np.exp(2j * np.pi * np.arange(64) / 64)])
    assert np.max(np.abs(F._horner(z) - F4._horner(z))) < 1e-12


def test_harmonic_solution_keeps_a_given_F(neumann_cos):
    F = SeriesEvaluator(np.array([0.0, 1.0]))
    assert R.HarmonicSolution(f_source=neumann_cos.f_source, F=F).F is F

