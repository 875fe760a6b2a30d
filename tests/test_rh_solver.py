"""Analytic solver: pipeline trace, linearity, homogeneous members."""

import numpy as np
import pytest

import rhbvp as R
from rhbvp.boundary_data import grid_nodes, measurable_arg
from rhbvp.errors import ConfigurationError, DataError, DomainError
import rhbvp.rh_solver as rh_solver
from rhbvp.rh_solver import (SolverParams, cr_residual, default_hom_points,
                             herglotz_term, homogeneous_family, solve_rh)

RNG = np.random.default_rng(1105)


def _interior(n):
    r = 0.92 * np.sqrt(RNG.uniform(0, 1, n))
    return r * np.exp(2j * np.pi * RNG.uniform(0, 1, n))


def _normal_nu(N):
    return R.disk_inner_normal(N).field


def _const_nu(N):
    return R.DirectionField.from_samples(np.ones(N, dtype=complex))


# ----------------------------------------------------------------------
# pipeline trace: nu = inner normal, phi = cos  =>  f = -1 exactly
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def sol():
    N = 1024
    phi = R.build_boundary_function("cos(theta)", N)
    return solve_rh(_normal_nu(N), phi)


class TestNormalCosTrace:
    def test_argument_is_exact_sawtooth(self, sol):
        assert sol.alpha.winding == (1, 0.0)
        theta = grid_nodes(1024)
        np.testing.assert_allclose(sol.alpha.samples, theta - np.pi,
                                   atol=1e-12)

    def test_schwarz_of_argument_closed_form(self, sol):
        # A(z) = -2i*log(1 - z); at z = 1/2 that is 2i*log(2)
        got = sol.A(np.array([0.5 + 0j]))[0]
        assert abs(got - 2j * np.log(2.0)) < 1e-13

    def test_conjugate_closed_form_in_weight(self, sol):
        # |weight_boundary| = exp(H) with H = -2*log|2 sin(theta/2)|
        theta = grid_nodes(1024)[1:]
        H = np.log(np.abs(sol.weight_boundary.samples[1:]))
        np.testing.assert_allclose(H, -2 * np.log(2 * np.sin(theta / 2)),
                                   atol=1e-11)

    def test_clamp_note_at_the_cut_node(self, sol):
        assert any("clamped at 1 of 8192" in n for n in sol.notes)

    def test_weighted_data_is_a_trig_polynomial(self, sol):
        theta = grid_nodes(1024)
        want = -1 + 2 * np.cos(theta) - np.cos(2 * theta)
        np.testing.assert_allclose(sol.psi.samples[1:], want[1:], atol=1e-10)

    def test_series_coefficients(self, sol):
        c = sol.g.coefficients
        np.testing.assert_allclose(c[:3], [-1.0, 2.0, -1.0], atol=1e-9)
        assert np.max(np.abs(c[3:])) < 1e-9

    def test_solution_is_minus_one(self, sol):
        z = _interior(100)
        assert np.max(np.abs(sol.f(z) + 1.0)) < 1e-10

    def test_boundary_pairing_telescopes(self, sol):
        assert sol.boundary_pairing_residual() < 1e-12

    def test_cauchy_riemann(self, sol):
        assert cr_residual(sol, _interior(20)) < 1e-8


# ----------------------------------------------------------------------
# constant field: the solver reduces to the Schwarz integral
# ----------------------------------------------------------------------

def test_constant_field_cos_gives_identity():
    N = 256
    sol = solve_rh(_const_nu(N), R.build_boundary_function("cos(theta)", N))
    z = _interior(50)
    assert np.max(np.abs(sol.f(z) - z)) < 1e-12
    assert sol.alpha.winding == (0, 0.0)


def test_zero_data_zero_solution():
    N = 64
    sol = solve_rh(_normal_nu(N), R.build_boundary_function(0.0, N))
    assert np.max(np.abs(sol.f(_interior(30)))) < 1e-14


def test_superposition():
    N = 256
    nu = _normal_nu(N)
    p1 = R.build_boundary_function("cos(theta)", N)
    p2 = R.build_boundary_function("sin(2*theta) + 0.25", N)
    p12 = R.build_boundary_function(
        "cos(theta) + sin(2*theta) + 0.25", N)
    z = _interior(40)
    lhs = solve_rh(nu, p1).f(z) + solve_rh(nu, p2).f(z)
    rhs = solve_rh(nu, p12).f(z)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_scaling_by_two_is_exact():
    # doubling phi doubles psi and the FFT exactly (power-of-two scale)
    N = 256
    nu = _normal_nu(N)
    p = R.build_boundary_function("cos(theta)", N)
    p2 = R.build_boundary_function("2*cos(theta)", N)
    g1 = solve_rh(nu, p).g.coefficients
    g2 = solve_rh(nu, p2).g.coefficients
    assert np.array_equal(g2, 2.0 * g1)


# ----------------------------------------------------------------------
# homogeneous members
# ----------------------------------------------------------------------

def test_homogeneous_constant_member_constant_field():
    N = 128
    members = homogeneous_family(_const_nu(N), ())
    assert len(members) == 1
    z = _interior(30)
    assert np.max(np.abs(members[0].f(z) - 1j)) < 1e-13


def test_homogeneous_cayley_member():
    # single distinguished point at -1 under the constant field:
    # f = i * i(z - 1)/(-1 - z) = (z - 1)/(1 + z), imaginary on |z| = 1
    N = 128
    members = homogeneous_family(_const_nu(N), (np.pi,))
    z = _interior(30)
    want = (z - 1) / (1 + z)
    assert np.max(np.abs(members[1].f(z) - want)) < 1e-12
    zb = 0.999 * np.exp(1j * np.array([0.3, 2.0, 4.4]))
    assert np.max(np.abs(members[1].f(zb).real)) < 2e-2


def test_homogeneous_constant_member_with_winding():
    # nu = inner normal: f = i * exp(-iA) = i / (1 - z)^2
    N = 256
    members = homogeneous_family(_normal_nu(N), ())
    z = _interior(30)
    assert np.max(np.abs(members[0].f(z) - 1j / (1 - z) ** 2)) < 1e-10


def test_homogeneous_family_count_and_coeffs(hom_family_cos):
    assert len(hom_family_cos) == 11
    for j, m in enumerate(hom_family_cos):
        want = tuple(1.0 if i == j else 0.0 for i in range(11))
        assert m.hom_coeffs == want
        assert len(m.hom_points) == 10


def test_default_hom_points_distinct():
    pts = default_hom_points(7)
    assert len(set(pts)) == 7
    assert all(0 <= a < 2 * np.pi for a in pts)


def test_herglotz_term_boundary_real_part_vanishes():
    z = 0.9999 * np.exp(1j * np.linspace(0.2, 6.0, 11))
    p = herglotz_term((1.0, 3.5), (0.0, 2.0, -1.0), z)
    assert np.max(np.abs((1j * p).real)) < 1e-2


def _family_one_solve_per_member(nu, points, params):
    """Reference family: one full solve_rh per member with phi = 0."""
    if isinstance(points, int):
        points = default_hom_points(points)
    points = tuple(float(a) % (2 * np.pi) for a in points)
    base = params or SolverParams(N=nu.N)
    zero_phi = R.BoundaryFunction(samples=np.zeros(nu.N), kind="real")
    k = len(points)
    members = []
    for j in range(k + 1):
        coeffs = tuple(1.0 if i == j else 0.0 for i in range(k + 1))
        p = SolverParams(N=base.N, cut=base.cut, refine=base.refine,
                         rho_sample=base.rho_sample, drop_tol=base.drop_tol,
                         d0=base.d0, hom_points=points, hom_coeffs=coeffs)
        members.append(solve_rh(nu, zero_phi, p))
    return members


def _oblique_nu(N):
    # winding one, rotated off the normal, cut at 1.0
    return R.DirectionField.from_samples(np.exp(1j * (grid_nodes(N) + 0.7)),
                                         cut=1.0)


FAMILY_CASES = {
    "inner_normal": (lambda: _normal_nu(256), 4, None),
    "oblique_cut_refine4": (
        lambda: _oblique_nu(256), (0.4, 2.5, 5.0),
        # preset hom_points/hom_coeffs are ignored by homogeneous_family
        SolverParams(N=256, cut=1.0, refine=4, hom_points=(1.5, 2.0, 3.0),
                     hom_coeffs=(3.0, -2.0, 1.0, 0.5))),
    "k0": (lambda: _normal_nu(128), 0, None),
}


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_homogeneous_family_equals_one_solve_per_member(case, monkeypatch):
    make_nu, points, params = FAMILY_CASES[case]
    nu = make_nu()
    assert measurable_arg(nu).winding[0] == 1
    want = _family_one_solve_per_member(nu, points, params)

    calls = []
    real_solve = rh_solver.solve_rh

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(rh_solver, "solve_rh", counting_solve)
    got = homogeneous_family(nu, points, params)
    assert len(calls) == 1
    assert len(got) == len(want)

    z = _interior(40)
    scales = np.array([0.5, 0.9 * np.exp(0.1j), 0.99])
    for m, r in zip(got, want):
        assert m.params == r.params
        assert m.hom_points == r.hom_points
        assert m.hom_coeffs == r.hom_coeffs
        assert m.notes == r.notes
        assert np.max(np.abs(m.f(z) - r.f(z))) == 0.0
        assert np.max(np.abs(m.f_on_scales(scales, 32)
                             - r.f_on_scales(scales, 32))) == 0.0
    # members share the phi = 0 data but not their notes lists
    assert all(m.g is got[0].g for m in got)
    assert len({id(m.notes) for m in got}) == len(got)


@pytest.mark.parametrize("c0", [0.0, 1.5])
def test_herglotz_term_zero_coefficients_match_dense_sum(c0):
    points = (0.3, 1.7, 2.9, 4.4, 5.5)
    coeffs = (c0, 0.0, 2.5, 0.0, -1.25, 0.0)
    z = np.concatenate([_interior(30), 0.999 * np.exp(1j * np.array([1.0, 3.0]))])
    want = np.full(z.shape, complex(c0))
    for a, c in zip(points, coeffs[1:]):
        zk = np.exp(1j * a)
        want = want + c * 1j * (zk + z) / (zk - z)
    got = herglotz_term(points, coeffs, z)
    assert np.max(np.abs(got - want)) == 0.0


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def test_rejects_complex_data():
    N = 64
    bad = R.BoundaryFunction(samples=np.exp(1j * grid_nodes(N)),
                             kind="complex")
    with pytest.raises(DataError):
        solve_rh(_normal_nu(N), bad)


def test_rejects_grid_mismatch():
    with pytest.raises(ConfigurationError, match="different grids"):
        solve_rh(_normal_nu(64), R.build_boundary_function(1.0, 128))


def test_rejects_duplicate_hom_points():
    with pytest.raises(ConfigurationError, match="duplicate"):
        SolverParams(hom_points=(0.5, 0.5 + 2 * np.pi))


def test_rejects_coeff_length_mismatch():
    with pytest.raises(ConfigurationError, match="hom_coeffs"):
        SolverParams(hom_points=(0.5, 1.5), hom_coeffs=(1.0, 2.0))


def test_rejects_bad_refine():
    with pytest.raises(ConfigurationError, match="refine"):
        SolverParams(refine=3)


def test_rejects_evaluation_outside_disk():
    N = 64
    sol = solve_rh(_normal_nu(N), R.build_boundary_function(1.0, N))
    with pytest.raises(DomainError):
        sol.f(np.array([1.2 + 0j]))


def _fan_cases(step):
    """A solution for each branch of the f assembly: winding 0, 1 (at a
    nonzero cut) and 2, and a homogeneous solution with three poles."""
    N = step.N
    zero = R.build_boundary_function(0.0, N)
    three_poles = SolverParams(N=N, hom_points=default_hom_points(3),
                               hom_coeffs=(0.5, 1.0, -0.7, 0.3))
    return {
        "winding 0": solve_rh(
            R.DirectionField.from_angle("0.3 + 0.2*cos(t)", N), step),
        "winding 1, cut 1": solve_rh(
            R.DirectionField.from_angle("t + 0.4*sin(t)", N, cut=1.0), step),
        "winding 2": solve_rh(R.DirectionField.from_angle("2*t", N), step),
        "homogeneous, 3 poles": solve_rh(_normal_nu(N), zero, three_poles),
    }


def test_f_on_scales_matches_pointwise(neumann_step, step_1024):
    cases = {"neumann step": neumann_step.f_source, **_fan_cases(step_1024)}
    assert [sol.A.winding for sol in cases.values()] == [1, 0, 1, 2, 1]
    assert cases["winding 1, cut 1"].A.cut == 1.0
    scales = np.array([0.4, 0.85 * np.exp(0.1j)])
    V = 64
    z = scales[:, None] * np.exp(2j * np.pi * np.arange(V) / V)[None, :]
    for name, sol in cases.items():
        got = sol.f_on_scales(scales, V)
        want = sol.f(z.ravel()).reshape(2, V)
        assert np.max(np.abs(got - want)) < 1e-10, name
