"""Analytic solver: pipeline trace, linearity, homogeneous members."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rhbvp as R
from rhbvp.boundary_data import grid_nodes, measurable_arg
from rhbvp.errors import ConfigurationError, DataError, DomainError, RHBVPError
import rhbvp.rh_solver as rh_solver
from rhbvp.rh_solver import (SolverParams, cr_residual, default_hom_points,
                             herglotz_term, homogeneous_family, index_poles,
                             solve_rh)

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
        # theta - pi up to full turns, reduced to winding 1 plus the
        # constant argument of nu0 = -1
        assert sol.index == 1
        theta = grid_nodes(1024)
        turns = (sol.alpha.samples + theta - (theta - np.pi)) / (2 * np.pi)
        np.testing.assert_allclose(turns, np.round(turns), atol=1e-12)

    def test_schwarz_of_argument_closed_form(self, sol):
        # A = S[alpha0] is the constant alpha0 = +-pi, so exp(-iA) = -1
        got = sol.A(np.array([0.5 + 0j]))[0]
        assert abs(abs(got) - np.pi) < 1e-13 and abs(got.imag) < 1e-13

    def test_conjugate_closed_form_in_weight(self, sol):
        # |weight_boundary| = exp(H) with H = H[alpha0] = 0
        H = np.log(np.abs(sol.weight_boundary.samples))
        np.testing.assert_allclose(H, 0.0, atol=1e-13)
        assert not any("clamped" in n for n in sol.notes)

    def test_weighted_data_is_a_trig_polynomial(self, sol):
        theta = grid_nodes(1024)
        np.testing.assert_allclose(sol.psi.samples, np.cos(theta), atol=1e-13)

    def test_series_coefficients(self, sol):
        # T = S[cos] = z has no Taylor term to cancel: b = 0 and g = T / z
        c = sol.g.coefficients
        assert abs(c[0] - 1.0) < 1e-13
        assert np.max(np.abs(c[1:])) < 1e-13
        assert sol.index_poles == (0.0,)
        assert np.max(np.abs(sol.index_coeffs)) < 1e-13

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
    assert sol.index == 0 and sol.index_poles == ()


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
    # nu = inner normal: the first member is the cut dipole,
    # f = exp(-iA0) * (-i) / (1 - z)^2 = i / (1 - z)^2 with exp(-iA0) = -1
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
    # winding one, rotated off the normal (its cases put the cut at 1.0)
    return R.DirectionField.from_samples(np.exp(1j * (grid_nodes(N) + 0.7)))


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
    assert measurable_arg(nu)[0] == 1
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
            R.DirectionField.from_angle("t + 0.4*sin(t)", N), step,
            SolverParams(N=N, cut=1.0)),
        "winding 2": solve_rh(R.DirectionField.from_angle("2*t", N), step),
        "homogeneous, 3 poles": solve_rh(_normal_nu(N), zero, three_poles),
    }


def test_f_on_scales_matches_pointwise(neumann_step, step_1024):
    cases = {"neumann step": neumann_step.f_source, **_fan_cases(step_1024)}
    assert [sol.index for sol in cases.values()] == [1, 0, 1, 2, 1]
    assert cases["winding 1, cut 1"].index_poles == (1.0,)
    scales = np.array([0.4, 0.85 * np.exp(0.1j)])
    V = 64
    z = scales[:, None] * np.exp(2j * np.pi * np.arange(V) / V)[None, :]
    for name, sol in cases.items():
        got = sol.f_on_scales(scales, V)
        want = sol.f(z.ravel()).reshape(2, V)
        assert np.max(np.abs(got - want)) < 1e-10, name


# ----------------------------------------------------------------------
# index reduction: nu = zeta^w * nu0 for every winding
# ----------------------------------------------------------------------

@pytest.mark.parametrize("expr, want", [
    ("sin(theta)", lambda z: 1j + 0 * z),   # classical: u = -y
    ("1", lambda z: 2 / (1 - z)),           # u = -2 log|1 - z|, flux 2 pi
    ("cos(theta)", lambda z: -1 + 0 * z),
    ("sin(2*theta)", lambda z: 1j * z),
], ids=["sin", "one", "cos", "sin2"])
def test_disk_neumann_closed_forms(expr, want):
    # compatible data get the classical f; phi = 1 gets the paper's
    # nonclassical solution, one pole at the cut
    N = 1024
    sol = solve_rh(_normal_nu(N), R.build_boundary_function(expr, N))
    z = _interior(200)
    assert np.max(np.abs(sol.f(z) - want(z))) < 1e-12
    assert (np.max(np.abs(sol.index_coeffs)) < 1e-15) == (expr != "1")


def _limit_error(sol, nu_of, phi_of, avoid, V=256):
    """max |lim Re(nu f) - phi| over the vertices at least 0.1 from avoid.

    The limit is the two-step Richardson extrapolation of the pairing
    along r_j = 1 - 2^-j, j = 8, 9, 10, which removes its O(1 - r) and
    O((1 - r)^2) terms; the last value alone keeps an O(1 - r) bias.
    """
    theta = 2 * np.pi * np.arange(V) / V
    gap = np.abs(np.angle(np.exp(1j * (theta[:, None]
                                       - np.asarray(avoid)[None, :]))))
    keep = np.all(gap >= 0.1, axis=1)
    r = 1.0 - 2.0 ** -np.arange(8, 11)
    v = (nu_of(theta)[None, :] * sol.f_on_scales(r, V)).real
    r1 = 2 * v[1:] - v[:-1]
    limit = (4 * r1[1] - r1[0]) / 3
    return float(np.max(np.abs(limit - phi_of(theta))[keep]))


def _tilted_nu(w, a=0.3, b=0.2, s=0.0):
    expr = f"{w}*t + {a!r} + {b!r}*cos(t - {s!r})"
    return expr, lambda t: np.exp(1j * (w * t + a + b * np.cos(t - s)))


STEP = [(0.0, np.pi, "1"), (np.pi, 2 * np.pi, "0")]


def test_index_poles_are_equally_spaced_from_the_cut():
    assert index_poles(0, 1.0) == index_poles(-2, 1.0) == ()
    assert index_poles(1, 7.0) == (7.0 - 2 * np.pi,)
    np.testing.assert_allclose(index_poles(2, 1.0),
                               1.0 + 2 * np.pi * np.arange(3) / 3, atol=1e-15)


@pytest.mark.parametrize("data", ["cos", "step"])
@pytest.mark.parametrize("w", range(-3, 4))
def test_every_winding_attains_the_data(w, data):
    N = 4096
    expr, nu_of = _tilted_nu(w)
    phi = R.build_boundary_function("cos(t)" if data == "cos" else STEP, N)
    sol = solve_rh(R.DirectionField.from_angle(expr, N), phi)
    assert sol.index == w and len(sol.index_poles) == max(2 * w - 1, 0)
    assert not sol.notes
    err = _limit_error(sol, nu_of, phi.evaluate,
                       list(phi.jumps) + list(sol.index_poles))
    assert err <= 1e-3


@settings(max_examples=20, deadline=None)
@given(w=st.integers(-3, 3), cut=st.floats(0.0, 2 * np.pi),
       a=st.floats(-np.pi, np.pi), b=st.floats(0.0, 0.8),
       s=st.floats(0.0, 2 * np.pi),
       jumps=st.lists(st.floats(0.3, 2 * np.pi - 0.3), min_size=1,
                      max_size=3, unique=True),
       levels=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       amp=st.floats(-0.5, 0.5))
def test_winding_property(w, cut, a, b, s, jumps, levels, amp):
    # any winding, cut and piecewise data with jumps: either a typed error
    # or a solution whose boundary limit is the data
    N = 4096
    edges = [0.0] + sorted(jumps) + [2 * np.pi]
    spec = [(lo, hi, f"{lev!r} + {amp!r}*cos(t)")
            for lo, hi, lev in zip(edges, edges[1:], levels)]
    phi = R.build_boundary_function(spec, N)
    expr, nu_of = _tilted_nu(w, a, b, s)
    try:
        sol = solve_rh(R.DirectionField.from_angle(expr, N), phi,
                       SolverParams(N=N, cut=cut))
    except RHBVPError:
        return
    assert sol.index_poles == index_poles(w, cut)
    err = _limit_error(sol, nu_of, phi.evaluate,
                       edges + list(sol.index_poles))
    assert err <= 1e-3


@pytest.mark.parametrize("w", [1, 2, 3])
def test_homogeneous_family_for_positive_winding(w):
    # the first member is the cut dipole; every member has a vanishing
    # boundary pairing and the k + 1 members are independent
    N = 1024
    expr, nu_of = _tilted_nu(w)
    points = (0.7, 2.0, 3.5, 5.0)
    members = homogeneous_family(R.DirectionField.from_angle(expr, N), points,
                                 SolverParams(N=N, cut=0.2))
    assert len(members) == len(points) + 1
    avoid = list(points) + list(index_poles(w, 0.2))
    z = _interior(20)
    for m in members:
        scale = np.max(np.abs(m.f(z)))
        err = _limit_error(m, nu_of, np.zeros_like, avoid)
        assert err <= 1e-3 * scale
    rows = [(lambda m: (lambda z: m.f(z).real))(m) for m in members]
    cert = R.dimension_certificate(rows)
    assert cert.rank == len(members) and cert.sigma_min > 1e-3
