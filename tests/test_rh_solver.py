"""Analytic solver: pipeline trace, linearity, homogeneous members."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rhbvp as R
from rhbvp.boundary_data import TWO_PI, grid_nodes, measurable_arg
from rhbvp.boundary_data import jump_limits, jump_sawtooths
from rhbvp.disk_harmonic import (SeriesEvaluator, analytic_coefficients,
                                 conjugate_boundary, sawtooth_coefficients,
                                 unit_powers)
from rhbvp.errors import ConfigurationError, DataError, DomainError, RHBVPError
from rhbvp.jordan_domain import image_inner_normal
import rhbvp.rh_solver as rh_solver
from rhbvp.rh_solver import (SolverParams, default_hom_points,
                             homogeneous_family, index_poles, solve_rh)

RNG = np.random.default_rng(1105)


def _interior(n):
    r = 0.92 * np.sqrt(RNG.uniform(0, 1, n))
    return r * np.exp(2j * np.pi * RNG.uniform(0, 1, n))


def _normal_nu(N):
    return R.disk_inner_normal(N).field


def _const_nu(N):
    return R.DirectionField.from_samples(np.ones(N, dtype=complex))


def _weight_boundary(red):
    """The weight's boundary values exp(-i (alpha + w t) + H) on the N
    nodes: nu times them telescopes to exp(H) > 0."""
    th = red.field.theta
    return np.exp(-1j * (red.alpha.samples + red.index * th)
                  + red.H[::len(red.H) // len(th)])


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
        # |weight| = exp(H) with H = H[alpha0] = 0
        H = np.log(np.abs(_weight_boundary(sol.reduced)))
        np.testing.assert_allclose(H, 0.0, atol=1e-13)
        assert not any("clamped" in n for n in sol.notes)

    def test_weighted_data_is_a_trig_polynomial(self, sol):
        # psi = phi * exp(-H) on the nodes
        theta = grid_nodes(1024)
        psi = sol.phi.samples * np.exp(-sol.reduced.H)
        np.testing.assert_allclose(psi, np.cos(theta), atol=1e-13)

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
        prod = sol.nu.samples * _weight_boundary(sol.reduced)
        assert np.max(np.abs(prod.imag) / np.abs(prod)) < 1e-12

    def test_cauchy_riemann(self, sol):
        # |df/dx + i df/dy| by central differences, relative to |grad f|
        z, h = _interior(20), 1e-5
        fx = (sol.f(z + h) - sol.f(z - h)) / (2 * h)
        fy = (sol.f(z + 1j * h) - sol.f(z - 1j * h)) / (2 * h)
        scale = np.maximum(np.abs(fx) + np.abs(fy), 1.0)
        assert np.max(np.abs(fx + 1j * fy) / scale) < 1e-8


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


def test_homogeneous_family_checks_its_points_once(monkeypatch):
    # each member's params were built by replace(), which re-read all 32
    # points: 35 SolverParams checks for one family
    calls = []
    check = SolverParams.__post_init__
    monkeypatch.setattr(SolverParams, "__post_init__",
                        lambda self: calls.append(1) or check(self))
    members = homogeneous_family(_normal_nu(256), 32)
    assert len(calls) <= 2
    monkeypatch.setattr(SolverParams, "__post_init__", check)
    points = default_hom_points(32)
    for j, m in enumerate(members):
        coeffs = tuple(1.0 if i == j else 0.0 for i in range(33))
        assert m.params == SolverParams(hom_points=points, hom_coeffs=coeffs)
    assert len({id(m.params) for m in members}) == 33


def test_default_hom_points_distinct():
    pts = default_hom_points(7)
    assert len(set(pts)) == 7
    assert all(0 <= a < 2 * np.pi for a in pts)


def _family_one_solve_per_member(nu, points, params):
    """Reference family: one full solve_rh per member with phi = 0."""
    if isinstance(points, int):
        points = default_hom_points(points)
    points = tuple(float(a) % (2 * np.pi) for a in points)
    base = params or SolverParams()
    zero_phi = R.BoundaryFunction(samples=np.zeros(nu.N), kind="real")
    k = len(points)
    members = []
    for j in range(k + 1):
        coeffs = tuple(1.0 if i == j else 0.0 for i in range(k + 1))
        p = SolverParams(cut=base.cut, d0=base.d0,
                         hom_points=points, hom_coeffs=coeffs)
        members.append(solve_rh(nu, zero_phi, p))
    return members


def _oblique_nu(N):
    # winding one, rotated off the normal (its cases put the cut at 1.0)
    return R.DirectionField.from_samples(np.exp(1j * (grid_nodes(N) + 0.7)))


FAMILY_CASES = {  # nu, points, params, REFINE
    "inner_normal": (lambda: _normal_nu(256), 4, None, 8),
    "oblique_cut_refine4": (
        lambda: _oblique_nu(256), (0.4, 2.5, 5.0),
        # preset hom_points/hom_coeffs are ignored by homogeneous_family
        SolverParams(cut=1.0, hom_points=(1.5, 2.0, 3.0),
                     hom_coeffs=(3.0, -2.0, 1.0, 0.5)), 4),
    "k0": (lambda: _normal_nu(128), 0, None, 8),
    "turning_weight": (lambda: R.DirectionField.from_angle(
        "t + pi + 0.3*sin(t)", 256), 4, None, 8),
}


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_homogeneous_family_equals_one_solve_per_member(case, monkeypatch):
    make_nu, points, params, refine = FAMILY_CASES[case]
    nu = make_nu()  # before the patch: the disk normal's reduction is kept
    monkeypatch.setattr(rh_solver, "REFINE", refine)
    assert measurable_arg(nu)[0] == 1
    want = _family_one_solve_per_member(nu, points, params)

    calls = []
    real_reduce = rh_solver.reduce_field

    def counting_reduce(*args, **kwargs):
        calls.append(1)
        return real_reduce(*args, **kwargs)

    monkeypatch.setattr(rh_solver, "reduce_field", counting_reduce)
    got = homogeneous_family(nu, points, params)
    assert len(calls) == 1
    assert len(got) == len(want)
    assert np.array_equal(got[0].g.coefficients, want[0].g.coefficients)

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
    # members share the reduction and the phi = 0 data, not their notes;
    # each forms its own g, equal to the first member's
    assert all(m.reduced is got[0].reduced for m in got)
    assert all(np.array_equal(m.g.coefficients, got[0].g.coefficients)
               for m in got)
    assert len({id(m.notes) for m in got}) == len(got)


def _member_by_own_solve(nu, points, j):
    """Member j of homogeneous_family(nu, points) by its own solve_rh."""
    coeffs = tuple(1.0 if i == j else 0.0 for i in range(len(points) + 1))
    zero_phi = R.BoundaryFunction(samples=np.zeros(nu.N), kind="real")
    return solve_rh(nu, zero_phi, SolverParams(hom_points=points,
                                               hom_coeffs=coeffs))


def test_family_members_fan_as_their_own_solves(monkeypatch):
    N = 1024
    nu = _normal_nu(N)
    points = default_hom_points(32)
    members = homogeneous_family(nu, points)
    calls = []
    real_eval = SeriesEvaluator.eval_on_rays

    def counting_eval(self, scales, V, *blocks):
        calls.append(V)
        return real_eval(self, scales, V, *blocks)

    monkeypatch.setattr(SeriesEvaluator, "eval_on_rays", counting_eval)
    Fs = [R.antiderivative(m) for m in members]
    assert len(calls) == 0  # the normal's A is constant: F from f's series

    # members in interleaved order on two fans of the same scales, and on
    # other scales: a shared g modified in place or a key that ignored V
    # or the scales would show as a nonzero difference
    want = {j: _member_by_own_solve(nu, points, j) for j in (0, 5)}
    scales = np.array([0.5, 0.9 * np.exp(0.1j), 0.99])
    other = np.array([0.3, 0.7])
    for j, V, s in [(0, 32, scales), (5, 32, scales), (0, 32, scales),
                    (0, 64, scales), (5, 64, scales), (0, 64, scales),
                    (5, 32, scales), (5, 32, other), (0, 32, other)]:
        got = members[j].f_on_scales(s, V)
        assert np.max(np.abs(got - want[j].f_on_scales(s, V))) == 0.0
    for j in (0, 5):
        F = R.antiderivative(want[j])
        assert np.max(np.abs(Fs[j].coefficients - F.coefficients)) == 0.0

    # a field whose alpha0 is not constant samples exp(-i A) on the unit
    # circle once for all 33 members, and reads each F off f's series
    t = grid_nodes(N)
    wavy = R.DirectionField.from_samples(np.exp(1j * (t + np.pi + 0.3 * np.sin(t))))
    calls.clear()
    for m in homogeneous_family(wavy, points):
        R.antiderivative(m)
    assert calls == [N]  # E's N samples, once for all 33 members


@pytest.mark.parametrize("turning", [False, True])
def test_every_f_on_scales_call_fans_h_once(monkeypatch, turning):
    # one fan path for every solution, family members included, on the
    # inner normal and on a turning weight
    N = 256
    nu = (R.DirectionField.from_angle("t + pi + 0.3*sin(t)", N) if turning
          else _normal_nu(N))
    phi = R.build_boundary_function("cos(t)", N)
    plain = solve_rh(nu, phi, SolverParams(hom_points=(1.0, 4.0),
                                           hom_coeffs=(0.5, 1.0, -1.0)))
    members = homogeneous_family(nu, 4)
    for sol in [plain] + members:
        sol.reduced.E  # E takes its own samples through eval_on_circle
    calls = []
    real_eval = SeriesEvaluator.eval_on_rays

    def counting_eval(self, scales, V, *blocks):
        calls.append(self)
        return real_eval(self, scales, V, *blocks)

    monkeypatch.setattr(SeriesEvaluator, "eval_on_rays", counting_eval)
    scales = np.array([0.5, 0.9 * np.exp(0.1j), 0.99])
    for sol in [plain] + members + [plain] + members:
        calls.clear()
        sol.f_on_scales(scales, 32)
        assert len(calls) == 1 and calls[0] is sol.h


def _full_A(sol):
    """The solution's A with all of S[alpha0]'s coefficients, its
    exact-zero tail included."""
    A = SeriesEvaluator(sol.A.coefficients)
    A.coefficients = analytic_coefficients(sol.alpha.samples)
    return A


def _f_by_A_values(sol, A_values, g_values, z):
    """exp(-i A) * (g + pole terms) from A's and g's values at z, with
    each pole's 2 beta zeta^-1/(1 - z/zeta) formed as a temporary;
    winding one and no cut dipole (c_0 = 0)."""
    assert sol.index == 1 and not (sol.hom_coeffs and sol.hom_coeffs[0])
    acc = g_values
    for a, beta in zip(sol.hom_points + sol.index_poles,
                       [-x for x in sol.hom_coeffs[1:]] + sol.index_coeffs.tolist()):
        if beta != 0.0:
            acc += 2.0 * beta * np.exp(-1j * 1 * a) / (1.0 - z * np.exp(-1j * a))
    return np.exp(-1j * A_values) * acc


@pytest.fixture(params=["step", "family_member"])
def normal_solution(request, neumann_step, hom_family_cos):
    return {"step": neumann_step.f_source,
            "family_member": hom_family_cos[3]}[request.param]


def test_normal_f_is_the_A_horner_path_bit_for_bit(normal_solution):
    sol = normal_solution
    A = _full_A(sol)
    assert len(sol.A.coefficients) == 1 < len(A.coefficients)
    z = np.concatenate([_interior(200), [0.0, 0.999 * np.exp(0.3j)]])
    want = _f_by_A_values(sol, A._horner(z), sol.g._horner(z), z)
    assert np.array_equal(sol.f(z), want)
    assert sol.f(z[5]) == want[5]


def test_normal_f_on_scales_is_the_A_fan_path(normal_solution):
    sol = normal_solution
    A = _full_A(sol)
    r = 1.0 - 2.0 ** -np.arange(1, 20, dtype=float)
    scales = np.concatenate([r, r * np.exp(0.5j * (1.0 - r))])
    V = 500
    z = scales[:, None] * np.exp(2j * np.pi * np.arange(V) / V)
    want = _f_by_A_values(sol, A.eval_on_rays(scales, V),
                          sol.g.eval_on_rays(scales, V), z)
    got = sol.f_on_scales(scales, V)
    ulp = np.finfo(float).eps
    assert np.all(np.abs(got - want) <= 4 * ulp * np.maximum(1.0, np.abs(want)))


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


@pytest.mark.parametrize("points", [(0.0, 2 * np.pi - 1e-13),
                                    (3.0, 1.0, 3.0 + 1e-13)])
def test_rejects_duplicate_hom_points_across_the_wrap_and_unsorted(points):
    with pytest.raises(ConfigurationError, match="duplicate angle"):
        SolverParams(hom_points=points)


def test_accepts_many_distinct_hom_points():
    assert len(SolverParams(hom_points=default_hom_points(512)).hom_points) == 512
    assert len(SolverParams(hom_points=(0.0, 1e-11, 2 * np.pi - 1e-11)).hom_points) == 3


def test_rejects_coeff_length_mismatch():
    with pytest.raises(ConfigurationError, match="hom_coeffs"):
        SolverParams(hom_points=(0.5, 1.5), hom_coeffs=(1.0, 2.0))


def test_rejects_coeffs_without_points_beyond_c0():
    assert SolverParams(hom_coeffs=(1.5,)).hom_coeffs == (1.5,)
    with pytest.raises(ConfigurationError, match="len\\(hom_points\\) \\+ 1"):
        SolverParams(hom_coeffs=(1.0, 2.0))


@pytest.mark.parametrize("name, value", [
    ("cut", "x"), ("hom_coeffs", 2), ("d0", None), ("hom_points", 3),
    ("hom_points", ["a"]), ("hom_coeffs", [1.0, "b"]), ("d0", "2.5"),
    ("cut", True), ("d0", np.bool_(False)), ("hom_points", [True, "2"]),
    ("hom_points", "12"), ("hom_coeffs", [0.5, np.bool_(True)])])
def test_rejects_wrong_types(name, value):
    with pytest.raises(ConfigurationError,
                       match=f"params.{name} has the wrong type"):
        SolverParams(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("d0", float("nan")), ("cut", float("inf")), ("d0", 10 ** 400),
    ("hom_points", [1.0, -float("inf")]), ("hom_coeffs", [0.0, float("nan")])],
    ids=["d0_nan", "cut_inf", "d0_huge_int", "hom_points_inf", "hom_coeffs_nan"])
def test_rejects_non_finite_numbers(name, value):
    with pytest.raises(ConfigurationError, match=f"params.{name} must be finite"):
        SolverParams(**{name: value})


def test_converts_values_to_field_types():
    p = SolverParams(cut=1, d0=np.float32(2.5), hom_points=[np.int64(7)],
                     hom_coeffs=(0, np.float64(1)))
    assert (p.cut, p.d0) == (1.0, 2.5)
    assert type(p.cut) is float and type(p.d0) is float
    assert p.hom_points == (7.0 - 2 * np.pi,) and p.hom_coeffs == (0.0, 1.0)


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
    three_poles = SolverParams(hom_points=default_hom_points(3),
                               hom_coeffs=(0.5, 1.0, -0.7, 0.3))
    return {
        "winding 0": solve_rh(
            R.DirectionField.from_angle("0.3 + 0.2*cos(t)", N), step),
        "winding 1, cut 1": solve_rh(
            R.DirectionField.from_angle("t + 0.4*sin(t)", N), step,
            SolverParams(cut=1.0)),
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
                       SolverParams(cut=cut))
    except RHBVPError:
        return
    assert sol.index_poles == index_poles(w, cut)
    err = _limit_error(sol, nu_of, phi.evaluate,
                       edges + list(sol.index_poles))
    assert err <= 1e-3


@pytest.mark.parametrize("w", range(-2, 4))
def test_homogeneous_family_for_every_winding(w):
    # the first member is the constant for w <= 0 and the cut dipole for
    # w >= 1; every member has a vanishing boundary pairing and the k + 1
    # members are independent
    N = 1024
    expr, nu_of = _tilted_nu(w)
    points = (0.7, 2.0, 3.5, 5.0)
    members = homogeneous_family(R.DirectionField.from_angle(expr, N), points,
                                 SolverParams(cut=0.2))
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


# ----------------------------------------------------------------------
# the pole sum: Herglotz and index poles as 2 beta zeta^-m / (1 - z/zeta)
# ----------------------------------------------------------------------

POLE_POINTS = (0.3, 1.7, 2.9, 4.4, 5.5)
POLE_COEFFS = {"sparse": (1.5, 0.0, 2.5, 0.0, -1.25, 0.0),
               "dense": (1.5, 0.5, 2.5, -0.7, -1.25, 0.3)}


@pytest.mark.parametrize("w", [-1, 0])
def test_index_coeffs_empty_without_index_poles(w):
    sol = solve_rh(R.DirectionField.from_angle(f"{w}*t + 0.3 + 0.2*cos(t)", 64),
                   R.build_boundary_function("cos(t)", 64))
    assert sol.index == w and sol.index_coeffs.shape == (0,)


@pytest.mark.parametrize("coeffs", sorted(POLE_COEFFS))
@pytest.mark.parametrize("w", [-2, -1, 0])
def test_pole_sum_matches_the_herglotz_form(w, coeffs):
    # dense reference f = z^k exp(-i A) (T + i p), w = -k, with
    # p = c_0 + sum_j c_j i (zeta_j + z)/(zeta_j - z) summed over every j
    N = 1024
    expr, _ = _tilted_nu(w)
    c = POLE_COEFFS[coeffs]
    sol = solve_rh(R.DirectionField.from_angle(expr, N),
                   R.build_boundary_function("cos(2*t) + 0.3", N),
                   SolverParams(hom_points=POLE_POINTS, hom_coeffs=c))

    def want(z):
        p = np.full(z.shape, complex(c[0]))
        for a, cj in zip(POLE_POINTS, c[1:]):
            zeta = np.exp(1j * a)
            p = p + cj * 1j * (zeta + z) / (zeta - z)
        return np.exp(-1j * sol.A(z)) * (sol.g(z) + z ** -w * 1j * p)

    # on a pole's ray at 0.999 both forms round 1 - z/zeta to about
    # eps / 1e-3 relative, so the pole rays are probed at 0.99
    z = np.concatenate([_interior(40), 0.99 * np.exp(1j * np.array(POLE_POINTS)),
                        0.999 * np.exp(2j * np.pi * np.arange(97) / 97)])
    ref = want(z)
    assert np.max(np.abs(sol.f(z) - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-13
    scales = np.array([0.4, 0.9 * np.exp(0.1j), 0.999])
    V = 64
    zs = scales[:, None] * np.exp(2j * np.pi * np.arange(V) / V)[None, :]
    ref = want(zs)
    got = sol.f_on_scales(scales, V)
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-13


@pytest.mark.parametrize("w", [-1, 0, 1, 2])
def test_pole_sum_is_linear_in_the_coefficients(w):
    # f of the full coefficient vector is sum_j c_j f_j over the family
    # members, which skip their zero terms
    N = 1024
    c = POLE_COEFFS["dense"]
    expr, _ = _tilted_nu(w)
    nu = R.DirectionField.from_angle(expr, N)
    zero = R.BoundaryFunction(samples=np.zeros(N), kind="real")
    full = solve_rh(nu, zero, SolverParams(hom_points=POLE_POINTS, hom_coeffs=c))
    members = homogeneous_family(nu, POLE_POINTS)
    z = np.concatenate([_interior(40),
                        0.999 * np.exp(1j * np.array(POLE_POINTS))])
    want = sum(cj * m.f(z) for cj, m in zip(c, members))
    got = full.f(z)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-13


@pytest.mark.parametrize("w", range(-2, 4))
def test_taylor_coefficients_sum_to_f(w):
    # a constant direction of winding w, Herglotz poles, c_0 != 0 and a
    # cut off 0: the series of f's first K coefficients is f at |z| <= 0.45
    N = 256
    sol = solve_rh(R.DirectionField.from_angle(f"{w}*t - 1", N),
                   R.build_boundary_function("cos(t) + 0.3*sin(2*t)", N),
                   SolverParams(cut=0.4, hom_points=(1.0, 2.5, 4.0),
                                hom_coeffs=(0.5, 1.0, -0.7, 0.3)))
    assert sol.index == w and len(sol.A.coefficients) == 1
    K = 120
    f_n, a, b = sol.taylor_coefficients(K)
    z = np.concatenate([0.45 * _interior(200) / 0.92,
                        0.45 * np.exp(2j * np.pi * np.arange(64) / 64)])
    got = np.polynomial.polynomial.polyval(z, f_n)
    assert np.max(np.abs(got - sol.f(z))) <= 1e-14
    assert np.all(np.abs(f_n) <= a + b * np.arange(K))
    assert b == (0.0 if w <= 0 else 0.5)


def test_taylor_coefficients_sum_to_f_under_a_turning_weight():
    # E has more terms than one: Herglotz poles, c_0 != 0 (the cut
    # dipole for w > 0) and a cut off 0, as for a constant direction
    N = 256
    z = np.concatenate([0.5 * _interior(200) / 0.92,
                        0.5 * np.exp(2j * np.pi * np.arange(64) / 64)])
    for w in range(-2, 4):
        sol = solve_rh(R.DirectionField.from_angle(_tilted_nu(w)[0], N),
                       R.build_boundary_function(THREE_PIECES, N),
                       SolverParams(cut=0.4, hom_points=(1.0, 2.5, 4.0),
                                    hom_coeffs=(0.5, 1.0, -0.7, 0.3)))
        assert sol.index == w and len(sol.reduced.E.coefficients) > 1
        K = 120
        f_n, a, b = sol.taylor_coefficients(K)
        got = np.polynomial.polynomial.polyval(z, f_n)
        assert np.max(np.abs(got - sol.f(z))) <= 1e-14 * max(
            1.0, np.max(np.abs(f_n)))
        assert np.all(np.abs(f_n) <= a + b * np.arange(K))
        assert (b > 0.0) == (w > 0)


# ----------------------------------------------------------------------
# two stages: a reduction of nu serves every phi
# ----------------------------------------------------------------------

def _fresh_normal(N):
    return R.DirectionField.from_samples(-np.exp(1j * grid_nodes(N)))


def _assert_same_solution(got, want):
    """F and g bitwise equal, for HarmonicSolutions."""
    assert np.array_equal(got.F.coefficients, want.F.coefficients)
    assert np.array_equal(got.f_source.g.coefficients,
                          want.f_source.g.coefficients)


@pytest.mark.parametrize("N", [256, 1024])
def test_memoized_disk_normal_equals_a_fresh_one(N):
    R.solve_neumann(R.build_boundary_function("cos(t) + 0.5", N))
    phi = R.build_boundary_function(STEP, N)
    want = R.HarmonicSolution(f_source=solve_rh(_fresh_normal(N), phi))
    _assert_same_solution(R.solve_neumann(phi), want)


def test_shared_reduction_equals_fresh_solves():
    N = 1024
    expr, _ = _tilted_nu(1)
    red = rh_solver.reduce_field(R.DirectionField.from_angle(expr, N))
    red.solve(R.build_boundary_function("cos(3*t)", N))
    phi = R.build_boundary_function(STEP, N)
    want = solve_rh(R.DirectionField.from_angle(expr, N), phi)
    _assert_same_solution(R.HarmonicSolution(f_source=red.solve(phi)),
                          R.HarmonicSolution(f_source=want))


def test_transplant_equals_a_solve_on_a_fresh_normal(ellipse_map, step_1024):
    got = R.transplant_solve(ellipse_map, step_1024)
    fresh = solve_rh(image_inner_normal(ellipse_map), step_1024)
    _assert_same_solution(got, R.HarmonicSolution(f_source=fresh,
                                                  conformal_map=ellipse_map))


def test_family_on_the_memoized_normal_equals_own_solves():
    N = 1024
    points = default_hom_points(6)
    members = homogeneous_family(R.disk_inner_normal(N).field, points)
    for j in (0, 4):
        want = _member_by_own_solve(_fresh_normal(N), points, j)
        _assert_same_solution(R.HarmonicSolution(f_source=members[j]),
                              R.HarmonicSolution(f_source=want))


def test_one_reduction_serves_a_family_and_neumann_solves(monkeypatch):
    N = 256
    R.disk_inner_normal(N)  # warm-up
    calls = []
    real_arg = rh_solver.measurable_arg

    def counting_arg(nu):
        calls.append(nu)
        return real_arg(nu)

    monkeypatch.setattr(rh_solver, "measurable_arg", counting_arg)
    homogeneous_family(R.disk_inner_normal(N).field, 4)
    for k in range(32):
        R.solve_neumann(R.build_boundary_function(f"cos({k}*t + 0.1)", N))
    assert len(calls) == 1


# ----------------------------------------------------------------------
# the phi stage on N nodes: jumps of phi as closed-form sawtooth series
# ----------------------------------------------------------------------

@pytest.mark.parametrize("declared", [None, "right", "left"],
                         ids=["pieces", "declared", "declared_left"])
def test_piecewise_constant_g_is_the_series_of_its_jumps(declared):
    # psi = phi on the disk normal; minus its sawtooths it is the constant
    # mean, so T = mean + sum_c -i J_c e^{-inc}/(pi n) and g = T[1:].  The
    # jumps are junctions of pieces, or declared inside one callable that
    # takes the right or the left value at the jump itself.
    N = 256
    edges = [0.0, 0.9, 2.5, 4.1, TWO_PI]
    levels = [1.0, -0.5, 0.25, 2.0]
    phi = (R.build_boundary_function(
        lambda t: np.take(levels, np.searchsorted(edges[1:-1], t, declared)),
        N, jumps=edges[1:-1]) if declared else
        R.build_boundary_function(list(zip(edges, edges[1:], levels)), N))
    assert phi.jumps == tuple(edges[:-1])
    sol = R.solve_neumann(phi).f_source
    n = np.arange(1, rh_solver.REFINE * N // 2)
    want = sum(-1j * (v - u) * np.exp(-1j * n * c) / (np.pi * n)
               for c, u, v in zip(edges, np.roll(levels, 1), levels))
    np.testing.assert_allclose(sol.g.coefficients, want, rtol=0, atol=1e-14)
    mean = np.dot(levels, np.diff(edges)) / TWO_PI
    assert abs(sol.bracket(1)[0] - mean) <= 1e-14


def test_three_piece_data_off_the_nodes_against_a_fine_reference():
    # junctions at 1.0 and 3.7, neither on a node; phi is C^1 across the
    # wrap at 0.  nu = 1, so g = T = S[phi].
    spec = [(0.0, 1.0, "cos(t) + 0.5"), (1.0, 3.7, "-0.3*sin(3*t)"),
            (3.7, TWO_PI, "1 + 0.5*cos(2*t)")]
    N, V, r = 1024, 256, 1.0 - 2.0 ** -7
    phi = R.build_boundary_function(spec, N)
    assert phi.jumps == (1.0, 3.7)
    sol = solve_rh(_const_nu(N), phi)
    ref = SeriesEvaluator(analytic_coefficients(
        R.build_boundary_function(spec, 2 ** 18).samples))
    theta = TWO_PI * np.arange(V) / V
    gap = np.abs(np.angle(np.exp(1j * (theta[:, None] - np.array(phi.jumps)))))
    keep = np.all(gap >= 1e-2, axis=1)
    err = np.abs(sol.g.eval_on_circle(r, V).real - ref.eval_on_circle(r, V).real)
    assert np.max(err[keep]) <= 1e-4, np.max(err[keep])


def test_a_declared_jump_with_no_jump_solves_as_the_same_data():
    N = 64
    phi = R.build_boundary_function("cos(t)", N, jumps=(1.0,))
    assert phi.jumps == (1.0,)
    plain = R.build_boundary_function("cos(t)", N)
    for nu in (_normal_nu(N), _const_nu(N)):
        np.testing.assert_array_equal(solve_rh(nu, phi).g.coefficients,
                                      solve_rh(nu, plain).g.coefficients)


def test_an_infinite_limit_at_a_junction_stays_in_the_sampled_rest():
    # log(2 - t) is finite at every node but -inf at the junction 2: that
    # jump is left to the N samples, as a jump of sampled data is, and the
    # wrap's jump log(2) at 0 keeps its series.  Against 2^18 samples the
    # first 16 terms are off by 2.3e-3 (3.5e-3 on the refined grid).
    N = 256
    spec = [(0.0, 2.0, "log(2 - t)"), (2.0, TWO_PI, "0")]
    with np.errstate(divide="ignore"):
        phi = R.build_boundary_function(spec, N)
        ref = analytic_coefficients(
            R.build_boundary_function(spec, 2 ** 18).samples)
    assert phi.jumps == (0.0, 2.0)
    g = solve_rh(_const_nu(N), phi).g.coefficients
    assert np.all(np.isfinite(g))
    n = np.arange(N // 2, rh_solver.REFINE * N // 2)
    np.testing.assert_allclose(g[N // 2:], -1j * np.log(2.0) / (np.pi * n),
                               rtol=0, atol=1e-15)
    assert np.max(np.abs(g[:16] - ref[:16])) <= 3e-3


def test_jumps_under_a_tilted_field_take_exp_minus_H_at_the_jump():
    # psi jumps by J exp(-H(c)); with any other size the rest keeps a jump
    # and f converges like 1/N (1.6e-3 here on the 8N grid), not 1/N^2
    spec = [(0.0, 1.0, "cos(t) + 0.5"), (1.0, 3.7, "-0.3*sin(3*t)"),
            (3.7, TWO_PI, "1 + 0.5*cos(2*t)")]
    z = 0.9 * np.exp(2j * np.pi * np.arange(64) / 64)
    f = [solve_rh(R.DirectionField.from_angle("t + pi + 0.3*sin(t - 1)", N),
                  R.build_boundary_function(spec, N)).f(z) for N in (1024, 16384)]
    assert np.max(np.abs(f[0] - f[1])) <= 1e-4


def test_field_with_alpha_jumps_keeps_the_refined_construction():
    # winding one; alpha jumps by 0.8 at 2.0 and back at 0, both declared
    N, L = 256, rh_solver.REFINE * 256
    theta = grid_nodes(N)
    beta = theta + np.where(theta < 2.0, 0.3, 1.1)
    red = rh_solver.reduce_field(R.DirectionField.from_samples(
        np.exp(1j * beta), jumps=(0.0, 2.0)))
    assert red.alpha.jumps == (0.0, 2.0) and len(red.H) == L
    phi = R.build_boundary_function(STEP, N)
    sol = red.solve(phi)
    H = np.clip(conjugate_boundary(red.alpha, L).samples,
                -rh_solver.CLAMP_LOG, rh_solver.CLAMP_LOG)
    psi = phi.resample(L).samples * np.exp(-H)
    np.testing.assert_array_equal(sol.g.coefficients,
                                  analytic_coefficients(psi)[sol.index:])
    np.testing.assert_array_equal(red.H, H)  # psi formed on the refined grid


@pytest.mark.parametrize("make_nu", [
    lambda N: R.disk_inner_normal(N).field,
    lambda N: R.DirectionField.from_angle("t + pi + 0.3*sin(t - 1)", N),
    lambda N: R.DirectionField.from_angle(_tilted_nu(-1)[0], N)],
    ids=["normal", "oblique", "winding_-1"])
def test_smooth_field_keeps_H_on_the_nodes(make_nu):
    N = 256
    red = rh_solver.reduce_field(make_nu(N))
    assert red.alpha.jumps == () and len(red.H) == N
    sol = red.solve(R.build_boundary_function(STEP, N))
    assert len(sol.rest) == N // 2  # psi formed on the N nodes
    assert len(sol.g.coefficients) == rh_solver.REFINE * N // 2 - red.index


# ----------------------------------------------------------------------
# the jump series is formed where f is first evaluated
# ----------------------------------------------------------------------

def _eager_T(red, phi):
    """T = S[psi] formed whole at the solve: the jumps' series out to
    REFINE * N / 2 terms, with the one-sided limits found again from the
    pieces, plus the rest's first N / 2, or psi's coefficients on the
    refined grid."""
    N = red.field.N
    psi = phi.resample(len(red.H)).samples * np.exp(-red.H)
    if len(psi) > N:
        return analytic_coefficients(psi)
    rest, c, J = psi, np.zeros(0), np.zeros(0)
    if phi.pieces is not None and phi.jumps:
        c, left, right = jump_limits(phi.pieces, phi.samples, phi.jumps)
        H_c = (unit_powers(c, len(red.A.coefficients))
               * red.A.coefficients).sum(axis=1).imag
        clamp = rh_solver.CLAMP_LOG
        J = (right - left) * np.exp(-np.clip(H_c, -clamp, clamp))
        c, J = c[np.isfinite(J)], J[np.isfinite(J)]
        rest = psi - jump_sawtooths(N, c, J)
    T = sawtooth_coefficients(c, J, rh_solver.REFINE * N // 2)
    T[:N // 2] += analytic_coefficients(rest)
    return T


def _eager(sol):
    """A copy of sol whose g and bracket read _eager_T."""
    T = _eager_T(sol.reduced, sol.phi)
    w = sol.index
    ref = replace(sol)
    ref.__dict__["g"] = SeriesEvaluator(
        np.concatenate([np.zeros(-w), T]) if w < 0 else T[w:])
    ref.bracket = lambda n: np.concatenate([T, np.zeros(max(n - len(T), 0))])[:n]
    return ref


THREE_PIECES = [(0.0, 1.0, "cos(t) + 0.5"), (1.0, 3.7, "-0.3*sin(3*t)"),
                (3.7, TWO_PI, "1 + 0.5*cos(2*t)")]


def _pinned_solutions():
    N = 256
    poles = SolverParams(cut=0.4, hom_points=(1.0, 2.5, 4.0),
                         hom_coeffs=(0.5, 1.0, -0.7, 0.3))
    phi = R.build_boundary_function(THREE_PIECES, N)
    for w in (-1, 0, 1, 2):
        for kind, expr in (("constant", f"{w}*t - 1"),
                           ("turning", _tilted_nu(w)[0])):
            yield f"w{w}_{kind}", lambda e=expr: solve_rh(
                R.DirectionField.from_angle(e, N), phi, poles)
    theta = grid_nodes(N)
    beta = theta + np.where(theta < 2.0, 0.3, 1.1)
    yield "alpha_jumps", lambda: solve_rh(R.DirectionField.from_samples(
        np.exp(1j * beta), jumps=(0.0, 2.0)), R.build_boundary_function(STEP, N))
    yield "family_member", lambda: homogeneous_family(_normal_nu(N), 3)[2]
    # Neumann data as the family_solve benchmark draws them (three pieces
    # a0 + a cos kt + b sin kt, and a sum of two such), a jump declared
    # inside a piece and a one-sided limit that is infinite
    rng = np.random.default_rng(1)
    drawn = [_family_style_pieces(rng) for _ in range(2)]
    specs = {"drawn_1": (drawn[0], ()), "drawn_2": (drawn[1], ()),
             "drawn_sum": (_sum_of_pieces(*drawn), ()),
             "declared_jump": ("0.5*abs(t-2)/(t-2)", (2.0,)),
             "infinite_limit": ([(0.0, 2.0, "log(2 - t)"), (2.0, TWO_PI, "0")], ())}
    for name, (spec, jumps) in specs.items():
        yield f"neumann_{name}", lambda spec=spec, jumps=jumps: R.solve_neumann(
            R.build_boundary_function(spec, 4 * N, jumps=jumps)).f_source


def _family_style_pieces(rng):
    while True:
        cuts = np.sort(rng.uniform(0.3, TWO_PI - 0.3, 2))
        if cuts[1] - cuts[0] > 0.4:
            break
    edges = [0.0, *cuts.tolist(), TWO_PI]
    return [(lo, hi, f"{rng.uniform(-1, 1)!r} + {rng.uniform(-0.5, 0.5)!r}"
             f"*cos({k}*t) + {rng.uniform(-0.5, 0.5)!r}*sin({k}*t)")
            for lo, hi, k in zip(edges, edges[1:], rng.integers(1, 4, 3))]


def _sum_of_pieces(p, q):
    edges = sorted({e for lo, hi, _ in p + q for e in (lo, hi)})

    def expr(pieces, t):
        return next(e for lo, hi, e in pieces if lo <= t < hi)

    return [(lo, hi, f"({expr(p, lo)}) + ({expr(q, lo)})")
            for lo, hi in zip(edges, edges[1:])]


PINNED = dict(_pinned_solutions())


@pytest.mark.parametrize("case", sorted(PINNED))
def test_lazy_g_equals_the_eager_construction_bit_for_bit(case):
    sol = PINNED[case]()
    ref = _eager(sol)
    L = rh_solver.REFINE * sol.N // 2
    if len(sol.A.coefficients) == 1:
        for K in (94, 188):
            assert np.array_equal(sol.taylor_coefficients(K)[0],
                                  ref.taylor_coefficients(K)[0])
        assert "g" not in sol.__dict__  # F's terms formed no g
    for n in (0, 1, 2, 94, L, L + 3):
        assert _same_bits(sol.bracket(n), ref.bracket(n))
    assert _same_bits(sol.index_coeffs, ref.index_coeffs)
    z = 0.97 * np.exp(2j * np.pi * np.arange(64) / 64 + 0.1j)
    assert np.array_equal(sol.f(z), ref.f(z))
    assert _same_bits(sol.g.coefficients, ref.g.coefficients)
    scales = np.array([0.5, 0.9 * np.exp(0.1j), 0.97])
    assert _same_bits(sol.f_on_scales(scales, 64), ref.f_on_scales(scales, 64))
    assert _same_bits(R.antiderivative(sol).coefficients,
                      R.antiderivative(ref).coefficients)


def _same_bits(a, b):  # signed zeros too
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.uint8), b.view(np.uint8)))


def test_T0_is_read_without_a_jump_series(sawtooth_lengths):
    # T_0 of every jump's series is 0 (Eckhoff): the b_j of a Neumann
    # solve and F's terms form no series to read it; bracket(2) does
    N = 512
    L = rh_solver.REFINE * N // 2
    phi = R.build_boundary_function(THREE_PIECES, N)
    sol = R.solve_neumann(phi).f_source
    assert sol.index == 1 and len(sol.jump_angles) == 2
    sol.index_coeffs
    R.antiderivative(sol)
    assert sawtooth_lengths and all(n > 1 for n, _ in sawtooth_lengths)
    assert _same_bits(sol.bracket(1), sol.bracket(L)[:1])
    assert _same_bits(sol.bracket(0), sol.bracket(L)[:0])
    two = solve_rh(R.DirectionField.from_angle(_tilted_nu(2)[0], N), phi)
    assert two.index == 2
    sawtooth_lengths.clear()
    two.index_coeffs
    assert sawtooth_lengths == [(2, L)]


def test_the_jump_series_is_formed_whole_once_where_f_is_evaluated(
        sawtooth_lengths):
    hs = R.solve_neumann(R.build_boundary_function(STEP, 512))
    R.HarmonicSolution(f_source=hs.f_source)
    hs.u(_interior(50))
    R.dimension_certificate([hs.u, lambda z: z.real])
    assert sawtooth_lengths and all(n < L for n, L in sawtooth_lengths)
    sawtooth_lengths.clear()
    R.verify_solution(hs, V=64)
    assert sum(n == L for n, L in sawtooth_lengths) == 1


# ----------------------------------------------------------------------
# one series for f under every weight
# ----------------------------------------------------------------------

def _pointwise_f(sol, A_values, g_values, z):
    """f = exp(-i A) * (g + pole terms) with exp(-i A) taken per point
    from A's values, the pole terms written out from the Herglotz and
    index coefficients: the construction before E was one series."""
    w = sol.index
    m, k = max(w, 0), max(-w, 0)
    c = sol.hom_coeffs or (0.0,) * (len(sol.hom_points) + 1)
    P = np.full(z.shape, 0j if w > 0 else 1j * c[0] + sum(c[1:]))
    for a, beta in zip(sol.hom_points + sol.index_poles,
                       [-x for x in c[1:]] + sol.index_coeffs.tolist()):
        P = P + 2.0 * beta * np.exp(-1j * m * a) / (1.0 - z * np.exp(-1j * a))
    if w > 0 and c[0]:
        q = z * np.exp(-1j * sol.params.cut)
        P = P - 1j * c[0] * np.exp(-1j * w * sol.params.cut) * (
            w - (w - 1) * q) / (1.0 - q) ** 2
    return np.exp(-1j * A_values) * (g_values + z ** k * P)


def _series_cases():
    N = 256
    dipole = SolverParams(cut=0.4, hom_points=(1.0, 2.5, 4.0),
                          hom_coeffs=(0.5, 1.0, -0.7, 0.3))
    phi = R.build_boundary_function(THREE_PIECES, N)
    for w in (-1, 0, 1, 2):
        for name, params in (("plain", None), ("poles", dipole)):
            yield f"w{w}_{name}", lambda w=w, p=params: solve_rh(
                R.DirectionField.from_angle(_tilted_nu(w, 0.3, 0.4, 1.0)[0], N),
                phi, p)
    for n in (256, 1024):  # the field of the refined-construction test
        theta = grid_nodes(n)
        beta = theta + np.where(theta < 2.0, 0.3, 1.1)
        yield f"alpha_jumps_{n}", lambda n=n, b=beta: solve_rh(
            R.DirectionField.from_samples(np.exp(1j * b), jumps=(0.0, 2.0)),
            R.build_boundary_function(STEP, n))
    wavy = R.DirectionField.from_angle("t + pi + 0.3*sin(t)", N)
    yield "family_member", lambda: homogeneous_family(wavy, 4)[3]
    yield "family_dipole", lambda: homogeneous_family(wavy, 4)[0]


SERIES_CASES = dict(_series_cases())


@pytest.mark.parametrize("case", sorted(SERIES_CASES))
def test_f_is_one_series_under_a_turning_weight(case):
    sol = SERIES_CASES[case]()
    assert len(sol.reduced.E.coefficients) > 1
    z = np.concatenate([_interior(200) * 0.97 / 0.92,
                        0.97 * np.exp(2j * np.pi * np.arange(97) / 97)])
    want = _pointwise_f(sol, sol.A._horner(z), sol.g._horner(z), z)
    got = sol.f(z)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-13
    # the verifier's fans: Stolz scales and the radial table's depths
    r = 1.0 - 2.0 ** -np.arange(1, 12, dtype=float)
    scales = np.concatenate([r, r * np.exp(0.5j * (1.0 - r))])
    V = 500
    zs = scales[:, None] * np.exp(2j * np.pi * np.arange(V) / V)
    want = _pointwise_f(sol, sol.A.eval_on_rays(scales, V),
                        sol.g.eval_on_rays(scales, V), zs)
    got = sol.f_on_scales(scales, V)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-13
    assert np.array_equal(sol.f_on_scales(scales, V, sol.h.fold(V)), got)


def test_E_is_the_series_of_the_weight():
    # E against the Taylor recurrence of exp(-i (A - A_0)), and against
    # exp(-i A) itself at r = 0.999
    N = 1024
    red = rh_solver.reduce_field(R.DirectionField.from_angle(
        "t + pi + 0.4*sin(t - 1)", N))
    e = red.E.coefficients
    assert e[0] == 1.0 and 1 < len(e) < 40 and not e.flags.writeable
    b = -1j * red.A.coefficients
    b[0] = 0.0
    w = np.zeros(len(e) + 20, dtype=complex)
    w[0] = 1.0
    for n in range(1, len(w)):
        j = np.arange(1, min(n, len(b) - 1) + 1)
        w[n] = np.dot(j * b[j], w[n - j]) / n
    assert np.max(np.abs(e - w[:len(e)])) <= 1e-15
    assert np.linalg.norm(w[len(e):]) <= 16 * np.finfo(float).eps * np.linalg.norm(w)
    z = 0.999 * np.exp(2j * np.pi * np.arange(512) / 512)
    assert np.max(np.abs(red.E0 * red.E._horner(z)
                         - np.exp(-1j * red.A._horner(z)))) <= 1e-14
    assert red.E is red.E  # formed once per reduction


@pytest.mark.parametrize("N", [256, 1024])
@pytest.mark.parametrize("expr", ["t + 0.7", "-t + 0.7", "-2*t + 0.7"])
def test_a_constant_direction_with_a_noisy_A_has_a_one_term_E(expr, N,
                                                               monkeypatch):
    # A keeps alpha0's rounding noise, E does not: f takes no fan of it
    # and F is read off f's exact series
    nu = R.DirectionField.from_angle(expr, N)
    sol = solve_rh(nu, R.build_boundary_function(THREE_PIECES, N))
    assert len(sol.A.coefficients) > 1
    assert np.array_equal(sol.reduced.E.coefficients, [1.0])
    assert sol.h is sol.g
    monkeypatch.setattr(SeriesEvaluator, "eval_on_rays", None)
    F = R.antiderivative(sol)  # no sampled f: eval_on_rays is gone
    z = 0.5 * _interior(100) / 0.92
    assert np.max(np.abs(F.derivative()(z) - sol.f(z))) <= 1e-13


@pytest.mark.parametrize("angle", [0.0, 1.0, 4.5])
@pytest.mark.parametrize("L", [1, 2, 13])
def test_divided_splits_a_pole_against_a_polynomial(L, angle):
    e = RNG.normal(size=L) + 1j * RNG.normal(size=L)
    e[0] = 1.0
    value, Q = rh_solver._divided(e, angle)
    zeta = np.exp(1j * angle)
    assert len(Q) == L - 1
    assert abs(value - np.polynomial.polynomial.polyval(zeta, e)) <= 1e-14 * L
    z = _interior(100)
    E = np.polynomial.polynomial.polyval(z, e)
    direct = (E - value) / (1.0 - z / zeta)
    got = np.polynomial.polynomial.polyval(z, Q) if L > 1 else 0.0
    assert np.max(np.abs(got - direct)) <= 1e-13 * L


@pytest.mark.parametrize("make_nu", [
    lambda N: R.disk_inner_normal(N).field,
    lambda N: R.DirectionField.from_angle("t + pi + 0.3*sin(t - 1)", N)],
    ids=["normal", "oblique"])
def test_a_jump_free_bracket_forms_no_jump_series(make_nu, sawtooth_lengths):
    # T is the rest's terms, zero-padded, bit for bit (signed zeros
    # included) the parent's sum with an empty jump series
    N = 512
    L = rh_solver.REFINE * N // 2
    sol = solve_rh(make_nu(N), R.build_boundary_function(
        "cos(t) + 0.3*sin(2*t) + 1e-3*cos(200*t)", N))
    assert len(sol.jump_angles) == 0

    def parent(n):
        T = sawtooth_coefficients(np.zeros(0), np.zeros(0), L, min(n, L))
        T[:min(n, len(sol.rest))] += sol.rest[:n]
        return T if n <= L else np.pad(T, (0, n - L))

    for n in (0, 1, 2, 94, N // 2, L, L + 3):
        got, want = sol.bracket(n), parent(n)
        assert got.dtype == want.dtype and np.array_equal(
            got.view(np.uint64), want.view(np.uint64))
    T, w = parent(L), sol.index
    want = SeriesEvaluator(T[w:]).coefficients
    assert np.array_equal(sol.g.coefficients.view(np.uint64), want.view(np.uint64))
    assert sawtooth_lengths == []
