"""Antiderivative recovery and the harmonic wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rhbvp as R
from rhbvp.direction_solver import antiderivative_from_circle, solve_directional
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
                           SolverParams(N=N, d0=2.5))
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
    same = R.disk_inner_normal(64).field
    assert R.HarmonicSolution(F=hs.F, f_source=hs.f_source, nu=same).nu is same


def test_harmonic_solution_refuses_a_different_nu():
    hs = R.solve_neumann(R.build_boundary_function("cos(theta)", 64))
    with pytest.raises(ConfigurationError, match="f_source"):
        R.HarmonicSolution(F=hs.F, f_source=hs.f_source, nu=_const_nu(64))
