"""Conformal maps of star-like domains and solution transplants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rhbvp as R
from rhbvp.boundary_data import grid_nodes
from rhbvp.errors import (ConfigurationError, ConvergenceDomainError,
                          ConvergenceError, DataError, PointQueryError)
from rhbvp.disk_harmonic import (SeriesEvaluator, analytic_coefficients,
                                 exp_series)
from rhbvp.jordan_domain import (OMEGA_TAIL_TOL, image_inner_normal, pullback,
                                 theodorsen_map, transplant_neumann)


ELLIPSE_RHO = "0.8/sqrt(1 - (1 - 0.8^2)*cos(a)^2)"
STAR3_RHO = "1 + 0.2*cos(3*a)"


# ----------------------------------------------------------------------
# map construction
# ----------------------------------------------------------------------

def test_identity_map():
    cmap = theodorsen_map(1.0, N=256)
    assert cmap.iterations == 1
    c = cmap.omega.coefficients
    assert abs(c[1] - 1.0) < 1e-14
    assert np.max(np.abs(np.delete(c, 1))) < 1e-14
    z = np.array([0.3 + 0.4j, -0.2j])
    np.testing.assert_allclose(cmap.omega(z), z, atol=1e-13)


def test_scaled_disk_map_exact():
    cmap = theodorsen_map(2.0, N=256)
    z = np.array([0.3 + 0.4j, 0.5, -0.1 + 0.2j])
    np.testing.assert_allclose(cmap.omega(z), 2 * z, atol=1e-13)
    assert cmap.residual < 1e-13


def test_ellipse_map(ellipse_map):
    # rho(a) = 0.8/sqrt(1 - 0.36 cos^2 a): semi-axes 1 and 0.8
    assert ellipse_map.residual < 1e-12
    assert 0.2 < ellipse_map.slope < 0.25
    assert 10 < ellipse_map.iterations < 40
    wb = ellipse_map.boundary_nodes()
    assert abs(np.max(np.abs(wb.real)) - 1.0) < 1e-6
    assert abs(np.max(np.abs(wb.imag)) - 0.8) < 1e-6


def test_map_invariants(ellipse_map):
    c = ellipse_map.omega.coefficients
    assert c[0] == 0.0
    assert c[1].real > 0 and abs(c[1].imag) < 1e-12
    probe = 0.9 * np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.min(np.abs(ellipse_map.omega_prime(probe))) > 1e-3


@pytest.mark.parametrize("rho", [ELLIPSE_RHO, STAR3_RHO])
@pytest.mark.parametrize("N", [256, 1024, 4096])
def test_omega_trim_stays_within_tail_bound(rho, N):
    cmap = theodorsen_map(rho, N=N)
    # the untrimmed map, recomputed from the final correspondence
    ls = np.log(cmap.rho(np.mod(cmap.correspondence, 2 * np.pi)))
    full = np.concatenate(
        [[0.0], exp_series(analytic_coefficients(ls), N // 2)])
    kept = cmap.omega.coefficients
    assert np.array_equal(kept, full[:len(kept)])
    if rho == STAR3_RHO and N == 256:
        assert len(kept) == len(full)  # nothing reaches the rounding floor
    else:
        assert len(kept) < len(full)
    tail = full.copy()
    tail[:len(kept)] = 0.0
    z = np.exp(2j * np.pi * np.arange(4096) / 4096)
    diff = np.abs(SeriesEvaluator(tail)._horner(z))
    assert np.max(diff) <= OMEGA_TAIL_TOL * np.sum(np.abs(full))
    assert OMEGA_TAIL_TOL == 16 * np.finfo(float).eps


def test_rejects_nonpositive_radius():
    with pytest.raises(DataError, match="positive"):
        theodorsen_map("cos(a)", N=128)


def test_rejects_steep_radius():
    # |rho'/rho| = 1.2 |cos a| reaches 1.2
    with pytest.raises(ConvergenceDomainError, match=">= 1"):
        theodorsen_map("exp(1.2*sin(a))", N=256)


def test_iteration_budget_exhaustion():
    with pytest.raises(ConvergenceError, match="did not reach"):
        theodorsen_map("0.8/sqrt(1 - (1 - 0.8^2)*cos(a)^2)", N=256,
                       max_iter=3)


# ----------------------------------------------------------------------
# point location and inversion
# ----------------------------------------------------------------------

def test_contains(ellipse_map):
    w = np.array([0.0, 0.9 + 0j, 0.75j, 0.99 + 0j, 0.81j, 1.2 + 0j])
    np.testing.assert_array_equal(
        ellipse_map.contains(w), [True, True, True, True, False, False])


def test_invert_roundtrip(ellipse_map):
    rng = np.random.default_rng(23)
    z = 0.9 * np.sqrt(rng.uniform(0, 1, 40)) * \
        np.exp(2j * np.pi * rng.uniform(0, 1, 40))
    w = ellipse_map.omega(z)
    back = ellipse_map.invert(w)
    assert np.max(np.abs(back - z)) < 1e-12


def test_invert_roundtrip_star3():
    cmap = theodorsen_map(STAR3_RHO, N=1024)
    rng = np.random.default_rng(29)
    z = 0.97 * np.sqrt(rng.uniform(0, 1, 200)) * \
        np.exp(2j * np.pi * rng.uniform(0, 1, 200))
    back = cmap.invert(cmap.omega(z))
    assert np.max(np.abs(back - z)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 0.93), st.floats(0, 2 * np.pi))
def test_invert_roundtrip_property(r, a):
    cmap = _CACHED["ellipse"]
    z = np.array([r * np.exp(1j * a)])
    assert abs(cmap.invert(cmap.omega(z))[0] - z[0]) < 1e-10


_CACHED = {}


@pytest.fixture(autouse=True, scope="module")
def _fill_cache(ellipse_map):
    _CACHED["ellipse"] = ellipse_map
    yield


def test_invert_exterior_point_raises(ellipse_map):
    with pytest.raises(PointQueryError):
        ellipse_map.invert(np.array([2.0 + 2.0j]))


# ----------------------------------------------------------------------
# transplanted solutions
# ----------------------------------------------------------------------

def test_image_normal_unit_modulus(ellipse_map):
    nf = image_inner_normal(ellipse_map)
    assert np.max(np.abs(np.abs(nf.samples) - 1.0)) < 1e-12


def test_image_normal_identity_map():
    cmap = theodorsen_map(1.0, N=128)
    nf = image_inner_normal(cmap)
    np.testing.assert_allclose(nf.samples, -np.exp(1j * grid_nodes(128)),
                               atol=1e-12)


def test_pullback_evaluates_on_image_boundary(ellipse_map):
    bf = pullback(ellipse_map, lambda w: w.real)
    np.testing.assert_allclose(bf.samples,
                               ellipse_map.boundary_nodes().real, atol=0)
    assert bf.kind == "real"


def test_transplant_scaled_disk_neumann():
    # disk of radius 2, inner-normal data cos t at w = 2 exp(it):
    # u = -Re w, grad = (-1, 0)
    cmap = theodorsen_map(2.0, N=256)
    phi = pullback(cmap, lambda w: w.real / np.abs(w))
    hs = transplant_neumann(cmap, phi)
    w = np.array([0.5 + 0.3j, -1.2 + 0j, 1.1j])
    np.testing.assert_allclose(hs.u(w), -w.real, atol=1e-12)
    gx, gy = hs.grad(w)
    np.testing.assert_allclose(gx, -1.0, atol=1e-11)
    np.testing.assert_allclose(gy, 0.0, atol=1e-11)
    assert any("transplanted" in n for n in hs.notes)


def test_transplant_notes_incompatible_flux():
    cmap = theodorsen_map(2.0, N=256)
    hs = transplant_neumann(cmap, R.build_boundary_function(1.0, 256))
    assert any("compatibility integral" in n and "not 0" in n
               for n in hs.notes)


def test_transplant_rejects_grid_mismatch(ellipse_map):
    with pytest.raises(ConfigurationError, match="does not match"):
        transplant_neumann(ellipse_map, R.build_boundary_function(1.0, 512))


def test_transplant_ellipse_dirichlet_consistency(ellipse_map):
    # harmonic u = Re(w^2) has inner-normal derivative known through the
    # map; instead check the machinery end to end: solve with data
    # pulled back from grad(Re w) . n and compare u to -(-Re w)? simpler:
    # use the exact harmonic u = Re w, normal derivative n_x
    nf = image_inner_normal(ellipse_map)
    phi = R.BoundaryFunction(samples=nf.samples.real, kind="real")
    hs = transplant_neumann(ellipse_map, phi)
    w = np.array([0.2 + 0.1j, -0.4 + 0.3j, 0.6j])
    u = hs.u(w)
    # u should equal Re w up to the additive gauge fixed at omega(0) = 0
    np.testing.assert_allclose(u - u[0], w.real - w[0].real, atol=1e-9)
    gx, gy = hs.grad(w)
    np.testing.assert_allclose(gx, 1.0, atol=1e-9)
    np.testing.assert_allclose(gy, 0.0, atol=1e-9)
