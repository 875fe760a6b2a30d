"""Conformal maps of star-like domains and solution transplants."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rhbvp as R
from rhbvp.boundary_data import TWO_PI, BoundaryFunction, grid_nodes
from rhbvp.errors import (ConfigurationError, ConvergenceDomainError,
                          ConvergenceError, DataError, PointQueryError)
from rhbvp.disk_harmonic import (TAIL_TOL, SeriesEvaluator,
                                 analytic_coefficients)
from rhbvp import jordan_domain
from rhbvp.jordan_domain import (image_inner_normal, theodorsen_map,
                                 transplant_solve)
from rhbvp.neumann import compatibility_note


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


def _exp_series(b: np.ndarray, M: int) -> np.ndarray:
    """Taylor coefficients of exp(sum b_k z^k) up to z^(M-1) by the
    recurrence w_0 = exp(b_0), n w_n = sum_{k=1}^{n} k b_k w_{n-k}."""
    w = np.zeros(M, dtype=complex)
    w[0] = np.exp(b[0])
    kb = np.arange(len(b)) * b
    for n in range(1, M):
        k = np.arange(1, min(n, len(b) - 1) + 1)
        w[n] = np.dot(kb[k], w[n - k]) / n
    return w


@functools.lru_cache(maxsize=None)
def _degree(rho, N):
    return len(theodorsen_map(rho, N=N).omega.coefficients)


@pytest.mark.parametrize("rho", [ELLIPSE_RHO, STAR3_RHO])
@pytest.mark.parametrize("N", [256, 1024, 4096])
def test_omega_trim_stays_within_tail_bound(rho, N):
    cmap = theodorsen_map(rho, N=N)
    sigma = cmap.correspondence
    rs = cmap.rho(np.mod(sigma, 2 * np.pi))
    # the untrimmed map: the FFT of the boundary points rho(sigma) e^{i sigma}
    full = np.fft.fft(rs * np.exp(1j * sigma))[:N // 2 + 1] / N
    full[0] = 0.0
    kept = cmap.omega.coefficients
    assert np.array_equal(kept, full[:len(kept)])
    # z * exp(S) by the Taylor recurrence, an independent reference
    ref = np.concatenate(
        [[0.0], _exp_series(analytic_coefficients(np.log(rs)), N // 2)])
    assert np.max(np.abs(kept - ref[:len(kept)])) <= 1e-14
    if rho == STAR3_RHO and N == 256:
        assert len(kept) == len(full)  # nothing reaches the rounding floor
    else:
        assert len(kept) < len(full)
        # the significant degree, not the FFT length, sets what is kept
        assert len(kept) == _degree(rho, 1024) == _degree(rho, 16384)
    assert (np.linalg.norm(full[len(kept):])
            <= TAIL_TOL * np.linalg.norm(full))
    z = np.exp(2j * np.pi * np.arange(4096) / 4096)
    moved = SeriesEvaluator(kept)._horner(z) - SeriesEvaluator(full)._horner(z)
    assert np.max(np.abs(moved)) <= 1e-14
    assert TAIL_TOL == 16 * np.finfo(float).eps


def test_rejects_nonpositive_radius():
    with pytest.raises(DataError, match="positive"):
        theodorsen_map("cos(a)", N=128)


def test_rejects_steep_radius():
    # |rho'/rho| = 1.2 |cos a| reaches 1.2
    with pytest.raises(ConvergenceDomainError, match=">= 1"):
        theodorsen_map("exp(1.2*sin(a))", N=256)


def test_iteration_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(jordan_domain, "THEODORSEN_MAX_ITER", 3)
    with pytest.raises(ConvergenceError, match="within 3 steps"):
        theodorsen_map("0.8/sqrt(1 - (1 - 0.8^2)*cos(a)^2)", N=256)


# ----------------------------------------------------------------------
# point location and inversion
# ----------------------------------------------------------------------

def test_contains(ellipse_map):
    w = np.array([0.0, 0.9 + 0j, 0.75j, 0.99 + 0j, 0.81j, 1.2 + 0j])
    np.testing.assert_array_equal(
        ellipse_map.contains(w), [True, True, True, True, False, False])


@pytest.mark.parametrize("mapped", [False, True], ids=["disk", "ellipse"])
def test_u_of_an_empty_array(mapped, ellipse_map, neumann_cos):
    hs = (R.transplant_solve(ellipse_map, neumann_cos.phi) if mapped
          else neumann_cos)
    empty = np.array([], dtype=complex)
    assert hs.u(empty).shape == (0,)
    assert hs.contains(empty).shape == (0,)
    assert ellipse_map.invert(np.empty((0, 3), complex)).shape == (0, 3)


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


def test_invert_mixed_input_names_the_failing_count(ellipse_map):
    with pytest.raises(PointQueryError, match=r" at 1 of 2 points"):
        ellipse_map.invert([0.1, 2.0 + 2.0j])
    z = ellipse_map.invert([0.1])
    assert abs(ellipse_map.omega(z)[0] - 0.1) < 1e-13


def test_invert_refuses_exterior_points_before_newton(ellipse_map,
                                                      monkeypatch):
    # Newton steps on 2 + 2j never stop moving: stepped along with 0.1
    # it took all 60 steps (61 omega evaluations with the residual check)
    calls = []
    horner = ellipse_map.omega._horner
    monkeypatch.setattr(ellipse_map.omega, "_horner",
                        lambda z: calls.append(np.size(z)) or horner(z))
    with pytest.raises(PointQueryError, match=r" at 1 of 2 points"):
        ellipse_map.invert([0.1, 2.0 + 2.0j])
    assert len(calls) <= 7


def _all_points_newton(cmap, w):
    """Newton inversion that steps every point until the largest step
    is below tolerance."""
    z = w / np.maximum(np.asarray(cmap.rho(np.angle(w)), float), 1e-12)
    z *= 0.99
    for _ in range(jordan_domain.INVERT_MAX_ITER):
        step = (cmap.omega._horner(z) - w) / cmap.omega_prime._horner(z)
        z = z - step
        r = np.abs(z)
        bad = r >= 1.0
        z[bad] = z[bad] / r[bad] * (1.0 - 1e-9)
        if np.max(np.abs(step)) < jordan_domain.INVERT_TOL * (
                1.0 + np.max(np.abs(w))):
            break
    return z


@pytest.fixture(scope="module")
def star3_grid():
    """star3's map and the in-domain points of the CLI's 101 x 101 grid."""
    cmap = theodorsen_map(STAR3_RHO, N=1024)
    xs = np.linspace(-0.95, 0.95, 101)
    W = xs[:, None] + 1j * xs[None, :]
    return cmap, W[cmap.contains(W)]


def _horner_calls(monkeypatch):
    """(series, points) of every SeriesEvaluator._horner call."""
    calls = []
    horner = SeriesEvaluator._horner
    monkeypatch.setattr(SeriesEvaluator, "_horner", lambda self, z: (
        calls.append((self, np.size(z))) or horner(self, z)))
    return calls


def _work(calls):
    return sum(len(s.coefficients) * n for s, n in calls)


def test_invert_steps_only_the_points_still_moving(star3_grid, monkeypatch):
    cmap, w = star3_grid
    calls = _horner_calls(monkeypatch)
    z = cmap.invert(w)
    assert calls[-1] == (cmap.omega, w.size)  # the residual check
    phases = [p[0] for p in cmap._newton_phases] + [cmap.omega]
    assert len(phases) == 4
    for omega in phases:  # each phase starts on every point, then drops
        sizes = [n for s, n in calls[:-1] if s is omega]
        assert sizes[0] == w.size
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))
    # the cut phases do the early steps: 0.54 of the Horner work of the
    # active-set loop on the full series alone
    phased = _work(calls)
    calls.clear()
    monkeypatch.setitem(cmap.__dict__, "_newton_phases", [])
    cmap.invert(w)
    assert phased <= 0.7 * _work(calls)
    monkeypatch.undo()
    assert np.max(np.abs(z - _all_points_newton(cmap, w))) <= 1e-15


def test_invert_agrees_with_full_newton_on_the_ellipse_grid(ellipse_map):
    xs = np.linspace(-0.95, 0.95, 101)
    W = xs[:, None] + 1j * xs[None, :]
    w = W[ellipse_map.contains(W)]
    z = ellipse_map.invert(w)
    assert np.max(np.abs(z - _all_points_newton(ellipse_map, w))) <= 1e-15


def test_invert_near_the_rim():
    # (1 - 10^-k) rho(a) for k = 2..11: the cut series' phases must hand
    # the last phase a start it converges from, however close to the rim
    cmap = theodorsen_map("1 + 0.25*cos(3*a)", N=1024)
    a = TWO_PI * np.arange(64) / 64 + 0.01
    scale = 1.0 - 10.0 ** -np.arange(2, 12)
    w = (scale[:, None] * cmap.rho(a) * np.exp(1j * a)).ravel()
    z = cmap.invert(w)
    assert np.max(np.abs(cmap.omega(z) - w)) < 1e-9
    assert np.max(np.abs(z - _all_points_newton(cmap, w))) <= 1e-15


def test_identity_map_inverts_on_the_full_series_alone(monkeypatch):
    cmap = theodorsen_map(1.0, N=256)
    calls = _horner_calls(monkeypatch)
    z = cmap.invert(np.array([0.3 + 0.4j, -0.2j]))
    assert cmap._newton_phases == []
    assert all(s is cmap.omega or s is cmap.omega_prime for s, _ in calls)
    monkeypatch.undo()
    np.testing.assert_allclose(z, [0.3 + 0.4j, -0.2j], atol=1e-13)


def test_invert_keeps_the_shape_of_2d_input(star3_grid):
    cmap, w = star3_grid
    W = w[:7 * 9].reshape(7, 9)
    for grid in (W, W.T):  # W.T is not C-contiguous
        z = cmap.invert(grid)
        assert z.shape == grid.shape
        assert np.array_equal(z, cmap.invert(grid.ravel()).reshape(grid.shape))


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


@pytest.mark.parametrize("rho", [None, ELLIPSE_RHO, STAR3_RHO])
def test_index_coefficient_is_the_scaled_flux(rho):
    # w = 1: the pole at the cut carries the flux 2 pi mean(phi |omega'|),
    # b_0 = -flux / (2 pi omega'(0)); on the disk (omega' = 1) b_0 = -mean phi
    N = 1024
    phi = R.build_boundary_function("0.7 + cos(theta) + 0.3*sin(2*theta)", N)
    if rho is None:
        sol, speed, scale = R.solve_neumann(phi).f_source, 1.0, 1.0
    else:
        cmap = theodorsen_map(rho, N=N)
        sol = transplant_solve(cmap, phi).f_source
        speed = np.abs(cmap.omega_prime.eval_on_circle(1.0, N))
        scale = cmap.omega.coefficients[1].real
    flux = 2 * np.pi * np.mean(phi.samples * speed)
    assert sol.index == 1
    assert abs(sol.index_coeffs[0] + flux / (2 * np.pi * scale)) <= 1e-12


def test_transplant_scaled_disk_neumann():
    # disk of radius 2, inner-normal data cos t at w = 2 exp(it):
    # u = -Re w, grad = (-1, 0)
    cmap = theodorsen_map(2.0, N=256)
    wb = cmap.boundary_nodes()
    phi = BoundaryFunction(samples=wb.real / np.abs(wb))
    hs = transplant_solve(cmap, phi)
    w = np.array([0.5 + 0.3j, -1.2 + 0j, 1.1j])
    np.testing.assert_allclose(hs.u(w), -w.real, atol=1e-12)
    gx, gy = hs.grad(w)
    np.testing.assert_allclose(gx, -1.0, atol=1e-11)
    np.testing.assert_allclose(gy, 0.0, atol=1e-11)
    assert any("transplanted" in n for n in hs.notes)


def test_transplant_notes_incompatible_flux():
    cmap = theodorsen_map(2.0, N=256)
    hs = transplant_solve(cmap, R.build_boundary_function(1.0, 256))
    assert any("compatibility integral" in n and "not 0" in n
               for n in hs.notes)


@pytest.mark.parametrize("data", ["1", "cos(t)"])
def test_transplant_without_nu_is_the_neumann_problem(ellipse_map, data):
    # nu omitted: the image inner normal, with the compatibility note
    phi = R.build_boundary_function(data, ellipse_map.N)
    hs = transplant_solve(ellipse_map, phi)
    ref = transplant_solve(ellipse_map, phi, nu=image_inner_normal(ellipse_map))
    note = compatibility_note(phi, ellipse_map)
    assert (note is None) == (data == "cos(t)")  # the ellipse's flux of cos t is 0
    np.testing.assert_array_equal(hs.F.coefficients, ref.F.coefficients)
    assert hs.notes == ref.notes + ([note] if note else [])


def test_transplant_rejects_grid_mismatch(ellipse_map):
    with pytest.raises(ConfigurationError, match="does not match"):
        transplant_solve(ellipse_map, R.build_boundary_function(1.0, 512))


def test_transplant_ellipse_dirichlet_consistency(ellipse_map):
    # harmonic u = Re(w^2) has inner-normal derivative known through the
    # map; instead check the machinery end to end: solve with data
    # pulled back from grad(Re w) . n and compare u to -(-Re w)? simpler:
    # use the exact harmonic u = Re w, normal derivative n_x
    nf = image_inner_normal(ellipse_map)
    phi = R.BoundaryFunction(samples=nf.samples.real, kind="real")
    hs = transplant_solve(ellipse_map, phi)
    w = np.array([0.2 + 0.1j, -0.4 + 0.3j, 0.6j])
    u = hs.u(w)
    # u should equal Re w up to the additive gauge fixed at omega(0) = 0
    np.testing.assert_allclose(u - u[0], w.real - w[0].real, atol=1e-9)
    gx, gy = hs.grad(w)
    np.testing.assert_allclose(gx, 1.0, atol=1e-9)
    np.testing.assert_allclose(gy, 0.0, atol=1e-9)
