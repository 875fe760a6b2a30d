import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rhbvp.boundary_data import BoundaryFunction, grid_nodes
from rhbvp.disk_harmonic import (SeriesEvaluator, StolzPath,
                                 analytic_coefficients, conjugate_boundary,
                                 converged_sequence, default_j_max, exp_series,
                                 schwarz_integral)
from rhbvp.errors import ConfigurationError, DataError, DomainError

LOG2 = 0.6931471805599453
# independent quadrature oracle (adaptive Poisson integral of the upper-arc
# indicator, abs err < 1e-8)
U_STEP_AT_HALF_I = 0.7951672353008664
U_STEP_AT_3_2 = 0.6371753231294284


def _step(N=1024):
    from rhbvp.boundary_data import build_boundary_function
    return build_boundary_function(
        [{"from": 0.0, "to": np.pi, "expr": 1.0},
         {"from": np.pi, "to": 2 * np.pi, "expr": 0.0}], N)


def _path_values(h, path):
    """h at the points of a Stolz path, shallowest first."""
    return np.asarray(h(np.exp(1j * path.angle) * path.scales))


# ----------------------------------------------------------------------
# Schwarz integral
# ----------------------------------------------------------------------

def test_schwarz_constant():
    bf = BoundaryFunction(samples=np.full(64, 3.25))
    S = schwarz_integral(bf)
    z = np.array([0.0, 0.3 + 0.4j, -0.7j])
    np.testing.assert_allclose(S(z), 3.25, atol=1e-13)


def test_schwarz_cos_is_z():
    bf = BoundaryFunction(samples=np.cos(grid_nodes(64)))
    S = schwarz_integral(bf)
    np.testing.assert_allclose(S(np.array([0.3j]))[0], 0.3j, atol=1e-14)
    np.testing.assert_allclose(S(np.array([0.5 - 0.2j]))[0], 0.5 - 0.2j,
                               atol=1e-14)


def test_schwarz_imaginary_part_vanishes_at_origin():
    rng = np.random.default_rng(3)
    bf = BoundaryFunction(samples=rng.normal(size=128))
    S = schwarz_integral(bf)
    assert abs(S(np.array([0.0]))[0].imag) < 1e-15


def test_schwarz_sawtooth_plain_sampling_bias():
    # the sampled sawtooth has a known DFT bias of order 1/N near the
    # jump; the value is still within a few 1e-3
    t = grid_nodes(1024)
    bf = BoundaryFunction(samples=t - np.pi)
    val = schwarz_integral(bf)(np.array([0.5]))[0]
    assert abs(val - 2j * LOG2) < 0.02
    assert abs(val - 2j * LOG2) > 1e-6  # the bias is real, not imaginary


def test_schwarz_requires_real_data():
    bf = BoundaryFunction(samples=np.exp(1j * grid_nodes(32)), kind="complex")
    with pytest.raises(DataError):
        schwarz_integral(bf)


def test_schwarz_linearity():
    rng = np.random.default_rng(7)
    s1 = rng.normal(size=64)
    s2 = rng.normal(size=64)
    z = 0.6 * np.exp(2j * np.pi * rng.random(16))
    S1 = schwarz_integral(BoundaryFunction(samples=s1))
    S2 = schwarz_integral(BoundaryFunction(samples=s2))
    S12 = schwarz_integral(BoundaryFunction(samples=s1 + 2.5 * s2))
    np.testing.assert_allclose(S12(z), S1(z) + 2.5 * S2(z), atol=1e-9)


def test_schwarz_scaling_by_two_is_exact():
    rng = np.random.default_rng(9)
    s = rng.normal(size=64)
    c1 = schwarz_integral(BoundaryFunction(samples=s)).coefficients
    c2 = schwarz_integral(BoundaryFunction(samples=2.0 * s)).coefficients
    np.testing.assert_array_equal(c2, 2.0 * c1)


def test_domain_error_outside_disk():
    S = schwarz_integral(BoundaryFunction(samples=np.ones(32)))
    with pytest.raises(DomainError):
        S(np.array([1.0 + 0j]))


# ----------------------------------------------------------------------
# conjugation
# ----------------------------------------------------------------------

def test_conjugate_constant_is_zero():
    bf = BoundaryFunction(samples=np.full(64, 2.0))
    H = conjugate_boundary(bf)
    np.testing.assert_allclose(H.samples, 0.0, atol=1e-14)


def test_conjugate_cos_is_sin():
    t = grid_nodes(64)
    H = conjugate_boundary(BoundaryFunction(samples=np.cos(t)))
    np.testing.assert_allclose(H.samples, np.sin(t), atol=1e-13)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 10), st.floats(-2, 2), st.floats(-2, 2))
def test_conjugate_involution_property(k, a, b):
    # H[H[mu]] = -(mu - mean mu) for band-limited data
    t = grid_nodes(64)
    mu = a * np.cos(k * t) + b * np.sin(k * t) + 0.7
    H1 = conjugate_boundary(BoundaryFunction(samples=mu))
    H2 = conjugate_boundary(H1)
    np.testing.assert_allclose(H2.samples, -(mu - np.mean(mu)), atol=1e-10)


def test_conjugate_refined_grid():
    t = grid_nodes(64)
    H = conjugate_boundary(BoundaryFunction(samples=np.cos(t)), L=256)
    np.testing.assert_allclose(H.samples, np.sin(grid_nodes(256)), atol=1e-12)


# ----------------------------------------------------------------------
# Poisson extension
# ----------------------------------------------------------------------

def test_poisson_constant_and_cos():
    S = schwarz_integral(BoundaryFunction(samples=np.full(32, 4.0)))
    assert abs(S(np.array([0.2 + 0.1j])).real[0] - 4.0) < 1e-13
    bf = BoundaryFunction(samples=np.cos(grid_nodes(64)))
    assert abs(schwarz_integral(bf)(np.array([0.5])).real[0] - 0.5) < 1e-13


def test_poisson_step_against_quadrature_oracle():
    # sampled jump data carries an O(1/N) alias in every coefficient, so
    # the extension matches the continuum oracle only to that scale
    pts = np.array([0.5j, 0.3 + 0.2j, 0.0])
    oracle = np.array([U_STEP_AT_HALF_I, U_STEP_AT_3_2, 0.5])
    err_1k = np.abs(schwarz_integral(_step(1024))(pts).real - oracle)
    err_8k = np.abs(schwarz_integral(_step(8192))(pts).real - oracle)
    assert err_1k.max() < 2e-3
    assert err_8k.max() < 2.5e-4
    # first-order-in-1/N alias: 8x more nodes buys at least 4x accuracy
    assert err_8k[:2].max() < err_1k[:2].max() / 4


def test_poisson_mean_at_origin_exact():
    bf = _step(64)
    assert abs(schwarz_integral(bf)(np.array([0.0])).real[0] - 0.5) < 1e-15


# ----------------------------------------------------------------------
# series evaluation
# ----------------------------------------------------------------------

def test_series_eval_and_calculus():
    s = SeriesEvaluator(np.array([1.0, 2.0, 3.0]))
    z = np.array([0.5 + 0.1j])
    np.testing.assert_allclose(s(z), 1 + 2 * z + 3 * z ** 2, atol=1e-15)
    np.testing.assert_allclose(s.derivative()(z), 2 + 6 * z, atol=1e-15)
    F = s.integrate()
    np.testing.assert_allclose(F(z), z + z ** 2 + z ** 3, atol=1e-15)
    assert F(np.array([0.0]))[0] == 0.0
    with pytest.raises(DomainError):
        s(np.array([1.01]))


def test_series_eval_on_circle_matches_horner():
    rng = np.random.default_rng(1)
    c = rng.normal(size=40) + 1j * rng.normal(size=40)
    s = SeriesEvaluator(c)
    vals = s.eval_on_circle(0.5, 64)
    z = 0.5 * np.exp(2j * np.pi * np.arange(64) / 64)
    np.testing.assert_allclose(vals, s(z), atol=1e-12)


def test_series_eval_on_rays_matches_horner():
    rng = np.random.default_rng(2)
    c = rng.normal(size=100) + 1j * rng.normal(size=100)
    s = SeriesEvaluator(c)
    scales = np.array([0.3, 0.9 * np.exp(0.2j), 0.99])
    vals = s.eval_on_rays(scales, 16)
    ang = np.exp(2j * np.pi * np.arange(16) / 16)
    for i, sc in enumerate(scales):
        np.testing.assert_allclose(vals[i], s(sc * ang), atol=1e-10)


def _stolz_scales():
    # dyadic depths down to r = 1 - 2^-34 at two complex apertures
    r = 1.0 - 2.0 ** -np.arange(1, 35, dtype=float)
    return np.concatenate([r * np.exp(0.5j * (1.0 - r)),
                           r * np.exp(-1j * (1.0 - r))])


@pytest.mark.parametrize("L, V, scales", [
    (4000, 500, "stolz"),    # V divides L
    (4096, 500, "stolz"),    # V does not divide L
    (300, 2000, "stolz"),    # L < V: a single block
    (4096, 8, "stolz"),      # smallest verifier V
    (4096, 4096, "circle"),  # antiderivative at N = 1024: one scale, V = 4N
], ids=["V_divides_L", "V_not_dividing_L", "L_below_V", "V8", "V4N"])
def test_series_eval_on_rays_block_horner(L, V, scales):
    rng = np.random.default_rng(L + V)
    n = np.arange(L)
    c = (rng.normal(size=L) + 1j * rng.normal(size=L)) / (1.0 + n)
    s = SeriesEvaluator(c)
    sc = _stolz_scales() if scales == "stolz" else np.array([0.5 + 0j])
    vals = s.eval_on_rays(sc, V)
    assert vals.shape == (len(sc), V)
    ang = np.exp(2j * np.pi * np.arange(V) / V)
    ref = s._horner(sc[:, None] * ang[None, :])
    assert np.max(np.abs(vals - ref)) <= 2e-12 * np.max(np.abs(ref))


def test_exp_series_against_exp():
    b = np.array([0.3, 0.5, -0.2, 0.1])
    w = exp_series(b, 48)
    z = np.array([0.4 - 0.3j])
    direct = np.exp(b[0] + b[1] * z + b[2] * z ** 2 + b[3] * z ** 3)
    np.testing.assert_allclose(SeriesEvaluator(w)(z), direct, atol=1e-12)


def test_analytic_coefficients_roundtrip():
    t = grid_nodes(64)
    mu = 1.0 + 2 * np.cos(3 * t) - np.sin(5 * t)
    c = analytic_coefficients(mu)
    vals = np.fft.ifft(np.concatenate([c, np.zeros(64 - len(c))])) * 64
    np.testing.assert_allclose(vals.real, mu, atol=1e-12)


# ----------------------------------------------------------------------
# Stolz paths and nontangential limits
# ----------------------------------------------------------------------

def test_stolz_path_geometry():
    p = StolzPath(angle=1.0, aperture=0.8, j_min=3, j_max=10)
    zeta = np.exp(1j)
    pts = zeta * p.scales
    ratio = np.abs(zeta - pts) / (1 - np.abs(pts))
    assert np.all(ratio <= 1.05 * np.sqrt(1.0 + 0.8 ** 2))


@settings(max_examples=30, deadline=None)
@given(st.floats(-2, 2), st.integers(5, 20))
def test_stolz_aperture_bound_property(kappa, j_max):
    p = StolzPath(angle=0.3, aperture=kappa, j_min=3, j_max=max(j_max, 7))
    pts = np.exp(0.3j) * p.scales
    ratio = np.abs(np.exp(0.3j) - pts) / (1 - np.abs(pts))
    assert np.all(ratio <= 1.05 * np.sqrt(1.0 + kappa ** 2))


def test_stolz_needs_four_points():
    with pytest.raises(ConfigurationError):
        StolzPath(angle=0.0, aperture=0.0, j_min=3, j_max=5)


def test_default_j_max():
    assert default_j_max(1024) == 7
    assert default_j_max(4096) == 9
    # floor of 6 keeps the default Stolz path viable on coarse grids
    assert default_j_max(256) == 6
    assert default_j_max(16) == 6


def test_converged_sequence_flags():
    tol = 1e-3
    geometric = np.array([1.0, 0.5, 0.25, 0.125, 0.0625]) * 1e-2
    assert converged_sequence(1.0 + geometric, tol)
    # machine-converged sequence with noise-ordered diffs still flags
    noise = 1.0 + np.array([3e-15, -2e-15, 4e-15, -1e-15, 2e-15])
    assert converged_sequence(noise, tol)
    diverging = np.array([1.0, 1.1, 1.3, 1.7, 2.5])
    assert not converged_sequence(diverging, tol)
    big_last = np.array([1.0, 1.001, 1.0005, 1.0007, 1.01])
    assert not converged_sequence(big_last, tol)


def test_nontangential_eval_identity():
    # f = z along the radial path has successive differences ~ 2**-j,
    # so the deepest difference is 2**-10; the tolerance must sit above it
    series = SeriesEvaluator(np.array([0.0, 1.0]))
    path = StolzPath(angle=0.0, aperture=0.0, j_min=3, j_max=10)
    vals = _path_values(series, path)
    assert converged_sequence(vals, 2e-3)
    assert abs(vals[-1] - 1.0) < 2 ** -10 * 1.01


def test_nontangential_eval_poisson_step_fatou():
    # Fatou: the Poisson extension attains the data nontangentially;
    # at theta = pi/2 (interior of the upper arc) the limit is 1
    S = schwarz_integral(_step(1024))
    path = StolzPath(angle=np.pi / 2, aperture=0.5, j_min=3, j_max=7)
    vals = _path_values(lambda z: S(z).real, path)
    assert converged_sequence(vals, 1e-2)
    assert abs(vals[-1] - 1.0) < 1e-2


def test_nontangential_eval_step_jump_mean():
    # the continuum radial values at a jump equal the one-sided mean (here
    # exactly 1/2 by reflection symmetry), but the band-limited series
    # drifts off it like (1/N)/(1-r) once 1-r nears the node spacing;
    # probe only depths well above that window
    S = schwarz_integral(_step(4096))
    path = StolzPath(angle=0.0, aperture=0.0, j_min=3, j_max=6)
    vals = _path_values(lambda z: S(z).real, path)
    assert abs(vals[-1] - 0.5) < 3e-2
    # the drift below the window doubles per octave of depth
    r = 1 - 2.0 ** -np.arange(5, 10)
    dev = S(r.astype(complex)).real - 0.5
    ratios = dev[1:] / dev[:-1]
    assert np.all(ratios > 1.5) and np.all(ratios < 2.5)
