import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rhbvp.boundary_data import BoundaryFunction, grid_nodes
from rhbvp.disk_harmonic import (RAY_CHUNK, SeriesEvaluator, StolzPath,
                                 analytic_coefficients, conjugate_boundary,
                                 converged_sequence, default_j_max,
                                 sawtooth_coefficients, schwarz_integral,
                                 unit_powers)
from rhbvp.errors import ConfigurationError, DataError, DomainError
from rhbvp.verify import J_DEEP, radial_u_table

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
    # M = 16 < len(c) folds the series; on rho = 1 nothing damps the tail
    rng = np.random.default_rng(1)
    c = rng.normal(size=40) + 1j * rng.normal(size=40)
    s = SeriesEvaluator(c)
    for rho, M in ((0.5, 64), (1.0, 64), (0.5, 16), (1.0, 16)):
        vals = s.eval_on_circle(rho, M)
        z = rho * np.exp(2j * np.pi * np.arange(M) / M)
        assert vals.shape == (M,)
        np.testing.assert_allclose(vals, s._horner(z), rtol=0, atol=1e-12)


def test_series_eval_on_rays_matches_horner():
    rng = np.random.default_rng(2)
    c = rng.normal(size=100) + 1j * rng.normal(size=100)
    s = SeriesEvaluator(c)
    scales = np.array([0.3, 0.9 * np.exp(0.2j), 0.99])
    vals = s.eval_on_rays(scales, 16)
    ang = np.exp(2j * np.pi * np.arange(16) / 16)
    for i, sc in enumerate(scales):
        np.testing.assert_allclose(vals[i], s(sc * ang), atol=1e-10)


def _untrimmed(c):
    """A series that keeps all of c, exact-zero tail included."""
    s = SeriesEvaluator(c[:1])
    s.coefficients = np.asarray(c, dtype=complex)
    return s


@pytest.mark.parametrize("V", [8, 500])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_series_drops_its_exact_zero_tail_bit_for_bit(V, kind):
    rng = np.random.default_rng(V)
    head = (rng.normal(size=300) + 1j * rng.normal(size=300)) / (1.0 + np.arange(300))
    head[[0, 7, -2]] = 0.0  # inner zeros stay
    c = np.concatenate([head, np.zeros(4000)])
    s = SeriesEvaluator(c)
    assert len(s.coefficients) == len(head)
    assert np.array_equal(s.coefficients, head)
    assert s.coefficients.flags.owndata  # the dropped tail's buffer is freed
    full = _untrimmed(c)
    sc = _radial_nodes()[-70:] if kind == "real" else _stolz_scales()
    assert np.array_equal(s.eval_on_rays(sc, V), full.eval_on_rays(sc, V))
    z = sc[:, None] * np.exp(2j * np.pi * np.arange(V) / V)
    assert np.array_equal(s._horner(z), full._horner(z))


def test_series_of_zeros_keeps_one_term():
    s = SeriesEvaluator(np.zeros(64))
    assert np.array_equal(s.coefficients, [0.0])
    assert s.coefficients.flags.owndata
    assert np.array_equal(s.eval_on_rays(np.array([0.5, 0.9j]), 8), np.zeros((2, 8)))
    # nothing to drop: the array is kept as it is, not copied
    c = np.arange(5.0) + 1j
    assert SeriesEvaluator(c).coefficients is c


def _sawtooth_per_jump(c, J, L):
    """sawtooth_coefficients with one full-length temporary per jump."""
    t = np.zeros(L, dtype=complex)
    for cj, Jj in zip(c, J):
        t += Jj * unit_powers(-cj, L)[0]
    t[0] = 0.0
    t[1:] *= -1j / (np.pi * np.arange(1, L))
    return t


@pytest.mark.parametrize("L", [16, 4096, 65536])
@pytest.mark.parametrize("jumps", [1, 2, 3, 4, 5])
def test_sawtooth_coefficients_scale_each_jump_in_place(L, jumps):
    rng = np.random.default_rng(L + jumps)
    c = rng.uniform(0.0, 2 * np.pi, size=jumps)
    J = rng.normal(size=jumps) * np.exp(rng.normal(size=jumps))
    assert np.array_equal(sawtooth_coefficients(c, J, L),
                          _sawtooth_per_jump(c, J, L))


@pytest.mark.parametrize("jumps", [0, 1, 3])
def test_sawtooth_prefix_is_the_first_terms_bit_for_bit(jumps):
    # the prefix keeps the full length's split of k into a*m + b
    L = 16384
    rng = np.random.default_rng(jumps)
    c = rng.uniform(0.0, 2 * np.pi, size=jumps)
    J = rng.normal(size=jumps)
    full = sawtooth_coefficients(c, J, L)
    for n in (0, 1, 94, L):
        assert np.array_equal(sawtooth_coefficients(c, J, L, n), full[:n])
        assert np.array_equal(unit_powers(c, L, n), unit_powers(c, L)[:, :n])


def _stolz_scales():
    # dyadic depths down to r = 1 - 2^-34 at two complex apertures
    r = 1.0 - 2.0 ** -np.arange(1, 35, dtype=float)
    return np.concatenate([r * np.exp(0.5j * (1.0 - r)),
                           r * np.exp(-1j * (1.0 - r))])


def _radial_panels():
    """Gauss nodes (panels, 12), weights and panel half-widths of the
    verifier's radial table (radial_u_table)."""
    edges = np.concatenate([[0.0, 0.5, 0.75],
                            1.0 - 2.0 ** -np.arange(3, J_DEEP + 1, dtype=float)])
    x, w = np.polynomial.legendre.leggauss(12)
    mids, halfs = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    return mids[:, None] + halfs[:, None] * x[None, :], w, halfs


def _radial_nodes():
    return _radial_panels()[0].ravel()


_RAY_SCALES = {
    "stolz": _stolz_scales,
    "circle": lambda: np.array([0.5 + 0j]),
    "radial": _radial_nodes,
    # one chunk holding real scales then complex ones
    "mixed": lambda: np.concatenate([_radial_nodes()[-40:], _stolz_scales()]),
    # 0, s^V = 0 by underflow (0.1, 0.2, 0.2i), a subnormal s^V (0.24)
    # and ordinary scales
    "tiny": lambda: np.array([0.0, 0.1, 0.2, 0.2j, 0.24, 0.3, 0.9 * np.exp(0.1j)]),
    "chunk_plus_one": lambda: _radial_nodes()[-(RAY_CHUNK + 1):],
}


@pytest.mark.parametrize("L, V, scales", [
    (4000, 500, "stolz"),    # V divides L
    (4096, 500, "stolz"),    # V does not divide L
    (300, 2000, "stolz"),    # L < V: a single block
    (4096, 8, "stolz"),      # smallest verifier V
    (4096, 4096, "circle"),  # antiderivative(M=4N) at N = 1024: one scale
    (4096, 64, "radial"),    # the verifier's 408 radial nodes: several chunks
    (4096, 64, "mixed"),     # real and complex scales in one chunk
    (4096, 500, "tiny"),     # zero, underflowing and subnormal s^V
    (4096, 64, "chunk_plus_one"),  # a last chunk of one scale
], ids=["V_divides_L", "V_not_dividing_L", "L_below_V", "V8", "V4N",
        "radial_nodes", "mixed_real_complex", "zero_and_underflow",
        "chunk_plus_one"])
def test_series_eval_on_rays_block_horner(L, V, scales):
    rng = np.random.default_rng(L + V)
    n = np.arange(L)
    c = (rng.normal(size=L) + 1j * rng.normal(size=L)) / (1.0 + n)
    s = SeriesEvaluator(c)
    sc = np.asarray(_RAY_SCALES[scales](), dtype=complex)
    vals = s.eval_on_rays(sc, V)
    assert vals.shape == (len(sc), V)
    ang = np.exp(2j * np.pi * np.arange(V) / V)
    ref = s._horner(sc[:, None] * ang[None, :])
    assert np.max(np.abs(vals - ref)) <= 2e-12 * np.max(np.abs(ref))


def test_ray_powers_hold_no_subnormal_and_the_fans_keep_their_bits(
        monkeypatch):
    # the step data at N = 16384: h has 65,535 terms in 132 blocks of
    # V = 500.  Below |s| ~ 0.97 the powers (s^V)^k pass through the
    # subnormal range; set to 0 they leave the verifier's fans, radial
    # (real scales) and Stolz (complex ones), bitwise as they were
    from rhbvp import disk_harmonic
    from rhbvp.boundary_data import build_boundary_function
    from rhbvp.neumann import solve_neumann
    from rhbvp.verify import DEFAULT_APERTURES
    N, V = 16384, 500
    h = solve_neumann(build_boundary_function(
        [(0.0, 1.2, "0.7"), (1.2, 3.0, "-0.4"), (3.0, 4.9, "0.2"),
         (4.9, 2 * np.pi, "-0.9")], N)).f_source.h
    assert len(h.fold(V)) == 132
    fans = {"radial": _radial_nodes(), "stolz": np.concatenate([
        StolzPath(0.0, k, 3, default_j_max(N)).scales
        for k in DEFAULT_APERTURES])}
    powers = []
    running = disk_harmonic._running_powers
    monkeypatch.setattr(disk_harmonic, "_running_powers",
                        lambda x, n: powers.append(running(x, n)) or powers[-1])

    def subnormal():  # subnormal parts of the (s^V)^k tables
        p = np.concatenate([a.view(float).ravel() for a in powers
                            if a.shape[1] == 132])
        return np.count_nonzero((p != 0.0) & (np.abs(p) < np.finfo(float).tiny))

    got = {k: h.eval_on_rays(sc, V) for k, sc in fans.items()}
    assert subnormal() == 0
    powers.clear()
    monkeypatch.setattr(disk_harmonic, "POWER_FLOOR", 0.0)
    want = {k: h.eval_on_rays(sc, V) for k, sc in fans.items()}
    assert subnormal() > 0
    for k in fans:
        assert np.array_equal(got[k].view(np.uint64), want[k].view(np.uint64)), k


def test_radial_u_table_matches_horner_quadrature(neumann_step):
    # u along each ray by Gauss panels on f evaluated by Horner, not by the
    # folded fans radial_u_table reads
    V = 64
    table = radial_u_table(neumann_step, V=V)
    r, w, halfs = _radial_panels()
    ray = np.exp(2j * np.pi * np.arange(V) / V)
    f = neumann_step.f_source.f(r[..., None] * ray)  # (panels, 12, V)
    panels = np.einsum("pkv,k->pv", (ray * f).real, w) * halfs[:, None]
    ref = np.concatenate([np.zeros((1, V)), np.cumsum(panels, axis=0)])
    ref += neumann_step.d0
    assert table.u_edges.shape == ref.shape
    assert np.max(np.abs(table.u_edges - ref)) <= 1e-12 * np.max(np.abs(ref))


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
