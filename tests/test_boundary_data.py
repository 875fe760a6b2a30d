import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rhbvp as R
from rhbvp.boundary_data import (BoundaryFunction, DirectionField, TWO_PI,
                                 build_boundary_function, grid_nodes,
                                 measurable_arg)
from rhbvp.errors import (ConfigurationError, DataError, InvariantViolation)

SQ2 = np.sqrt(2) / 2


def test_cos_samples_frozen():
    # even-index samples at N=16 are the classical 8-point values
    bf = build_boundary_function("cos(theta)", 16)
    expected8 = np.array([1, SQ2, 0, -SQ2, -1, -SQ2, 0, SQ2])
    np.testing.assert_allclose(bf.samples[::2], expected8, atol=1e-15)
    assert bf.jumps == ()


def test_step_samples_right_piece_convention():
    bf = build_boundary_function(
        [{"from": 0.0, "to": np.pi, "expr": 1.0},
         {"from": np.pi, "to": 2 * np.pi, "expr": 0.0}], 16)
    np.testing.assert_array_equal(bf.samples, [1] * 8 + [0] * 8)
    # node at the junction pi takes the right piece (value 0)
    assert bf.samples[8] == 0.0
    assert bf.jumps == (0.0, np.pi)


def test_grid_size_validation():
    for bad in (8, 100, 15, 0):
        with pytest.raises(ConfigurationError, match="power of two"):
            build_boundary_function("cos(theta)", bad)


def test_sample_array_input():
    s = np.cos(grid_nodes(64))
    bf = build_boundary_function(s, 64)
    np.testing.assert_array_equal(bf.samples, s)
    with pytest.raises(ConfigurationError, match="length"):
        build_boundary_function(s, 128)


def test_nonfinite_rejected():
    s = np.ones(32)
    s[3] = np.nan
    with pytest.raises(DataError):
        BoundaryFunction(samples=s)


def test_partition_validation():
    with pytest.raises(ConfigurationError, match="partition"):
        build_boundary_function(
            [{"from": 0.0, "to": 1.0, "expr": 1.0},
             {"from": 2.0, "to": TWO_PI, "expr": 0.0}], 32)
    with pytest.raises(ConfigurationError, match="cover"):
        build_boundary_function([{"from": 0.5, "to": TWO_PI, "expr": 1.0}], 32)
    with pytest.raises(ConfigurationError, match="unknown keys"):
        build_boundary_function([{"from": 0.0, "to": TWO_PI, "expr": 1.0,
                                  "color": "red"}], 32)


def test_evaluate_matches_pieces_exactly():
    bf = build_boundary_function(
        [{"from": 0.0, "to": np.pi, "expr": "cos(theta)"},
         {"from": np.pi, "to": 2 * np.pi, "expr": "0.25"}], 64)
    t = np.array([0.1, 1.0, np.pi - 1e-9, np.pi, 4.0, TWO_PI - 1e-9])
    expect = np.array([np.cos(0.1), np.cos(1.0), np.cos(np.pi - 1e-9),
                       0.25, 0.25, 0.25])
    np.testing.assert_allclose(bf.evaluate(t), expect, atol=1e-12)


def test_evaluate_band_limited_from_samples():
    t = grid_nodes(64)
    bf = build_boundary_function(np.cos(3 * t) + 0.5 * np.sin(t), 64)
    q = np.linspace(0.1, 6.0, 11)
    np.testing.assert_allclose(bf.evaluate(q), np.cos(3 * q) + 0.5 * np.sin(q),
                               atol=1e-12)


def test_resample_refines_exactly():
    bf = build_boundary_function("cos(theta)", 64)
    up = bf.resample(256)
    assert up.N == 256
    np.testing.assert_allclose(up.samples, np.cos(grid_nodes(256)), atol=1e-12)
    np.testing.assert_allclose(up.samples[::4], bf.samples, atol=1e-15)
    with pytest.raises(ConfigurationError):
        bf.resample(32)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 6), st.floats(-2, 2), st.floats(-2, 2))
def test_resample_band_limited_property(k, a, b):
    t = grid_nodes(64)
    bf = BoundaryFunction(samples=a * np.cos(k * t) + b * np.sin(k * t))
    up = bf.resample(128)
    t2 = grid_nodes(128)
    np.testing.assert_allclose(up.samples, a * np.cos(k * t2) + b * np.sin(k * t2),
                               atol=1e-10)


def test_direction_field_unit_modulus_enforced():
    with pytest.raises(InvariantViolation, match="unit-modulus"):
        DirectionField(base=BoundaryFunction(
            samples=1.5 * np.exp(1j * grid_nodes(32)), kind="complex"))


def test_direction_field_from_angle():
    nu = DirectionField.from_angle("theta/2", 64)
    np.testing.assert_allclose(nu.samples, np.exp(1j * grid_nodes(64) / 2),
                               atol=1e-15)


def test_measurable_arg_constant_fields():
    nu = DirectionField.from_samples(np.ones(32, dtype=complex))
    w, alpha = measurable_arg(nu)
    np.testing.assert_allclose(alpha.samples, 0.0, atol=1e-15)
    assert w == 0

    nu_i = DirectionField.from_samples(np.full(32, 1j))
    w_i, alpha_i = measurable_arg(nu_i)
    np.testing.assert_allclose(alpha_i.samples, np.pi / 2, atol=1e-15)
    assert w_i == 0


def test_measurable_arg_neumann_is_theta_minus_pi():
    t = grid_nodes(1024)
    nu = DirectionField.from_samples(-np.exp(1j * t))
    w, alpha0 = measurable_arg(nu)
    # nu = zeta * nu0 with nu0 = -1: the argument theta - pi, up to full
    # turns, is theta plus a constant of modulus pi, and has no cut
    assert w == 1
    turns = (alpha0.samples + t - (t - np.pi)) / TWO_PI
    np.testing.assert_allclose(turns, np.round(turns), atol=1e-12)
    np.testing.assert_allclose(np.abs(alpha0.samples), np.pi, atol=1e-12)
    assert alpha0.jumps == ()


def test_measurable_arg_reconstructs_nu():
    t = grid_nodes(256)
    beta = 2 * t + 0.4 * np.sin(3 * t) - 1.0
    nu = DirectionField.from_samples(np.exp(1j * beta))
    w, alpha0 = measurable_arg(nu)
    np.testing.assert_allclose(np.exp(1j * (alpha0.samples + w * t)),
                               nu.samples, atol=1e-12)
    assert w == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(-2, 2), st.floats(-1.5, 1.5), st.integers(1, 4),
       st.floats(0, 6.0))
def test_measurable_arg_winding_property(w, amp, freq, shift):
    t = grid_nodes(256)
    beta = w * t + amp * np.sin(freq * t - shift)
    nu = DirectionField.from_samples(np.exp(1j * beta))
    got_w, alpha0 = measurable_arg(nu)
    assert got_w == w
    np.testing.assert_allclose(np.exp(1j * (alpha0.samples + w * t)),
                               nu.samples, atol=1e-9)
    # nu0 has winding 0, so its argument is continuous around the circle
    assert np.max(np.abs(np.diff(np.append(alpha0.samples,
                                           alpha0.samples[0])))) < np.pi


def test_measurable_arg_reanchoring_differs_by_full_turns():
    # the argument of nu0 read off zeta^w * nu0 is nu0's own argument
    # up to full turns, whatever w
    t = grid_nodes(512)
    nu0 = np.exp(1j * (2.5 + 0.8 * np.cos(t)))
    _, a0 = measurable_arg(DirectionField.from_samples(nu0))
    for w in (-3, 1, 2):
        got_w, a1 = measurable_arg(
            DirectionField.from_samples(nu0 * np.exp(1j * w * t)))
        assert got_w == w
        k = (a1.samples - a0.samples) / TWO_PI
        np.testing.assert_allclose(k, np.round(k), atol=1e-10)


def test_measurable_arg_idempotent_representation():
    t = grid_nodes(128)
    nu = DirectionField.from_samples(-np.exp(1j * t))
    w1, a1 = measurable_arg(nu)
    w2, a2 = measurable_arg(nu)
    np.testing.assert_array_equal(a1.samples, a2.samples)
    assert w1 == w2


def test_winding_boundary_function_evaluate():
    # the argument of a winding field's nu0 is smooth periodic data, so
    # evaluation and resampling are plain band-limited interpolation
    t = grid_nodes(512)
    nu = DirectionField.from_samples(-np.exp(1j * (t + 0.3 * np.sin(2 * t))))
    w, alpha0 = measurable_arg(nu)
    assert w == 1
    c = alpha0.samples[0]  # pi up to a full turn
    q = np.array([0.5, 2.0, 4.0, 6.0])
    np.testing.assert_allclose(alpha0.evaluate(q), c + 0.3 * np.sin(2 * q),
                               atol=1e-10)
    up = alpha0.resample(1024)
    np.testing.assert_allclose(up.samples,
                               c + 0.3 * np.sin(2 * grid_nodes(1024)), atol=1e-10)


def test_complex_kind_required_for_direction():
    with pytest.raises(DataError):
        DirectionField(base=BoundaryFunction(samples=np.ones(32), kind="real"))


# ----------------------------------------------------------------------
# values on a uniform grid, chunked interpolation
# ----------------------------------------------------------------------

def _grid_case(name, N):
    t = grid_nodes(N)
    if name == "real_sampled":
        return build_boundary_function(
            np.random.default_rng(7).normal(size=N), N)
    if name == "complex_nu":
        return DirectionField.from_angle(
            "0.3*sin(theta) + 0.2*cos(3*theta)", N).base
    if name == "winding_alpha":
        nu = DirectionField.from_samples(
            -np.exp(1j * (t + 0.3 * np.sin(2 * t))))
        w, alpha0 = measurable_arg(nu)
        assert w == 1
        return alpha0
    return build_boundary_function(
        [(0.0, 2.0, "0.7"), (2.0, 4.0, "cos(theta)"), (4.0, TWO_PI, "-0.4")], N)


@pytest.mark.parametrize("name", ["real_sampled", "complex_nu",
                                  "winding_alpha", "piecewise"])
def test_on_uniform_grid_matches_evaluate(name):
    N = 256
    bf = _grid_case(name, N)
    scale = 1.0 + np.max(np.abs(bf.samples))
    for V in (8, 500, N, 4 * N, 5000):
        vals = bf.on_uniform_grid(V)
        ref = bf.evaluate(grid_nodes(V))
        assert vals.dtype == ref.dtype and vals.shape == (V,)
        assert np.max(np.abs(vals - ref)) <= 1e-12 * scale


def test_on_uniform_grid_reproduces_samples():
    bf = _grid_case("real_sampled", 64)
    np.testing.assert_allclose(bf.on_uniform_grid(64), bf.samples, atol=1e-13)
    np.testing.assert_allclose(bf.on_uniform_grid(16), bf.samples[::4],
                               atol=1e-13)


def test_evaluate_chunked_matches_dense_reference():
    N = 1024
    bf = _grid_case("complex_nu", N)
    q = np.random.default_rng(11).uniform(0.0, TWO_PI, 2000)
    # dense reference: the full len(q) x N phase matrix, Nyquist bin as cosine
    F = np.fft.fft(bf.samples) / N
    k = np.fft.fftfreq(N, d=1.0 / N)
    k[N // 2] = 0.0
    F_ny, F = F[N // 2], F.copy()
    F[N // 2] = 0.0
    ref = np.exp(1j * np.multiply.outer(q, k)) @ F + F_ny * np.cos(N // 2 * q)
    tracemalloc.start()
    try:
        vals = bf.evaluate(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(vals - ref)) <= 1e-12
    # the dense phase matrix alone would take len(q) * N * 16 B = 31 MiB
    assert peak < 8 * 2 ** 20
