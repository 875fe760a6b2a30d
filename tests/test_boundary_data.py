import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rhbvp as R
from rhbvp import boundary_data
from rhbvp.boundary_data import (_EDGE_EPS, BoundaryFunction, DirectionField,
                                 TWO_PI, as_function, build_boundary_function,
                                 grid_nodes, measurable_arg)
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


@pytest.mark.parametrize("spec, needle", [
    ([[0, 1]], "piece [0, 1] "),
    ([(0.0, "a", "1")], "piece (0.0, 'a', '1') "),
    ([{"to": TWO_PI}], "piece {'to': 6.28"),
    ({"from": 0, "to": TWO_PI, "expr": "1"}, "got {'from': 0"),
    ([], "got []"),
    (None, "got None"),
    (True, "cannot interpret True"),
    ([{"from": 0.0, "to": TWO_PI, "expr": False}], "cannot interpret False"),
], ids=["short_triple", "string_end", "no_expr", "bare_object", "empty",
        "none", "bool", "bool_expr"])
def test_malformed_spec_is_a_configuration_error(spec, needle):
    with pytest.raises(ConfigurationError) as info:
        build_boundary_function(spec, 32)
    assert needle in str(info.value)


def test_as_function_refuses_bool():
    with pytest.raises(ConfigurationError, match="cannot interpret True"):
        as_function(True)
    fn, src = as_function(1)
    assert src == "1.0" and fn(np.zeros(2)).tolist() == [1.0, 1.0]


def test_evaluate_matches_pieces_exactly():
    bf = build_boundary_function(
        [{"from": 0.0, "to": np.pi, "expr": "cos(theta)"},
         {"from": np.pi, "to": 2 * np.pi, "expr": "0.25"}], 64)
    t = np.array([0.1, 1.0, np.pi - 1e-9, np.pi, 4.0, TWO_PI - 1e-9])
    expect = np.array([np.cos(0.1), np.cos(1.0), np.cos(np.pi - 1e-9),
                       0.25, 0.25, 0.25])
    np.testing.assert_allclose(bf.evaluate(t), expect, atol=1e-12)


def test_evaluate_band_limited_from_samples():
    # sampled data are read on uniform grids only; the Nyquist samples
    # (-1)^j interpolate as cos(32 theta)
    def u(q):
        return np.cos(3 * q) + 0.5 * np.sin(q) + 0.25 * np.cos(32 * q)
    bf = build_boundary_function(u(grid_nodes(64)), 64)
    with pytest.raises(DataError, match="on_uniform_grid"):
        bf.evaluate(np.linspace(0.1, 6.0, 11))
    for q, vals in ((grid_nodes(500), bf.on_uniform_grid(500)),
                    (grid_nodes(256), bf.resample(256).samples)):
        np.testing.assert_allclose(vals, u(q), atol=1e-12)


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


@pytest.mark.parametrize("spec", [
    "cos(t)", [(0.0, 2.0, "1"), (2.0, TWO_PI, "sin(t)")]],
    ids=["expression", "pieces"])
def test_resample_keeps_pieces_and_jumps(spec):
    bf = build_boundary_function(spec, 64, jumps=(1.0,))
    up = bf.resample(256)
    assert 1.0 in bf.jumps and up.jumps == bf.jumps
    assert up.pieces is bf.pieces


PIECEWISE_CASES = {
    "four_constants": ([(0.0, 1.0, "0.5"), (1.0, 2.0, "-1"), (2.0, 4.5, "2"),
                        (4.5, TWO_PI, "0")], "real"),
    "three_trig": ([(0.0, 2.0, "cos(theta)"), (2.0, 3.0, "sin(2*theta)"),
                    (3.0, TWO_PI, "0.3*cos(3*theta) + 1")], "real"),
    "complex": ([(0.0, np.pi, lambda t: np.exp(1j * t)),
                 (np.pi, TWO_PI, lambda t: np.exp(2j * t) + 0.5j)], "complex"),
}


@pytest.mark.parametrize("name", list(PIECEWISE_CASES))
def test_piecewise_resample_equals_a_build_on_the_fine_grid(name):
    spec, kind = PIECEWISE_CASES[name]
    bf = build_boundary_function(spec, 64, kind=kind)
    for L in (128, 1024, 8192):
        ref = build_boundary_function(spec, L, kind=kind).samples
        up = bf.resample(L)
        assert up.samples.dtype == ref.dtype
        assert up.samples.tobytes() == ref.tobytes()  # bitwise
        assert up.pieces is bf.pieces and up.jumps == bf.jumps


def test_evaluate_shuffled_angles_equals_per_angle_evaluation():
    bf = build_boundary_function(
        [(0.0, 1.0, "cos(theta)"), (1.0, 2.5, "0.3"), (2.5, 4.0, "theta^2"),
         (4.0, TWO_PI, "sin(3*theta)")], 64)
    los = np.array([p.lo for p in bf.pieces] + [TWO_PI])
    h = _EDGE_EPS / 2
    rng = np.random.default_rng(3)
    # los - eps lands exactly on the junction after the shift by eps
    t = np.concatenate([los, los - h, los + h, los - _EDGE_EPS,
                        los - 3 * _EDGE_EPS, los + 3 * _EDGE_EPS, los - TWO_PI,
                        los + 2 * TWO_PI, rng.uniform(-10.0, 20.0, 200)])
    t = np.concatenate([t, t[::5]])  # duplicates
    rng.shuffle(t)
    vals = bf.evaluate(t)
    np.testing.assert_array_equal(vals, [bf.evaluate(a) for a in t])
    # the junction rule: piece k takes t when lo_k <= t + eps < lo_{k+1}
    tm = np.mod(t, TWO_PI)
    k = np.searchsorted(los[:-1], tm + _EDGE_EPS, side="right") - 1
    ref = [bf.pieces[i].fn(np.array([a]))[0] for i, a in zip(k, tm)]
    np.testing.assert_array_equal(vals, ref)


def test_pieces_see_read_only_angles():
    def scribble(t):
        t += 1.0
        return t
    with pytest.raises(ValueError, match="read-only"):
        build_boundary_function([(0.0, 1.0, scribble), (1.0, TWO_PI, "0")], 32)


@pytest.mark.parametrize("solve", [
    R.solve_neumann,
    lambda phi: R.solve_rh(DirectionField.from_angle(
        "t + pi + 0.3*sin(t - 1)", phi.N), phi)], ids=["normal", "oblique"])
def test_phi_stage_reads_pieces_on_the_nodes_and_at_the_junctions(solve):
    # the pieces are read on the nodes and at the junctions by the build
    # alone: under a smooth field psi is formed on the N nodes from the
    # samples, and the jump sizes come from the limits the build kept
    N = 64
    seen = []

    def recorded(fn):
        def piece(t):
            seen.append(np.array(t))
            return fn(t)
        return piece

    spec = [(0.0, 1.3, recorded(np.cos)),
            (1.3, 4.0, recorded(lambda t: 0.5 + np.sin(2 * t))),
            (4.0, TWO_PI, recorded(lambda t: np.full(np.shape(t), -0.25)))]
    phi = build_boundary_function(spec, N)
    assert phi.jumps == (0.0, 1.3, 4.0)
    read = set(np.concatenate(seen).tolist())
    assert {1.3, 4.0} <= read <= set(grid_nodes(N).tolist()) | {0.0, 1.3, 4.0, TWO_PI}
    seen.clear()
    solve(phi)
    assert seen == []


LIMIT_CASES = {
    "junctions": ([(0.0, 1.0, "cos(t) + 0.5"), (1.0, 3.7, "-0.3*sin(3*t)"),
                   (3.7, TWO_PI, "1 + 0.5*cos(2*t)")], (), (1.0, 3.7)),
    "declared_inside": ("0.5*abs(t-2)/(t-2)", (2.0,), (0.0, 2.0)),
    "infinite_limit": ([(0.0, 2.0, "log(2 - t)"), (2.0, TWO_PI, "0")], (),
                       (0.0, 2.0)),
}


@pytest.mark.parametrize("resampled", [False, True], ids=["built", "resampled"])
@pytest.mark.parametrize("case", sorted(LIMIT_CASES))
def test_the_build_keeps_the_jump_limits_it_finds(case, resampled, monkeypatch):
    # one jump_limits call, with the declared jumps, whose result the
    # data keep read-only: the limits the solve used to find again
    spec, declared, angles = LIMIT_CASES[case]
    calls = []
    real_limits = boundary_data.jump_limits
    monkeypatch.setattr(boundary_data, "jump_limits",
                        lambda *a: calls.append(a) or real_limits(*a))
    with np.errstate(divide="ignore"):
        phi = build_boundary_function(spec, 64, jumps=declared)
    assert len(calls) == 1
    phi = phi.resample(256) if resampled else phi
    assert phi.jumps == angles
    with np.errstate(divide="ignore"):
        want = real_limits(phi.pieces, phi.samples, phi.jumps)
    for got, ref in zip(phi.limits, want, strict=True):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert not got.flags.writeable
    assert tuple(phi.limits[0]) == angles


def test_an_infinite_stored_limit_stays_in_the_rest():
    with np.errstate(divide="ignore"):
        phi = build_boundary_function(
            [(0.0, 2.0, "log(2 - t)"), (2.0, TWO_PI, "0")], 64)
    assert phi.limits[1][1] == -np.inf
    sol = R.solve_neumann(phi).f_source
    assert sol.jump_angles.tolist() == [0.0]


def test_the_limits_follow_the_pieces_and_samples_they_are_made_from():
    # limits are derived, not given: data made directly or by replace()
    # find them again, so they never go out of step with the pieces
    from dataclasses import replace
    built = build_boundary_function(LIMIT_CASES["junctions"][0], 64)
    direct = BoundaryFunction(samples=built.samples, pieces=built.pieces)
    assert direct.jumps == built.jumps
    for got, ref in zip(direct.limits, built.limits, strict=True):
        assert np.array_equal(got, ref)
    step = build_boundary_function([(0.0, np.pi, "1"), (np.pi, TWO_PI, "0")], 64)
    moved = replace(built, pieces=step.pieces)
    assert tuple(moved.limits[0]) == (0.0, np.pi)
    assert moved.jumps == (0.0, 1.0, np.pi, 3.7)  # the old jumps stay declared
    with pytest.raises(TypeError):
        BoundaryFunction(samples=built.samples, limits=built.limits)


def test_sampled_data_keep_no_limits():
    bf = build_boundary_function(np.cos(grid_nodes(64)), 64, jumps=(1.0,))
    assert [len(a) for a in bf.limits] == [0, 0, 0]


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
    # the argument of a winding field's nu0 is periodic data, so its
    # values on any uniform grid are plain band-limited interpolation,
    # its Nyquist samples (-1)^j included
    def beta(q):
        return 0.3 * np.sin(2 * q) + 0.1 * np.cos(256 * q)
    t = grid_nodes(512)
    nu = DirectionField.from_samples(-np.exp(1j * (t + beta(t))))
    w, alpha0 = measurable_arg(nu)
    assert w == 1
    c = alpha0.samples[0] - beta(0.0)  # pi up to a full turn
    q = grid_nodes(700)
    np.testing.assert_allclose(alpha0.on_uniform_grid(700), c + beta(q),
                               atol=1e-10)
    up = alpha0.resample(1024)
    np.testing.assert_allclose(up.samples, c + beta(grid_nodes(1024)),
                               atol=1e-10)


def test_complex_kind_required_for_direction():
    with pytest.raises(DataError):
        DirectionField(base=BoundaryFunction(samples=np.ones(32), kind="real"))


# ----------------------------------------------------------------------
# values on a uniform grid
# ----------------------------------------------------------------------

def _dense_interpolant(s, V):
    """The band-limited interpolant of the N samples s at 2*pi*v/V, summed
    term by term: F_k = (1/N) sum_j s_j exp(-2*pi*i*j*k/N) at k = -N/2..N/2
    with the two Nyquist terms halved, every angle reduced exactly as an
    integer mod N or V, and no BLAS product."""
    N = len(s)
    k = np.arange(-(N // 2), N // 2 + 1)
    F = (np.exp(-2j * np.pi * (np.multiply.outer(k, np.arange(N)) % N) / N)
         * s).sum(axis=1) / N
    F[[0, -1]] *= 0.5
    vals = np.empty(V, dtype=complex)
    for lo in range(0, V, 1024):
        v = np.arange(lo, min(lo + 1024, V))
        vals[lo:lo + len(v)] = (np.exp(2j * np.pi * (np.multiply.outer(v, k) % V)
                                       / V) * F).sum(axis=1)
    return vals.real if np.isrealobj(s) else vals


def _grid_case(name, N):
    t = grid_nodes(N)
    if name == "real_sampled":
        return build_boundary_function(
            np.random.default_rng(7).normal(size=N), N)
    # the sampled cases carry Nyquist content, (-1)^j at the nodes
    if name == "complex_nu":
        return DirectionField.from_angle(
            f"0.3*sin(theta) + 0.2*cos(3*theta) + 0.1*cos({N // 2}*theta)",
            N).base
    if name == "winding_alpha":
        nu = DirectionField.from_samples(-np.exp(
            1j * (t + 0.3 * np.sin(2 * t) + 0.1 * np.cos(N // 2 * t))))
        w, alpha0 = measurable_arg(nu)
        assert w == 1
        return alpha0
    return build_boundary_function(
        [(0.0, 2.0, "0.7"), (2.0, 4.0, "cos(theta)"), (4.0, TWO_PI, "-0.4")], N)


@pytest.mark.parametrize("name", ["real_sampled", "complex_nu",
                                  "winding_alpha", "piecewise"])
def test_on_uniform_grid_matches_evaluate(name):
    # exact evaluation of pieces, the dense interpolant of samples
    N = 256
    bf = _grid_case(name, N)
    scale = 1.0 + np.max(np.abs(bf.samples))
    for V in (8, 500, N, 4 * N, 5000):
        vals = bf.on_uniform_grid(V)
        ref = (bf.evaluate(grid_nodes(V)) if bf.pieces is not None
               else _dense_interpolant(bf.samples, V))
        assert vals.dtype == ref.dtype and vals.shape == (V,)
        assert np.max(np.abs(vals - ref)) <= 1e-12 * scale


def test_real_on_uniform_grid_is_a_contiguous_real_array():
    N = 256
    bf = _grid_case("real_sampled", N)
    scale = 1.0 + np.max(np.abs(bf.samples))
    for V in (1, 3, 500, N, 8 * N):
        vals = bf.on_uniform_grid(V)
        assert vals.dtype == float and vals.flags.c_contiguous
        assert np.max(np.abs(vals - _dense_interpolant(bf.samples, V))) \
            <= 1e-13 * scale


def test_complex_resample_keeps_the_nyquist_term():
    N = 64
    t = grid_nodes(N)
    rng = np.random.default_rng(8)
    s = (rng.normal(size=N) + 1j * rng.normal(size=N)
         + (0.75 - 0.5j) * np.cos(N // 2 * t))
    bf = BoundaryFunction(samples=s, kind="complex", jumps=(2.0,))
    for L in (N, 2 * N, 8 * N):
        up = bf.resample(L)
        assert up.kind == "complex" and up.jumps == (2.0,)
        assert up.samples.dtype == complex and up.samples.flags.c_contiguous
        assert np.max(np.abs(up.samples - _dense_interpolant(s, L))) <= 1e-13


@pytest.mark.parametrize("shape", [(2, 3), (0,), ()])
@pytest.mark.parametrize("name", ["expression", "piecewise"])
def test_evaluate_keeps_the_shape_of_the_angles(name, shape):
    N = 64
    bf = (build_boundary_function("cos(theta) + 0.5", N)
          if name == "expression" else _grid_case(name, N))
    t = np.asarray(np.random.default_rng(6).uniform(-1.0, 7.0, shape))
    vals = bf.evaluate(t)
    assert np.shape(vals) == shape and (shape or np.isscalar(vals))
    want = [bf.evaluate(np.array([a]))[0] for a in t.ravel()]
    np.testing.assert_allclose(np.ravel(vals), want, rtol=0, atol=1e-13)


def test_on_uniform_grid_reproduces_samples():
    bf = _grid_case("real_sampled", 64)
    np.testing.assert_allclose(bf.on_uniform_grid(64), bf.samples, atol=1e-13)
    np.testing.assert_allclose(bf.on_uniform_grid(16), bf.samples[::4],
                               atol=1e-13)
