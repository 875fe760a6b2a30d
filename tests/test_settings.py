"""One rule reads every numeric setting: errors.real and errors.count.

Each table runs every site that reads a number through the rule.  The
bad values are ConfigurationErrors that name the setting; the good ones
read float(value) (int(value) for count), as each site read them
before the rule.
"""

import math

import numpy as np
import pytest

import rhbvp as R
from rhbvp.errors import ConfigurationError, count, real
from rhbvp.neumann import disk_inner_normal
from rhbvp.rh_solver import SolverParams, homogeneous_family
from rhbvp.verify import radial_u_table, verify_solution

N = 64
TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def hs():
    # a winding-0 field and smooth data: no special point to exclude, so
    # any delta in the tables passes the exclusion budget
    return R.solve_directional(R.DirectionField.from_angle("0.3", N),
                               R.build_boundary_function("cos(theta)", N))


def _report(hs, **kw):
    return verify_solution(hs, V=16, **kw).serialize()


def _table(hs, **kw):
    return radial_u_table(hs, V=16, **kw).u_boundary.tobytes()


# site: (read(value, hs), the name its errors carry, what a good value x
# must read: its float, or, where the verifier reads the setting as
# given, the output of its float)
REAL_SITES = {
    "cut": (lambda v, hs: SolverParams(cut=v).cut, "params.cut",
            lambda x, hs: float(x)),
    "d0": (lambda v, hs: SolverParams(d0=v).d0, "params.d0",
           lambda x, hs: float(x)),
    "hom_points": (lambda v, hs: SolverParams(hom_points=[v]).hom_points,
                   "params.hom_points", lambda x, hs: (float(x) % TWO_PI,)),
    "hom_coeffs": (lambda v, hs: SolverParams(hom_coeffs=(v,)).hom_coeffs,
                   "params.hom_coeffs", lambda x, hs: (float(x),)),
    "tol": (lambda v, hs: _report(hs, tol=v), "tol",
            lambda x, hs: _report(hs, tol=float(x))),
    "delta": (lambda v, hs: _table(hs, delta=v), "delta",
              lambda x, hs: _table(hs, delta=float(x))),
    "aperture": (lambda v, hs: _report(hs, apertures=[0.0, v]), "apertures",
                 lambda x, hs: _report(hs, apertures=[0.0, float(x)])),
    "piece_from": (lambda v, hs: R.build_boundary_function(
        [(v, TWO_PI, "1"), (0, v, "t")], N).pieces[1].lo,
        "a bound of boundary piece", lambda x, hs: float(x)),
    "piece_to": (lambda v, hs: R.build_boundary_function(
        [(0, v, "t"), (v, TWO_PI, "0")], N).pieces[0].hi,
        "a bound of boundary piece", lambda x, hs: float(x)),
    "jump_declared": (lambda v, hs: R.build_boundary_function(
        "cos(t)", N, jumps=[v]).jumps, "jumps",
        lambda x, hs: (float(x) % TWO_PI,)),
    "jump_of_samples": (lambda v, hs: R.BoundaryFunction(
        samples=np.zeros(N), jumps=(v,)).jumps, "jumps",
        lambda x, hs: (float(x) % TWO_PI,)),
    "family_point": (lambda v, hs: homogeneous_family(
        disk_inner_normal(N).field, [v])[1].hom_points, "points",
        lambda x, hs: (float(x) % TWO_PI,)),
}

BAD_REALS = [
    (True, "has the wrong type"), (np.True_, "has the wrong type"),
    ("0.5", "has the wrong type"), (1 + 0j, "has the wrong type"),
    (np.complex128(1 + 2j), "has the wrong type"),
    (float("nan"), "must be finite"), (float("inf"), "must be finite"),
    (-float("inf"), "must be finite"), (10 ** 400, "must be finite"),
    (np.array(0.5), "has the wrong type"), ([0.5], "has the wrong type"),
    (None, "has the wrong type")]
BAD_IDS = ["True", "np_True", "numeric_str", "complex", "np_complex", "nan",
           "inf", "minus_inf", "huge_int", "0d_array", "list", "None"]
GOOD_REALS = [np.float32(0.5), np.int64(3), 0.5, 3]
GOOD_IDS = ["np_float32", "np_int64", "float", "int"]


@pytest.mark.parametrize("value, wording", BAD_REALS, ids=BAD_IDS)
@pytest.mark.parametrize("site", REAL_SITES)
def test_real_refuses_with_the_setting_named(hs, site, value, wording):
    read, name, _ = REAL_SITES[site]
    with pytest.raises(ConfigurationError) as exc:
        read(value, hs)
    assert str(exc.value).startswith(name) and wording in str(exc.value)


@pytest.mark.parametrize("value", GOOD_REALS, ids=GOOD_IDS)
@pytest.mark.parametrize("site", REAL_SITES)
def test_real_reads_the_float_of_a_good_value(hs, site, value):
    read, _, want = REAL_SITES[site]
    assert read(value, hs) == want(value, hs)


def test_real_returns_a_float():
    for v in GOOD_REALS:
        x = real(v, "x")
        assert type(x) is float and x == float(v)


# The inputs that each site read as a number before the rule, named by
# what they read then.
def test_nan_piece_bound_drops_no_jump():
    # read as the piece (0, nan): jumps () where a finite bound gives (3.0,)
    assert R.build_boundary_function(
        [(0, 3, "t"), (3, TWO_PI, "0")], N).jumps == (3.0,)
    with pytest.raises(ConfigurationError,
                       match="a bound of boundary piece .* must be finite"):
        R.build_boundary_function([(0, math.nan, "t"), (3, TWO_PI, "0")], N)


def test_complex_cut_is_refused():
    # read as 1.0, its imaginary part dropped with a ComplexWarning
    with pytest.raises(ConfigurationError,
                       match="params.cut has the wrong type"):
        SolverParams(cut=np.complex128(1 + 2j))


@pytest.mark.parametrize("points", [True, np.True_, -1],
                         ids=["True", "np_True", "negative"])
def test_family_count_is_read_by_count(points):
    # True built a one-point family
    with pytest.raises(ConfigurationError,
                       match="points must be an integer of at least 0"):
        homogeneous_family(disk_inner_normal(N).field, points)


def test_family_count_may_be_a_numpy_integer():
    # np.int64(3) raised an untyped TypeError
    nu = disk_inner_normal(N).field
    got = homogeneous_family(nu, np.int64(3))
    want = homogeneous_family(nu, 3)
    assert [m.params for m in got] == [m.params for m in want]


def test_string_family_point_is_refused():
    # read as 1.5
    with pytest.raises(ConfigurationError,
                       match="points has the wrong type: '1.5'"):
        homogeneous_family(disk_inner_normal(N).field, ["1.5"])


def test_nan_declared_jump_is_refused():
    # recorded as a jump at nan
    with pytest.raises(ConfigurationError, match="jumps must be finite"):
        R.build_boundary_function("cos(t)", N, jumps=[math.nan])


@pytest.mark.parametrize("value, wording", [
    (10 ** 400, "must be finite"), (math.nan, "must be finite")],
    ids=["huge_int", "nan"])
def test_constant_data_beyond_float_range_is_refused(value, wording):
    # a constant read by float(): 10**400 raised OverflowError, and nan
    # became non-finite samples
    with pytest.raises(ConfigurationError,
                       match=f"the expr of boundary piece .* {wording}"):
        R.build_boundary_function(value, N)


# count: V of the verifier and M of antiderivative, at least 8.  The
# sites read V and M as given, so a good value must give the output of
# its int.
COUNT_SITES = {
    "verify_V": (lambda v, hs: verify_solution(hs, V=v).serialize(), "V"),
    "table_V": (lambda v, hs: radial_u_table(hs, V=v).u_boundary.tobytes(),
                "V"),
    "M": (lambda v, hs: R.antiderivative(hs.f_source, M=v).coefficients
          .tobytes(), "M"),
}
BAD_COUNTS = [True, np.True_, "16", 16.0, np.float32(16), 16 + 0j,
              float("nan"), float("inf"), None, np.array(16), [16], 7,
              np.int64(7), 0, -16]
BAD_COUNT_IDS = ["True", "np_True", "numeric_str", "float", "np_float32",
                 "complex", "nan", "inf", "None", "0d_array", "list", "7",
                 "np_int64_7", "0", "negative"]


@pytest.mark.parametrize("value", BAD_COUNTS, ids=BAD_COUNT_IDS)
@pytest.mark.parametrize("site", COUNT_SITES)
def test_count_refuses_with_the_setting_named(hs, site, value):
    read, name = COUNT_SITES[site]
    with pytest.raises(ConfigurationError) as exc:
        read(value, hs)
    assert str(exc.value) == (
        f"{name} must be an integer of at least 8, got {value!r}")


@pytest.mark.parametrize("value", [8, 16, np.int64(16), np.int32(16)],
                         ids=["8", "16", "np_int64", "np_int32"])
@pytest.mark.parametrize("site", COUNT_SITES)
def test_count_reads_the_int_of_a_good_value(hs, site, value):
    read, _ = COUNT_SITES[site]
    assert read(value, hs) == read(int(value), hs)


def test_count_returns_an_int():
    x = count(np.int64(16), "x", 8)
    assert type(x) is int and x == 16


# V and M have an upper bound too: 10**30 ended in numpy's untyped
# "Maximum allowed size exceeded"
MOST = {"verify_V": 2 ** 20, "table_V": 2 ** 20, "M": 2 ** 26}


@pytest.mark.parametrize("over", [1, 10 ** 30, np.int64(2 ** 40)],
                         ids=["one_over", "huge_int", "np_int64"])
@pytest.mark.parametrize("site", COUNT_SITES)
def test_count_refuses_a_value_above_its_bound(hs, site, over):
    read, name = COUNT_SITES[site]
    value = MOST[site] + over if over == 1 else over
    with pytest.raises(ConfigurationError) as exc:
        read(value, hs)
    assert str(exc.value) == f"{name} must be at most {MOST[site]}, got {value!r}"
