import numpy as np
import pytest
from hypothesis import given, strategies as st

from rhbvp.errors import ConfigurationError
from rhbvp.expressions import parse_expression


def test_basic_functions():
    f = parse_expression("cos(theta) + 0.5*sin(2*theta)")
    t = np.linspace(0, 6.2, 37)
    np.testing.assert_allclose(f(t), np.cos(t) + 0.5 * np.sin(2 * t),
                               rtol=0, atol=1e-15)


def test_power_has_mathematical_precedence():
    # 1 - 0.8^2 must be 0.36, not (1 - 0.8)^2
    f = parse_expression("1 - 0.8^2", var="a")
    assert abs(f(0.0) - 0.36) < 1e-15
    g = parse_expression("2*theta^2")
    assert abs(g(3.0) - 18.0) < 1e-12
    h = parse_expression("theta**2 + theta^3")
    assert abs(h(2.0) - 12.0) < 1e-12


def test_variable_aliases_and_pi():
    f = parse_expression("cos(t - pi)")
    assert abs(f(np.pi) - 1.0) < 1e-15
    g = parse_expression("a/2", var="a")
    assert g(3.0) == 1.5


def test_constants_and_unary():
    f = parse_expression("-2")
    assert f(0.7) == -2.0
    t = np.linspace(0, 1, 5)
    assert parse_expression("+3.5")(t).shape == t.shape


def test_rejects_unknown_name():
    with pytest.raises(ConfigurationError, match="unknown name"):
        parse_expression("cos(x)")(0.0)


def test_rejects_unknown_function():
    with pytest.raises(ConfigurationError, match="unknown function"):
        parse_expression("tan(theta)")


def test_rejects_call_syntax_abuse():
    with pytest.raises(ConfigurationError):
        parse_expression("__import__('os')")
    with pytest.raises(ConfigurationError):
        parse_expression("cos(theta, theta)")


def test_rejects_garbage():
    with pytest.raises(ConfigurationError, match="cannot parse"):
        parse_expression("cos(theta")
    with pytest.raises(ConfigurationError):
        parse_expression("")
    with pytest.raises(ConfigurationError):
        parse_expression(None)


@given(st.floats(-10, 10), st.floats(-5, 5, allow_subnormal=False))
def test_affine_matches_numpy(a, b):
    f = parse_expression(f"{a} + {b}*theta")
    t = np.array([0.0, 1.0, 2.5])
    np.testing.assert_allclose(f(t), a + b * t, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("text", [
    "-2**2", "2**-1", "2^3^2", "-t*t", "2*-t", "t/2/3*4", "1 - t - 2",
    "--t", "+-+t", "(1 + t)*(t - 2)/3", "exp(-t)*sin(3*t)**2", "-t**0.5",
    "1e-3*t + .5 - 3.", "cos(t - pi)^2"])
def test_precedence_and_order_match_python(text):
    t = np.linspace(0.1, 6.2, 41)
    want = eval(text.replace("^", "**"), {"t": t, "pi": np.pi, "cos": np.cos,
                                          "sin": np.sin, "exp": np.exp})
    np.testing.assert_array_equal(parse_expression(text)(t), want)


def test_a_long_sum_is_summed_left_to_right():
    rng = np.random.default_rng(5)
    c = rng.normal(size=5000)
    text = " + ".join(f"{float(x)!r}*cos({k}*t)" for k, x in enumerate(c))
    t = np.linspace(0, 6, 64)
    want = c[0] * np.cos(0 * t)
    for k in range(1, len(c)):
        want = want + c[k] * np.cos(k * t)
    np.testing.assert_array_equal(parse_expression(text)(t), want)


def test_long_products_and_sign_chains():
    t = np.array([0.5, 1.0, 1.001])
    np.testing.assert_array_equal(parse_expression("*".join(["t"] * 3000))(t),
                                  _left_product(t, 3000))
    assert parse_expression("-" * 2000 + "t")(2.0) == 2.0
    assert parse_expression("-" * 2001 + "t")(2.0) == -2.0
    assert parse_expression("1" + "-1" * 3000)(0.0) == -2999.0


def _left_product(t, n):
    out = t
    for _ in range(n - 1):
        out = out * t
    return out


@pytest.mark.parametrize("text", [
    "(" * 150 + "t" + ")" * 150,
    "cos(" * 150 + "t" + ")" * 150,
    "**".join(["1.0"] * 150),
    "2^" * 150 + "t",
])
def test_too_deep_nesting_is_a_configuration_error(text):
    with pytest.raises(ConfigurationError, match="nests deeper"):
        parse_expression(text)


def test_nesting_to_the_limit_compiles():
    text = "(" * 99 + "cos(t)" + ")" * 99
    assert parse_expression(text)(0.0) == 1.0
