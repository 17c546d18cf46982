"""Field arithmetic in Q(i, sqrt2)."""

import json
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quatcliff.scalars import (BACKEND_NAME, ExtendedScalar, inverse,
                               rat_str, to_json, to_rat, xs)

small = st.integers(min_value=-6, max_value=6)


def scalars():
    return st.builds(xs, small, small, small, small)


# a component drawn as an int or as a Fraction with a small denominator
component = st.one_of(small, st.builds(Fraction, small,
                                       st.integers(min_value=1, max_value=6)))
parts = st.tuples(component, component, component, component)


def test_backend_reports_a_name():
    assert BACKEND_NAME == "fraction"


def test_constants():
    assert xs(0, 1) * xs(0, 1) == -xs(1)
    assert xs(0, 0, 1) * xs(0, 0, 1) == xs(2)
    assert xs() + xs(1) == xs(1)
    assert not xs()
    assert xs(1)


def test_string_coercion():
    assert to_rat("3/4") == to_rat(Fraction(3, 4))
    assert rat_str(to_rat("3/4")) == "3/4"
    assert xs("1/2", "-2/3") == xs(Fraction(1, 2), Fraction(-2, 3))


@pytest.mark.parametrize("bad", [0.5, True, False, None, 1 + 2j])
def test_inexact_and_non_numbers_are_rejected(bad):
    """No float, bool or other non-rational enters the field."""
    with pytest.raises(TypeError, match=type(bad).__name__):
        to_rat(bad)
    with pytest.raises(TypeError, match=type(bad).__name__):
        xs(bad)
    with pytest.raises(TypeError):
        xs(1) * bad
    with pytest.raises(TypeError):
        bad * xs(1)
    with pytest.raises(TypeError):
        xs(1) / bad


@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + xs() == a
    assert a * xs(1) == a
    assert a - a == xs()


@given(scalars())
def test_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == xs(1)
        assert xs(1) / a == a.inverse()


@given(scalars(), scalars())
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.conjugate().conjugate() == a


def test_int_and_fraction_coercion():
    a = xs(1, 2, 3, 4)
    assert 2 * a == a + a
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a
    assert a / 2 + a / 2 == a


def test_known_inverse():
    # (1 + sqrt2) inverse is (sqrt2 - 1)
    a = xs(1, 0, 1, 0)
    assert a.inverse() == xs(-1, 0, 1, 0)
    # (i + sqrt2)(i - sqrt2) = -1 - 2 = -3 wait: i^2 - 2 = -3, so inverse of
    # (i + sqrt2) is (i - sqrt2)/(-3) -- checked by multiplication instead
    b = xs(0, 1, 1, 0)
    assert b * b.inverse() == xs(1)


@given(scalars())
def test_json_round_trip(a):
    blob = json.dumps(a.to_json())
    assert ExtendedScalar.from_json(json.loads(blob)) == a


def test_str_smoke():
    assert str(xs()) == "0"
    s = str(xs(1, -1, Fraction(1, 2), 0))
    assert "i" in s and "s2" in s


# ------------------------------------------- oracle on mixed int/Fraction

def ref_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def ref_neg(x):
    return tuple(-a for a in x)


def ref_mul(x, y):
    """(u + v s)(u' + v' s) = (u u' + 2 v v') + (u v' + v u') s, s = sqrt2,
    with u = x[0] + x[1] i and v = x[2] + x[3] i."""
    def gmul(a, b, c, d):
        return a * c - b * d, a * d + b * c
    uu, vv = gmul(*x[:2], *y[:2]), gmul(*x[2:], *y[2:])
    uv, vu = gmul(*x[:2], *y[2:]), gmul(*x[2:], *y[:2])
    return (uu[0] + 2 * vv[0], uu[1] + 2 * vv[1],
            uv[0] + vu[0], uv[1] + vu[1])


def ref_conj(x):
    return (x[0], -x[1], x[2], -x[3])


def ref_inverse(x):
    """1/x = sigma(x) conj(x) conj(sigma(x)) / N with sigma: sqrt2 -> -sqrt2
    and N the product of all four conjugates, a rational."""
    sigma = (x[0], x[1], -x[2], -x[3])
    co = ref_mul(ref_mul(sigma, ref_conj(x)), ref_conj(sigma))
    norm = ref_mul(x, co)
    assert norm[1:] == (0, 0, 0) and norm[0]
    return tuple(a / norm[0] for a in co)


def fields(x):
    return (x.ar, x.ai, x.br, x.bi)


def as_fractions(x):
    return tuple(Fraction(q) for q in fields(x))


def layout(x):
    return (x.w, x.x, x.y, x.z, x.d)


def assert_integral_ints(x):
    """Every integral component is a plain int, every other one a Fraction
    in lowest terms."""
    for q in fields(x):
        if q.denominator == 1:
            assert type(q) is int, fields(x)
        else:
            assert type(q) is Fraction, fields(x)
            assert math.gcd(q.numerator, q.denominator) == 1, fields(x)


def assert_matches(got, want):
    """`got` has the oracle's value `want`, is stored reduced (d > 0,
    gcd(w, x, y, z, d) = 1) and reads back ints when integral."""
    assert as_fractions(got) == want
    assert got.d > 0 and math.gcd(*layout(got)) == 1, layout(got)
    assert_integral_ints(got)


@given(parts, parts)
def test_mixed_components_match_fraction_oracle(u, v):
    x, y = xs(*u), xs(*v)
    fu, fv = tuple(map(Fraction, u)), tuple(map(Fraction, v))
    assert_matches(x, fu)
    assert_matches(x + y, ref_add(fu, fv))
    assert_matches(x - y, ref_add(fu, ref_neg(fv)))
    assert_matches(-x, ref_neg(fu))
    assert_matches(x * y, ref_mul(fu, fv))
    assert_matches(x.conjugate(), ref_conj(fu))
    if y.is_zero():
        with pytest.raises(ZeroDivisionError):
            y.inverse()
        return
    assert_matches(y.inverse(), ref_inverse(fv))
    assert_matches(x / y, ref_mul(fu, ref_inverse(fv)))


@given(parts, component)
def test_mixed_components_scale_by_rationals(u, q):
    x, fu = xs(*u), tuple(map(Fraction, u))
    assert_matches(x * q, tuple(a * q for a in fu))
    assert_matches(q * x, tuple(a * q for a in fu))
    if q:
        assert_matches(x / q, tuple(a / q for a in fu))
    else:
        with pytest.raises(ZeroDivisionError):
            x / q


def test_integral_components_are_ints():
    assert type(xs(Fraction(4, 2)).ar) is int
    assert type(xs("6/3").ar) is int
    assert type(xs(2).inverse().inverse().ar) is int
    assert all(type(q) is int for q in fields(xs(1, 2, 3, 4)))
    half = xs(Fraction(1, 2), Fraction(-1, 2))
    assert fields(half) == (Fraction(1, 2), Fraction(-1, 2), 0, 0)
    assert type(half.br) is int and type(half.bi) is int


def test_int_and_fraction_components_agree():
    assert xs(2) == xs(Fraction(2))
    assert hash(xs(2)) == hash(xs(Fraction(2)))
    # a Fraction left integral by arithmetic still equals the int form
    assert xs(Fraction(1, 2)) + xs(Fraction(3, 2)) == xs(2)
    assert hash(xs(Fraction(1, 2)) + xs(Fraction(3, 2))) == hash(xs(2))


def test_json_writes_integral_components_as_fractions():
    assert xs(2).to_json()["a_re"] == "2/1"
    assert xs(Fraction(2)).to_json() == xs(2).to_json()


@given(parts)
def test_pickle_round_trip_keeps_value(u):
    x = xs(*u)
    y = pickle.loads(pickle.dumps(x))
    assert y == x and hash(y) == hash(x)
    assert layout(y) == layout(x)
    assert_integral_ints(y)


# ------------------------------------------- the five-int layout

def test_layout_examples():
    assert layout(xs(Fraction(1, 2), Fraction(1, 3))) == (3, 2, 0, 0, 6)
    assert layout(xs(0, 0, Fraction(-2, 4))) == (0, 0, -1, 0, 2)
    assert layout(xs(1, 0, 1, 0).inverse()) == (-1, 0, 1, 0, 1)
    assert layout(xs(3).inverse()) == (1, 0, 0, 0, 3)


def test_zero_layout():
    assert layout(xs()) == (0, 0, 0, 0, 1)
    a = xs(Fraction(1, 3), 2, Fraction(-5, 6), 1)
    for zero in (a - a, a * 0, a * xs(), a + (-a), xs(Fraction(0, 7))):
        assert layout(zero) == (0, 0, 0, 0, 1)
        assert zero == xs() and hash(zero) == hash(xs())


@given(parts, parts)
def test_values_equal_under_the_oracle_have_equal_fields(u, v):
    x, y = xs(*u), xs(*v)
    fu, fv = tuple(map(Fraction, u)), tuple(map(Fraction, v))
    routes = [x, (x + y) - y, x * xs(1), -(-x), x.conjugate().conjugate(),
              x * 6 / 6, xs(*fu)]
    if not y.is_zero():
        routes += [(x * y) / y, (x / y) * y]
    for r in routes:
        assert layout(r) == layout(x) and hash(r) == hash(x)
    assert (layout(x) == layout(y)) == (fu == fv)
    assert (x == y) == (fu == fv)


# ------------------------------------------- ints as coefficients

ints = st.integers(min_value=-50, max_value=50)


@given(parts, ints)
def test_mixed_int_arithmetic_is_the_all_extended_result(u, k):
    """An int operand on either side of +, - and * gives the result the
    same operation gives on xs(k), as an ExtendedScalar."""
    x, y = xs(*u), xs(k)
    for got, want in ((x + k, x + y), (k + x, y + x), (x - k, x - y),
                      (k - x, y - x), (x * k, x * y), (k * x, y * x)):
        assert type(got) is ExtendedScalar
        assert layout(got) == layout(want)


@given(parts, parts)
def test_extended_arithmetic_never_returns_an_int(u, v):
    x, y = xs(*u), xs(*v)
    results = [x + y, x - y, -x, x * y, x.conjugate(), x * 2, x / 2]
    if not y.is_zero():
        results += [y.inverse(), x / y, inverse(y)]
    assert all(type(r) is ExtendedScalar for r in results)
    # integral results too
    assert all(type(r) is ExtendedScalar
               for r in (xs(2) * xs(3), xs(1) + xs(1), xs(1).inverse(),
                         xs(0, 1) * xs(0, 1), xs(Fraction(1, 2)) * 2))


@given(ints)
def test_an_integral_scalar_equals_and_hashes_like_its_int(k):
    assert xs(k) == k and k == xs(k)
    assert not (xs(k) != k)
    assert hash(xs(k)) == hash(k)
    assert {"t": k} == {"t": xs(k)} and {"t": xs(k)} == {"t": k}
    assert {k: 1} == {k: xs(1)}
    assert xs(k, 1) != k and k != xs(k, 1)
    assert xs(Fraction(2 * k + 1, 2)) != k
    assert xs(k) != k + 1


@given(ints)
def test_inverse_of_an_int(k):
    if not k:
        with pytest.raises(ZeroDivisionError):
            inverse(k)
        return
    inv = inverse(k)
    if k in (1, -1):
        assert inv == k and type(inv) is int
    else:
        assert type(inv) is ExtendedScalar and inv == xs(k).inverse()
    assert inv * k == 1 and k * inv == 1


@given(parts)
def test_inverse_of_a_scalar_is_its_method(u):
    x = xs(*u)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            inverse(x)
    else:
        assert layout(inverse(x)) == layout(x.inverse())


@given(ints, parts)
def test_to_json_writes_an_int_as_its_scalar(k, u):
    assert to_json(k) == xs(k).to_json()
    assert to_json(xs(*u)) == xs(*u).to_json()


def test_bool_is_not_an_int_coefficient():
    one = xs(1)
    for op in (lambda a, b: a + b, lambda a, b: a - b,
               lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(one, True)
        with pytest.raises(TypeError):
            op(True, one)
    assert one != True  # noqa: E712
