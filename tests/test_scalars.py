from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vshstools.scalars import (I, ONE, ZERO, Scalar, format_scalar,
                               parse_scalar)


def test_construction_and_equality():
    assert Scalar(3) == Scalar(Fraction(3))
    assert Scalar(1, 2) != Scalar(1)
    assert Scalar.of(Fraction(1, 2)).re == Fraction(1, 2)
    assert Scalar.of(ONE) is not None


def test_field_axioms_spot():
    rng = Random(0)
    for _ in range(200):
        a = Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        b = Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + ONE) == a * b + a
        if not b.is_zero():
            assert (a / b) * b == a


def test_i_arithmetic():
    assert I * I == Scalar(-1)
    assert Scalar.i_power(0) == ONE
    assert Scalar.i_power(1) == I
    assert Scalar.i_power(2) == Scalar(-1)
    assert Scalar.i_power(3) == -I
    assert Scalar.i_power(-1) == -I
    assert Scalar.i_power(7) == Scalar.i_power(3)


def test_inverse_and_conjugate():
    z = Scalar(Fraction(3), Fraction(-4))
    assert z * z.inverse() == ONE
    assert z.conjugate() == Scalar(3, 4)
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_powers():
    z = Scalar(2, 1)
    assert z ** 0 == ONE
    assert z ** 3 == z * z * z
    assert z ** -2 == (z * z).inverse()


def test_predicates():
    assert ZERO.is_zero() and not ONE.is_zero()
    assert Scalar(5).is_integer()
    assert not Scalar(Fraction(1, 2)).is_integer()


def test_format_parse_roundtrip():
    rng = Random(1)
    for _ in range(100):
        z = Scalar(Fraction(rng.randint(-20, 20), rng.randint(1, 7)),
                   Fraction(rng.randint(-20, 20), rng.randint(1, 7)))
        assert parse_scalar(format_scalar(z)) == z
    assert format_scalar(ZERO) == "0"
    assert parse_scalar("-5*i") == Scalar(0, -5)
    assert parse_scalar("1/2+3/4*i") == Scalar(Fraction(1, 2),
                                               Fraction(3, 4))


def test_parse_imaginary_units_and_exponents():
    assert [parse_scalar(t) for t in ("i", "+i", "-i", "2-i")] == \
        [Scalar(0, 1), Scalar(0, 1), Scalar(0, -1), Scalar(2, -1)]
    assert parse_scalar("1e4300") == Scalar(10 ** 4300)
    assert parse_scalar("-2.5E-0_2+1e3*i") == Scalar(Fraction(-1, 40), 1000)


@pytest.mark.parametrize("text", ["1e4301", "1E+0004301", "1e-4301",
                                  "1+2e99999*i", "1e" + "9" * 5000])
def test_parse_refuses_an_exponent_over_the_limit(text):
    # Fraction would expand 10**exponent before any size check
    with pytest.raises(ValueError, match="MAX_SCALAR_EXPONENT = 4300"):
        parse_scalar(text)


def test_foreign_operand_rejected():
    with pytest.raises(TypeError):
        ONE + "x"


# -- the integer-triple kernel against a two-Fraction reference ---------

class Ref:
    """Minimal Gaussian rational on two Fractions, the reference model."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return Ref(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Ref(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return Ref(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return Ref(self.re / n, -self.im / n)

    def conjugate(self):
        return Ref(self.re, -self.im)

    def format(self):
        def rat(x):
            return str(x.numerator) if x.denominator == 1 else \
                f"{x.numerator}/{x.denominator}"
        if self.im == 0:
            return rat(self.re)
        im_part = f"{rat(abs(self.im))}*i"
        if self.re == 0:
            return im_part if self.im > 0 else "-" + im_part
        return f"{rat(self.re)}{'+' if self.im > 0 else '-'}{im_part}"


big_rationals = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                          st.integers(1, 10 ** 4))
parts = st.one_of(st.just(Fraction(0)), st.integers(-9, 9).map(Fraction),
                  big_rationals)
pairs = st.tuples(parts, parts)
PROPS = settings(max_examples=60, deadline=None)


def agrees(s, ref):
    """s has the reference's value and its triple is in normal form."""
    a, b, d = s._abd
    assert d > 0 and gcd(a, b, d) == 1
    assert (s.re, s.im) == (ref.re, ref.im)
    assert isinstance(s.re, Fraction) and isinstance(s.im, Fraction)
    assert s.is_zero() == (ref.re == 0 and ref.im == 0)
    assert s.is_integer() == (ref.im == 0 and ref.re.denominator == 1)
    assert format_scalar(s) == ref.format()
    assert s == Scalar(ref.re, ref.im)
    assert hash(s) == hash(Scalar(ref.re, ref.im))
    if ref.im == 0:
        assert s == ref.re
        if ref.re.denominator == 1:
            assert s == int(ref.re)
    return True


@PROPS
@given(pairs, pairs)
def test_kernel_matches_reference(x, y):
    s, t = Scalar(*x), Scalar(*y)
    r, u = Ref(*x), Ref(*y)
    assert agrees(s, r)
    assert agrees(s + t, r + u)
    assert agrees(s - t, r - u)
    assert agrees(s * t, r * u)
    assert agrees(-s, Ref(0) - r)
    assert agrees(s.conjugate(), r.conjugate())
    if not t.is_zero():
        assert agrees(t.inverse(), u.inverse())
        assert agrees(s / t, r * u.inverse())
    assert (s == t) == ((r.re, r.im) == (u.re, u.im))


@PROPS
@given(pairs, st.one_of(st.integers(-50, 50), big_rationals))
def test_mixed_operands_match_reference(x, c):
    s, r, rc = Scalar(*x), Ref(*x), Ref(c)
    assert agrees(s + c, r + rc) and agrees(c + s, r + rc)
    assert agrees(s - c, r - rc) and agrees(c - s, rc - r)
    assert agrees(s * c, r * rc) and agrees(c * s, r * rc)
    if c != 0:
        assert agrees(s / c, r * rc.inverse())
    if not s.is_zero():
        assert agrees(c / s, rc * r.inverse())


@PROPS
@given(pairs, st.integers(-4, 6))
def test_powers_match_reference(x, k):
    s, r = Scalar(*x), Ref(*x)
    if k < 0 and s.is_zero():
        return
    expected = Ref(1)
    for _ in range(abs(k)):
        expected = expected * r
    if k < 0:
        expected = expected.inverse()
    assert agrees(s ** k, expected)


@PROPS
@given(pairs, pairs)
def test_equal_values_have_equal_triples_and_hashes(x, y):
    s, t = Scalar(*x), Scalar(*y)
    for same in ((s + t) - t, (s - t) + t, s.conjugate().conjugate()):
        assert same == s and same._abd == s._abd
        assert hash(same) == hash(s)
    if not t.is_zero():
        assert (s * t) / t == s and hash((s * t) / t) == hash(s)
        assert t.inverse().inverse()._abd == t._abd


def test_immutable():
    z = Scalar(1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(3)
    with pytest.raises(AttributeError):
        z._abd = (3, 0, 1)
    assert z == Scalar(1, 2)
