"""The series layer, checked against identities that do not share code
with the implementations: reversion against composition, exp against
log, inversion against multiplication."""
from fractions import Fraction
from random import Random

import pytest

from vshstools.scalars import ONE, ZERO, Scalar
from vshstools.series import (BadConstantTerm, NonzeroConstant, NotReversible,
                              Reversion, Series, SeriesMatrix,
                              ZeroConstantTerm)

from genutil import horner, matrix_identity, matrix_inverse

ORD = 10


def srs(*coeffs, order=ORD):
    return Series([Scalar.of(Fraction(c)) for c in coeffs], order)


def rand_series(rng, order=ORD, start=None):
    coeffs = [Scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
              for _ in range(order)]
    if start is not None:
        coeffs[0] = Scalar.of(start)
    return Series(coeffs, order)


def test_basic_algebra():
    a = srs(1, 2, 3)
    b = srs(0, 1)
    assert a + b == srs(1, 3, 3)
    assert a - a == Series.zero(ORD)
    assert (a * b).coefficient(3) == Scalar(3)
    assert 2 * a == a + a
    assert a * Scalar(2) == a + a


def test_min_order_rule():
    a = srs(1, 1, order=4)
    b = srs(1, 1, order=8)
    assert (a + b).order == 4
    assert (a * b).order == 4


def test_truncate_refuses_extension():
    a = srs(1, 1, order=4)
    assert a.truncate(2).order == 2
    with pytest.raises(ValueError):
        a.truncate(8)


def test_inverse():
    rng = Random(4)
    for _ in range(30):
        a = rand_series(rng, start=Fraction(rng.choice((1, 2, -3)), 1))
        assert a * a.inverse() == Series.one(ORD)
    with pytest.raises(ZeroConstantTerm):
        srs(0, 1).inverse()


def test_compose():
    outer = srs(1, 1, 1)        # 1 + x + x^2
    half = srs(0, Fraction(1, 2))  # q/2, whose reverse is 2q
    assert Reversion(half).compose(outer) == srs(1, 2, 4)
    with pytest.raises(NotReversible):
        Reversion(srs(1, 1))


def test_reverse_is_compositional_inverse():
    rng = Random(5)
    coord = Series.coordinate(ORD)
    for _ in range(20):
        f = rand_series(rng, start=0)
        coeffs = list(f.coeffs)
        coeffs[1] = Scalar.of(Fraction(rng.choice((1, -1, 2)), 1))
        f = Series(coeffs, ORD)
        g = f.reverse()
        assert horner(f, g) == coord
        assert horner(g, f) == coord
    with pytest.raises(NotReversible):
        srs(0, 0, 1).reverse()


def test_exp_log():
    rng = Random(6)
    for _ in range(20):
        f = rand_series(rng, start=0)
        e = f.exp()
        assert e.at0() == ONE
        assert e.log() == f
        g = rand_series(rng, start=0)
        assert (f + g).exp() == f.exp() * g.exp()
    with pytest.raises(BadConstantTerm):
        srs(1, 1).exp()
    with pytest.raises(BadConstantTerm):
        srs(2, 1).log()


def test_exp_matches_taylor():
    # exp(q) has coefficients 1/k!
    e = srs(0, 1).exp()
    fact = 1
    for k in range(ORD):
        if k:
            fact *= k
        assert e.coefficient(k) == Scalar(Fraction(1, fact))


def test_theta_and_inverse():
    f = srs(0, 1, 5, 7)
    assert f.theta() == srs(0, 1, 10, 21)
    assert f.theta().theta_inverse() == f
    with pytest.raises(NonzeroConstant):
        srs(1).theta_inverse()


def test_dilate():
    f = srs(1, 2, 3)
    g = f.dilate(Fraction(1, 2))
    assert g == srs(1, 1, Fraction(3, 4))
    assert f.dilate(2).dilate(Fraction(1, 2)) == f


def test_valuation():
    assert srs(0, 0, 5).valuation() == 2
    assert Series.zero(4).valuation() is None


def test_division():
    a = srs(1, 2, 1)
    b = srs(1, 1)
    assert (a / b) * b == a


def test_str_form():
    assert str(srs(0)).startswith("0")
    s = str(srs(1, -2))
    assert "q" in s


def test_matrix_inverse():
    rng = Random(7)
    for _ in range(15):
        n = rng.randint(1, 4)
        entries = [[rand_series(rng, order=6) for _ in range(n)]
                   for _ in range(n)]
        for i in range(n):
            entries[i][i] = rand_series(
                rng, order=6, start=Fraction(rng.choice((1, 2, -1))))
            for j in range(i):
                coeffs = list(entries[i][j].coeffs)
                coeffs[0] = ZERO
                entries[i][j] = Series(coeffs, 6)
        m = SeriesMatrix(entries)
        inv = matrix_inverse(m)
        assert m * inv == matrix_identity(n, 6)
        assert inv * m == matrix_identity(n, 6)


def test_matrix_inverse_singular():
    zero = Series.zero(4)
    with pytest.raises(ValueError):
        matrix_inverse(SeriesMatrix([[zero]]))


def test_matrix_theta_product_rule():
    rng = Random(8)
    a = SeriesMatrix([[rand_series(rng, order=6) for _ in range(2)]
                      for _ in range(2)])
    b = SeriesMatrix([[rand_series(rng, order=6) for _ in range(2)]
                      for _ in range(2)])
    lhs = (a * b).theta_entries()
    rhs = a.theta_entries() * b + a * b.theta_entries()
    assert lhs == rhs


def test_matrix_compose_dilate():
    rng = Random(9)
    m = SeriesMatrix([[rand_series(rng, order=6) for _ in range(2)]
                      for _ in range(2)])
    c = Scalar(Fraction(2, 3))
    d = m.dilate(c)
    assert d.entry(1, 0) == m.entry(1, 0).dilate(c)


def test_matrix_scalar_sides():
    rng = Random(10)
    m = SeriesMatrix([[rand_series(rng, order=5) for _ in range(2)]
                      for _ in range(2)])
    two = [[Scalar(2), ZERO], [ZERO, Scalar(2)]]
    assert m.scalar_left_mul(two) == m * Scalar(2)
    assert m.scalar_right_mul(two) == m * Scalar(2)
