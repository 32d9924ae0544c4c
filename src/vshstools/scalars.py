"""Exact scalars: Gaussian rationals (a + b*i)/d over the integers.

Every computation in this package runs over this field.  No floating point
is used anywhere, so results are bit-identical across runs and platforms.
A scalar is one normalized integer triple, so each sum, product or inverse
is a few integer operations and one gcd (Knuth, TAOCP Vol. 2, 4.5.1).
Matrix products bypass Scalar arithmetic per term: linalg sums them over
one common denominator and normalizes each entry once, through _norm.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]
ScalarLike = Union["Scalar", int, Fraction]

_gcd = math.gcd


class Scalar:
    """A Gaussian rational (a + b*i)/d, stored as the int triple (a, b, d).

    The triple is in normal form: d > 0 and gcd(a, b, d) = 1, so equal
    values have equal triples (zero is (0, 0, 1)).  `re` and `im` are
    read-only Fraction views.  Instances are immutable.
    """

    __slots__ = ("_abd",)

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            _set_abd(self, (re, im, 1))
            return
        re = Fraction(re)
        im = Fraction(im)
        p, q = re.denominator, im.denominator
        # d = lcm(p, q) leaves gcd(a, b, d) = 1 with no further reduction
        d = p * q // _gcd(p, q)
        _set_abd(self, (re.numerator * (d // p), im.numerator * (d // q), d))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def re(self) -> Fraction:
        a, _, d = self._abd
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._abd
        return Fraction(b, d)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def of(value: ScalarLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(value)

    @staticmethod
    def _maybe(value) -> "Scalar | None":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        return None

    @staticmethod
    def i_power(k: int) -> "Scalar":
        """i**k for any integer k (i**-1 == -i)."""
        k %= 4
        if k == 0:
            return ONE
        if k == 1:
            return I
        if k == 2:
            return Scalar(-1)
        return Scalar(0, -1)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "Scalar":
        if other.__class__ is not Scalar:
            other = Scalar._maybe(other)
            if other is None:
                return NotImplemented
        c, f, e = other._abd
        if not c and not f:
            return self
        a, b, d = self._abd
        if d == e:
            if d == 1:
                return _make(a + c, b + f, 1)
            return _norm(a + c, b + f, d)
        return _norm(a * e + c * d, b * e + f * d, d * e)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        a, b, d = self._abd
        return _make(-a, -b, d)

    def __sub__(self, other: ScalarLike) -> "Scalar":
        if other.__class__ is not Scalar:
            other = Scalar._maybe(other)
            if other is None:
                return NotImplemented
        a, b, d = self._abd
        c, f, e = other._abd
        if d == e:
            if d == 1:
                return _make(a - c, b - f, 1)
            return _norm(a - c, b - f, d)
        return _norm(a * e - c * d, b * e - f * d, d * e)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        o = Scalar._maybe(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: ScalarLike) -> "Scalar":
        if other.__class__ is not Scalar:
            other = Scalar._maybe(other)
            if other is None:
                return NotImplemented
        a, b, d = self._abd
        c, f, e = other._abd
        if not b and not f:
            if not a or not c:
                return ZERO
            if d == 1 and e == 1:
                return _make(a * c, 0, 1)
            return _norm(a * c, 0, d * e)
        return _norm(a * c - b * f, a * f + b * c, d * e)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        a, b, d = self._abd
        if not b:
            if not a:
                raise ZeroDivisionError("inverse of zero Scalar")
            return _norm(d, 0, a)
        # 1 / ((a + b i)/d) = d (a - b i) / (a^2 + b^2)
        return _norm(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        o = Scalar._maybe(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        o = Scalar._maybe(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "Scalar":
        a, b, d = self._abd
        return _make(a, -b, d)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        a, b, _ = self._abd
        return not a and not b

    def is_integer(self) -> bool:
        _, b, d = self._abd
        return not b and d == 1

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._abd == other._abd

    def __hash__(self):
        return hash(self._abd)

    # -- text form -------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({self.re!r}, {self.im!r})"


_set_abd = Scalar._abd.__set__
_new = object.__new__


def _make(a: int, b: int, d: int) -> Scalar:
    """Wrap a triple that is already in normal form."""
    s = _new(Scalar)
    _set_abd(s, (a, b, d))
    return s


def _norm(a: int, b: int, d: int) -> Scalar:
    """Scalar (a + b*i)/d for any d != 0, brought to normal form."""
    g = _gcd(a, b, d)
    if d < 0:
        g = -g
    if g != 1:
        a //= g
        b //= g
        d //= g
    s = _new(Scalar)  # _make, inlined on the hottest path
    _set_abd(s, (a, b, d))
    return s


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def _format_rational(n: int, d: int) -> str:
    """n/d in lowest terms, for d > 0."""
    g = _gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    if d == 1:
        return str(n)
    return f"{n}/{d}"


def format_scalar(s: Scalar) -> str:
    """Canonical string form: "a/b", "c/d*i" or "a/b+c/d*i" in lowest terms."""
    a, b, d = s._abd
    if not b:
        return _format_rational(a, d)
    im_part = f"{_format_rational(abs(b), d)}*i"
    if not a:
        return im_part if b > 0 else "-" + im_part
    sign = "+" if b > 0 else "-"
    return f"{_format_rational(a, d)}{sign}{im_part}"


# Fraction expands the 10**300 of "1e300" before any size check can run
MAX_SCALAR_EXPONENT = 4300


def parse_scalar(text: str) -> Scalar:
    """Parse the canonical scalar string form.

    Accepts "a", "a/b", optionally followed by "+c/d*i" or "-c/d*i", and
    the purely imaginary forms "c/d*i", "-c/d*i", "i", "-i"; an exponent
    ("1e300") is at most MAX_SCALAR_EXPONENT in magnitude.
    """
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("empty scalar string")
    # split into real and imaginary summands at a sign that is not leading
    parts = []
    start = 0
    for k in range(1, len(t)):
        if t[k] in "+-" and t[k - 1] not in "+-/*^eE":
            parts.append(t[start:k])
            start = k
    parts.append(t[start:])
    re = im = Fraction(0)
    try:
        for p in parts:
            if p in ("i", "+i", "-i"):
                p = p[:-1] + "1*i"
            imag = p.endswith("*i")
            num = p[:-2] if imag else p
            exp = num.lower().partition("e")[2].replace("_", "").lstrip("+-0")
            if exp.isdecimal() and (len(exp) > len(str(MAX_SCALAR_EXPONENT))
                                    or int(exp) > MAX_SCALAR_EXPONENT):
                raise ValueError("exponent exceeds the limit "
                                 "MAX_SCALAR_EXPONENT = "
                                 f"{MAX_SCALAR_EXPONENT}")
            if imag:
                im += Fraction(num)
            else:
                re += Fraction(num)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {text!r}") from None
    return Scalar(re, im)
