"""Exact scalars: Gaussian rationals a + b*i with Fraction components.

Every computation in this package runs over this field.  No floating point
is used anywhere, so results are bit-identical across runs and platforms.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]
ScalarLike = Union["Scalar", int, Fraction]


class Scalar:
    """A Gaussian rational, stored as two Fractions (real and imaginary part).

    Fraction keeps numerators and denominators in lowest terms with a
    positive denominator, which is exactly the normal form we need.
    Instances are immutable.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

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
        o = Scalar._maybe(other)
        if o is None:
            return NotImplemented
        return Scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __sub__(self, other: ScalarLike) -> "Scalar":
        o = Scalar._maybe(other)
        if o is None:
            return NotImplemented
        return Scalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        o = Scalar._maybe(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: ScalarLike) -> "Scalar":
        o = Scalar._maybe(other)
        if o is None:
            return NotImplemented
        return Scalar(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Scalar")
        return Scalar(self.re / n, -self.im / n)

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
        return Scalar(self.re, -self.im)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def is_integer(self) -> bool:
        return self.im == 0 and self.re.denominator == 1

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- text form -------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({self.re!r}, {self.im!r})"


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def _format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_scalar(s: Scalar) -> str:
    """Canonical string form: "a/b", "c/d*i" or "a/b+c/d*i" in lowest terms."""
    if s.im == 0:
        return _format_rational(s.re)
    im_part = f"{_format_rational(abs(s.im))}*i"
    if s.re == 0:
        return im_part if s.im > 0 else "-" + im_part
    sign = "+" if s.im > 0 else "-"
    return f"{_format_rational(s.re)}{sign}{im_part}"


def parse_scalar(text: str) -> Scalar:
    """Parse the canonical scalar string form.

    Accepts "a", "a/b", optionally followed by "+c/d*i" or "-c/d*i", and
    the purely imaginary forms "c/d*i", "-c/d*i", "i", "-i".
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
    re = Fraction(0)
    im = Fraction(0)
    try:
        for p in parts:
            if p.endswith("*i") or p == "i" or p == "-i" or p == "+i":
                if p in ("i", "+i"):
                    im += 1
                elif p == "-i":
                    im -= 1
                else:
                    im += Fraction(p[:-2])
            else:
                re += Fraction(p)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {text!r}") from None
    return Scalar(re, im)


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative Fraction, or None."""
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        return None
    return Fraction(rn, rd)


def sqrt_exact(s: Scalar) -> Scalar | None:
    """An exact Gaussian-rational square root of s, or None if none exists.

    For s = a + b*i the root x + y*i satisfies x**2 = (a + |s|)/2 and
    y = b/(2x), where |s| = sqrt(a**2 + b**2) must itself be rational.
    """
    if s.is_zero():
        return ZERO
    if s.im == 0:
        r = _fraction_sqrt(s.re)
        if r is not None:
            return Scalar(r)
        r = _fraction_sqrt(-s.re)
        if r is not None:
            return Scalar(0, r)
        return None
    norm = _fraction_sqrt(s.re * s.re + s.im * s.im)
    if norm is None:
        return None
    x = _fraction_sqrt((s.re + norm) / 2)
    if x is None or x == 0:
        return None
    y = s.im / (2 * x)
    cand = Scalar(x, y)
    if cand * cand == s:
        return cand
    return None
