"""Truncated formal power series over Gaussian rationals.

A Series holds coefficients c_0 .. c_{N-1} and means "known modulo q^N".
Binary operations truncate to the smaller operand order, so precision
never silently inflates.  Everything is exact; there is no floating
point anywhere and results are bit-identical across runs.

Products, inverses, exp, composition and reversion run on the integer
kernel of linalg in rank 1: each factor is lifted once to Gaussian-integer
numerators over one common denominator (linalg.lift_vector), each output
coefficient is a plain int dot product, normalized once.  Reversion is
Lagrange inversion by the baby-step giant-step method (Brent and Kung,
JACM 25, 1978; Johansson, Math. Comp. 84, 2015): about 2 sqrt(n) series
products and n dot products instead of n - 2 products.

SeriesMatrix is a dense rectangular matrix of Series sharing one
truncation order, stored coefficient-major as one scalar matrix per
q-order: products are convolutions of those matrices, each output
coefficient summed over one common denominator by the linalg integer
kernel, and the order-by-order inverse works on them directly.  The
normal form needs no inverse: vshs.to_canonical_connection solves for
its frame and connection together, order by order.
"""
from __future__ import annotations

from math import isqrt, lcm
from operator import add, mul
from typing import Callable, Iterable, Sequence, Union

from . import linalg
from .linalg import Accumulator, Lifted, lift_vector
from .scalars import ONE, ZERO, Scalar, ScalarLike, _norm

ScalarMatrix = list[list[Scalar]]
# a lifted vector (den, re, im) from linalg.lift_vector; im None when real
LiftedVector = tuple[int, list[int], Union[list[int], None]]


class SeriesError(ValueError):
    """Base class for series-domain errors."""


class ZeroConstantTerm(SeriesError):
    """Multiplicative inverse requested for a series vanishing at q = 0."""


class NonzeroInnerConstant(SeriesError):
    """Composition f(g) requires g(0) = 0."""


class NotReversible(SeriesError):
    """Compositional inverse requires f(0) = 0 and f'(0) invertible."""


class BadConstantTerm(SeriesError):
    """exp needs a(0) = 0, log needs a(0) = 1."""


class NonzeroConstant(SeriesError):
    """theta_inverse would produce a log term: a(0) must vanish."""


def _coerce(value) -> Scalar:
    return value if isinstance(value, Scalar) else Scalar(value)


def _dot(a: LiftedVector, sa: slice, b: LiftedVector,
         sb: slice) -> tuple[int, int]:
    """The numerator (re, im) of sum a[k] b[k'] over two equally long
    slices, over the denominator a[0] * b[0]."""
    _, ar, ai = a
    _, br, bi = b
    re = sum(map(mul, ar[sa], br[sb]))
    im = 0
    if ai is not None:
        im = sum(map(mul, ai[sa], br[sb]))
        if bi is not None:
            re -= sum(map(mul, ai[sa], bi[sb]))
    if bi is not None:
        im += sum(map(mul, ar[sa], bi[sb]))
    return re, im


def _reversed(a: LiftedVector) -> LiftedVector:
    den, re, im = a
    return den, re[::-1], None if im is None else im[::-1]


def _lead(a: LiftedVector) -> int:
    """Index of the first nonzero entry; the length if there is none."""
    _, re, im = a
    n = len(re)
    k = next((i for i, x in enumerate(re) if x), n)
    if im is not None:
        k = min(k, next((i for i, x in enumerate(im) if x), n))
    return k


def _product(a: LiftedVector, b: LiftedVector) -> LiftedVector:
    """The product of two lifted series of one length n, to n terms:
    one dot product per output coefficient, past both leading zeros."""
    n = len(a[1])
    va, vb = _lead(a), _lead(b)
    rev = _reversed(b)
    re = [0] * n
    im = [0] * n
    for k in range(va + vb, n):
        re[k], im[k] = _dot(a, slice(va, k - vb + 1),
                            rev, slice(n - 1 - k + va, n - vb))
    real = a[2] is None and b[2] is None
    return a[0] * b[0], re, None if real else im


def _lower(a: LiftedVector) -> list[Scalar]:
    """A lifted vector as Scalars, one normalization per nonzero entry."""
    den, re, im = a
    if im is None:
        return [_norm(x, 0, den) if x else ZERO for x in re]
    return [_norm(x, y, den) if x or y else ZERO for x, y in zip(re, im)]


def _split(a: LiftedVector, n: int) -> list[LiftedVector]:
    """A lifted concatenation of series of n terms each, cut apart."""
    den, re, im = a
    return [(den, re[k:k + n], None if im is None else im[k:k + n])
            for k in range(0, len(re), n or 1)]


def _recurrence(w: LiftedVector, first: Scalar,
                factor: Callable[[int], tuple[int, int, int]]
                ) -> list[Scalar]:
    """b_0 = first and b_k = f_k sum_(j=1..k) w_j b_(k-j) for k < len(w),
    where factor(k) is the triple (p, q, r) of f_k = (p + q i)/r.

    b is kept lifted over the lcm of the denominators so far, rescaled
    when a new one joins, so each b_k is one dot product against the
    reversed w and one normalization.
    """
    n = len(w[1])
    w_rev = _reversed(w)
    out = [first]
    x, y, den_b = first._abd
    re_b, im_b = [x], [y]
    real = not y
    for k in range(1, n):
        s_re, s_im = _dot((den_b, re_b, None if real else im_b),
                          slice(0, k), w_rev, slice(n - 1 - k, n - 1))
        p, q, r = factor(k)
        b = _norm(p * s_re - q * s_im, p * s_im + q * s_re, r * w[0] * den_b)
        out.append(b)
        x, y, d = b._abd
        if den_b % d:
            new = lcm(den_b, d)
            f = new // den_b
            re_b = [v * f for v in re_b]
            im_b = [v * f for v in im_b]
            den_b = new
        f = den_b // d
        re_b.append(x * f)
        im_b.append(y * f)
        real = real and not y
    return out


class Series:
    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        cs = [_coerce(c) for c in coeffs][:order]
        cs.extend([ZERO] * (order - len(cs)))
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @staticmethod
    def _make(coeffs: Iterable[Scalar], order: int) -> "Series":
        """The series of exactly `order` Scalars, taken as they are."""
        s = _new(Series)
        _set_coeffs(s, tuple(coeffs))
        _set_order(s, order)
        return s

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(order: int) -> "Series":
        return Series((), order)

    @staticmethod
    def one(order: int) -> "Series":
        return Series((ONE,), order)

    @staticmethod
    def constant(c: ScalarLike, order: int) -> "Series":
        return Series((_coerce(c),), order)

    @staticmethod
    def coordinate(order: int) -> "Series":
        """The series q itself."""
        return Series((ZERO, ONE), order)

    # -- inspection ------------------------------------------------------

    def coefficient(self, k: int) -> Scalar:
        if k < 0 or k >= self.order:
            raise IndexError(f"coefficient {k} not known at order {self.order}")
        return self.coeffs[k]

    def at0(self) -> Scalar:
        if self.order == 0:
            raise ValueError("constant term unknown at order 0")
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, None if zero mod q^order."""
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                return k
        return None

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return Series._make(self.coeffs[:order], order)

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> "Series":
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series._make(
                (self.coeffs[k] + other.coeffs[k] for k in range(n)), n)
        return self + Series.constant(other, self.order)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series._make((-c for c in self.coeffs), self.order)

    def __sub__(self, other) -> "Series":
        return self + (-other if isinstance(other, Series)
                       else Series.constant(_coerce(other), self.order).__neg__())

    def __rsub__(self, other) -> "Series":
        return (-self) + other

    def __mul__(self, other) -> "Series":
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series._make(_lower(_product(
                lift_vector(self.coeffs[:n]), lift_vector(other.coeffs[:n]))),
                n)
        c = _coerce(other)
        return Series._make((c * x for x in self.coeffs), self.order)

    __rmul__ = __mul__

    def inverse(self) -> "Series":
        """Multiplicative inverse by the order-by-order recurrence
        b_k = -b_0 sum_(j=1..k) a_j b_(k-j)."""
        a0 = self.at0()
        if a0.is_zero():
            raise ZeroConstantTerm("cannot invert a series with a(0) = 0")
        inv0 = a0.inverse()
        p, q, r = inv0._abd
        return Series._make(_recurrence(lift_vector(self.coeffs), inv0,
                                        lambda k: (-p, -q, r)), self.order)

    def __truediv__(self, other) -> "Series":
        if isinstance(other, Series):
            return self * other.inverse()
        return self * _coerce(other).inverse()

    # -- composition -----------------------------------------------------

    def compose(self, inner: "Series") -> "Series":
        """f(g) for g(0) = 0, summed over the powers of g."""
        return PowerTable(inner.truncate(min(self.order, inner.order)))\
            .compose(self)

    def reverse(self) -> "Series":
        """Compositional inverse g with f(g) = q modulo q^order.

        Lagrange inversion, [q^m] g = (1/m) [q^(m-1)] h^m for h = q/f and
        m < n, by baby steps and giant steps: with b = isqrt(n - 1), the
        powers h^0 .. h^(b-1) and (h^b)^0 .. (h^b)^((n-1) div b) are each
        lifted once, and [q^(m-1)] h^m is the integer dot product of
        h^(m mod b) with (h^b)^(m div b).  That is b + (n-1) div b - 2
        series products, about 2 sqrt(n), where one product per m would
        be n - 2.
        """
        n = self.order
        if n >= 1 and not self.coeffs[0].is_zero():
            raise NotReversible("reversion requires f(0) = 0")
        if n >= 2 and self.coeffs[1].is_zero():
            raise NotReversible("reversion requires f'(0) != 0")
        if n <= 1:
            return Series.zero(n)
        last = n - 1  # g_1 .. g_last are computed
        h = Series._make(self.coeffs[1:], last).inverse()
        b = isqrt(last)
        baby = [Series.one(last), h]
        for _ in range(b - 1):
            baby.append(baby[-1] * h)
        step = baby.pop()  # h^b
        giant = [Series.one(last), step]
        for _ in range(last // b - 1):
            giant.append(giant[-1] * step)
        baby_l = [lift_vector(s.coeffs) for s in baby]
        giant_l = [_reversed(lift_vector(s.coeffs)) for s in giant]
        g = [ZERO]
        for m in range(1, n):
            x, y = baby_l[m % b], giant_l[m // b]
            re, im = _dot(x, slice(0, m), y, slice(last - m, last))
            g.append(_norm(re, im, x[0] * y[0] * m))
        return Series._make(g, n)

    # -- exp / log / theta -----------------------------------------------

    def exp(self) -> "Series":
        if self.order == 0:
            return Series.zero(0)
        if not self.coeffs[0].is_zero():
            raise BadConstantTerm("exp requires a(0) = 0")
        # k b_k = sum_{j=1..k} j a_j b_{k-j}
        den, re, im = lift_vector(self.coeffs)
        w = (den, [j * x for j, x in enumerate(re)],
             None if im is None else [j * y for j, y in enumerate(im)])
        return Series._make(_recurrence(w, ONE, lambda k: (1, 0, k)),
                            self.order)

    def log(self) -> "Series":
        if self.order == 0:
            return Series.zero(0)
        if self.coeffs[0] != ONE:
            raise BadConstantTerm("log requires a(0) = 1")
        # theta(log a) = theta(a)/a, then integrate
        return (self.theta() * self.inverse()).theta_inverse()

    def theta(self) -> "Series":
        """q d/dq."""
        return Series._make(
            (Scalar(k) * c for k, c in enumerate(self.coeffs)), self.order)

    def theta_inverse(self) -> "Series":
        """The antiderivative for q d/dq with zero constant term."""
        if self.order > 0 and not self.coeffs[0].is_zero():
            raise NonzeroConstant("theta_inverse requires a(0) = 0")
        out = [ZERO]
        for k in range(1, self.order):
            out.append(self.coeffs[k] / Scalar(k))
        return Series._make(out[:self.order], self.order)

    def dilate(self, c: ScalarLike) -> "Series":
        """Substitute q -> c*q."""
        cc = _coerce(c)
        out = []
        power = ONE
        for a in self.coeffs:
            out.append(power * a)
            power = power * cc
        return Series._make(out, self.order)

    # -- comparison and text ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.order))

    def agree_mod(self, other: "Series", order: int) -> bool:
        if order > min(self.order, other.order):
            raise ValueError("comparison order exceeds known precision")
        return self.coeffs[:order] == other.coeffs[:order]

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cs = str(c)
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = f"({cs})"
            if k == 0:
                terms.append(cs)
            elif k == 1:
                terms.append(f"{cs}*q")
            else:
                terms.append(f"{cs}*q^{k}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(q^{self.order})"

    def __repr__(self) -> str:
        return f"Series({[str(c) for c in self.coeffs]}, order={self.order})"


_new = object.__new__
_set_coeffs = Series.coeffs.__set__
_set_order = Series.order.__set__

SeriesLike = Union[Series, Scalar, int]


class PowerTable:
    """The powers 1, g, ..., g^(n-1) of an inner series g with g(0) = 0.

    Built once, it composes any number of outer series with g: f(g) is
    the sum of f_k g^k, where a Horner pass would take n series products
    per outer series.  Column j of the table, the q^j coefficients of
    g^0 .. g^j (g^k vanishes below q^k), is lifted once, so coefficient
    j of f(g) is one integer dot product.
    """

    __slots__ = ("powers", "order", "_columns")

    def __init__(self, inner: Series):
        n = inner.order
        if n > 0 and not inner.coeffs[0].is_zero():
            raise NonzeroInnerConstant("inner series must vanish at q = 0")
        powers = [Series.one(n)]
        for _ in range(1, n):
            powers.append(powers[-1] * inner)
        object.__setattr__(self, "powers", tuple(powers))
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "_columns", [
            lift_vector([p.coeffs[j] for p in powers[:j + 1]])
            for j in range(n)])

    def __setattr__(self, name, value):
        raise AttributeError("PowerTable is immutable")

    def compose(self, outer: Series) -> Series:
        """outer(g) modulo q^min(outer.order, g.order)."""
        n = min(outer.order, self.order)
        f = lift_vector(outer.coeffs[:n])
        out = []
        for j, col in enumerate(self._columns[:n]):
            re, im = _dot(f, slice(0, j + 1), col, slice(0, j + 1))
            out.append(_norm(re, im, f[0] * col[0]))
        return Series._make(out, n)


def _shape(entries: Sequence[Sequence]) -> tuple[int, int]:
    rows = len(entries)
    if rows == 0 or len(entries[0]) == 0:
        raise ValueError("matrix must have positive dimensions")
    cols = len(entries[0])
    if any(len(row) != cols for row in entries):
        raise ValueError("ragged matrix")
    return rows, cols


class SeriesMatrix:
    """Rectangular matrix of Series with one shared truncation order.

    Stored coefficient-major: coeffs is a tuple holding, for k < order,
    the scalar matrix of q^k as a list of rows of Scalar.  Those lists
    are never mutated once a matrix holds them: every operation builds
    new ones, and the accessors that hand a matrix out return copies.
    _lifts caches them as linalg.Lifted, built by the first product that
    needs them (see _lifted).
    """

    __slots__ = ("rows", "cols", "order", "coeffs", "_lifts")

    def __init__(self, entries: Sequence[Sequence[Series]]):
        rows, cols = _shape(entries)
        order = entries[0][0].order
        if any(e.order != order for row in entries for e in row):
            raise ValueError("entries must share one truncation order")
        self._set([[[e.coeffs[k] for e in row] for row in entries]
                   for k in range(order)], rows, cols)

    def _set(self, mats: Sequence[ScalarMatrix], rows: int,
             cols: int) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "order", len(mats))
        object.__setattr__(self, "coeffs", tuple(mats))
        object.__setattr__(self, "_lifts", None)

    def __setattr__(self, name, value):
        raise AttributeError("SeriesMatrix is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_coefficients(mats: Sequence[ScalarMatrix], rows: int,
                          cols: int) -> "SeriesMatrix":
        """The matrix whose q^k coefficient is mats[k].

        Takes the lists over without copying: the caller must not
        mutate them afterwards.
        """
        m = object.__new__(SeriesMatrix)
        m._set(mats, rows, cols)
        return m

    @staticmethod
    def zeros(rows: int, cols: int, order: int) -> "SeriesMatrix":
        return SeriesMatrix.from_scalar_matrix(linalg.zeros(rows, cols),
                                               order)

    @staticmethod
    def identity(n: int, order: int) -> "SeriesMatrix":
        return SeriesMatrix.from_scalar_matrix(linalg.identity(n), order)

    @staticmethod
    def from_scalar_matrix(m: ScalarMatrix, order: int) -> "SeriesMatrix":
        rows, cols = _shape(m)
        if order < 0:
            raise ValueError("order must be nonnegative")
        mats = [[[_coerce(x) for x in row] for row in m]]
        mats.extend(linalg.zeros(rows, cols) for _ in range(1, order))
        return SeriesMatrix.from_coefficients(mats[:order], rows, cols)

    # -- inspection ------------------------------------------------------

    def entry(self, i: int, j: int) -> Series:
        return Series([m[i][j] for m in self.coeffs], self.order)

    def coefficient_matrix(self, k: int) -> ScalarMatrix:
        if k < 0 or k >= self.order:
            raise IndexError(f"coefficient {k} not known at order "
                             f"{self.order}")
        return linalg.copy_matrix(self.coeffs[k])

    def at0(self) -> ScalarMatrix:
        return self.coefficient_matrix(0)

    def first_nonzero(self, where: Callable[[int, int], bool] | None = None
                      ) -> tuple[int, int, int] | None:
        """(k, i, j) of the first nonzero coefficient, by q-order and then
        row by row, among the entries (i, j) that `where` accepts (all by
        default); None if there is none modulo q^order."""
        for k, m in enumerate(self.coeffs):
            for i, row in enumerate(m):
                for j, x in enumerate(row):
                    if not x.is_zero() and (where is None or where(i, j)):
                        return k, i, j
        return None

    def is_zero(self) -> bool:
        return self.first_nonzero() is None

    def truncate(self, order: int) -> "SeriesMatrix":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        if order < 0:
            raise ValueError("order must be nonnegative")
        return self._like(self.coeffs[:order])

    def _like(self, mats: Sequence[ScalarMatrix]) -> "SeriesMatrix":
        return SeriesMatrix.from_coefficients(mats, self.rows, self.cols)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        self._check_shape(other)
        return self._like([linalg.mat_add(a, b)
                           for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        self._check_shape(other)
        return self._like([linalg.mat_sub(a, b)
                           for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "SeriesMatrix":
        return self._like([linalg.mat_neg(a) for a in self.coeffs])

    def _check_shape(self, other: "SeriesMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __mul__(self, other) -> "SeriesMatrix":
        """Matrix product as the convolution C_k = sum_j A_j B_(k-j),
        each C_k summed over one denominator and normalized once; a
        Series or scalar factor multiplies every entry."""
        if isinstance(other, SeriesMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in matrix product")
            la, lb = self._lifted(), other._lifted()
            out = []
            for k in range(min(self.order, other.order)):
                acc = Accumulator(self.rows, other.cols)
                for j in range(k + 1):
                    acc.add_product(la[j], lb[k - j])
                out.append(acc.lower())
            return SeriesMatrix.from_coefficients(out, self.rows, other.cols)
        if isinstance(other, Series):
            n = min(self.order, other.order)
            la = self._lifted()
            ls = [Lifted.scalar(c, self.rows) for c in other.coeffs[:n]]
            out = []
            for k in range(n):
                acc = Accumulator(self.rows, self.cols)
                for j in range(k + 1):
                    acc.add_product(ls[j], la[k - j])
                out.append(acc.lower())
            return self._like(out)
        c = _coerce(other)
        return self._like([linalg.mat_scale(m, c) for m in self.coeffs])

    def __rmul__(self, other) -> "SeriesMatrix":
        if isinstance(other, SeriesMatrix):
            return NotImplemented
        return self.__mul__(other)

    def _lifted(self) -> list[Lifted]:
        """The coefficient matrices as Lifted, built on first use."""
        if self._lifts is None:
            object.__setattr__(self, "_lifts",
                               [Lifted.of(m) for m in self.coeffs])
        return self._lifts

    def scalar_left_mul(self, m: ScalarMatrix) -> "SeriesMatrix":
        """Constant matrix times this matrix, one product per q-order."""
        if len(m[0]) != self.rows:
            raise ValueError("shape mismatch")
        lm = Lifted.of(m)
        return SeriesMatrix.from_coefficients(
            [lm.times(a) for a in self._lifted()], len(m), self.cols)

    def scalar_right_mul(self, m: ScalarMatrix) -> "SeriesMatrix":
        if len(m) != self.cols:
            raise ValueError("shape mismatch")
        lm = Lifted.of(m)
        return SeriesMatrix.from_coefficients(
            [a.times(lm) for a in self._lifted()], self.rows, len(m[0]))

    def transpose(self) -> "SeriesMatrix":
        return SeriesMatrix.from_coefficients(
            [linalg.transpose(a) for a in self.coeffs], self.cols, self.rows)

    def apply(self, vec: Sequence[Series]) -> list[Series]:
        """The column of series sum_j A_ij v_j.  The v_j are lifted over
        one denominator, the entries of each row over another, so each
        output coefficient is one integer sum, normalized once."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        n = min(self.order, min(v.order for v in vec))
        lv = _split(lift_vector([x for v in vec for x in v.coeffs[:n]]), n)
        out = []
        for i in range(self.rows):
            row = _split(lift_vector([m[i][j] for j in range(self.cols)
                                      for m in self.coeffs[:n]]), n)
            den, re, im = 1, [0] * n, None
            for a, v in zip(row, lv):
                den, p_re, p_im = _product(a, v)
                re = list(map(add, re, p_re))
                if p_im is not None:
                    im = p_im if im is None else list(map(add, im, p_im))
            out.append(Series._make(_lower((den, re, im)), n))
        return out

    def theta_entries(self) -> "SeriesMatrix":
        return self._like([linalg.mat_scale(m, Scalar(k))
                           for k, m in enumerate(self.coeffs)])

    def compose_entries(self, inner: "Series | PowerTable") -> "SeriesMatrix":
        """Every entry composed with one inner series g.

        Coefficient j of the result is sum_k A_k (g^k)_j over a table of
        the powers of g, built once (or passed in, to share it between
        several compositions).
        """
        table = inner if isinstance(inner, PowerTable) else PowerTable(inner)
        n = min(self.order, table.order)
        la = self._lifted()
        out = []
        for j in range(n):
            acc = Accumulator(self.rows, self.cols)
            for k in range(j + 1):  # g^k vanishes below q^k
                acc.add_product(
                    Lifted.scalar(table.powers[k].coeffs[j], self.rows),
                    la[k])
            out.append(acc.lower())
        return self._like(out)

    def dilate(self, c: ScalarLike) -> "SeriesMatrix":
        """Substitute q -> c*q: coefficient k scales by c^k."""
        cc = _coerce(c)
        out = []
        power = ONE
        for m in self.coeffs:
            out.append(linalg.mat_scale(m, power))
            power = power * cc
        return self._like(out)

    def inverse(self) -> "SeriesMatrix":
        """Order-by-order inverse; requires the constant term invertible:
        X_k = -M_0^-1 sum_(j=1..k) M_j X_(k-j)."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        if self.order == 0:
            raise ValueError("cannot invert at order 0")
        m0_inv = linalg.inverse(self.coeffs[0])
        neg_inv = Lifted.of(linalg.mat_neg(m0_inv))
        lm = self._lifted()
        out = [m0_inv]
        lout = [Lifted.of(m0_inv)]
        for k in range(1, self.order):
            acc = Accumulator(self.rows, self.rows)
            for j in range(1, k + 1):
                acc.add_product(lm[j], lout[k - j])
            x_k = Accumulator(self.rows, self.rows)
            x_k.add_product(neg_inv, acc.lifted())
            out.append(x_k.lower())
            lout.append(x_k.lifted())
        return self._like(out)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.order, self.coeffs) == \
            (other.rows, other.cols, other.order, other.coeffs)

    def __hash__(self):
        return hash((self.rows, self.cols, self.order,
                     tuple(tuple(row) for m in self.coeffs for row in m)))

    def __repr__(self) -> str:
        return f"SeriesMatrix({self.rows}x{self.cols}, order={self.order})"
