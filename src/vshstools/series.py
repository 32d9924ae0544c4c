"""Truncated formal power series over Gaussian rationals.

A Series holds coefficients c_0 .. c_{N-1} and means "known modulo q^N".
Binary operations truncate to the smaller operand order, so precision
never silently inflates.  Everything is exact; there is no floating
point anywhere and results are bit-identical across runs.

SeriesMatrix is a dense rectangular matrix of Series sharing one
truncation order, with the order-by-order inverse needed for gauge
transformations.
"""
from __future__ import annotations

from typing import Callable, Iterable, Sequence, Union

from . import linalg
from .scalars import ONE, ZERO, Scalar, ScalarLike

ScalarMatrix = list[list[Scalar]]


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
        return Series(self.coeffs[:order], order)

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> "Series":
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series(
                (self.coeffs[k] + other.coeffs[k] for k in range(n)), n)
        return self + Series.constant(other, self.order)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series((-c for c in self.coeffs), self.order)

    def __sub__(self, other) -> "Series":
        return self + (-other if isinstance(other, Series)
                       else Series.constant(_coerce(other), self.order).__neg__())

    def __rsub__(self, other) -> "Series":
        return (-self) + other

    def __mul__(self, other) -> "Series":
        if isinstance(other, Series):
            n = min(self.order, other.order)
            out = [ZERO] * n
            for i in range(n):
                a = self.coeffs[i]
                if a.is_zero():
                    continue
                for j in range(n - i):
                    b = other.coeffs[j]
                    if not b.is_zero():
                        out[i + j] = out[i + j] + a * b
            return Series(out, n)
        c = _coerce(other)
        return Series((c * x for x in self.coeffs), self.order)

    __rmul__ = __mul__

    def inverse(self) -> "Series":
        """Multiplicative inverse by the usual order-by-order recurrence."""
        a0 = self.at0()
        if a0.is_zero():
            raise ZeroConstantTerm("cannot invert a series with a(0) = 0")
        inv0 = a0.inverse()
        out = [inv0]
        for k in range(1, self.order):
            s = ZERO
            for j in range(1, k + 1):
                aj = self.coeffs[j]
                if not aj.is_zero():
                    s = s + aj * out[k - j]
            out.append(-inv0 * s)
        return Series(out, self.order)

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

        Lagrange inversion: [q^m] g = (1/m) [q^(m-1)] (q/f)^m.  One
        series inverse of f/q and n - 2 products of it, O(n^3) scalar
        operations in all.
        """
        n = self.order
        if n >= 1 and not self.coeffs[0].is_zero():
            raise NotReversible("reversion requires f(0) = 0")
        if n >= 2 and self.coeffs[1].is_zero():
            raise NotReversible("reversion requires f'(0) != 0")
        if n <= 1:
            return Series.zero(n)
        q_over_f = Series(self.coeffs[1:], n - 1).inverse()
        g = [ZERO, q_over_f.coeffs[0]]
        power = q_over_f
        for m in range(2, n):
            power = power * q_over_f
            g.append(power.coeffs[m - 1] / Scalar(m))
        return Series(g, n)

    # -- exp / log / theta -----------------------------------------------

    def exp(self) -> "Series":
        if self.order == 0:
            return Series.zero(0)
        if not self.coeffs[0].is_zero():
            raise BadConstantTerm("exp requires a(0) = 0")
        out = [ONE] + [ZERO] * (self.order - 1)
        # k b_k = sum_{j=1..k} j a_j b_{k-j}
        for k in range(1, self.order):
            s = ZERO
            for j in range(1, k + 1):
                aj = self.coeffs[j]
                if not aj.is_zero():
                    s = s + Scalar(j) * aj * out[k - j]
            out[k] = s / Scalar(k)
        return Series(out, self.order)

    def log(self) -> "Series":
        if self.order == 0:
            return Series.zero(0)
        if self.coeffs[0] != ONE:
            raise BadConstantTerm("log requires a(0) = 1")
        # theta(log a) = theta(a)/a, then integrate
        return (self.theta() * self.inverse()).theta_inverse()

    def theta(self) -> "Series":
        """q d/dq."""
        return Series((Scalar(k) * c for k, c in enumerate(self.coeffs)),
                      self.order)

    def theta_inverse(self) -> "Series":
        """The antiderivative for q d/dq with zero constant term."""
        if self.order > 0 and not self.coeffs[0].is_zero():
            raise NonzeroConstant("theta_inverse requires a(0) = 0")
        out = [ZERO]
        for k in range(1, self.order):
            out.append(self.coeffs[k] / Scalar(k))
        return Series(out, self.order)

    def dilate(self, c: ScalarLike) -> "Series":
        """Substitute q -> c*q."""
        cc = _coerce(c)
        out = []
        power = ONE
        for a in self.coeffs:
            out.append(power * a)
            power = power * cc
        return Series(out, self.order)

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


SeriesLike = Union[Series, Scalar, int]


class PowerTable:
    """The powers 1, g, ..., g^(n-1) of an inner series g with g(0) = 0.

    Built once, it composes any number of outer series with g: f(g) is
    the sum of f_k g^k, one scalar multiply-add per coefficient pair,
    where a Horner pass would take n series products per outer series.
    """

    __slots__ = ("powers", "order")

    def __init__(self, inner: Series):
        n = inner.order
        if n > 0 and not inner.coeffs[0].is_zero():
            raise NonzeroInnerConstant("inner series must vanish at q = 0")
        powers = [Series.one(n)]
        for _ in range(1, n):
            powers.append(powers[-1] * inner)
        object.__setattr__(self, "powers", tuple(powers))
        object.__setattr__(self, "order", n)

    def __setattr__(self, name, value):
        raise AttributeError("PowerTable is immutable")

    def compose(self, outer: Series) -> Series:
        """outer(g) modulo q^min(outer.order, g.order)."""
        n = min(outer.order, self.order)
        out = [ZERO] * n
        for k in range(n):
            c = outer.coeffs[k]
            if c.is_zero():
                continue
            pk = self.powers[k].coeffs
            for j in range(k, n):  # g^k vanishes below q^k
                x = pk[j]
                if not x.is_zero():
                    out[j] = out[j] + c * x
        return Series(out, n)


class SeriesMatrix:
    """Rectangular matrix of Series with one shared truncation order."""

    __slots__ = ("rows", "cols", "entries", "order")

    def __init__(self, entries: Sequence[Sequence[Series]]):
        rows = len(entries)
        if rows == 0 or len(entries[0]) == 0:
            raise ValueError("matrix must have positive dimensions")
        cols = len(entries[0])
        flat: list[Series] = []
        order = entries[0][0].order
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            for e in row:
                if e.order != order:
                    raise ValueError("entries must share one truncation order")
                flat.append(e)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(flat))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("SeriesMatrix is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int, order: int) -> "SeriesMatrix":
        z = Series.zero(order)
        return SeriesMatrix([[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int, order: int) -> "SeriesMatrix":
        z = Series.zero(order)
        one = Series.one(order)
        return SeriesMatrix(
            [[one if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_scalar_matrix(m: ScalarMatrix, order: int) -> "SeriesMatrix":
        return SeriesMatrix(
            [[Series.constant(x, order) for x in row] for row in m])

    # -- inspection ------------------------------------------------------

    def entry(self, i: int, j: int) -> Series:
        return self.entries[i * self.cols + j]

    def coefficient_matrix(self, k: int) -> ScalarMatrix:
        return [[self.entry(i, j).coefficient(k) for j in range(self.cols)]
                for i in range(self.rows)]

    def at0(self) -> ScalarMatrix:
        return self.coefficient_matrix(0)

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def truncate(self, order: int) -> "SeriesMatrix":
        return self.map_entries(lambda e: e.truncate(order))

    # -- arithmetic ------------------------------------------------------

    def map_entries(self, f: Callable[[Series], Series]) -> "SeriesMatrix":
        return SeriesMatrix([[f(self.entry(i, j)) for j in range(self.cols)]
                             for i in range(self.rows)])

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        self._check_shape(other)
        return SeriesMatrix(
            [[self.entry(i, j) + other.entry(i, j) for j in range(self.cols)]
             for i in range(self.rows)])

    def __sub__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        self._check_shape(other)
        return SeriesMatrix(
            [[self.entry(i, j) - other.entry(i, j) for j in range(self.cols)]
             for i in range(self.rows)])

    def __neg__(self) -> "SeriesMatrix":
        return self.map_entries(lambda e: -e)

    def _check_shape(self, other: "SeriesMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __mul__(self, other) -> "SeriesMatrix":
        if isinstance(other, SeriesMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in matrix product")
            n = min(self.order, other.order)
            out = []
            for i in range(self.rows):
                row = []
                for j in range(other.cols):
                    acc = Series.zero(n)
                    for k in range(self.cols):
                        acc = acc + self.entry(i, k) * other.entry(k, j)
                    row.append(acc)
                out.append(row)
            return SeriesMatrix(out)
        if isinstance(other, Series):
            return self.map_entries(lambda e: e * other)
        return self.map_entries(lambda e: e * other)

    def __rmul__(self, other) -> "SeriesMatrix":
        if isinstance(other, SeriesMatrix):
            return NotImplemented
        return self.__mul__(other)

    def scalar_left_mul(self, m: ScalarMatrix) -> "SeriesMatrix":
        """Constant matrix times this matrix, without order juggling."""
        if len(m[0]) != self.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(len(m)):
            row = []
            for j in range(self.cols):
                acc = Series.zero(self.order)
                for k in range(self.rows):
                    if not m[i][k].is_zero():
                        acc = acc + self.entry(k, j) * m[i][k]
                row.append(acc)
            out.append(row)
        return SeriesMatrix(out)

    def scalar_right_mul(self, m: ScalarMatrix) -> "SeriesMatrix":
        if len(m) != self.cols:
            raise ValueError("shape mismatch")
        cols = len(m[0])
        out = []
        for i in range(self.rows):
            row = []
            for j in range(cols):
                acc = Series.zero(self.order)
                for k in range(self.cols):
                    if not m[k][j].is_zero():
                        acc = acc + self.entry(i, k) * m[k][j]
                row.append(acc)
            out.append(row)
        return SeriesMatrix(out)

    def transpose(self) -> "SeriesMatrix":
        return SeriesMatrix([[self.entry(i, j) for i in range(self.rows)]
                             for j in range(self.cols)])

    def apply(self, vec: Sequence[Series]) -> list[Series]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for i in range(self.rows):
            acc = Series.zero(min(self.order, min(v.order for v in vec)))
            for j in range(self.cols):
                acc = acc + self.entry(i, j) * vec[j]
            out.append(acc)
        return out

    def theta_entries(self) -> "SeriesMatrix":
        return self.map_entries(lambda e: e.theta())

    def compose_entries(self, inner: "Series | PowerTable") -> "SeriesMatrix":
        """Every entry composed with one inner series.

        The powers of the inner series are built once (or passed in, to
        share them between several compositions) and each entry is then
        a sum of scaled powers.
        """
        table = inner if isinstance(inner, PowerTable) else PowerTable(inner)
        return self.map_entries(table.compose)

    def dilate(self, c: ScalarLike) -> "SeriesMatrix":
        return self.map_entries(lambda e: e.dilate(c))

    def inverse(self) -> "SeriesMatrix":
        """Order-by-order inverse; requires the constant term invertible."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.order
        if n == 0:
            raise ValueError("cannot invert at order 0")
        m0_inv = linalg.inverse(self.at0())
        coeff_mats = [self.coefficient_matrix(k) for k in range(n)]
        inv_coeffs: list[ScalarMatrix] = [m0_inv]
        for k in range(1, n):
            acc = linalg.zeros(self.rows, self.rows)
            for j in range(1, k + 1):
                acc = linalg.mat_add(
                    acc, linalg.mat_mul(coeff_mats[j], inv_coeffs[k - j]))
            inv_coeffs.append(linalg.mat_neg(linalg.mat_mul(m0_inv, acc)))
        return SeriesMatrix(
            [[Series([inv_coeffs[k][i][j] for k in range(n)], n)
              for j in range(self.cols)] for i in range(self.rows)])

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == \
            (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"SeriesMatrix({self.rows}x{self.cols}, order={self.order})"
