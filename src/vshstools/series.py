"""Truncated formal power series over Gaussian rationals.

A Series holds coefficients c_0 .. c_{N-1} and means "known modulo q^N".
Binary operations truncate to the smaller operand order, so precision
never silently inflates.  Everything is exact; there is no floating
point anywhere and results are bit-identical across runs.

Products, inverses, exp, composition and reversion run on the integer
kernel of linalg in rank 1: each factor is lifted once to Gaussian-integer
numerators over one common denominator (linalg.lift_vector), each output
coefficient is a plain int dot product, normalized once.  Reversion and
composition share one table, Reversion: the Lagrange-Buermann formula by
the baby-step giant-step method (Brent and Kung, JACM 25, 1978; Johansson,
Math. Comp. 84, 2015), about 2 sqrt(n) series products once, then sqrt(n)
products and n dot products per composition; a constant outer series
is its own composition and takes no product.  The normal form composes
only with a reversed series, so there is no other composition.

SeriesMatrix is a rectangular matrix of Series sharing one truncation
order, stored coefficient-major as one canonical linalg.Lifted per
q-order.  Products are convolutions of those lifts; products, sums and
scalings are summed over one common denominator by the linalg integer
kernel, and no entry is normalized until a coefficient is read.  A
constant factor that is the identity takes no product: the matrix
itself comes back.  There is no matrix inverse:
vshs.to_canonical_connection solves for its frame and connection
together, order by order.
"""
from __future__ import annotations

from math import isqrt, lcm
from operator import mul
from typing import Callable, Iterable, Sequence, Union

from . import linalg
from .linalg import Lifted, lift_vector, sum_products
from .scalars import ONE, ZERO, Scalar, ScalarLike, _norm

ScalarMatrix = list[list[Scalar]]
# a lifted vector (den, re, im) from linalg.lift_vector; im None when real
LiftedVector = tuple[int, list[int], Union[list[int], None]]


class SeriesError(ValueError):
    """Base class for series-domain errors."""


class ZeroConstantTerm(SeriesError):
    """Multiplicative inverse requested for a series vanishing at q = 0."""


class NotReversible(SeriesError):
    """Compositional inverse requires f(0) = 0 and f'(0) invertible."""


class BadConstantTerm(SeriesError):
    """exp needs a(0) = 0, log needs a(0) = 1."""


class NonzeroConstant(SeriesError):
    """theta_inverse would produce a log term: a(0) must vanish."""


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
        cs = [Scalar.of(c) for c in coeffs][:order]
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
        return Series((Scalar.of(c),), order)

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
                       else -Series.constant(other, self.order))

    def __rsub__(self, other) -> "Series":
        return (-self) + other

    def __mul__(self, other) -> "Series":
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series._make(_lower(_product(
                lift_vector(self.coeffs[:n]), lift_vector(other.coeffs[:n]))),
                n)
        c = Scalar.of(other)
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
        return self * Scalar.of(other).inverse()

    # -- reversion -------------------------------------------------------

    def reverse(self) -> "Series":
        """Compositional inverse g with f(g) = q modulo q^order: the
        Lagrange sum of Reversion for F = q, whose F' phi^r are the baby
        steps themselves."""
        table = Reversion(self)
        return table._lagrange(ZERO, table.baby, self.order)

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
        cc = Scalar.of(c)
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


class Reversion:
    """The compositional inverse g of f, as a table that composes outer
    series with g.

    Lagrange-Buermann inversion: with phi = q/f and m >= 1,
        [Q^m] F(g) = (1/m) [q^(m-1)] F' phi^m,
    where F = q gives g itself.  With b = isqrt(n - 1) and m - 1 = s b +
    (r - 1), 1 <= r <= b, phi^m = phi^r (phi^b)^s: the baby steps phi^1 ..
    phi^b and the giant steps (phi^b)^0 .. (phi^b)^((n-2) div b) are built
    once (about 2 sqrt(n) series products, Brent and Kung, JACM 25, 1978,
    section 2), the giant steps lifted.  compose(F) then takes b products
    F' phi^r and, per coefficient, one integer dot product of F' phi^r
    with (phi^b)^s and one normalization, where summing over the powers
    of g takes n - 1 series products.
    """

    __slots__ = ("order", "baby", "_giant")

    def __init__(self, f: Series):
        n = f.order
        if n >= 1 and not f.coeffs[0].is_zero():
            raise NotReversible("reversion requires f(0) = 0")
        if n >= 2 and f.coeffs[1].is_zero():
            raise NotReversible("reversion requires f'(0) != 0")
        baby, giant = [], []
        if n >= 2:
            last = n - 1  # [q^(m-1)] for m < n is read
            phi = Series._make(f.coeffs[1:], last).inverse()
            baby = [phi]
            for _ in range(isqrt(last) - 1):
                baby.append(baby[-1] * phi)
            giant = [Series.one(last), baby[-1]]
            for _ in range((last - 1) // len(baby) - 1):
                giant.append(giant[-1] * baby[-1])
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "baby", tuple(baby))
        object.__setattr__(self, "_giant", [
            _reversed(lift_vector(s.coeffs)) for s in giant])

    def __setattr__(self, name, value):
        raise AttributeError("Reversion is immutable")

    def compose(self, outer: Series) -> Series:
        """outer(g) modulo q^min(outer.order, g.order); a constant outer
        (every coefficient past q^0 zero, so any order below 2) is its
        own composition, outer truncated, with no product."""
        n = min(outer.order, self.order)
        if all(c.is_zero() for c in outer.coeffs[1:n]):
            return Series._make(outer.coeffs[:n], n)
        deriv = Series._make((Scalar(k) * c for k, c in
                              enumerate(outer.coeffs[1:n], 1)), n - 1)
        return self._lagrange(outer.coeffs[0],
                              [deriv * p for p in self.baby], n)

    def _lagrange(self, head: Scalar, rows: Sequence[Series],
                  n: int) -> Series:
        """head, then (1/m) [q^(m-1)] rows[r - 1] (phi^b)^s for 0 < m < n."""
        b, last = len(rows), self.order - 1
        lifted = [lift_vector(s.coeffs) for s in rows]
        out = [head][:n]
        for m in range(1, n):
            x, y = lifted[(m - 1) % b], self._giant[(m - 1) // b]
            re, im = _dot(x, slice(0, m), y, slice(last - m, last))
            out.append(_norm(re, im, x[0] * y[0] * m))
        return Series._make(out, n)


def _is_identity(m: Lifted) -> bool:
    """Whether the canonical lift m is an identity matrix: den 1 and row
    i the one entry (i, 1, 0), for every column i."""
    return m.den == 1 and m.rows == [[(i, 1, 0)] for i in range(m.cols)]


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

    Stored coefficient-major as one canonical linalg.Lifted per q-order,
    the only stored form: Gaussian integers over the lcm of the entries'
    reduced denominators, so equal matrices have equal lifts.  A
    product, sum or scaling accumulates integers over one denominator
    and divides out their content once; a transpose, negation or
    truncation rearranges them.  A scalar by itself is the product with
    a scalar multiple of the identity (Lifted.scalar).  The Scalar view
    (coeffs, entry, at0, coefficient_matrix) is lowered one q-order at a
    time on first read and cached; the lists it holds are never mutated,
    and coefficient_matrix hands out copies.
    """

    __slots__ = ("rows", "cols", "order", "_lifts", "_mats")

    def __init__(self, entries: Sequence[Sequence[Series]]):
        rows, cols = _shape(entries)
        order = entries[0][0].order
        if any(e.order != order for row in entries for e in row):
            raise ValueError("entries must share one truncation order")
        self._set([Lifted.of([[e.coeffs[k] for e in row]
                              for row in entries]) for k in range(order)],
                  rows, cols)

    def _set(self, lifts: Sequence[Lifted], rows: int, cols: int) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "order", len(lifts))
        object.__setattr__(self, "_lifts", tuple(lifts))
        object.__setattr__(self, "_mats", [None] * len(lifts))

    def __setattr__(self, name, value):
        raise AttributeError("SeriesMatrix is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_lifts(lifts: Sequence[Lifted], rows: int,
                   cols: int) -> "SeriesMatrix":
        """The matrix whose q^k coefficient is lifts[k], each a canonical
        lift (see linalg.Lifted)."""
        m = object.__new__(SeriesMatrix)
        m._set(lifts, rows, cols)
        return m

    @staticmethod
    def from_coefficients(mats: Sequence[ScalarMatrix], rows: int,
                          cols: int) -> "SeriesMatrix":
        """The matrix whose q^k coefficient is mats[k]."""
        return SeriesMatrix.from_lifts([Lifted.of(m) for m in mats], rows,
                                       cols)

    @staticmethod
    def zeros(rows: int, cols: int, order: int) -> "SeriesMatrix":
        return SeriesMatrix.from_scalar_matrix(linalg.zeros(rows, cols),
                                               order)

    @staticmethod
    def from_scalar_matrix(m: ScalarMatrix, order: int) -> "SeriesMatrix":
        rows, cols = _shape(m)
        if order < 0:
            raise ValueError("order must be nonnegative")
        zero = Lifted(1, [[] for _ in range(rows)], cols)
        lifts = [Lifted.of([[Scalar.of(x) for x in row] for row in m])]
        lifts.extend([zero] * (order - 1))
        return SeriesMatrix.from_lifts(lifts[:order], rows, cols)

    # -- inspection ------------------------------------------------------

    @property
    def coeffs(self) -> tuple[ScalarMatrix, ...]:
        """The scalar matrix of each q^k, as a list of rows of Scalar."""
        return tuple(self._mat(k) for k in range(self.order))

    def _mat(self, k: int) -> ScalarMatrix:
        """The q^k coefficient as Scalars, lowered on first read."""
        m = self._mats[k]
        if m is None:
            m = self._mats[k] = self._lifts[k].lower()
        return m

    def entry(self, i: int, j: int) -> Series:
        return Series._make([self._mat(k)[i][j] for k in range(self.order)],
                            self.order)

    def coefficient_matrix(self, k: int) -> ScalarMatrix:
        if k < 0 or k >= self.order:
            raise IndexError(f"coefficient {k} not known at order "
                             f"{self.order}")
        return linalg.copy_matrix(self._mat(k))

    def at0(self) -> ScalarMatrix:
        return self.coefficient_matrix(0)

    def is_zero(self) -> bool:
        return all(m.zero for m in self._lifts)

    def truncate(self, order: int) -> "SeriesMatrix":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        if order < 0:
            raise ValueError("order must be nonnegative")
        return self._like(self._lifts[:order])

    def _like(self, lifts: Sequence[Lifted]) -> "SeriesMatrix":
        return SeriesMatrix.from_lifts(lifts, self.rows, self.cols)

    def _scaled(self, factors: Iterable[Scalar]) -> "SeriesMatrix":
        """The q^k coefficient times factors[k]."""
        return self._like([sum_products([(Lifted.scalar(c, self.rows), m)],
                                        self.rows, self.cols).lifted()
                           for c, m in zip(factors, self._lifts)])

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return self._plus(other, ONE)

    def __sub__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return self._plus(other, Scalar(-1))

    def _plus(self, other: "SeriesMatrix", c: Scalar) -> "SeriesMatrix":
        """self + c other."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        one, lc = Lifted.scalar(ONE, self.rows), Lifted.scalar(c, self.rows)
        return self._like([sum_products([(one, a), (lc, b)], self.rows,
                                        self.cols).lifted()
                           for a, b in zip(self._lifts, other._lifts)])

    def __neg__(self) -> "SeriesMatrix":
        return self._like([m.negated() for m in self._lifts])

    def __mul__(self, other) -> "SeriesMatrix":
        """Matrix product as the convolution C_k = sum_j A_j B_(k-j),
        each C_k summed over one denominator; a scalar factor multiplies
        every entry."""
        if isinstance(other, SeriesMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in matrix product")
            la, lb = self._lifts, other._lifts
            return SeriesMatrix.from_lifts(
                [sum_products([(la[j], lb[k - j]) for j in range(k + 1)],
                              self.rows, other.cols).lifted()
                 for k in range(min(self.order, other.order))],
                self.rows, other.cols)
        c = Scalar.of(other)
        return self._scaled([c] * self.order)

    def __rmul__(self, other) -> "SeriesMatrix":
        if isinstance(other, SeriesMatrix):
            return NotImplemented
        return self.__mul__(other)

    def scalar_left_mul(self, m: ScalarMatrix) -> "SeriesMatrix":
        """Constant matrix times this matrix, one product per q-order; the
        identity takes none and returns this matrix itself."""
        if len(m[0]) != self.rows:
            raise ValueError("shape mismatch")
        lm = Lifted.of(m)
        if _is_identity(lm):
            return self
        return SeriesMatrix.from_lifts(
            [sum_products([(lm, a)], len(m), self.cols).lifted()
             for a in self._lifts],
            len(m), self.cols)

    def scalar_right_mul(self, m: ScalarMatrix) -> "SeriesMatrix":
        """This matrix times a constant matrix, one product per q-order;
        the identity takes none and returns this matrix itself."""
        if len(m) != self.cols:
            raise ValueError("shape mismatch")
        lm = Lifted.of(m)
        if _is_identity(lm):
            return self
        return SeriesMatrix.from_lifts(
            [sum_products([(a, lm)], self.rows, lm.cols).lifted()
             for a in self._lifts],
            self.rows, lm.cols)

    def transpose(self) -> "SeriesMatrix":
        return SeriesMatrix.from_lifts(
            [m.transposed() for m in self._lifts], self.cols, self.rows)

    def theta_entries(self) -> "SeriesMatrix":
        return self._scaled(Scalar(k) for k in range(self.order))

    def dilate(self, c: ScalarLike) -> "SeriesMatrix":
        """Substitute q -> c*q: coefficient k scales by c^k."""
        cc = Scalar.of(c)
        powers = [ONE]
        for _ in range(1, self.order):
            powers.append(powers[-1] * cc)
        return self._scaled(powers)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.order) == \
            (other.rows, other.cols, other.order) and \
            all(a.den == b.den and a.rows == b.rows
                for a, b in zip(self._lifts, other._lifts))

    def __hash__(self):
        return hash((self.rows, self.cols, self.order,
                     tuple((m.den, tuple(map(tuple, m.rows)))
                           for m in self._lifts)))

    def __repr__(self) -> str:
        return f"SeriesMatrix({self.rows}x{self.cols}, order={self.order})"
