"""Exact linear algebra over Gaussian rationals.

Hand-rolled on purpose: every matrix in this package is tiny (rank
rarely above ten) and must be handled exactly, so Gauss elimination
with explicit pivot normalization is both simpler and faster than
pulling in a symbolic library.  Vectors are lists of Scalar, matrices
are lists of rows.  All functions are pure and deterministic; pivots
are chosen lexicographically (first usable column, first usable row).

Matrix products run in one integer kernel.  A factor is lifted once to
Gaussian-integer rows over a single common denominator, its zero
entries dropped (`Lifted`); products accumulate plain ints over one
denominator (`Accumulator`), and each entry of the result is normalized
once, when it is lowered back to Scalar (Knuth, TAOCP Vol. 2, 4.5.1).
`lift_vector` is the rank-1 lift that the series arithmetic builds on.
"""
from __future__ import annotations

from math import gcd, lcm
from typing import Sequence

from .scalars import ONE, ZERO, Scalar, _norm

Vector = list[Scalar]
Matrix = list[list[Scalar]]

_ZERO_ABD = ZERO._abd  # the one triple of a zero Scalar in normal form


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO for _ in range(cols)] for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def diagonal(values: Vector) -> Matrix:
    n = len(values)
    return [[values[i] if i == j else ZERO for j in range(n)]
            for i in range(n)]


def copy_matrix(m: Matrix) -> Matrix:
    return [row[:] for row in m]


def transpose(m: Matrix) -> Matrix:
    if not m:
        return []
    return [[m[i][j] for i in range(len(m))] for j in range(len(m[0]))]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a: Matrix) -> Matrix:
    return [[-x for x in row] for row in a]


def mat_scale(a: Matrix, c: Scalar) -> Matrix:
    return [[c * x for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return Lifted.of(a).times(Lifted.of(b))


class Lifted:
    """A scalar matrix as Gaussian-integer rows over one denominator.

    Row i lists (j, a, b) for each nonzero entry (a + b*i)/den in column
    j < cols.  `real` says that every b is 0, `zero` that no entry is
    left.  Instances are not mutated once built.
    """

    __slots__ = ("den", "rows", "cols", "real", "zero")

    def __init__(self, den: int, rows: list[list[tuple[int, int, int]]],
                 cols: int):
        self.den = den
        self.rows = rows
        self.cols = cols
        self.real = not any([b for row in rows for _, _, b in row])
        self.zero = not any(rows)

    @staticmethod
    def of(m: Matrix) -> "Lifted":
        """m over the lcm of its entries' denominators."""
        nonzero = [[(j, x._abd) for j, x in enumerate(row)
                    if x._abd != _ZERO_ABD] for row in m]
        den = lcm(*[d for row in nonzero for _, (_, _, d) in row])
        return Lifted(den, [[(j, a * (den // d), b * (den // d))
                             for j, (a, b, d) in row] for row in nonzero],
                      len(m[0]) if m else 0)

    @staticmethod
    def scalar(c: Scalar, n: int) -> "Lifted":
        """c times the n x n identity: a product with it scales by c."""
        a, b, d = c._abd
        return Lifted(d, [[(i, a, b)] if a or b else [] for i in range(n)], n)

    def times(self, other: "Lifted") -> Matrix:
        """The product self other, lowered to Scalars."""
        acc = Accumulator(len(self.rows), other.cols)
        acc.add_product(self, other)
        return acc.lower()


def lift_vector(v: Sequence[Scalar]
                ) -> tuple[int, list[int], list[int] | None]:
    """The rank-1 Lifted: v over the lcm of its entries' denominators.

    Returns (den, re, im) with v[k] = (re[k] + im[k] i) / den; im is None
    when every entry is real.  Zero entries stay in place, so the lists
    are as long as v.
    """
    abd = [x._abd for x in v]
    den = lcm(*[d for _, _, d in abd])
    if den == 1:
        re = [a for a, _, _ in abd]
        im = [b for _, b, _ in abd]
    else:
        re = [a * (den // d) for a, _, d in abd]
        im = [b * (den // d) for _, b, d in abd]
    return den, re, im if any(im) else None


class Accumulator:
    """A rows x cols matrix of Gaussian integers over one denominator.

    Products are added in place.  A product over another denominator
    rescales the accumulator to the lcm of the two once per call, never
    once per entry.
    """

    __slots__ = ("den", "re", "im", "_empty")

    def __init__(self, rows: int, cols: int):
        self.den = 1
        self.re = [[0] * cols for _ in range(rows)]
        self.im = [[0] * cols for _ in range(rows)]
        self._empty = True

    def _rescale(self, den: int) -> int:
        """Bring the accumulator to a multiple of den; the factor that
        lifts a term over den to the accumulator's denominator."""
        if self._empty:
            self._empty = False
            self.den = den
            return 1
        old = self.den
        if old == den:
            return 1
        new = lcm(old, den)
        if new != old:
            f = new // old
            for part in (self.re, self.im):
                for row in part:
                    for j, x in enumerate(row):
                        if x:
                            row[j] = x * f
            self.den = new
        return new // den

    def add_product(self, a: Lifted, b: Lifted) -> None:
        """self += a b."""
        if a.zero or b.zero:
            return
        s = self._rescale(a.den * b.den)
        brows = b.rows
        if a.real and b.real:
            for ai, ri in zip(a.rows, self.re):
                for k, c, _ in ai:
                    c *= s
                    for j, x, _ in brows[k]:
                        ri[j] += c * x
            return
        for ai, ri, ii in zip(a.rows, self.re, self.im):
            for k, c, d in ai:
                c *= s
                d *= s
                for j, x, y in brows[k]:
                    ri[j] += c * x - d * y
                    ii[j] += c * y + d * x

    def lifted(self) -> Lifted:
        """The sum so far as a Lifted matrix, with no entry normalized:
        only the content common to all entries and den is divided out."""
        g = gcd(self.den, *(x for part in (self.re, self.im)
                            for row in part for x in row))
        return Lifted(self.den // g, [
            [(j, a // g, b // g) for j, (a, b) in enumerate(zip(ri, ii))
             if a or b] for ri, ii in zip(self.re, self.im)],
            len(self.re[0]) if self.re else 0)

    def lower(self, keep: Sequence[Sequence[bool]] | None = None) -> Matrix:
        """The sum so far as Scalars, one normalization per entry; with
        keep, the entries (i, j) where keep[i][j] is false read ZERO and
        are not normalized."""
        d = self.den
        if keep is None:
            return [[_norm(a, b, d) if a or b else ZERO
                     for a, b in zip(ri, ii)]
                    for ri, ii in zip(self.re, self.im)]
        return [[_norm(a, b, d) if k and (a or b) else ZERO
                 for a, b, k in zip(ri, ii, ki)]
                for ri, ii, ki in zip(self.re, self.im, keep)]


def is_zero_matrix(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def mat_eq(a: Matrix, b: Matrix) -> bool:
    if len(a) != len(b):
        return False
    return all(ra == rb for ra, rb in zip(a, b))


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    r = copy_matrix(m)
    rows = len(r)
    cols = len(r[0]) if rows else 0
    pivots: list[int] = []
    lead = 0
    for col in range(cols):
        pivot_row = None
        for i in range(lead, rows):
            if not r[i][col].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        r[lead], r[pivot_row] = r[pivot_row], r[lead]
        inv = r[lead][col].inverse()
        r[lead] = [inv * x for x in r[lead]]
        for i in range(rows):
            if i != lead and not r[i][col].is_zero():
                c = r[i][col]
                r[i] = [x - c * y for x, y in zip(r[i], r[lead])]
        pivots.append(col)
        lead += 1
        if lead == rows:
            break
    return r, pivots


def rank(m: Matrix) -> int:
    if not m:
        return 0
    return len(rref(m)[1])


def nullspace(m: Matrix) -> list[Vector]:
    """Canonical basis of the right kernel.

    One vector per free column, in increasing column order, each with a 1
    in its free slot.
    """
    if not m:
        return []
    cols = len(m[0])
    r, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [ZERO] * cols
        v[free] = ONE
        for row_idx, p in enumerate(pivots):
            v[p] = -r[row_idx][free]
        basis.append(v)
    return basis


def inverse(m: Matrix) -> Matrix:
    n = len(m)
    aug = [m[i][:] + identity(n)[i] for i in range(n)]
    r, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r[:n]]


def try_inverse(m: Matrix) -> Matrix | None:
    try:
        return inverse(m)
    except ValueError:
        return None


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b, or None if inconsistent.

    Free variables are set to zero, which makes the answer deterministic.
    """
    if not a:
        return [] if all(x.is_zero() for x in b) else None
    cols = len(a[0])
    aug = [row[:] + [bv] for row, bv in zip(a, b)]
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for row_idx, p in enumerate(pivots):
        x[p] = r[row_idx][cols]
    return x


def row_space_basis(vectors: list[Vector]) -> list[Vector]:
    """Canonical (reduced echelon) basis of the span of the given vectors."""
    if not vectors:
        return []
    r, pivots = rref(vectors)
    return r[: len(pivots)]
