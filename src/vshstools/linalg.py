"""Exact linear algebra over Gaussian rationals.

Hand-rolled on purpose: every matrix in this package is tiny (rank
rarely above ten) and must be handled exactly, so Gauss elimination
with explicit pivot normalization is both simpler and faster than
pulling in a symbolic library.  Vectors are lists of Scalar, matrices
are lists of rows.  All functions are pure and deterministic; pivots
are chosen lexicographically (first usable column, first usable row).

Matrix arithmetic runs in one integer kernel.  A factor is lifted once
to Gaussian-integer rows over a single common denominator, its zero
entries dropped (`Lifted`); products and sums accumulate plain ints over
one denominator (`Accumulator`, filled by `sum_products`), whose
`lifted` divides out the common content once, and an entry is
normalized only when it is lowered back to Scalar (Knuth, TAOCP Vol. 2,
4.5.1).  series.SeriesMatrix keeps one canonical Lifted per q-order and
lowers it only when it is read.
`slot_map` is Y -> P Y + Y Q as an integer table on the entries of Y,
for the Neumann sums of vshs.
`lift_vector` is the rank-1 lift that the series arithmetic builds on.
"""
from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence

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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    lb = Lifted.of(b)
    return sum_products([(Lifted.of(a), lb)], len(a), lb.cols).lower()


def sum_products(pairs: Iterable[tuple[Lifted, Lifted]], rows: int,
                 cols: int, eps: int | None = None) -> Accumulator:
    """X, the sum of the products a b over the pairs (a, b), or X + eps X^T
    for a square X and eps = +-1, on the kernel's integers."""
    acc = Accumulator(rows, cols)
    for a, b in pairs:
        acc.add_product(a, b)
    for part in (acc.re, acc.im) if eps else ():
        for i, row in enumerate(part):
            for j in range(i, cols):
                row[j] += eps * part[j][i]
                part[j][i] = eps * row[j]
    return acc


class Lifted:
    """A scalar matrix as Gaussian-integer rows over one denominator.

    Row i lists (j, a, b) for each nonzero entry (a + b*i)/den in column
    j < cols, by increasing j.  `real` says that every b is 0, `zero`
    that no entry is left.  Instances are not mutated once built.

    The canonical lift takes den the lcm of the entries' reduced
    denominators; then gcd(den, every a and b) = 1, so equal matrices
    have equal lifts.  Lifted.of, from_entries and Accumulator.lifted
    build it, and negated and transposed keep it.
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

    @staticmethod
    def from_entries(entries: Sequence[tuple[int, int, int, int, int]],
                     n: int) -> "Lifted":
        """The n x n matrix with entry (i, j) = (a + b i)/d for each
        (i, j, a, b, d) in entries, one per slot and none zero, zero
        elsewhere: the lift Lifted.of takes."""
        reduced = []
        for i, j, a, b, d in entries:
            g = gcd(a, b, d)
            reduced.append((i, j, a // g, b // g, d // g))
        den = lcm(*[d for *_, d in reduced])
        rows: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for i, j, a, b, d in sorted(reduced):
            rows[i].append((j, a * (den // d), b * (den // d)))
        return Lifted(den, rows, n)

    def negated(self) -> "Lifted":
        """-self, on the same integers."""
        return Lifted(self.den, [[(j, -a, -b) for j, a, b in row]
                                 for row in self.rows], self.cols)

    def transposed(self) -> "Lifted":
        """self^T, on the same integers."""
        rows: list[list[tuple[int, int, int]]] = [
            [] for _ in range(self.cols)]
        for i, row in enumerate(self.rows):
            for j, a, b in row:
                rows[j].append((i, a, b))
        return Lifted(self.den, rows, len(self.rows))

    def lower(self) -> Matrix:
        """self as Scalars, one normalization per nonzero entry."""
        d = self.den
        out = zeros(len(self.rows), self.cols)
        for row, lifted_row in zip(out, self.rows):
            for j, a, b in lifted_row:
                row[j] = _norm(a, b, d)
        return out


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
        rows = [[(j, a, b) for j, (a, b) in enumerate(zip(ri, ii)) if a or b]
                for ri, ii in zip(self.re, self.im)]
        g = gcd(self.den, *[x for row in rows for _, a, b in row
                            for x in (a, b)])
        if g != 1:
            rows = [[(j, a // g, b // g) for j, a, b in row] for row in rows]
        return Lifted(self.den // g, rows, len(self.re[0]) if self.re else 0)

    def lower(self) -> Matrix:
        """The sum so far as Scalars, one normalization per entry."""
        d = self.den
        return [[_norm(a, b, d) if a or b else ZERO for a, b in zip(ri, ii)]
                for ri, ii in zip(self.re, self.im)]


def slot_map(p: Lifted, q: Lifted, eps: int | None = None
             ) -> tuple[list[tuple[int, int]], list[list[tuple[int, int]]],
                        int, bool]:
    """Y -> den (P Y + Y Q) on the integers of the slots (i, j) of Y, read
    off the nonzero entries of P and Q: (slots, rows, den, real).

    P and Q are lifted over one denominator den, and the (i, j) slot of
    the image is den (sum_l p_il Y_lj + Y_il q_lj).  For z the integers
    of the slots of Y, real parts first, entry o of the image of z is the
    sum of a z[t] over the (t, a) in rows[o]; real says that its real
    parts read no imaginary part.  With eps = +-1, Y is eps-symmetric,
    and so is the image when Q = P^T: the slots are those with i <= j,
    Y_ji = eps Y_ij standing in for the others.
    """
    dim = len(p.rows)
    slots = [(i, j) for i in range(dim) for j in range(i if eps else 0, dim)]
    index = {ij: (t, 1) for t, ij in enumerate(slots)}
    if eps:
        index.update({(j, i): (t, eps) for t, (i, j) in enumerate(slots)
                      if i != j})
    n, q_cols, terms = len(slots), q.transposed().rows, []
    for i, j in slots:
        row: dict[int, tuple[int, int]] = {}
        for ij, a, b in ([((l, j), a, b) for l, a, b in p.rows[i]]
                         + [((i, l), a, b) for l, a, b in q_cols[j]]):
            t, sign = index[ij]
            x, y = row.get(t, (0, 0))
            row[t] = (x + sign * a, y + sign * b)
        terms.append(row.items())
    # (a + b i)(x + y i) = (a x - b y) + (b x + a y) i
    rows = [[(t, a) for t, (a, _) in row if a]
            + [(n + t, -b) for t, (_, b) in row if b] for row in terms]
    rows += [[(t, b) for t, (_, b) in row if b]
             + [(n + t, a) for t, (a, _) in row if a] for row in terms]
    return slots, rows, p.den, p.real and q.real


def is_zero_matrix(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


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
    aug = [row + unit for row, unit in zip(m, identity(n))]
    r, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r[:n]]


def try_inverse(m: Matrix) -> Matrix | None:
    try:
        return inverse(m)
    except ValueError:
        return None


def row_space_basis(vectors: list[Vector]) -> list[Vector]:
    """Canonical (reduced echelon) basis of the span of the given vectors."""
    if not vectors:
        return []
    r, pivots = rref(vectors)
    return r[: len(pivots)]
