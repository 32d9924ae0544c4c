"""Semi-infinite Hodge structures over the formal disc.

Two presentations of the same data and the translations between them:

* ReesModule: a free module over scalars[[u]] with a connection allowed a
  first-order pole in u and a sesquilinear pairing (the involution sends
  u to -u, nothing is complex-conjugated).
* GeometricVHS: a filtered flat bundle on the formal disc, the collapse
  of the grading to its parity.

Plus the normal-form machinery: formal flat gauge, canonical connection
and coordinate, covariant extension of pairings, and the equivalence
with graded normal-form objects (DnObject).  The flat gauge and the
pairing extension each solve theta X = P X + X Q order by order: at q^k,
k X_k = L(X_k) + Phi_k with L nilpotent, by one Neumann sum in Horner
form on the integers of Phi_k (_neumann_sum), whose step linalg.slot_map
reads off the nonzero entries of the residue and, for the pairing,
forms only the i <= j half.  The canonical connection (see
to_canonical_connection) solves its order-k equation in one pass down
the grades of the Hodge level, since A(0) lowers the level by exactly 2.
Both keep each q-order in the lifted form of the linalg integer kernel
until it is done.  A residual that should vanish and does not is
reported at its first nonzero q-order and entry.  The normal form moves
to the canonical coordinate by one Lagrange-Buermann composition per
nonzero entry of the connection (series.Reversion) and composes no
matrix.

The pairing M solves theta M = A^T M + M A, and every M here has
M^T = eps M, eps = (-1)^n, so M A = eps (A^T M)^T: one kernel,
linalg.sum_products, forms X + eps X^T on the integers, and the equation
takes one product per term where it is checked or solved.

Sign conventions are load-bearing and centralized here.  The grading
collapse evaluates u-polynomials at u = -1; the pairing additionally
picks up a factor i^{-k} in the degree k of the first argument.  That
twist is the single point where the two pictures' adjointness
conventions (skew on the Rees side, self-adjoint on the graded side)
get reconciled.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import linalg, nilpotent
from .linalg import Accumulator, Lifted, Matrix
from .scalars import ONE, Scalar
from .series import Reversion, Series, SeriesMatrix


class NotFree(ValueError):
    """Module data does not present a free module of the stated rank."""


class InconsistentLift(ValueError):
    """The requested integer grading is incompatible with the data."""


class NotNilpotentResidue(ValueError):
    """Connection residue at q = 0 has a nonzero eigenvalue."""


class NotHodgeTate(ValueError):
    """Hodge flag and weight filtration fail to split compatibly."""


class DegreeViolation(ValueError):
    """Canonical connection has a component that is not grade-lowering."""


class NotProportional(ValueError):
    """Kodaira-Spencer component is not a scalar multiple of its value at 0."""


class ZeroKS(ValueError):
    """Kodaira-Spencer map vanishes at q = 0 (no maximal unipotency)."""


class ResidueNotCompatible(ValueError):
    """Pairing seed incompatible with the connection residue."""


class ZeroScalar(ValueError):
    """A nonzero scalar was required."""


class InvariantViolation(ValueError):
    """A structural invariant of the data type fails."""


class HardLefschetzFailure(InvariantViolation):
    """A(0)^k fails to be an isomorphism V_-k -> V_k."""


class UnitNotPreserved(InvariantViolation):
    """A acts on the volume direction with a q-dependent component."""


def _prefactor(n: int) -> Scalar:
    """(-1)^(n(n+1)/2) * i^n, the volume normalization unit."""
    sign = -1 if (n * (n + 1) // 2) % 2 else 1
    return Scalar(sign) * Scalar.i_power(n)


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReesModule:
    """Free graded module over scalars[[u]] with connection and pairing.

    conn_u / pairing_u map a u-power to the SeriesMatrix of that
    coefficient; components that are identically zero are dropped, so
    structural equality is meaningful.
    """

    degrees: Sequence[int]
    conn_u: Mapping[int, SeriesMatrix]
    pairing_u: Mapping[int, SeriesMatrix]
    parity: int
    order: int

    def __post_init__(self):
        rank = len(self.degrees)
        if rank == 0:
            raise NotFree("empty basis")
        if self.parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        kept_conn: dict[int, SeriesMatrix] = {}
        kept_pair: dict[int, SeriesMatrix] = {}
        for source, kept in ((self.conn_u, kept_conn),
                             (self.pairing_u, kept_pair)):
            for p, mat in source.items():
                if mat.rows != rank or mat.cols != rank:
                    raise ValueError("component shape mismatch")
                if mat.order != self.order:
                    raise ValueError("components must share one order")
                if not mat.is_zero():
                    kept[p] = mat
        object.__setattr__(self, "degrees", tuple(self.degrees))
        object.__setattr__(self, "conn_u", kept_conn)
        object.__setattr__(self, "pairing_u", kept_pair)

    @property
    def rank(self) -> int:
        return len(self.degrees)

    def __repr__(self) -> str:
        return (f"ReesModule(rank={self.rank}, degrees={self.degrees}, "
                f"order={self.order})")


@dataclass(frozen=True)
class GeometricVHS:
    """Filtered bundle with connection on the formal disc.

    levels2 holds twice the Hodge level of each frame vector (integers,
    so half-integral levels in odd dimension stay exact).  The frame is
    assumed adapted to the filtration: F^(>=p) is spanned over the
    series ring by the frame vectors with doubled level >= 2p.
    """

    conn: SeriesMatrix
    levels2: Sequence[int]
    pairing: SeriesMatrix | None
    parity: int

    def __post_init__(self):
        conn, pairing, parity = self.conn, self.pairing, self.parity
        if conn.rows != conn.cols:
            raise ValueError("connection must be square")
        if len(self.levels2) != conn.rows:
            raise ValueError("one level per frame vector required")
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        lv = tuple(self.levels2)
        for i, j in sorted(_support(conn)):
            if lv[i] < lv[j] - 2:
                raise InvariantViolation(
                    f"Griffiths transversality violated at entry "
                    f"({i},{j}): level {lv[i]} < {lv[j]} - 2")
        if pairing is not None:
            if pairing.rows != conn.rows or pairing.cols != conn.cols:
                raise ValueError("pairing shape mismatch")
            if pairing.order != conn.order:
                raise ValueError("pairing and connection order mismatch")
            bad = _asymmetry(pairing._lifts, parity)
            if bad:
                raise InvariantViolation(
                    f"pairing symmetry fails at ({bad[0]},{bad[1]})")
            failure = _pairing_failure(conn, pairing, parity)
            if failure:
                raise InvariantViolation(
                    f"pairing is not covariantly constant: {failure}")
        object.__setattr__(self, "levels2", lv)

    @property
    def rank(self) -> int:
        return self.conn.rows

    @property
    def order(self) -> int:
        return self.conn.order

    def __repr__(self) -> str:
        return (f"GeometricVHS(rank={self.rank}, levels2={self.levels2}, "
                f"order={self.order})")


@dataclass(frozen=True)
class DnObject:
    """Graded normal-form object: (V, <.,.>, A(q)).

    Basis vectors are grouped by degree in ascending order, so index 0
    is the volume direction (degree -n).  The stored pairing carries the
    i-power twist already; concretely that makes A(q) skew for it, which
    is what self-adjointness in the sesquilinear sense amounts to after
    the twist.  The constructor checks that at every q-order (the
    constant pairing is covariantly constant exactly then), after the
    pointwise invariants and the unit, and names the first failing q^k
    and entry.
    """

    n: int
    graded_dims: Mapping[int, int]
    pairing0: Matrix
    a_series: SeriesMatrix
    degrees: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        n, pairing0, a_series = self.n, self.pairing0, self.a_series
        if n < 0:
            raise InvariantViolation("dimension must be nonnegative")
        dims = {int(k): int(d) for k, d in self.graded_dims.items() if d}
        for k, d in dims.items():
            if d < 0:
                raise InvariantViolation("negative graded dimension")
            if k < -n or k > n:
                raise InvariantViolation(
                    f"grading must be concentrated in [-{n}, {n}]; "
                    f"found degree {k}")
        if dims.get(-n, 0) != 1:
            raise InvariantViolation("V_{-n} must be one-dimensional")
        rank = sum(dims.values())
        if a_series.rows != rank or a_series.cols != rank:
            raise InvariantViolation("A matrix size disagrees with grading")
        if len(pairing0) != rank or any(len(r) != rank for r in pairing0):
            raise InvariantViolation("pairing size disagrees with grading")
        degrees = [k for k in sorted(dims) for _ in range(dims[k])]

        nonzero = _support(a_series)
        for i in range(rank):
            for j in range(rank):
                if degrees[i] != degrees[j] + 2 and (i, j) in nonzero:
                    raise InvariantViolation(
                        f"A must have pure degree +2; entry ({i},{j}) "
                        f"maps degree {degrees[j]} to {degrees[i]}")
                if degrees[i] + degrees[j] != 0 and \
                        not pairing0[i][j].is_zero():
                    raise InvariantViolation(
                        f"pairing must have degree 0; entry ({i},{j}) "
                        f"pairs degrees {degrees[i]} and {degrees[j]}")

        bad = _asymmetry([Lifted.of(pairing0)], n % 2)
        if bad:
            raise InvariantViolation(
                f"pairing symmetry <a,b> = (-1)^n <b,a> fails at "
                f"({bad[0]},{bad[1]})")

        a0 = a_series.at0()
        # only the degrees present can fail, so the work grows with the
        # rank, not with n; A(0) raises the degree by 2, so A(0)^rank = 0
        for k in sorted({abs(k) for k in dims} - {0}):
            if dims.get(k, 0) != dims.get(-k, 0):
                raise HardLefschetzFailure(
                    f"graded dimensions at degrees {k} and {-k} differ")
        power, p = linalg.identity(rank), 0
        for k in sorted(k for k in dims if k > 0):
            # power becomes A(0)^k, or zero, and then A(0)^k is zero too
            while p < k and not linalg.is_zero_matrix(power):
                power, p = linalg.mat_mul(power, a0), p + 1
            rows = [i for i in range(rank) if degrees[i] == k]
            cols = [j for j in range(rank) if degrees[j] == -k]
            block = [[power[i][j] for j in cols] for i in rows]
            if linalg.try_inverse(block) is None:
                raise HardLefschetzFailure(
                    f"A(0)^{k} is not an isomorphism V_{-k} -> V_{k}")
        if linalg.try_inverse(pairing0) is None:
            raise InvariantViolation("pairing must be nondegenerate")

        if n >= 1:
            rows = [i for i in range(rank) if degrees[i] == -n + 2]
            col = degrees.index(-n)
            for i in rows:
                if any(j == col for m in a_series._lifts[1:]
                       for j, _, _ in m.rows[i]):
                    raise UnitNotPreserved(
                        "the V_{-n} -> V_{-n+2} component of A must be "
                        "constant")

        # theta P0 = 0: A is self-adjoint (with the twist, skew for P0)
        # at every q-order exactly when P0 is covariantly constant
        p0 = SeriesMatrix.from_scalar_matrix(pairing0, a_series.order)
        failure = _pairing_failure(a_series, p0, n % 2)
        if failure:
            raise InvariantViolation(
                f"A(q) is not self-adjoint for the pairing: {failure}")

        object.__setattr__(self, "graded_dims", dims)
        object.__setattr__(self, "pairing0",
                           tuple(tuple(row) for row in pairing0))
        object.__setattr__(self, "degrees", tuple(degrees))

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def order(self) -> int:
        return self.a_series.order

    @property
    def volume_index(self) -> int:
        return self.degrees.index(-self.n)

    def pairing0_matrix(self) -> Matrix:
        return [list(row) for row in self.pairing0]

    def __repr__(self) -> str:
        return f"DnObject(n={self.n}, degrees={self.degrees})"


@dataclass(frozen=True)
class CanonicalConnection:
    frame: SeriesMatrix
    a_series: SeriesMatrix
    levels2: tuple[int, ...]


@dataclass(frozen=True)
class NormalFormReport:
    mirror_coordinate: Series
    gauge: SeriesMatrix
    dn: DnObject


# ---------------------------------------------------------------------------
# gauge calculus
# ---------------------------------------------------------------------------


def _support(m: SeriesMatrix) -> set[tuple[int, int]]:
    """The entries (i, j) of m that are nonzero at some q-order."""
    return {(i, j) for c in m._lifts for i, row in enumerate(c.rows)
            for j, _, _ in row}


def _asymmetry(lifts: Sequence[Lifted],
               parity: int) -> tuple[int, int] | None:
    """The first entry (i, j), i <= j, at which M^T = (-1)^parity M fails
    in one of the lifts, or None.  (i, j) and (j, i) lie in one lift,
    over one denominator, so they fail together."""
    sign = -1 if parity else 1
    return min([(min(i, j), max(i, j)) for m in lifts
                for i, row in enumerate(m.rows) for j, a, b in row
                if (i, sign * a, sign * b) not in m.rows[j]], default=None)


def _pairing_failure(a: SeriesMatrix, m: SeriesMatrix,
                     parity: int) -> str | None:
    """Where theta M = A^T M + M A first fails, for M^T = eps M with eps =
    (-1)^parity, or None.  At q^k the residual is -(Y + eps Y^T), Y =
    sum_(j=0..k) A_j^T M_(k-j) - (k/2) M_k: eps-symmetric, so its first
    nonzero entry, row by row, has i <= j."""
    dim, eps = a.rows, -1 if parity else 1
    at, ms = [x.transposed() for x in a._lifts], m._lifts
    for k in range(min(a.order, m.order)):
        half_k = Lifted.scalar(Scalar(-k) / Scalar(2), dim)
        y = linalg.sum_products([(at[j], ms[k - j]) for j in range(k + 1)]
                                + [(half_k, ms[k])], dim, dim, eps)
        for i, (re, im) in enumerate(zip(y.re, y.im)):
            for j in range(i, dim):
                if re[j] or im[j]:
                    return (f"the residual is nonzero at q^{k}, entry "
                            f"({i},{j})")
    return None


def _neumann_sum(r: Accumulator, k: int, step: tuple, eps: int | None,
                 stuck: Exception) -> Lifted:
    """The solution X of k X = L(X) + R, L nilpotent, as the terminating
    Neumann sum X = sum_m L^m(R) / k^(m+1); step is linalg.slot_map of
    l = d0 L, on the slots of X, eps as there.

    The sum runs on the integers of R = r / D, D = r.den: z_m = l^m(r)
    stays an integer vector, and the forward Horner sum acc <- s acc +
    z_(m+1), s = k d0, ends at X = acc / (D k s^M), z_M the last nonzero
    term.  Two vectors are held, the imaginary parts only when something
    is not real, and r.lifted takes the one content gcd of the canonical
    lift.  A nonzero z_m with m >= 2 dim + 2 means that L is not
    nilpotent: raise stuck.
    """
    (slots, rows, d0, real), dim, re, im = step, len(r.re), r.re, r.im
    n, s = len(slots), k * d0
    z = [re[i][j] for i, j in slots]
    zi = [im[i][j] for i, j in slots]
    if real and not any(zi):
        rows = rows[:n]
    else:
        z += zi
    acc, m = z, 0
    while True:
        z = [sum([a * z[t] for t, a in row]) for row in rows]
        if not any(z):
            break
        m += 1
        if m >= 2 * dim + 2:
            raise stuck
        acc = [s * x + y for x, y in zip(acc, z)]
    acc += [0] * (2 * n - len(acc))
    for (i, j), x, y in zip(slots, acc, acc[n:]):
        if eps:
            re[j][i], im[j][i] = eps * x, eps * y
        re[i][j], im[i][j] = x, y
    r.den *= k * s ** m
    return r.lifted()


def _solve_theta(x0: Lifted, p: Sequence[Lifted], q0: Lifted,
                 eps: int | None, stuck: Exception) -> SeriesMatrix:
    """The solution X of theta X = P X + X Q with X(0) = x0, P given by
    its q-coefficients p.  Q is the constant q0 if eps is None; else Q =
    P^T and X is eps-symmetric, eps = +-1, so X Q = eps (P X)^T.

    At q^k this is k X_k = L(X_k) + Phi_k with L(Y) = P_0 Y + Y Q_0 and
    Phi_k = sum_(j=1..k) P_j X_(k-j) (+ eps its transpose), which reads
    only X_0 .. X_(k-1); _neumann_sum solves it from the integers of
    Phi_k, and X keeps the canonical lift of each X_k.
    """
    dim, step = len(x0.rows), linalg.slot_map(p[0], q0, eps)
    xs = [x0]
    for k in range(1, len(p)):
        phi = linalg.sum_products(
            [(p[j], xs[k - j]) for j in range(1, k + 1)], dim, dim, eps)
        xs.append(_neumann_sum(phi, k, step, eps, stuck))
    return SeriesMatrix.from_lifts(xs, dim, dim)


def formal_flat_gauge(b: SeriesMatrix) -> SeriesMatrix:
    """Unique U with U(0) = I and theta U = b U - U N, N = b(0).

    The order-k step inverts (k - ad_N); ad_N is nilpotent because N is,
    so the inverse is a terminating Neumann sum.
    """
    if b.rows != b.cols:
        raise ValueError(f"the connection must be square, not "
                         f"{b.rows} x {b.cols}")
    try:
        nilpotent.nilpotency_index(b.at0())
    except nilpotent.NotNilpotent as exc:
        raise NotNilpotentResidue(str(exc)) from exc
    bs = b._lifts
    return _solve_theta(
        Lifted.scalar(ONE, b.rows), bs, bs[0].negated(), None,
        NotNilpotentResidue("ad of the residue does not terminate"))


# ---------------------------------------------------------------------------
# Hodge-Tate splitting and canonical form
# ---------------------------------------------------------------------------


def to_canonical_connection(g: GeometricVHS) -> CanonicalConnection:
    """Gauge to the frame where the connection is grade-lowering.

    The returned frame F is cumulative from the input frame; a_series is
    the connection matrix A in it, with entries only on blocks dropping
    the doubled level by exactly 2.  F(0) = p0 holds the graded pieces of
    nilpotent.graded_splitting, column j at level lev[j].

    F is the gauge that carries b = g.conn to A, so theta F = b F - F A.
    With Y = p0^-1 F and b' = p0^-1 b p0 this is theta Y = b' Y - Y A with
    Y(0) = I and A_0 = b'_0, and its q^k coefficient is
        k Y_k - [A_0, Y_k] + A_k = R_k,
        R_k = sum_(j=1..k) b'_j Y_(k-j) - sum_(j=1..k-1) Y_(k-j) A_j.
    A_0 has grade -2 in d = lev[i] - lev[j] (Deligne's splitting: N maps
    I^p into I^(p-2)), so [A_0, X] at grade d reads X at grade d + 2 and
    the equation is triangular in d; _graded_pass solves it top grade
    first:
    * Y_k lives on the grades d >= 0 (column j of F lies in F^(>= lev[j]))
      and solves k Y_d = R_d + [A_0, Y_(d+2)]_d;
    * A_k = R_(-2) + [A_0, Y_0]_(-2) is read at grade -2;
    * grade -1, R_(-1) + [A_0, Y_1]_(-1), and the grades d <= -3, R_d
      alone, must vanish (Griffiths transversality in the graded frame),
      else DegreeViolation names q^k and the first such entry.
    The solution is unique, and F = p0 Y takes no inverse of a series.
    A companion connection has p0 = I; SeriesMatrix.scalar_left_mul and
    scalar_right_mul then hand back their series factor, so no q-order
    of b or Y is multiplied by a constant.
    """
    dim, order = g.rank, g.order
    try:
        pieces = nilpotent.graded_splitting(g.conn.at0(), g.levels2)
    except nilpotent.NotNilpotent as exc:
        raise NotNilpotentResidue(str(exc)) from exc
    except nilpotent.NotSplit as exc:
        raise NotHodgeTate(
            f"flag and weight filtration do not split at q = 0: {exc}"
        ) from exc
    # the pieces are dim independent vectors, so p0 is invertible
    tops = sorted(pieces, reverse=True)
    lev = tuple(level for level in tops for _ in pieces[level])
    p0 = linalg.transpose([v for level in tops for v in pieces[level]])

    # b' = p0^-1 b p0
    bp = g.conn.scalar_left_mul(linalg.inverse(p0)).scalar_right_mul(p0)._lifts
    a0 = bp[0]  # grade -2 by Deligne's splitting; checked once here
    if any(lev[i] != lev[j] - 2 for i, row in enumerate(a0.rows)
           for j, _, _ in row):
        raise NotNilpotentResidue("ad of the residue does not terminate")

    ys, a_ks = [Lifted.scalar(ONE, dim)], [a0]
    neg_a = [a0.negated()]
    for k in range(1, order):
        r = linalg.sum_products(
            [(bp[j], ys[k - j]) for j in range(1, k + 1)]
            + [(ys[k - j], neg_a[j]) for j in range(1, k)], dim, dim)
        y, a_k = _graded_pass(r, k, a0, lev)
        ys.append(y)
        a_ks.append(a_k)
        neg_a.append(a_k.negated())
    return CanonicalConnection(
        frame=SeriesMatrix.from_lifts(ys, dim, dim).scalar_left_mul(p0),
        a_series=SeriesMatrix.from_lifts(a_ks, dim, dim),
        levels2=lev)


def _graded_pass(r: Accumulator, k: int, a0: Lifted, lev: tuple[int, ...]
                 ) -> tuple[Lifted, Lifted]:
    """Y_k and A_k from R_k = r, one grade at a time, top first.

    Only the nonzero entries of R_k and of A_0 are visited.  A grade-d
    entry is kept as an integer z over D s_d, D = r.den: s_d = 1 where no
    Y_(d+2) reaches it, else s_d = s_(d+2) k d0, d0 = a0.den, so that
    z = s_d R + sum a z' stays an integer, z' running over the Y_(d+2)
    entries it reads and a over those of A_0.  Y_d is z / (D s_d k).
    """
    dim, den, kd0 = len(lev), r.den, k * a0.den
    a0_cols: list[list[tuple[int, int, int]]] = [[] for _ in range(dim)]
    for i, row in enumerate(a0.rows):
        for j, a, b in row:
            a0_cols[j].append((i, a, b))
    by_grade: dict[int, dict[tuple[int, int], tuple[int, int]]] = {}
    for i, (ri, ii) in enumerate(zip(r.re, r.im)):
        for j, x in enumerate(ri):
            if x or ii[j]:
                by_grade.setdefault(lev[i] - lev[j], {})[i, j] = (x, ii[j])
    pending: dict[int, dict[tuple[int, int], list[int]]] = {}
    scale: dict[int, int] = {}
    y_entries, a_entries, bad = [], [], []
    for d in range(max(by_grade, default=-1), -3, -1):
        z = pending.pop(d, None)
        s = scale[d] = scale[d + 2] * kd0 if z else 1
        z = z or {}
        for ij, (x, y) in by_grade.pop(d, {}).items():
            e = z.setdefault(ij, [0, 0])
            e[0] += s * x
            e[1] += s * y
        solved = [(i, j, zr, zi) for (i, j), (zr, zi) in z.items()
                  if zr or zi]
        if d == -1:
            bad += [(i, j) for i, j, _, _ in solved]
        elif d == -2:
            a_entries = [(i, j, zr, zi, den * s) for i, j, zr, zi in solved]
        else:
            target = pending.setdefault(d - 2, {})
            for p, q, zr, zi in solved:
                y_entries.append((p, q, zr, zi, den * s * k))
                for i, a, b in a0_cols[p]:  # + A_0 Y
                    e = target.setdefault((i, q), [0, 0])
                    e[0] += a * zr - b * zi
                    e[1] += a * zi + b * zr
                for j, a, b in a0.rows[q]:  # - Y A_0
                    e = target.setdefault((p, j), [0, 0])
                    e[0] -= zr * a - zi * b
                    e[1] -= zr * b + zi * a
    bad += [ij for entries in by_grade.values() for ij in entries]
    if bad:
        i, j = min(bad)
        raise DegreeViolation(
            f"canonical connection is nonzero at q^{k}, entry ({i},{j}), "
            f"which relates levels {lev[j]} -> {lev[i]}")
    return (Lifted.from_entries(y_entries, dim),
            Lifted.from_entries(a_entries, dim))


def _ks_component(a: SeriesMatrix, levels2: Sequence[int]) -> Series:
    """Kodaira-Spencer component h, normalized to h(0) = 1."""
    top = max(levels2)
    top_cols = [j for j, l in enumerate(levels2) if l == top]
    if len(top_cols) != 1:
        raise NotProportional(
            "top graded piece is not one-dimensional; the canonical "
            "coordinate is not defined by proportionality")
    col = top_cols[0]
    rows = [i for i, l in enumerate(levels2) if l == top - 2]
    comps = [a.entry(i, col) for i in rows]
    ref = None
    for s in comps:
        if not s.at0().is_zero():
            ref = s
            break
    if ref is None:
        raise ZeroKS("Kodaira-Spencer map vanishes at q = 0")
    h = ref * ref.at0().inverse()
    for s in comps:
        if s != h * s.at0():
            raise NotProportional(
                "Kodaira-Spencer component is not proportional to its "
                "value at q = 0")
    return h


def canonical_coordinate(a: SeriesMatrix,
                         levels2: Sequence[int]) -> Series:
    """Coordinate Q(q) in which the Kodaira-Spencer map is constant.

    Normalized so Q'(0) = 1; any further scalar is the documented
    freedom and lives in rescale_coordinate.
    """
    return _coordinate_of_ks(_ks_component(a, levels2))


def _coordinate_of_ks(h: Series) -> Series:
    """q exp(theta^-1 (h - 1)), for the normalized Kodaira-Spencer
    component h; its theta-log-derivative is h."""
    one = Series.one(h.order)
    return Series.coordinate(h.order) * (h - one).theta_inverse().exp()


def extend_pairing(a: SeriesMatrix, m0: Matrix,
                   mode: str = "flat") -> SeriesMatrix:
    """Covariantly constant extension of a constant pairing seed: solves
    theta M = A^T M + M A starting from m0, which requires the residue
    to be skew for m0.  "flat" is the only mode.
    """
    if mode != "flat":
        raise ValueError(f"unknown mode {mode!r}")

    dim = a.rows
    if a.cols != dim or [len(row) for row in m0] != [dim] * dim:
        raise ValueError(
            f"pairing shape mismatch: the seed is {len(m0)} x "
            f"{len(m0[0]) if m0 else 0}, A is {dim} x {a.cols}")
    lm0, at = Lifted.of(m0), [x.transposed() for x in a._lifts]
    seed = linalg.sum_products([(at[0], lm0), (lm0, a._lifts[0])], dim, dim)
    if not seed.lifted().zero:
        raise ResidueNotCompatible(
            "A(0)^T M0 + M0 A(0) != 0; the constant term cannot start a "
            "covariantly constant pairing")
    stuck = ResidueNotCompatible("residue action is not nilpotent; the "
                                 "recursion does not terminate")
    half, solved = Lifted.scalar(ONE / Scalar(2), dim), []
    for eps in (1, -1):
        # the eps-symmetric part of M solves theta X = A^T X + X A alone
        part = linalg.sum_products([(half, lm0)], dim, dim, eps).lifted()
        if not part.zero:  # a real pairing is pure: one solve
            solved.append(_solve_theta(part, at, a._lifts[0], eps, stuck))
    if not solved:
        return SeriesMatrix.zeros(dim, dim, a.order)
    return solved[0] if len(solved) == 1 else solved[0] + solved[1]


# ---------------------------------------------------------------------------
# the normal-form functors
# ---------------------------------------------------------------------------


def to_normal_form(g: GeometricVHS,
                   normalization: Scalar | None = None) -> NormalFormReport:
    """Canonical coordinates + graded frame -> DnObject.

    The pairing comes from exactly one place.  A pairing carried by g is
    transported to the canonical frame as it is.  Without one,
    normalization, the volume, is required: the frame is rebased along
    powers of A(0), which needs one-dimensional graded pieces and makes
    the middle entry of a threefold's connection literally the Yukawa
    series over the volume.  The rebased A(0) is the unit subdiagonal,
    so the one pairing of degree 0 that is (-1)^n-symmetric, makes A(0)
    skew and has top value t = (-1)^(n(n+1)/2) i^n times the volume is
    m_(i, rank-1-i) = (-1)^i t; the DnObject constructor checks it at
    every q-order.  A pairing and a volume both, or neither, is a
    ValueError before any work.

    The rebase is one diagonal gauge c of the canonical frame, read at
    q^0, where the connection in Q is A(0) (h(0) = 1, g(0) = 0): entry
    (i, j) of A h^-1 is multiplied by c_j / c_i before it is composed,
    and the frame by diag(c) once.
    """
    if (g.pairing is None) == (normalization is None):
        raise ValueError(
            "the pairing comes from exactly one place: give a volume "
            "normalization for an input without a pairing, and none for "
            "an input with one")
    if normalization is not None and Scalar.of(normalization).is_zero():
        raise ZeroScalar("volume normalization must be nonzero")
    canon = to_canonical_connection(g)
    h = _ks_component(canon.a_series, canon.levels2)
    mirror = _coordinate_of_ks(h)
    rev, h_inv = Reversion(mirror), h.inverse()
    levels, frame = list(canon.levels2), canon.frame
    dim, n = len(levels), max(levels)
    c = [ONE] * dim

    def rebased(i: int, j: int, x):
        return x if c[i] == c[j] else x * (c[j] / c[i])

    if n % 2 != g.parity:
        raise InvariantViolation(
            "top level parity disagrees with the stated dimension parity")
    if g.pairing is not None:
        # Checked in q, on the canonical frame and connection: with R the
        # residual of M = F^T P F for A, the residual in Q of M o g for
        # (A h^-1) o g is (R h^-1) o g.  As h(0) = 1 and g = Q + O(Q^2),
        # its first nonzero coefficient is that of R, at the same order
        # and entry.  M is eps-symmetric because P is.
        m = frame.transpose() * g.pairing * frame
        failure = _pairing_failure(canon.a_series, m, g.parity)
        if failure:
            raise InvariantViolation(
                "transported pairing is not covariantly constant in the "
                f"canonical frame: {failure}")
        m0 = m.at0()
    else:
        if len(set(levels)) != dim:
            raise ValueError(
                "volume basis requires one-dimensional graded pieces")
        a0 = canon.a_series.at0()
        for j in range(dim - 1):
            s = a0[j + 1][j]
            if s.is_zero():
                raise InvariantViolation(
                    "A(0) does not generate the frame from the volume "
                    "vector")
            c[j + 1] = c[j] * s
        frame = frame.scalar_right_mul(linalg.diagonal(c))
        top = _prefactor(n) * Scalar.of(normalization)
        m0 = linalg.zeros(dim, dim)
        for i in range(dim):
            m0[i][dim - 1 - i] = -top if i % 2 else top

    # theta_Q = h^-1 theta_q and q = g(Q), so the connection in Q is
    # (A o g) (h o g)^-1 = (A h^-1) o g: composition is a ring map
    support, zero = _support(canon.a_series), Series.zero(h.order)
    a_new = SeriesMatrix([[rev.compose(rebased(
        i, j, canon.a_series.entry(i, j) * h_inv)) if (i, j) in support
        else zero for j in range(dim)] for i in range(dim)])

    dims: dict[int, int] = {}
    for l in levels:
        dims[-l] = dims.get(-l, 0) + 1
    dn = DnObject(n=n, graded_dims=dims, pairing0=m0, a_series=a_new)
    return NormalFormReport(mirror_coordinate=mirror, gauge=frame, dn=dn)


def from_normal_form(d: DnObject) -> ReesModule:
    """The Rees-module incarnation of a graded normal-form object."""
    p0 = d.pairing0_matrix()
    order = d.order
    conn = {-1: -d.a_series}
    rank = d.rank
    m_untw = [[p0[i][j] * Scalar.i_power(-d.degrees[j])
               for j in range(rank)] for i in range(rank)]
    pairing = {0: SeriesMatrix.from_scalar_matrix(m_untw, order)}
    return ReesModule(d.degrees, conn, pairing, d.n % 2, order=order)


def rees_to_geometric(r: ReesModule) -> GeometricVHS:
    """Collapse the integer grading to its parity.

    u-polynomial values are evaluated at u = -1; the pairing entry in
    degrees (k_i, k_j) additionally picks up i^(-k_i).
    """
    rank = r.rank
    conn, pairing = (sum((-mat if p % 2 else mat
                          for p, mat in comps.items()),
                         SeriesMatrix.zeros(rank, rank, r.order))
                     for comps in (r.conn_u, r.pairing_u))
    pairing = pairing.scalar_left_mul(
        linalg.diagonal([Scalar.i_power(-k) for k in r.degrees]))
    levels2 = [-k for k in r.degrees]
    return GeometricVHS(conn=conn, levels2=levels2, pairing=pairing,
                        parity=r.parity)


def geometric_to_rees(g: GeometricVHS) -> ReesModule:
    """Inverse of the collapse: place each entry at its forced u-power."""
    degrees = [-l for l in g.levels2]
    if g.pairing is None:
        raise ValueError("a pairing is required to lift to a Rees module")
    conn_slots: dict[tuple[int, int], tuple[int, Scalar]] = {}
    pair_slots: dict[tuple[int, int], tuple[int, Scalar]] = {}
    for i, j in sorted(_support(g.conn)):
        diff = degrees[j] - degrees[i]
        if diff % 2 != 0:
            raise InconsistentLift(
                f"connection entry ({i},{j}) mixes parities")
        p = diff // 2
        if p < -1:
            raise InconsistentLift(
                f"connection entry ({i},{j}) needs u^{p}")
        conn_slots[i, j] = (p, Scalar(-1 if p % 2 else 1))
    for i, j in sorted(_support(g.pairing)):
        s = degrees[i] + degrees[j]
        if s % 2 != 0:
            raise InconsistentLift(
                f"pairing entry ({i},{j}) mixes parities")
        p = s // 2
        if p < 0:
            raise InconsistentLift(
                f"pairing entry ({i},{j}) needs u^{p}")
        pair_slots[i, j] = (p, Scalar(-1 if p % 2 else 1) *
                            Scalar.i_power(degrees[i]))
    return ReesModule(degrees, _u_components(g.conn, conn_slots),
                      _u_components(g.pairing, pair_slots), g.parity,
                      order=g.order)


def _u_components(m: SeriesMatrix,
                  slots: Mapping[tuple[int, int], tuple[int, Scalar]]
                  ) -> dict[int, SeriesMatrix]:
    """The square m split by u-power: entry (i, j) times c goes to the
    component of u^p, for slots[i, j] = (p, c) with c != 0, on the
    integers of m."""
    lifts: dict[int, list[Lifted]] = {p: [] for p, _ in slots.values()}
    for lift in m._lifts:
        entries: dict[int, list] = {p: [] for p in lifts}
        for i, row in enumerate(lift.rows):
            for j, a, b in row:
                p, c = slots[i, j]
                x, y, d = c._abd
                entries[p].append((i, j, a * x - b * y, a * y + b * x,
                                   lift.den * d))
        for p, found in entries.items():
            lifts[p].append(Lifted.from_entries(found, m.rows))
    return {p: SeriesMatrix.from_lifts(ls, m.rows, m.cols)
            for p, ls in lifts.items()}


def verify_prevhs(r: ReesModule) -> dict[str, bool]:
    """Axiom report for a Rees module; never raises."""
    degrees = r.degrees
    rank = r.rank
    report: dict[str, bool] = {}

    report["u_valuation"] = all(p >= -1 for p in r.conn_u)

    report["grading"] = all(2 * p == degrees[j] - degrees[i]
                            for p, mat in r.conn_u.items()
                            for i, j in _support(mat))

    report["flatness"] = True  # one-dimensional base: nothing to check

    report["pairing_degree"] = all(p >= 0 for p in r.pairing_u) and all(
        2 * p == degrees[i] + degrees[j]
        for p, mat in r.pairing_u.items() for i, j in _support(mat))

    # entry (i, j) is entry (j, i) times (-1)^(parity + k_i) star(u^p)
    report["pairing_symmetry"] = all(
        mat == mat.transpose().scalar_left_mul(linalg.diagonal(
            [Scalar(-1 if (r.parity + k + p) % 2 else 1) for k in degrees]))
        for p, mat in r.pairing_u.items())

    # theta P = C^T P + P C*, as Laurent polynomials in u
    conn_t = {p: m.transpose() for p, m in r.conn_u.items()}
    conn_star = {p: m * Scalar(-1 if p % 2 else 1)
                 for p, m in r.conn_u.items()}
    residual: dict[int, SeriesMatrix] = {
        p: m.theta_entries() for p, m in r.pairing_u.items()}
    terms = [(p1 + p2, ct * pm) for p1, ct in conn_t.items()
             for p2, pm in r.pairing_u.items()]
    terms += [(p1 + p2, pm * cs) for p1, pm in r.pairing_u.items()
              for p2, cs in conn_star.items()]
    for p, mat in terms:
        residual[p] = residual[p] - mat if p in residual else -mat
    report["covariant_constancy"] = all(m.is_zero()
                                        for m in residual.values())

    lead = linalg.zeros(rank, rank)
    for i in range(rank):
        for j in range(rank):
            s = degrees[i] + degrees[j]
            if s % 2 != 0 or s < 0:
                continue
            p = s // 2
            if p in r.pairing_u:
                lead[i][j] = r.pairing_u[p].entry(i, j).at0()
    report["nondegenerate_at_0"] = linalg.try_inverse(lead) is not None
    return report


def rescale_coordinate(d: DnObject, c: Scalar) -> DnObject:
    """Substitute Q -> Q/c in the connection; everything else fixed."""
    c = Scalar.of(c)
    if c.is_zero():
        raise ZeroScalar("coordinate rescale by zero")
    return DnObject(n=d.n, graded_dims=d.graded_dims,
                    pairing0=d.pairing0_matrix(),
                    a_series=d.a_series.dilate(c.inverse()))


def yukawa(obj: DnObject) -> Series:
    """The n-fold self-pairing <vol, nabla^n vol>, normalized so a
    constant connection returns the plain volume scalar.

    A has pure degree +2 and the pairing degree 0, so pairing with vol
    (degree -n) keeps only the degree-n part of nabla^n vol.  theta keeps
    degrees, so every term of nabla^n vol with a theta in it has fewer
    than n factors A and lies below degree n: <vol, nabla^n vol> =
    <vol, A^n vol>, the row vol of the pairing times A, n times.

    The row is a dict of Series over its nonzero entries, and each step
    walks the support of A, adding row[i] A_(i,j) to row[j]: one Series
    product per entry of A the row meets, where a row-by-matrix product
    of SeriesMatrix convolves O(order^2) pairs of lifts.  Reading the
    entries lowers A once into its cache, which the JSON writer reads.
    """
    if not isinstance(obj, DnObject):
        raise TypeError("expected a DnObject")
    vol, a, order = obj.volume_index, obj.a_series, obj.order
    entries = {(i, j): a.entry(i, j) for i, j in _support(a)}
    row = {j: Series.constant(x, order)
           for j, x in enumerate(obj.pairing0[vol]) if not x.is_zero()}
    for _ in range(obj.n):
        step: dict[int, Series] = {}
        for (i, j), e in entries.items():
            if i in row:
                x = row[i] * e
                step[j] = step[j] + x if j in step else x
        row = step
    return row.get(vol, Series.zero(order)) * _prefactor(obj.n).inverse()
