"""Semi-infinite Hodge structures over the formal disc.

Two presentations of the same data and the translations between them:

* ReesModule: a free module over scalars[[u]] with a connection allowed a
  first-order pole in u and a sesquilinear pairing (the involution sends
  u to -u, nothing is complex-conjugated).
* GeometricVHS: a filtered flat bundle on the formal disc, the collapse
  of the grading to its parity.

Plus the normal-form machinery: formal flat gauge, Hodge-Tate splitting,
canonical coordinate, covariant extension of pairings, and the
equivalence with graded normal-form objects (DnObject).  The flat gauge
and the pairing extension are one equation, theta X = L(X) + Phi(X)
with L nilpotent, solved order by order on the coefficient matrices of
X by one Neumann sum, which keeps them in the lifted form of the linalg
integer kernel until each q-order is done.

The canonical connection is one more such solve.  Its frame is p0 Y,
p0 the pieces F^p ∩ W_p at q = 0 from nilpotent.graded_splitting and
lev[j] the level of column j, and with b' = p0^-1 b p0 the equation
theta Y = b' Y - Y A, Y(0) = I, reads at q^k
    k Y_k - [A_0, Y_k] + A_k = R_k,
    R_k = sum_(j=1..k) b'_j Y_(k-j) - sum_(j=1..k-1) Y_(k-j) A_j.
Graded by lev[i] - lev[j] it splits three ways: Y_k on the entries of
grade >= 0 is the Neumann sum, A_k is R_k + [A_0, Y_k] on grade -2, and
every other entry must vanish.  A residual that should vanish and does
not is reported at its first nonzero q-order and entry.

Sign conventions are load-bearing and centralized here.  The grading
collapse evaluates u-polynomials at u = -1; the pairing additionally
picks up a factor i^{-k} in the degree k of the first argument.  That
twist is the single point where the two pictures' adjointness
conventions (skew on the Rees side, self-adjoint on the graded side)
get reconciled.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

from . import linalg, nilpotent
from .linalg import Accumulator, Lifted, Matrix, Vector
from .scalars import ONE, ZERO, Scalar, sqrt_exact
from .series import PowerTable, Series, SeriesMatrix


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


class NoVolumeForm(ValueError):
    """Top graded piece is not one-dimensional."""


class InvariantViolation(ValueError):
    """A structural invariant of the data type fails."""


class PairingUnderdetermined(ValueError):
    """The constant-pairing constraint system is not one-dimensional."""


def _prefactor(n: int) -> Scalar:
    """(-1)^(n(n+1)/2) * i^n, the volume normalization unit."""
    sign = -1 if (n * (n + 1) // 2) % 2 else 1
    return Scalar(sign) * Scalar.i_power(n)


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------


class ReesModule:
    """Free graded module over scalars[[u]] with connection and pairing.

    conn_u / pairing_u map a u-power to the SeriesMatrix of that
    coefficient; components that are identically zero are dropped, so
    structural equality is meaningful.
    """

    __slots__ = ("degrees", "conn_u", "pairing_u", "parity", "order")

    def __init__(self, degrees: Sequence[int],
                 conn_u: Mapping[int, SeriesMatrix],
                 pairing_u: Mapping[int, SeriesMatrix],
                 parity: int,
                 order: int | None = None):
        rank = len(degrees)
        if rank == 0:
            raise NotFree("empty basis")
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        kept_conn: dict[int, SeriesMatrix] = {}
        kept_pair: dict[int, SeriesMatrix] = {}
        for source, kept in ((conn_u, kept_conn), (pairing_u, kept_pair)):
            for p, mat in source.items():
                if mat.rows != rank or mat.cols != rank:
                    raise ValueError("component shape mismatch")
                if order is None:
                    order = mat.order
                elif mat.order != order:
                    raise ValueError("components must share one order")
                if not mat.is_zero():
                    kept[p] = mat
        if order is None:
            raise ValueError("order cannot be inferred from empty data")
        object.__setattr__(self, "degrees", tuple(degrees))
        object.__setattr__(self, "conn_u", kept_conn)
        object.__setattr__(self, "pairing_u", kept_pair)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("ReesModule is immutable")

    @property
    def rank(self) -> int:
        return len(self.degrees)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReesModule):
            return NotImplemented
        return (self.degrees, self.parity, self.order,
                self.conn_u, self.pairing_u) == \
            (other.degrees, other.parity, other.order,
             other.conn_u, other.pairing_u)

    def __repr__(self) -> str:
        return (f"ReesModule(rank={self.rank}, degrees={self.degrees}, "
                f"order={self.order})")


class GeometricVHS:
    """Filtered bundle with connection on the formal disc.

    levels2 holds twice the Hodge level of each frame vector (integers,
    so half-integral levels in odd dimension stay exact).  The frame is
    assumed adapted to the filtration: F^(>=p) is spanned over the
    series ring by the frame vectors with doubled level >= 2p.
    """

    __slots__ = ("conn", "levels2", "pairing", "parity")

    def __init__(self, conn: SeriesMatrix, levels2: Sequence[int],
                 pairing: SeriesMatrix | None, parity: int):
        if conn.rows != conn.cols:
            raise ValueError("connection must be square")
        if len(levels2) != conn.rows:
            raise ValueError("one level per frame vector required")
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        lv = tuple(levels2)
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
            sign = Scalar(-1 if parity else 1)
            for i in range(conn.rows):
                for j in range(conn.cols):
                    if any(m[i][j] != sign * m[j][i]
                           for m in pairing.coeffs):
                        raise InvariantViolation(
                            f"pairing symmetry fails at ({i},{j})")
            residual = pairing.theta_entries() - \
                (conn.transpose() * pairing + pairing * conn)
            failure = _first_failure(residual)
            if failure:
                raise InvariantViolation(
                    f"pairing is not covariantly constant: {failure}")
        object.__setattr__(self, "conn", conn)
        object.__setattr__(self, "levels2", lv)
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "parity", parity)

    def __setattr__(self, name, value):
        raise AttributeError("GeometricVHS is immutable")

    @property
    def rank(self) -> int:
        return self.conn.rows

    @property
    def order(self) -> int:
        return self.conn.order

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeometricVHS):
            return NotImplemented
        return (self.conn, self.levels2, self.pairing, self.parity) == \
            (other.conn, other.levels2, other.pairing, other.parity)

    def __repr__(self) -> str:
        return (f"GeometricVHS(rank={self.rank}, levels2={self.levels2}, "
                f"order={self.order})")


class DnObject:
    """Graded normal-form object: (V, <.,.>, A(q)).

    Basis vectors are grouped by degree in ascending order, so index 0
    is the volume direction (degree -n).  The stored pairing carries the
    i-power twist already; concretely that makes A(0) skew for it, which
    is what self-adjointness in the sesquilinear sense amounts to after
    the twist.
    """

    __slots__ = ("n", "graded_dims", "degrees", "pairing0", "a_series")

    def __init__(self, n: int, graded_dims: Mapping[int, int],
                 pairing0: Matrix, a_series: SeriesMatrix):
        if n < 0:
            raise InvariantViolation("dimension must be nonnegative")
        dims = {int(k): int(d) for k, d in graded_dims.items() if d}
        for k, d in dims.items():
            if d < 0:
                raise InvariantViolation("negative graded dimension")
            if k < -n or k > n:
                raise InvariantViolation(
                    f"grading must be concentrated in [-{n}, {n}]; "
                    f"found degree {k}")
        if dims.get(-n, 0) != 1:
            raise InvariantViolation("V_{-n} must be one-dimensional")
        degrees: list[int] = []
        for k in sorted(dims):
            degrees.extend([k] * dims[k])
        rank = len(degrees)
        if a_series.rows != rank or a_series.cols != rank:
            raise InvariantViolation("A matrix size disagrees with grading")
        if len(pairing0) != rank or any(len(r) != rank for r in pairing0):
            raise InvariantViolation("pairing size disagrees with grading")

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

        sign = Scalar(-1 if n % 2 else 1)
        for i in range(rank):
            for j in range(rank):
                if pairing0[i][j] != sign * pairing0[j][i]:
                    raise InvariantViolation(
                        f"pairing symmetry <a,b> = (-1)^n <b,a> fails "
                        f"at ({i},{j})")
        if linalg.try_inverse(pairing0) is None:
            raise InvariantViolation("pairing must be nondegenerate")

        a0 = a_series.at0()
        for k in range(1, n + 1):
            if dims.get(k, 0) != dims.get(-k, 0):
                raise InvariantViolation(
                    f"graded dimensions at degrees {k} and {-k} differ")
        power = linalg.identity(rank)
        for k in range(1, n + 1):
            power = linalg.mat_mul(power, a0)
            d = dims.get(k, 0)
            if d == 0:
                continue
            rows = [i for i in range(rank) if degrees[i] == k]
            cols = [j for j in range(rank) if degrees[j] == -k]
            block = [[power[i][j] for j in cols] for i in rows]
            if linalg.rank(block) != d:
                raise InvariantViolation(
                    f"A(0)^{k} is not an isomorphism V_{-k} -> V_{k}")

        # self-adjointness of A(0) in the sesquilinear sense: with the
        # twisted pairing stored here the matrix condition is skewness
        at_p = linalg.mat_mul(linalg.transpose(a0), pairing0)
        p_a = linalg.mat_mul(pairing0, a0)
        if not linalg.is_zero_matrix(linalg.mat_add(at_p, p_a)):
            raise InvariantViolation(
                "A(0) is not self-adjoint with respect to the pairing")

        if n >= 1:
            rows = [i for i in range(rank) if degrees[i] == -n + 2]
            col = degrees.index(-n)
            for i in rows:
                if any(not m[i][col].is_zero()
                       for m in a_series.coeffs[1:]):
                    raise InvariantViolation(
                        "the V_{-n} -> V_{-n+2} component of A must be "
                        "constant")

        object.__setattr__(self, "n", n)
        object.__setattr__(self, "graded_dims", dims)
        object.__setattr__(self, "degrees", tuple(degrees))
        object.__setattr__(self, "pairing0",
                           tuple(tuple(row) for row in pairing0))
        object.__setattr__(self, "a_series", a_series)

    def __setattr__(self, name, value):
        raise AttributeError("DnObject is immutable")

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, DnObject):
            return NotImplemented
        return (self.n, self.degrees, self.pairing0, self.a_series) == \
            (other.n, other.degrees, other.pairing0, other.a_series)

    def __repr__(self) -> str:
        return f"DnObject(n={self.n}, degrees={self.degrees})"


class CanonicalConnection(NamedTuple):
    frame: SeriesMatrix
    a_series: SeriesMatrix
    levels2: tuple[int, ...]


@dataclass(frozen=True)
class NormalFormReport:
    mirror_coordinate: Series
    gauge: SeriesMatrix
    dn: DnObject
    volume_index: int


# ---------------------------------------------------------------------------
# gauge calculus
# ---------------------------------------------------------------------------


def gauge_transform(b: SeriesMatrix, g: SeriesMatrix) -> SeriesMatrix:
    """Connection matrix in the frame g: g^-1 (b g - theta g)."""
    return g.inverse() * (b * g - g.theta_entries())


def _support(m: SeriesMatrix) -> set[tuple[int, int]]:
    """The entries (i, j) of m that are nonzero at some q-order."""
    return {(i, j) for c in m.coeffs for i, row in enumerate(c)
            for j, x in enumerate(row) if not x.is_zero()}


def _first_failure(m: SeriesMatrix,
                   where: Callable[[int, int], bool] | None = None
                   ) -> str | None:
    """Where a residual that should vanish first does not, or None."""
    hit = m.first_nonzero(where)
    if hit is None:
        return None
    k, i, j = hit
    return f"the residual is nonzero at q^{k}, entry ({i},{j})"


def _neumann_sum(term: Lifted, k: int, lop: Callable[[Lifted], Lifted],
                 stuck: Exception) -> Accumulator:
    """The solution X of k X = L(X) + term, L linear and nilpotent, as
    the terminating Neumann sum X = sum_m L^m(term) / k^(m+1).  A sum
    longer than 2 dim + 2 terms means L is not nilpotent: raise stuck."""
    dim = len(term.rows)
    inv_k = ONE / Scalar(k)
    acc = Accumulator(dim, term.cols)
    factor = inv_k
    steps = 0
    while not term.zero:
        acc.add_product(Lifted.scalar(factor, dim), term)
        term = lop(term)
        factor = factor * inv_k
        steps += 1
        if steps > 2 * dim + 2:
            raise stuck
    return acc


def _solve_theta(x0: Matrix, order: int, lop: Callable[[Lifted], Lifted],
                 phi: Callable[[list[Lifted], int], Lifted],
                 stuck: Exception) -> SeriesMatrix:
    """The solution X of theta X = L(X) + Phi(X) with X(0) = x0.

    L is linear and nilpotent, and Phi_k reads only X_0 .. X_(k-1).
    The order-k equation k X_k = L(X_k) + Phi_k is then solved by the
    Neumann sum.  Phi, L and the sum work on Lifted matrices; each X_k is
    lowered to Scalars once.
    """
    dim = len(x0)
    xs = [x0]
    lifted = [Lifted.of(x0)]
    for k in range(1, order):
        acc = _neumann_sum(phi(lifted, k), k, lop, stuck)
        xs.append(acc.lower())
        lifted.append(acc.lifted())
    return SeriesMatrix.from_coefficients(xs, dim, dim)


def formal_flat_gauge(b: SeriesMatrix) -> SeriesMatrix:
    """Unique U with U(0) = I and theta U = b U - U N, N = b(0).

    The order-k step inverts (k - ad_N); ad_N is nilpotent because N is,
    so the inverse is a terminating Neumann sum.
    """
    n_mat = b.at0()
    dim = b.rows
    try:
        nilpotent.nilpotency_index(n_mat)
    except nilpotent.NotNilpotent as exc:
        raise NotNilpotentResidue(str(exc)) from exc
    bs = b._lifted()
    n_neg = Lifted.of(linalg.mat_neg(n_mat))

    def phi(u: list[Lifted], k: int) -> Lifted:
        acc = Accumulator(dim, dim)
        for j in range(1, k + 1):
            acc.add_product(bs[j], u[k - j])
        return acc.lifted()

    def ad_n(x: Lifted) -> Lifted:
        acc = Accumulator(dim, dim)
        acc.add_product(bs[0], x)
        acc.add_product(x, n_neg)
        return acc.lifted()

    return _solve_theta(
        linalg.identity(dim), b.order, ad_n, phi,
        NotNilpotentResidue("ad of the residue does not terminate"))


# ---------------------------------------------------------------------------
# Hodge-Tate splitting and canonical form
# ---------------------------------------------------------------------------


def hodge_tate_split(g: GeometricVHS) -> tuple[SeriesMatrix,
                                               tuple[int, ...]]:
    """Frame of the graded splitting, expressed in the flat frame.

    Returns (P, levels2) where column j of P spans the intersection of
    F^(>= p_j) with the flat extension of the weight filtration, p_j
    the j-th entry of levels2 (weakly decreasing).  The gauge of the
    constant residue by P is the canonical connection, and U P is its
    frame, U the flat gauge of g.conn.
    """
    canon = to_canonical_connection(g)
    return formal_flat_gauge(g.conn).inverse() * canon.frame, canon.levels2


def _restrict(x: Lifted, keep: list[list[bool]]) -> Lifted:
    """x with the entries (i, j) where keep[i][j] is false dropped."""
    return Lifted(x.den, [[e for e in row if mask[e[0]]]
                          for row, mask in zip(x.rows, keep)], x.cols)


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
    Graded by lev[i] - lev[j], the equation splits three ways:
    * Y_k lives on the entries with lev[i] >= lev[j] (column j of F lies
      in F^(>= lev[j])), where it is (k - P ad_(A_0)) Y_k = P R_k, P the
      projection onto those entries; ad_(A_0) lowers the grade by 2, so
      this is the Neumann sum of _neumann_sum;
    * A_k is E_k = R_k + [A_0, Y_k] on the entries with lev[i] = lev[j] - 2;
    * every other entry of E_k must vanish (Griffiths transversality in
      the graded frame), else DegreeViolation names q^k and the entry.
    The solution is unique, and F = p0 Y takes no inverse of a series.
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
    upper = [[lev[i] >= lev[j] for j in range(dim)] for i in range(dim)]
    lower = [[not x for x in row] for row in upper]

    p0_inv, lp0 = Lifted.of(linalg.inverse(p0)), Lifted.of(p0)
    bp = []  # b' = p0^-1 b p0
    for bk in g.conn._lifted():
        acc = Accumulator(dim, dim)
        acc.add_product(p0_inv, bk)
        conj = Accumulator(dim, dim)
        conj.add_product(acc.lifted(), lp0)
        bp.append(conj)
    # A_0 = b'_0 lowers the level by exactly 2: N maps F^(>=p) into
    # F^(>=p-2) (transversality, checked by GeometricVHS) and W_(<=p) into
    # W_(<=p-2), so it maps each piece F^(>=p) ∩ W_(<=p) into the next
    a_coeffs = [bp[0].lower()]
    bp = [acc.lifted() for acc in bp]
    a0, neg_a0 = bp[0], Lifted.of(linalg.mat_neg(a_coeffs[0]))

    def ad_a0(x: Lifted) -> Lifted:
        acc = Accumulator(dim, dim)
        acc.add_product(a0, x)
        acc.add_product(x, neg_a0)
        return _restrict(acc.lifted(), upper)

    stuck = NotNilpotentResidue("ad of the residue does not terminate")
    ys = [Lifted.of(linalg.identity(dim))]
    neg_a = [neg_a0]
    for k in range(1, order):
        r = Accumulator(dim, dim)
        for j in range(1, k + 1):
            r.add_product(bp[j], ys[k - j])
        for j in range(1, k):
            r.add_product(ys[k - j], neg_a[j])
        y = _neumann_sum(_restrict(r.lifted(), upper), k, ad_a0,
                         stuck).lifted()
        r.add_product(a0, y)
        r.add_product(y, neg_a0)
        a_k = r.lower(lower)
        for i, row in enumerate(a_k):
            for j, x in enumerate(row):
                if not x.is_zero() and lev[i] != lev[j] - 2:
                    raise DegreeViolation(
                        f"canonical connection is nonzero at q^{k}, entry "
                        f"({i},{j}), which relates levels {lev[j]} -> "
                        f"{lev[i]}")
        a_coeffs.append(a_k)
        neg_a.append(Lifted.of(linalg.mat_neg(a_k)))
        ys.append(y)
    return CanonicalConnection(
        frame=SeriesMatrix.from_coefficients(
            [lp0.times(y) for y in ys], dim, dim),
        a_series=SeriesMatrix.from_coefficients(a_coeffs, dim, dim),
        levels2=lev)


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
    h = ref * Series.constant(ref.at0().inverse(), a.order)
    for s in comps:
        if s != h * Series.constant(s.at0(), a.order):
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


def extend_pairing(a: SeriesMatrix, m0: Matrix, mode: str = "flat",
                   degrees: Sequence[int] | None = None) -> SeriesMatrix:
    """Covariantly constant extension of a constant pairing seed.

    mode "flat" solves theta M = A^T M + M A starting from m0, which
    requires the residue to be skew for m0.  mode "dn" is the graded
    picture: the precondition is self-adjointness of the residue, the
    i-power twist by `degrees` converts to the flat problem and back.
    """
    if mode == "dn":
        if degrees is None:
            raise ValueError("mode 'dn' needs the degree list")
        a0 = a.at0()
        if not linalg.mat_eq(linalg.mat_mul(linalg.transpose(a0), m0),
                             linalg.mat_mul(m0, a0)):
            raise ResidueNotCompatible(
                "residue is not self-adjoint for the seed pairing")
        twist = [Scalar.i_power(k) for k in degrees]
        solved = extend_pairing(a, linalg.mat_mul(m0, linalg.diagonal(twist)),
                                mode="flat")
        return solved.scalar_right_mul(
            linalg.diagonal([t.inverse() for t in twist]))
    if mode != "flat":
        raise ValueError(f"unknown mode {mode!r}")

    dim = a.rows
    a_s = a._lifted()
    at_s = a.transpose()._lifted()

    def lop(x: Lifted) -> Lifted:
        acc = Accumulator(dim, dim)
        acc.add_product(at_s[0], x)
        acc.add_product(x, a_s[0])
        return acc.lifted()

    if not lop(Lifted.of(m0)).zero:
        raise ResidueNotCompatible(
            "A(0)^T M0 + M0 A(0) != 0; the constant term cannot start a "
            "covariantly constant pairing")

    def phi(m: list[Lifted], k: int) -> Lifted:
        acc = Accumulator(dim, dim)
        for j in range(1, k + 1):
            acc.add_product(at_s[j], m[k - j])
            acc.add_product(m[k - j], a_s[j])
        return acc.lifted()

    return _solve_theta(
        linalg.copy_matrix(m0), a.order, lop, phi,
        ResidueNotCompatible("residue action is not nilpotent; the "
                             "recursion does not terminate"))


def _solve_pairing0(a0: Matrix, degrees: Sequence[int],
                    parity: int) -> Matrix:
    """Constant pairing seed: antidiagonal pattern, (-1)^n symmetry,
    skew-compatible with the residue; must be unique up to scale."""
    dim = len(degrees)
    sign = Scalar(-1 if parity else 1)
    slots: list[tuple[int, int]] = []
    for i in range(dim):
        for j in range(i, dim):
            if degrees[i] + degrees[j] != 0:
                continue
            if i == j and parity == 1:
                continue  # forced zero by skew symmetry
            slots.append((i, j))
    if not slots:
        raise PairingUnderdetermined("no admissible pairing entries")

    def assemble(values: Sequence[Scalar]) -> Matrix:
        m = linalg.zeros(dim, dim)
        for (i, j), v in zip(slots, values):
            m[i][j] = v
            if i != j:
                m[j][i] = sign * v
        return m

    rows: list[Vector] = []
    a0t = linalg.transpose(a0)
    for s in range(len(slots)):
        unit = [ONE if t == s else ZERO for t in range(len(slots))]
        m = assemble(unit)
        res = linalg.mat_add(linalg.mat_mul(a0t, m), linalg.mat_mul(m, a0))
        rows.append([res[i][j] for i in range(dim) for j in range(dim)])
    coeff_matrix = [[rows[s][e] for s in range(len(slots))]
                    for e in range(dim * dim)]
    kernel = linalg.nullspace(coeff_matrix)
    if len(kernel) != 1:
        raise PairingUnderdetermined(
            f"constant pairing solution space has dimension {len(kernel)}, "
            "expected 1")
    m0 = assemble(kernel[0])
    if linalg.try_inverse(m0) is None:
        raise PairingUnderdetermined("the unique constant pairing is "
                                     "degenerate")
    return m0


# ---------------------------------------------------------------------------
# the normal-form functors
# ---------------------------------------------------------------------------


def to_normal_form(g: GeometricVHS, normalization: Scalar | None = None, *,
                   volume_basis: bool = False) -> NormalFormReport:
    """Canonical coordinates + graded frame -> DnObject.

    normalization, when given, prescribes the volume of the output: the
    top pairing value becomes (-1)^(n(n+1)/2) i^n times it.  If the
    input carries a pairing the volume vector is rescaled to achieve
    that; if the pairing is solved for, the pairing itself is scaled
    (its overall scalar is exactly the solved-for freedom).

    volume_basis additionally rebases along powers of A(0), which needs
    one-dimensional graded pieces; it is what makes the middle entry of
    a threefold's connection literally the Yukawa series over the
    volume.
    """
    canon = to_canonical_connection(g)
    h = _ks_component(canon.a_series, canon.levels2)
    mirror = _coordinate_of_ks(h)
    q_of = PowerTable(mirror.reverse())
    j_factor = q_of.compose(h).inverse()
    a_new = canon.a_series.compose_entries(q_of) * j_factor
    frame = canon.frame
    levels = list(canon.levels2)
    dim = len(levels)

    if volume_basis:
        if len(set(levels)) != dim:
            raise ValueError(
                "volume basis requires one-dimensional graded pieces")
        a0 = a_new.at0()
        scale = [ONE]
        for j in range(dim - 1):
            s = a0[j + 1][j]
            if s.is_zero():
                raise InvariantViolation(
                    "A(0) does not generate the frame from the volume "
                    "vector")
            scale.append(scale[-1] * s)
        c_mat = linalg.diagonal(scale)
        c_inv = linalg.diagonal([s.inverse() for s in scale])
        a_new = a_new.scalar_left_mul(c_inv).scalar_right_mul(c_mat)
        frame = frame.scalar_right_mul(c_mat)

    n = max(levels)
    degrees = [-l for l in levels]
    parity = g.parity
    if n % 2 != parity:
        raise InvariantViolation(
            "top level parity disagrees with the stated dimension parity")

    pairing_supplied = g.pairing is not None
    if pairing_supplied:
        transported = (frame.transpose() * g.pairing * frame)\
            .compose_entries(q_of)
        residual = transported.theta_entries() - \
            (a_new.transpose() * transported + transported * a_new)
        failure = _first_failure(residual)
        if failure:
            raise InvariantViolation(
                "transported pairing is not covariantly constant in the "
                f"canonical frame: {failure}")
        m0 = transported.at0()
    else:
        # m0 would extend (it is skew for the nilpotent A(0)); keep m0 only
        m0 = _solve_pairing0(a_new.at0(), degrees, parity)

    vol = 0  # columns are in descending level order
    partner_cands = [j for j, l in enumerate(levels) if l == -n]
    if len(partner_cands) != 1:
        raise InvariantViolation("degree n piece is not one-dimensional")
    partner = partner_cands[0]

    if normalization is not None:
        target_norm = Scalar.of(normalization)
        if target_norm.is_zero():
            raise ZeroScalar("volume normalization must be nonzero")
        target = _prefactor(n) * target_norm
        current = m0[vol][partner]
        if current.is_zero():
            raise InvariantViolation("top pairing value vanishes")
        ratio = target / current
        if not pairing_supplied:
            m0 = [[x * ratio for x in row] for row in m0]
        else:
            if vol == partner:
                lam = sqrt_exact(ratio)
                if lam is None:
                    raise InvariantViolation(
                        "normalization is not attainable over Gaussian "
                        "rationals")
            else:
                lam = ratio
            d_mat = linalg.diagonal(
                [lam if i == vol else ONE for i in range(dim)])
            d_inv = linalg.diagonal(
                [lam.inverse() if i == vol else ONE for i in range(dim)])
            a_new = a_new.scalar_left_mul(d_inv).scalar_right_mul(d_mat)
            m0 = linalg.mat_mul(d_mat, linalg.mat_mul(m0, d_mat))
            frame = frame.scalar_right_mul(d_mat)

    dims: dict[int, int] = {}
    for k in degrees:
        dims[k] = dims.get(k, 0) + 1
    dn = DnObject(n=n, graded_dims=dims, pairing0=m0, a_series=a_new)
    return NormalFormReport(mirror_coordinate=mirror, gauge=frame,
                            dn=dn, volume_index=vol)


def from_normal_form(d: DnObject) -> ReesModule:
    """The Rees-module incarnation of a graded normal-form object.

    Beyond the constructor's pointwise invariants this demands the
    pairing compatibility at every q-order (the compatible pairing on
    the module is u-independent exactly then); objects failing it do
    not produce a covariantly constant pairing and are rejected.
    """
    p0 = d.pairing0_matrix()
    order = d.order
    residual = d.a_series.transpose().scalar_right_mul(p0) + \
        d.a_series.scalar_left_mul(p0)
    failure = _first_failure(residual)
    if failure:
        raise InvariantViolation(
            "A(q) must be self-adjoint for the pairing at every order to "
            f"define a module pairing: {failure}")
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
    if rank == 0 or rank != len(r.degrees):
        raise NotFree("degree list does not present a basis")
    order = r.order
    conn = SeriesMatrix.zeros(rank, rank, order)
    for p, mat in r.conn_u.items():
        sign = Scalar(-1 if p % 2 else 1)
        conn = conn + mat * sign
    pairing = SeriesMatrix.zeros(rank, rank, order)
    for p, mat in r.pairing_u.items():
        sign = Scalar(-1 if p % 2 else 1)
        pairing = pairing + mat * sign
    pairing = pairing.scalar_left_mul(
        linalg.diagonal([Scalar.i_power(-k) for k in r.degrees]))
    levels2 = [-k for k in r.degrees]
    return GeometricVHS(conn=conn, levels2=levels2, pairing=pairing,
                        parity=r.parity)


def geometric_to_rees(g: GeometricVHS,
                      degree_choice: Sequence[int] | None = None
                      ) -> ReesModule:
    """Inverse of the collapse: place each entry at its forced u-power."""
    levels = g.levels2
    canonical = [-l for l in levels]
    if degree_choice is not None:
        if list(degree_choice) != canonical:
            raise InconsistentLift(
                "degree choice must invert the stored Hodge levels")
    degrees = canonical
    if g.pairing is None:
        raise ValueError("a pairing is required to lift to a Rees module")
    rank = g.rank
    conn_comp: dict[int, list[Matrix]] = {}
    pair_comp: dict[int, list[Matrix]] = {}

    def put(target: dict[int, list[Matrix]], p: int, i: int, j: int,
            source: SeriesMatrix, factor: Scalar) -> None:
        if p not in target:
            target[p] = [linalg.zeros(rank, rank) for _ in range(g.order)]
        for out, m in zip(target[p], source.coeffs):
            out[i][j] = factor * m[i][j]

    for i, j in sorted(_support(g.conn)):
        diff = degrees[j] - degrees[i]
        if diff % 2 != 0:
            raise InconsistentLift(
                f"connection entry ({i},{j}) mixes parities")
        p = diff // 2
        if p < -1:
            raise InconsistentLift(
                f"connection entry ({i},{j}) needs u^{p}")
        put(conn_comp, p, i, j, g.conn, Scalar(-1 if p % 2 else 1))
    for i, j in sorted(_support(g.pairing)):
        s = degrees[i] + degrees[j]
        if s % 2 != 0:
            raise InconsistentLift(
                f"pairing entry ({i},{j}) mixes parities")
        p = s // 2
        if p < 0:
            raise InconsistentLift(
                f"pairing entry ({i},{j}) needs u^{p}")
        put(pair_comp, p, i, j, g.pairing,
            Scalar(-1 if p % 2 else 1) * Scalar.i_power(degrees[i]))
    conn_u = {p: SeriesMatrix.from_coefficients(m, rank, rank)
              for p, m in conn_comp.items()}
    pairing_u = {p: SeriesMatrix.from_coefficients(m, rank, rank)
                 for p, m in pair_comp.items()}
    return ReesModule(degrees, conn_u, pairing_u, g.parity, order=g.order)


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

    def accumulate(p: int, mat: SeriesMatrix) -> None:
        if p in residual:
            residual[p] = residual[p] - mat
        else:
            residual[p] = -mat

    for p1, ct in conn_t.items():
        for p2, pm in r.pairing_u.items():
            accumulate(p1 + p2, ct * pm)
    for p1, pm in r.pairing_u.items():
        for p2, cs in conn_star.items():
            accumulate(p1 + p2, pm * cs)
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


def yukawa(obj, order: int | None = None) -> Series:
    """The n-fold self-pairing (volume, nabla^n volume), normalized so a
    constant connection returns the plain volume scalar."""
    if isinstance(obj, DnObject):
        n = obj.n
        conn = obj.a_series
        pairing = SeriesMatrix.from_scalar_matrix(obj.pairing0_matrix(),
                                                  conn.order)
        vol = obj.volume_index
        if obj.graded_dims.get(-n, 0) != 1:
            raise NoVolumeForm("V_{-n} is not one-dimensional")
    elif isinstance(obj, GeometricVHS):
        if obj.pairing is None:
            raise ValueError("a pairing is required for the Yukawa series")
        n = max(obj.levels2)
        conn = obj.conn
        pairing = obj.pairing
        tops = [i for i, l in enumerate(obj.levels2) if l == n]
        if len(tops) != 1:
            raise NoVolumeForm("top Hodge piece is not one-dimensional")
        vol = tops[0]
    else:
        raise TypeError("expected a DnObject or GeometricVHS")
    if order is not None:
        conn = conn.truncate(order)
        pairing = pairing.truncate(order)
    dim = conn.rows
    vec = [Series.one(conn.order) if i == vol else Series.zero(conn.order)
           for i in range(dim)]
    for _ in range(n):
        applied = conn.apply(vec)
        vec = [v.theta() + w for v, w in zip(vec, applied)]
    total = Series.zero(conn.order)
    for j in range(dim):
        total = total + pairing.entry(vol, j) * vec[j]
    return total * _prefactor(n).inverse()
