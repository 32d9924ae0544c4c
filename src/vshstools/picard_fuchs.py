"""Ordinary differential operators in theta = q d/dq and their Frobenius
solutions at a maximally unipotent point.

An operator is stored with exact polynomial coefficients, written on the
left of powers of theta: L = sum_j c_j(q) theta^j.  A type's checks are
its __post_init__, here as in vshs: PFOperator's is the one place that
checks an operator (maximal unipotency, a positive theta-order and the
size limits).  parse_pf reads a small expression language (`theta`,
`q`, integers, + - * ^ and parentheses, juxtaposition multiplies);
jsonio reads the JSON form.  While an expression is parsed, an operator
is a dict of its monomials, (theta-power j, q-power b) -> the nonzero
coefficient of q^b theta^j, and products are normal-ordered with
theta^i q^b = q^b (theta + b)^i.

The Frobenius method is run with a nilpotent shift: solutions are found
as q^eps * U(q, eps) with eps^depth = 0, whose eps-coefficients produce
the logarithmic basis y0, y0 log q + f, ...  An element of the ring of
eps modulo eps^depth is a lifted vector of length depth, multiplied by
the series kernel's product and divided by the indicial monomial
P_0(d + eps) = lead (d + eps)^r on the integers.  The quotient of the
first two solutions gives the mirror map, the second route to the
canonical coordinate.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd, lcm
from operator import add, mul
from typing import Sequence

from . import amodel, vshs
from .linalg import lift_vector
from .scalars import ONE, ZERO, Scalar, format_scalar
from .series import LiftedVector, Series, SeriesMatrix, _lower, _product


class ParseError(ValueError):
    """Operator input is malformed."""


class NotMaximallyUnipotent(ValueError):
    """Indicial polynomial at q = 0 is not theta^r."""


class MirrorMapMismatch(ValueError):
    """The gauge-theoretic and Frobenius mirror maps disagree."""


# ---------------------------------------------------------------------------
# operators as monomials: (theta-power, q-power) -> nonzero coefficient
# ---------------------------------------------------------------------------

_Op = dict[tuple[int, int], Scalar]


def _op_add(a: _Op, b: _Op) -> _Op:
    out = dict(a)
    for key, c in b.items():
        s = out.pop(key, ZERO) + c
        if not s.is_zero():
            out[key] = s
    return out


def _op_neg(a: _Op) -> _Op:
    return {key: -c for key, c in a.items()}


def _op_mul(a: _Op, b: _Op) -> _Op:
    """Normal-ordered product: theta^i q^b = q^b (theta + b)^i."""
    out: _Op = {}
    for (i, qa), x in a.items():
        for (j, qb), y in b.items():
            xy = x * y
            # (theta + qb)^i = sum_s C(i, s) qb^(i - s) theta^s; for
            # qb = 0 only s = i is left
            for s in range(i + 1) if qb else (i,):
                key = (s + j, qa + qb)
                out[key] = out.get(key, ZERO) + \
                    xy * (comb(i, s) * qb ** (i - s))
    return {key: c for key, c in out.items() if not c.is_zero()}


def _op_pow(a: _Op, k: int) -> _Op:
    """a^k with each factor on the left, where _op_mul expands less."""
    out: _Op = {(0, 0): ONE}
    for _ in range(k):
        out = _op_mul(a, out)
    return out


# ---------------------------------------------------------------------------
# the expression language
# ---------------------------------------------------------------------------

# parentheses and unary minus nest the recursive descent; deeper input is
# refused before it can exhaust the interpreter's stack
MAX_NESTING = 100

# the largest exponent after ^, and the largest theta- or q-degree of an
# operator or any part of one (the shipped operators have degrees 4 and
# 1); a larger power such as theta^N or q^N is refused before it is
# multiplied out
MAX_EXPONENT = 64
MAX_DEGREE = 64
# the largest theta-order of an operator.  The companion connection has
# rank theta-order, and the cost of a run grows steeply with it:
# mirror-map at order 4 on theta^N takes 0.1 s for N = 24, 0.2 s for 32
# and 0.6 s for 48 in process on a 2-vCPU VM
MAX_THETA_ORDER = 24


def _op_degrees(a: _Op) -> tuple[int, int]:
    """(theta-degree, q-degree) of an operator."""
    return (max((i for i, _ in a), default=0),
            max((b for _, b in a), default=0))


def _check_degree(theta_deg: int, q_deg: int) -> None:
    if theta_deg > MAX_DEGREE:
        raise ParseError(f"theta-degree {theta_deg} exceeds the limit "
                         f"MAX_DEGREE = {MAX_DEGREE}")
    if q_deg > MAX_DEGREE:
        raise ParseError(f"q-degree {q_deg} exceeds the limit "
                         f"MAX_DEGREE = {MAX_DEGREE}")


def _tokenize(text: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            try:
                tokens.append(("int", int(text[i:j])))
            except ValueError:  # over the integer-string digit limit
                raise ParseError(f"integer literal of {j - i} digits is "
                                 "too long") from None
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word not in ("theta", "q"):
                raise ParseError(f"unknown symbol {word!r}")
            tokens.append((word, None))
            i = j
            continue
        if ch in "+-*^()":
            tokens.append((ch, None))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}")
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, object]]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def take(self) -> tuple[str, object]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> _Op:
        if self.peek() == "-":
            self.take()
            acc = _op_neg(self.term())
        else:
            acc = self.term()
        while self.peek() in ("+", "-"):
            kind, _ = self.take()
            rhs = self.term()
            acc = _op_add(acc, rhs if kind == "+" else _op_neg(rhs))
        return acc

    def term(self) -> _Op:
        acc = self.factor()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
            elif nxt not in ("theta", "q", "int", "("):
                return acc
            acc = _op_mul(acc, self.factor())
            _check_degree(*_op_degrees(acc))

    def factor(self) -> _Op:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            if self.peek() != "int":
                raise ParseError("exponent must be a nonnegative integer")
            _, k = self.take()
            if k > MAX_EXPONENT:
                raise ParseError(f"exponent {k} exceeds the limit "
                                 f"MAX_EXPONENT = {MAX_EXPONENT}")
            theta_deg, q_deg = _op_degrees(base)
            _check_degree(theta_deg * k, q_deg * k)
            return _op_pow(base, k)
        return base

    def atom(self) -> _Op:
        nxt = self.peek()
        if nxt is None:
            raise ParseError("unexpected end of input")
        if nxt in ("(", "-"):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"expression nested more than "
                                 f"{MAX_NESTING} levels deep")
            try:
                return self.nested()
            finally:
                self.depth -= 1
        if nxt == "int":
            _, v = self.take()
            return {(0, 0): Scalar(int(v))} if v else {}
        if nxt == "theta":
            self.take()
            return {(1, 0): ONE}
        if nxt == "q":
            self.take()
            return {(0, 1): ONE}
        raise ParseError(f"unexpected token {nxt!r}")

    def nested(self) -> _Op:
        """A parenthesized expression or a negated factor."""
        kind, _ = self.take()
        if kind == "-":
            return _op_neg(self.factor())
        inner = self.expr()
        if self.peek() != ")":
            raise ParseError("unbalanced parenthesis")
        self.take()
        return inner


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PFOperator:
    """L = sum_j c_j(q) theta^j with exact polynomial coefficients, each
    c_j ending at its last nonzero q-coefficient.

    __post_init__ is the one gate.  In this order it refuses, with
    ParseError: the zero operator, a leading coefficient that is not a
    unit at q = 0, a degree over MAX_DEGREE, a theta-order over
    MAX_THETA_ORDER or of 0; then, with NotMaximallyUnipotent, an
    indicial polynomial other than theta^r.
    """

    coeffs: Sequence[Sequence[Scalar]]

    def __post_init__(self):
        cleaned = [list(c) for c in self.coeffs]
        for row in cleaned:
            while row and row[-1].is_zero():
                row.pop()
        while cleaned and not cleaned[-1]:
            cleaned.pop()
        if not cleaned:
            raise ParseError("zero operator")
        if cleaned[-1][0].is_zero():
            raise ParseError(
                "leading coefficient must be a unit at q = 0")
        r = len(cleaned) - 1
        _check_degree(r, max(len(c) for c in cleaned) - 1)
        if r > MAX_THETA_ORDER:
            raise ParseError(f"theta-order {r} exceeds the limit "
                             f"MAX_THETA_ORDER = {MAX_THETA_ORDER}")
        if r < 1:
            raise ParseError("operator must have positive order")
        for j, c in enumerate(cleaned[:-1]):
            if c and not c[0].is_zero():
                raise NotMaximallyUnipotent(
                    f"indicial polynomial has a theta^{j} term; it must "
                    f"be theta^{r}")
        object.__setattr__(self, "coeffs", tuple(map(tuple, cleaned)))

    @property
    def order_theta(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, j: int, m: int) -> Scalar:
        """Coefficient of q^m in c_j."""
        if j >= len(self.coeffs):
            return ZERO
        cj = self.coeffs[j]
        return cj[m] if m < len(cj) else ZERO

    @property
    def max_q_degree(self) -> int:
        return max((len(c) - 1 for c in self.coeffs if c), default=0)

    def coefficient_series(self, j: int, order: int) -> Series:
        if j >= len(self.coeffs):
            return Series.zero(order)
        return Series(list(self.coeffs[j]), order)

    def apply(self, sol: "LogSeries") -> "LogSeries":
        """L sol on the integer kernel, with no series product: the parts
        and the nonzero c_(j,m), m < order, are lifted once each, theta
        acts on the integers as x_i[k] -> k x_i[k] + x_(i+1)[k], each
        c_(j,m) adds theta^j sol shifted by m and scaled by it, and the
        sum is lowered once.  O(r (D + 1) n depth) integer multiply-adds
        for theta-order r, q-degree D and order n."""
        n, depth = min(p.order for p in sol.parts), sol.depth
        den, re, im = lift_vector([x for p in sol.parts for x in p.coeffs[:n]])
        terms = [(j, m, c) for j, cj in enumerate(self.coeffs)
                 for m, c in enumerate(cj[:n]) if not c.is_zero()]
        c_den, c_re, c_im = lift_vector([c for _, _, c in terms])
        # theta^j sol part by part: [real numerators, imaginary ones or None]
        powers = [[v and [v[i:i + n] for i in range(0, n * depth, n)]
                   for v in (re, im)]]
        out = [[[0] * n for _ in range(depth)] for _ in range(2)]
        for t, (j, m, _) in enumerate(terms):
            while len(powers) <= j:
                powers.append([x and [list(map(add, map(mul, range(n), p), y))
                                      for p, y in zip(x, x[1:] + [[0] * n])]
                               for x in powers[-1]])
            a, b = c_re[t], c_im[t] if c_im else 0
            # (a + b i)(x + y i) = (a x - b y) + (a y + b x) i
            for o, c, x in ((0, a, 0), (0, -b, 1), (1, a, 1), (1, b, 0)):
                for acc, p in zip(out[o], (c and powers[j][x]) or ()):
                    acc[m:] = map(add, acc[m:], [c * v for v in p[:n - m]])
        return LogSeries([Series._make(_lower((den * c_den, x, y)), n)
                          for x, y in zip(*out)])

    def __repr__(self) -> str:
        return f"PFOperator(order_theta={self.order_theta})"


def parse_pf(text: str) -> PFOperator:
    """Operator from the expression language; jsonio reads its JSON."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty operator")
    parser = _Parser(tokens)
    poly = parser.expr()
    if parser.pos != len(parser.tokens):
        raise ParseError("trailing input after expression")
    theta_deg, q_deg = _op_degrees(poly)
    return PFOperator([[poly.get((i, b), ZERO) for b in range(q_deg + 1)]
                       for i in range(theta_deg + 1)])


# ---------------------------------------------------------------------------
# Frobenius solutions
# ---------------------------------------------------------------------------


def _taylor_shift(p: LiftedVector, t0: int, depth: int) -> LiftedVector:
    """p(t0 + eps) mod eps^depth for the lifted p(t) = sum_j p_j t^j, over
    p's denominator: each Taylor coefficient sum_j C(j, s) t0^(j - s) p_j
    is summed on the integers, O(r depth) multiply-adds for degree r."""
    den, re, im = p
    out_re, out_im = [], []
    for s in range(depth):
        w = [comb(j, s) * t0 ** (j - s) for j in range(s, len(re))]
        out_re.append(sum(map(mul, w, re[s:])))
        if im is not None:
            out_im.append(sum(map(mul, w, im[s:])))
    return den, out_re, out_im if im is not None else None


def _lifted_sum(terms: Sequence[LiftedVector], n: int) -> LiftedVector:
    """The sum of lifted vectors of length n over the lcm of their
    denominators; the zero vector over 1 when there are none."""
    den = lcm(*[t[0] for t in terms])
    re, im = [0] * n, [0] * n
    for d, t_re, t_im in terms:
        f = den // d
        re = [x + f * y for x, y in zip(re, t_re)]
        if t_im is not None:
            im = [x + f * y for x, y in zip(im, t_im)]
    return den, re, im if any(im) else None


def _indicial_quotient(rho: LiftedVector, lead_inv: tuple[int, int, int],
                       r: int, d: int) -> LiftedVector:
    """-rho / P_0(d + eps) for P_0(t) = lead t^r, d > 0 and 1/lead =
    (a + b i)/c, in the eps-series of rho's length n: the product of rho
    by -(a + b i) (d + eps)^-r / c, where over d^(r+n-1)
        (d + eps)^-r = sum_s C(r+s-1, s) (-eps)^s / d^(r+s)
    has integer coefficients, with the common content divided out."""
    a, b, c = lead_inv
    n = len(rho[1])
    w = [comb(r + s - 1, s) * (-1) ** (s + 1) * d ** (n - 1 - s)
         for s in range(n)]
    den, re, im = _product(rho, (c * d ** (r + n - 1), [a * x for x in w],
                                 [b * x for x in w] if b else None))
    im = im if im and any(im) else []
    g = gcd(den, *re, *im)
    return den // g, [x // g for x in re], [x // g for x in im] or None


@dataclass(frozen=True)
class LogSeries:
    """sum_i (log q)^i / i! * parts[i], each part a q-series."""

    parts: Sequence[Series]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("at least one part required")
        object.__setattr__(self, "parts", tuple(self.parts))

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def order(self) -> int:
        return self.parts[0].order

    def theta(self) -> "LogSeries":
        return LogSeries([p.theta() + nxt for p, nxt in zip(
            self.parts, self.parts[1:] + (Series.zero(self.order),))])

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    def __repr__(self) -> str:
        return f"LogSeries(depth={self.depth}, order={self.order})"


@dataclass(frozen=True)
class FrobeniusBasis:
    y0: Series
    solutions: tuple[LogSeries, ...]
    depth: int


def frobenius_solve(op: PFOperator, depth: int = 2,
                    order: int = 16) -> FrobeniusBasis:
    """Logarithmic solution basis at the maximally unipotent point.

    Finds u(q, eps) = q^eps sum_D u_D q^D with L u = O(eps^depth),
    u_0 = 1; expanding q^eps = exp(eps log q) packages the
    eps-coefficients into the returned basis.  With each P_m lifted
    once and each u_d kept lifted over one denominator, a step d costs
    O(r depth) integer multiply-adds per Taylor shift, one integer
    eps-product per q-term of L, one product by the inverse of the
    indicial monomial lead (d + eps)^r and one gcd; each u_d is
    normalized once, when the solutions are formed.  L is applied to
    each returned solution, and a nonzero coefficient mod q^order raises
    an ArithmeticError naming the solution, log power and q-order.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if order < 2:
        raise ValueError("order must be at least 2")
    if op.order_theta < depth:
        raise ValueError(
            f"a Frobenius basis of depth {depth} needs theta-order at "
            f"least {depth}; the operator has theta-order "
            f"{op.order_theta}")
    # P_m(t) = sum_j [q^m] c_j t^j, P_0(t) = lead t^r, and u_d =
    # -P_0(d + eps)^-1 sum_m P_m(d - m + eps) u_(d-m) in the eps-series
    # of order depth, each u_d lifted over one denominator and lowered
    # once at the end
    p = [lift_vector([op.coefficient(j, m) for j in range(len(op.coeffs))])
         for m in range(op.max_q_degree + 1)]
    r = op.order_theta
    lead_inv = op.coefficient(r, 0).inverse()._abd
    u = [(1, [1] + [0] * (depth - 1), None)]
    for d in range(1, order):
        rhs = _lifted_sum([_product(_taylor_shift(p[m], d - m, depth),
                                    u[d - m])
                           for m in range(1, min(d + 1, len(p)))], depth)
        u.append(_indicial_quotient(rhs, lead_inv, r, d))
    lowered = [_lower(ud) for ud in u]
    u_eps = [Series._make([x[s] for x in lowered], order)
             for s in range(depth)]
    solutions = []
    for j in range(depth):
        sol = LogSeries([u_eps[j - i] if i <= j else Series.zero(order)
                         for i in range(depth)])
        bad = min(((k, i) for i, part in enumerate(op.apply(sol).parts)
                   if (k := part.valuation()) is not None), default=None)
        if bad is not None:
            raise ArithmeticError(
                f"L leaves (log q)^{bad[1]} q^{bad[0]} in Frobenius solution "
                f"{j}: the recursion or the operator data is inconsistent")
        solutions.append(sol)
    return FrobeniusBasis(y0=u_eps[0], solutions=tuple(solutions),
                          depth=depth)


def mirror_map_frobenius(basis: FrobeniusBasis) -> Series:
    """q exp(f/y0) where y0 log q + f is the single-log solution."""
    if basis.depth < 2:
        raise ValueError("a single-log solution requires depth >= 2")
    f = basis.solutions[1].parts[0]
    return Series.coordinate(f.order) * (f * basis.y0.inverse()).exp()


# ---------------------------------------------------------------------------
# the connection of an operator, and the full pipeline
# ---------------------------------------------------------------------------


def companion_vhs(op: PFOperator, order: int = 16) -> vshs.GeometricVHS:
    """Filtered flat bundle of the cyclic module scalars<theta>/L.

    The frame is the flag of derivatives of the cyclic vector, with a
    sign normalization making the residue's subdiagonal -1; Hodge
    levels descend by 2 from r - 1.  No pairing is attached: the
    operator alone does not determine its scale.
    """
    r = op.order_theta
    lead = op.coefficient_series(r, order)
    lead_inv = lead.inverse()
    zero = Series.zero(order)
    entries = [[zero for _ in range(r)] for _ in range(r)]
    for j in range(r - 1):
        entries[j + 1][j] = Series.constant(Scalar(-1), order)
    for i in range(r):
        entries[i][r - 1] = op.coefficient_series(i, order) * lead_inv
    conn = SeriesMatrix(entries)
    levels2 = [r - 1 - 2 * j for j in range(r)]
    return vshs.GeometricVHS(conn=conn, levels2=levels2, pairing=None,
                             parity=(r - 1) % 2)


def check_mirror_maps(canonical: Series, frobenius: Series) -> None:
    """Raise MirrorMapMismatch naming the first q-order at which the two
    mirror-map routes disagree."""
    if canonical == frobenius:
        return
    for k in range(min(canonical.order, frobenius.order)):
        a, b = canonical.coeffs[k], frobenius.coeffs[k]
        if a != b:
            raise MirrorMapMismatch(
                f"canonical coordinate and Frobenius mirror map disagree "
                f"at q^{k}: {format_scalar(a)} (canonical) vs "
                f"{format_scalar(b)} (Frobenius)")
    raise MirrorMapMismatch(
        f"canonical coordinate and Frobenius mirror map are known to "
        f"different orders: {canonical.order} vs {frobenius.order}")


def checked_mirror_map(op: PFOperator, order: int,
                       canonical: Series | None = None) -> Series:
    """The Frobenius mirror map mod q^order, checked against the given
    canonical coordinate or else, after the Frobenius route has made its
    refusals, against that of the companion connection."""
    frobenius = mirror_map_frobenius(frobenius_solve(op, 2, order))
    if canonical is None:
        canon = vshs.to_canonical_connection(companion_vhs(op, order))
        canonical = vshs.canonical_coordinate(canon.a_series, canon.levels2)
    check_mirror_maps(canonical, frobenius)
    return frobenius


def bmodel_normal_form(op: PFOperator, volume: Scalar,
                       order: int = 16) -> vshs.NormalFormReport:
    """Operator -> normal form.

    Runs both mirror-map routes (canonical coordinate of the companion
    connection, and the Frobenius quotient) and insists they agree
    exactly; disagreement would mean the gauge bookkeeping broke.
    """
    report = vshs.to_normal_form(companion_vhs(op, order), volume)
    checked_mirror_map(op, order, report.mirror_coordinate)
    return report


def bmodel_pipeline(op: PFOperator, volume: Scalar,
                    order: int = 16) -> tuple[vshs.NormalFormReport,
                                              "amodel.InstantonTable"]:
    """Operator -> normal form -> instanton numbers."""
    amodel.cover_power(op.order_theta - 1)  # refuses n >= 5 first
    report = bmodel_normal_form(op, volume, order)
    table = amodel.instantons_from_g(g_series(report.dn, volume),
                                     Scalar.of(volume), report.dn.n)
    return report, table


def g_series(dn: vshs.DnObject, volume: Scalar) -> Series:
    """The series the instanton numbers are read from: the middle entry
    of A, from degree -1 to 1 for a threefold and from degree -2 to 0
    for a fourfold (by self-adjointness it equals the entry from 0 to
    2), and the Yukawa series over the volume otherwise: one entry of A
    again for n <= 2, a product of several from n = 5 on."""
    if dn.n in (3, 4):
        return dn.a_series.entry(dn.degrees.index(4 - dn.n),
                                 dn.degrees.index(2 - dn.n))
    return vshs.yukawa(dn) * Scalar.of(volume).inverse()
