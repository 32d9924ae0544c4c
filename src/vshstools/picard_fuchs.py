"""Ordinary differential operators in theta = q d/dq and their Frobenius
solutions at a maximally unipotent point.

An operator is stored with exact polynomial coefficients, written on the
left of powers of theta: L = sum_j c_j(q) theta^j.  Input comes either
from JSON or from a small expression language (`theta`, `q`, integers,
+ - * ^ and parentheses, juxtaposition multiplies); the rewriting to
normal order uses theta q^b = q^b (theta + b).

The Frobenius method is run with a nilpotent shift: solutions are found
as q^eps * U(q, eps) with eps^depth = 0, whose eps-coefficients produce
the logarithmic basis y0, y0 log q + f, ...  The quotient of the first
two gives the mirror map, the second route to the canonical coordinate.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from . import amodel, vshs
from .scalars import ONE, ZERO, Scalar, format_scalar, parse_scalar
from .series import Series, SeriesMatrix


class ParseError(ValueError):
    """Operator input is malformed."""


class NotMaximallyUnipotent(ValueError):
    """Indicial polynomial at q = 0 is not theta^r."""


class MirrorMapMismatch(ValueError):
    """The gauge-theoretic and Frobenius mirror maps disagree."""


# ---------------------------------------------------------------------------
# operator polynomials: dict theta-power -> q-coefficient list
# ---------------------------------------------------------------------------

_OpPoly = dict[int, list[Scalar]]


def _poly_trim(p: list[Scalar]) -> list[Scalar]:
    while p and p[-1].is_zero():
        p.pop()
    return p


def _poly_add(a: Sequence[Scalar], b: Sequence[Scalar]) -> list[Scalar]:
    out = [ZERO] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = out[i] + x
    for i, x in enumerate(b):
        out[i] = out[i] + x
    return _poly_trim(out)


def _poly_scale(a: Sequence[Scalar], c: Scalar) -> list[Scalar]:
    return _poly_trim([x * c for x in a])


def _poly_mul(a: Sequence[Scalar], b: Sequence[Scalar]) -> list[Scalar]:
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _poly_trim(out)


def _op_clean(a: _OpPoly) -> _OpPoly:
    return {i: p for i, p in a.items() if p}


def _op_add(a: _OpPoly, b: _OpPoly) -> _OpPoly:
    out = {i: list(p) for i, p in a.items()}
    for i, p in b.items():
        out[i] = _poly_add(out.get(i, []), p)
    return _op_clean(out)


def _op_neg(a: _OpPoly) -> _OpPoly:
    return {i: _poly_scale(p, Scalar(-1)) for i, p in a.items()}


def _binom_row(i: int) -> list[int]:
    row = [1]
    for _ in range(i):
        row = [1] + [row[s] + row[s + 1] for s in range(len(row) - 1)] + [1]
    return row


def _op_mul(a: _OpPoly, b: _OpPoly) -> _OpPoly:
    """Normal-ordered product: theta^i q^b = q^b (theta + b)^i."""
    out: _OpPoly = {}
    for i, pa in a.items():
        binom = _binom_row(i)
        for j, pb in b.items():
            for bpow, coeff in enumerate(pb):
                if coeff.is_zero():
                    continue
                # theta^i applied past q^bpow: (theta + bpow)^i
                shift = Scalar(bpow)
                power = ONE
                for s in range(i, -1, -1):
                    c = coeff * Scalar(binom[s]) * power
                    term = _poly_mul(pa, [c])
                    term = [ZERO] * bpow + term
                    out[s + j] = _poly_add(out.get(s + j, []), term)
                    power = power * shift
    return _op_clean(out)


def _op_pow(a: _OpPoly, k: int) -> _OpPoly:
    out: _OpPoly = {0: [ONE]}
    for _ in range(k):
        out = _op_mul(out, a)
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
# mirror-map at order 4 on theta^N takes 0.2 s for N = 24, 0.5 s for 32
# and 1.1 s for 48 on a 2-vCPU VM (the pipeline 0.3, 0.7 and 1.9 s)
MAX_THETA_ORDER = 24


def _op_degrees(a: _OpPoly) -> tuple[int, int]:
    """(theta-degree, q-degree) of an operator polynomial."""
    return (max(a, default=0),
            max((len(p) - 1 for p in a.values()), default=0))


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

    def expr(self) -> _OpPoly:
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

    def term(self) -> _OpPoly:
        acc = self.factor()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
            elif nxt not in ("theta", "q", "int", "("):
                return acc
            acc = _op_mul(acc, self.factor())
            _check_degree(*_op_degrees(acc))

    def factor(self) -> _OpPoly:
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

    def atom(self) -> _OpPoly:
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
            return {0: [Scalar(int(v))]}
        if nxt == "theta":
            self.take()
            return {1: [ONE]}
        if nxt == "q":
            self.take()
            return {0: [ZERO, ONE]}
        raise ParseError(f"unexpected token {nxt!r}")

    def nested(self) -> _OpPoly:
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


class PFOperator:
    """L = sum_j c_j(q) theta^j with exact polynomial coefficients.

    The leading coefficient must be a unit at q = 0 (the singularity is
    normalized to be regular there); coefficient_series evaluates any
    c_j to a requested truncation order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Sequence[Scalar]]):
        cleaned = [tuple(c) for c in coeffs]
        while cleaned and all(x.is_zero() for x in cleaned[-1]):
            cleaned.pop()
        if not cleaned:
            raise ParseError("zero operator")
        lead = cleaned[-1]
        if not lead or lead[0].is_zero():
            raise ParseError(
                "leading coefficient must be a unit at q = 0")
        object.__setattr__(self, "coeffs", tuple(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("PFOperator is immutable")

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

    def is_maximally_unipotent(self) -> bool:
        return all(self.coefficient(j, 0).is_zero()
                   for j in range(self.order_theta))

    def assert_maximally_unipotent(self) -> None:
        for j in range(self.order_theta):
            if not self.coefficient(j, 0).is_zero():
                raise NotMaximallyUnipotent(
                    f"indicial polynomial has a theta^{j} term; it must "
                    f"be theta^{self.order_theta}")

    def apply(self, sol: "LogSeries") -> "LogSeries":
        order = sol.order
        total = LogSeries.zero(sol.depth, order)
        current = sol
        for j in range(self.order_theta + 1):
            cj = self.coefficient_series(j, order)
            total = total + current.scale_series(cj)
            if j < self.order_theta:
                current = current.theta()
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, PFOperator):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"PFOperator(order_theta={self.order_theta})"


def _coeff_list_from_json(value) -> list[Scalar]:
    if isinstance(value, str):
        return [parse_scalar(value)]
    if isinstance(value, int):
        return [Scalar(value)]
    if isinstance(value, list):
        return [parse_scalar(x) if isinstance(x, str) else Scalar.of(x)
                for x in value]
    if isinstance(value, dict) and "coeffs" in value:
        return _coeff_list_from_json(value["coeffs"])
    raise ParseError("coefficient entries must be strings, integers, or "
                     "lists of them")


def parse_pf(text: str) -> PFOperator:
    """Operator from JSON ({"order": r, "coeffs": [...]}) or the
    expression language.  Maximal unipotency is checked here."""
    stripped = text.strip()
    op: PFOperator
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except ValueError as exc:  # also an integer over the digit limit
            raise ParseError(f"invalid JSON: {exc}") from exc
        except RecursionError:
            raise ParseError("JSON nested too deeply") from None
        if not isinstance(data, dict) or "coeffs" not in data:
            raise ParseError("operator JSON needs a 'coeffs' field")
        try:
            coeffs = [_coeff_list_from_json(c) for c in data["coeffs"]]
        except (ValueError, TypeError, OverflowError) as exc:
            # a malformed string, a null or list where a number belongs,
            # or an infinite float
            raise ParseError(str(exc)) from exc
        if "order" in data and data["order"] != len(coeffs) - 1:
            raise ParseError("stated order disagrees with coefficients")
        op = PFOperator(coeffs)
    else:
        tokens = _tokenize(stripped)
        if not tokens:
            raise ParseError("empty operator")
        parser = _Parser(tokens)
        poly = parser.expr()
        if parser.pos != len(parser.tokens):
            raise ParseError("trailing input after expression")
        if not poly:
            raise ParseError("zero operator")
        top = max(poly)
        coeffs = [list(poly.get(j, [])) for j in range(top + 1)]
        op = PFOperator(coeffs)
    _check_degree(op.order_theta, op.max_q_degree)
    if op.order_theta > MAX_THETA_ORDER:
        raise ParseError(f"theta-order {op.order_theta} exceeds the limit "
                         f"MAX_THETA_ORDER = {MAX_THETA_ORDER}")
    op.assert_maximally_unipotent()
    return op


# ---------------------------------------------------------------------------
# Frobenius solutions
# ---------------------------------------------------------------------------

_Eps = list[Scalar]  # truncated polynomial in a nilpotent eps


def _eps_mul(a: _Eps, b: _Eps, depth: int) -> _Eps:
    out = [ZERO] * depth
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if i + j >= depth:
                break
            out[i + j] = out[i + j] + x * y
    return out


def _eps_inv(a: _Eps, depth: int) -> _Eps:
    lead = a[0].inverse()
    out = [lead] + [ZERO] * (depth - 1)
    for k in range(1, depth):
        acc = ZERO
        for j in range(1, k + 1):
            if j < len(a):
                acc = acc + a[j] * out[k - j]
        out[k] = -(lead * acc)
    return out


def _eps_poly_eval(op: PFOperator, m: int, t0: Scalar,
                   depth: int) -> _Eps:
    """P_m(t0 + eps) where P_m(t) = sum_j [q^m] c_j(q) t^j."""
    base = [t0, ONE] + [ZERO] * max(0, depth - 2)
    base = base[:depth]
    power = [ONE] + [ZERO] * (depth - 1)
    out = [ZERO] * depth
    for j in range(op.order_theta + 1):
        c = op.coefficient(j, m)
        if not c.is_zero():
            for s in range(depth):
                out[s] = out[s] + c * power[s]
        power = _eps_mul(power, base, depth)
    return out


class LogSeries:
    """sum_i (log q)^i / i! * parts[i], each part a q-series."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Series]):
        if not parts:
            raise ValueError("at least one part required")
        object.__setattr__(self, "parts", tuple(parts))

    def __setattr__(self, name, value):
        raise AttributeError("LogSeries is immutable")

    @staticmethod
    def zero(depth: int, order: int) -> "LogSeries":
        return LogSeries([Series.zero(order)] * depth)

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def order(self) -> int:
        return self.parts[0].order

    def theta(self) -> "LogSeries":
        new = []
        for i, part in enumerate(self.parts):
            nxt = self.parts[i + 1] if i + 1 < len(self.parts) \
                else Series.zero(self.order)
            new.append(part.theta() + nxt)
        return LogSeries(new)

    def scale_series(self, s: Series) -> "LogSeries":
        return LogSeries([p * s for p in self.parts])

    def __add__(self, other: "LogSeries") -> "LogSeries":
        if self.depth != other.depth:
            raise ValueError("depth mismatch")
        return LogSeries([a + b for a, b in zip(self.parts, other.parts)])

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogSeries):
            return NotImplemented
        return self.parts == other.parts

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
    eps-coefficients into the returned basis.  Each returned solution
    is annihilated by L modulo q^order; that residual is asserted.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if order < 2:
        raise ValueError("order must be at least 2")
    op.assert_maximally_unipotent()
    if op.order_theta < 1:
        raise ParseError("operator must have positive order")
    if op.order_theta < depth:
        raise ValueError(
            f"a Frobenius basis of depth {depth} needs theta-order at "
            f"least {depth}; the operator has theta-order "
            f"{op.order_theta}")
    max_m = op.max_q_degree
    u_list: list[_Eps] = [[ONE] + [ZERO] * (depth - 1)]
    for d in range(1, order):
        rhs = [ZERO] * depth
        for m in range(1, min(d, max_m) + 1):
            pm = _eps_poly_eval(op, m, Scalar(d - m), depth)
            rhs = [r + x for r, x in
                   zip(rhs, _eps_mul(pm, u_list[d - m], depth))]
        p0 = _eps_poly_eval(op, 0, Scalar(d), depth)
        u_list.append([-x for x in _eps_mul(_eps_inv(p0, depth), rhs,
                                            depth)])
    u_eps = [Series([u_list[d][m] for d in range(order)], order)
             for m in range(depth)]
    solutions = []
    for j in range(depth):
        parts = []
        for i in range(depth):
            parts.append(u_eps[j - i] if 0 <= j - i else
                         Series.zero(order))
        sol = LogSeries(parts)
        if not op.apply(sol).is_zero():
            raise ArithmeticError(
                "Frobenius recursion produced a non-solution; the "
                "operator data is inconsistent")
        solutions.append(sol)
    return FrobeniusBasis(y0=u_eps[0], solutions=tuple(solutions),
                          depth=depth)


def mirror_map_frobenius(basis: FrobeniusBasis) -> Series:
    """q exp(f/y0) where y0 log q + f is the single-log solution."""
    if basis.depth < 2:
        raise ValueError("a single-log solution requires depth >= 2")
    f = basis.solutions[1].parts[0]
    ratio = f * basis.y0.inverse()
    return Series.coordinate(f.order) * ratio.exp()


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
    op.assert_maximally_unipotent()
    r = op.order_theta
    if r < 1:
        raise ParseError("operator must have positive order")
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


def bmodel_normal_form(op: PFOperator, volume: Scalar,
                       order: int = 16) -> vshs.NormalFormReport:
    """Operator -> normal form.

    Runs both mirror-map routes (canonical coordinate of the companion
    connection, and the Frobenius quotient) and insists they agree
    exactly; disagreement would mean the gauge bookkeeping broke.
    """
    geometric = companion_vhs(op, order)
    report = vshs.to_normal_form(geometric, normalization=volume,
                                 volume_basis=True)
    basis = frobenius_solve(op, depth=2, order=order)
    check_mirror_maps(report.mirror_coordinate, mirror_map_frobenius(basis))
    return report


def bmodel_pipeline(op: PFOperator, volume: Scalar,
                    order: int = 16) -> tuple[vshs.NormalFormReport,
                                              "amodel.InstantonTable"]:
    """Operator -> normal form -> instanton numbers."""
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
