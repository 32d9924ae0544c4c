"""Operator parsing and the Frobenius method.

The holomorphic solution of the standard degree-5 hypergeometric
operator has the closed form sum (5d)!/(d!)^5 q^d; that series is the
oracle here, computed with math.factorial and nothing from the module
under test.  Operator products are checked against how operators act on
monomials, theta^j q^k = k^j q^k.
"""
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vshstools import jsonio, picard_fuchs
from vshstools.amodel import UnsupportedDimension
from vshstools.linalg import lift_vector
from vshstools.picard_fuchs import (LogSeries, MirrorMapMismatch,
                                    NotMaximallyUnipotent, ParseError,
                                    PFOperator, bmodel_pipeline,
                                    check_mirror_maps, companion_vhs,
                                    frobenius_solve, mirror_map_frobenius,
                                    parse_pf)
from vshstools.scalars import ONE, ZERO, Scalar
from vshstools.series import Series

from genutil import apply_by_series_products, eps_quotient

DATA = Path(__file__).resolve().parent.parent / "data"

QUINTIC = (DATA / "quintic.pf.txt").read_text()


def test_sugar_and_json_agree():
    from_text = parse_pf(QUINTIC)
    from_json = jsonio.load_text((DATA / "quintic.pf.json").read_text())
    assert from_text == from_json
    assert from_text.order_theta == 4
    assert from_text.max_q_degree == 1


def test_quintic_coefficients():
    op = parse_pf(QUINTIC)
    # theta^4 - 5q(5 theta+1)(5 theta+2)(5 theta+3)(5 theta+4) expands to
    # q-linear coefficients -120, -1250, -4375, -6250, 1 - 3125 q
    assert op.coefficient(0, 1) == Scalar(-120)
    assert op.coefficient(1, 1) == Scalar(-1250)
    assert op.coefficient(2, 1) == Scalar(-4375)
    assert op.coefficient(3, 1) == Scalar(-6250)
    assert op.coefficient(4, 0) == ONE
    assert op.coefficient(4, 1) == Scalar(-3125)
    assert op.coefficient(0, 0) == ZERO


def test_parser_precedence_and_sugar():
    assert parse_pf("theta^2 - q") == parse_pf("theta theta - q")
    assert parse_pf("(theta)^2 - q theta") == \
        parse_pf("theta^2 - q   theta")
    assert parse_pf("theta^2 - 2 q (theta + 1)^2") == \
        parse_pf("theta^2 - 2q(theta+1)(theta+1)")
    # theta q = q (theta + 1): normal ordering is part of multiplication
    assert parse_pf("theta^2 + theta q") == \
        parse_pf("theta^2 + q theta + q")
    assert parse_pf("theta^2 - 5*q") == parse_pf("theta^2 - 5 q")


def test_parse_errors():
    for text in ("theta^", "theta +", "(theta", "theta^2 %", "",
                 "theta^2 - 1/2 q", "x^2"):
        with pytest.raises(ParseError):
            parse_pf(text)
    # leading coefficient must be a unit at q = 0
    with pytest.raises(ParseError):
        parse_pf("q theta^2 - 1 q")


def test_parse_json_validation():
    ok = {"kind": "pf_operator", "order": 2,
          "coeffs": [["0", "1"], ["0"], ["1"]]}
    op = jsonio.load_text(json.dumps(ok))
    assert op.order_theta == 2
    bad_order = dict(ok, order=3)
    with pytest.raises(ParseError):
        jsonio.load_text(json.dumps(bad_order))


def test_json_and_expression_read_the_same_operator():
    # the constructor drops trailing zero q-coefficients, so a stored
    # row may end in zeros and max_q_degree is the true degree
    op = jsonio.load_text('{"coeffs": [["0","-1","0"],["0"],["1"]]}')
    assert op == parse_pf("theta^2 - q")
    assert op.max_q_degree == 1


@pytest.mark.parametrize("rows, exc, message", [
    ([[ZERO]], ParseError, "zero operator"),
    ([[ZERO, ONE]], ParseError,
     "leading coefficient must be a unit at q = 0"),
    ([[ZERO]] * 65 + [[ONE]], ParseError,
     "theta-degree 65 exceeds the limit MAX_DEGREE = 64"),
    ([[ZERO] * 65 + [ONE], [ONE]], ParseError,
     "q-degree 65 exceeds the limit MAX_DEGREE = 64"),
    ([[ZERO]] * 25 + [[ONE]], ParseError,
     "theta-order 25 exceeds the limit MAX_THETA_ORDER = 24"),
    ([[ONE, ONE]], ParseError, "operator must have positive order"),
    ([[ZERO, ONE], [ONE], [ONE]], NotMaximallyUnipotent,
     "indicial polynomial has a theta^1 term; it must be theta^2"),
], ids=["zero", "lead-not-unit", "theta-degree", "q-degree",
        "theta-order", "order-zero", "not-unipotent"])
def test_the_constructor_is_the_gate(rows, exc, message):
    with pytest.raises(ValueError) as info:
        PFOperator(rows)
    assert type(info.value) is exc
    assert str(info.value) == message


def test_not_maximally_unipotent():
    with pytest.raises(NotMaximallyUnipotent):
        parse_pf("theta^2 - theta")
    with pytest.raises(NotMaximallyUnipotent):
        parse_pf((DATA / "not-unipotent.pf.txt").read_text())
    parse_pf("theta^2 - q")


def test_holomorphic_solution_closed_form():
    op = parse_pf(QUINTIC)
    basis = frobenius_solve(op, depth=2, order=8)
    for d in range(8):
        expected = Scalar(Fraction(math.factorial(5 * d),
                                   math.factorial(d) ** 5))
        assert basis.y0.coefficient(d) == expected


def test_all_solutions_annihilated():
    for name in ("quintic", "synthetic-a", "synthetic-b", "synthetic-c"):
        op = parse_pf((DATA / f"{name}.pf.txt").read_text())
        basis = frobenius_solve(op, depth=op.order_theta, order=6)
        assert len(basis.solutions) == op.order_theta
        for sol in basis.solutions:
            assert op.apply(sol).is_zero()


def test_a_wrong_recursion_step_is_named(monkeypatch):
    # one wrong division at d = 3 spoils u_3, so L y0 first fails at q^3
    # in the log-free part of solution 0
    op = parse_pf(QUINTIC)
    divide = picard_fuchs._indicial_quotient

    def wrong_at_three(rho, lead_inv, r, d):
        den, re, im = divide(rho, lead_inv, r, d)
        return den, [re[0] + den] + re[1:] if d == 3 else re, im

    monkeypatch.setattr(picard_fuchs, "_indicial_quotient", wrong_at_three)
    with pytest.raises(ArithmeticError,
                       match=r"\(log q\)\^0 q\^3 in Frobenius solution 0:"):
        frobenius_solve(op, depth=2, order=6)


def test_log_series_theta_rule():
    # theta(f + g log q) = theta f + g + (theta g) log q
    f = Series([Scalar(1), Scalar(2)], 4)
    g = Series([Scalar(3), Scalar(5)], 4)
    ls = LogSeries([f, g])
    out = ls.theta()
    assert out.parts[0] == f.theta() + g
    assert out.parts[1] == g.theta()


def test_theta_squared_solutions():
    op = parse_pf("theta^2")
    basis = frobenius_solve(op, depth=2, order=4)
    one = Series.one(4)
    assert basis.y0 == one
    assert basis.solutions[1].parts[0].is_zero()
    assert basis.solutions[1].parts[1] == one
    assert mirror_map_frobenius(basis) == Series.coordinate(4)


def test_mirror_map_quintic():
    op = parse_pf(QUINTIC)
    basis = frobenius_solve(op, depth=2, order=6)
    mm = mirror_map_frobenius(basis)
    assert mm.coefficient(1) == ONE
    assert mm.coefficient(2) == Scalar(770)
    assert mm.coefficient(3) == Scalar(1014275)
    assert mm.coefficient(4) == Scalar(1703916750)
    assert mm.coefficient(5) == Scalar(3286569025625)


def test_companion_structure():
    op = parse_pf(QUINTIC)
    geo = companion_vhs(op, order=6)
    assert geo.levels2 == (3, 1, -1, -3)
    assert geo.parity == 1
    assert geo.pairing is None
    for j in range(3):
        assert geo.conn.entry(j + 1, j) == -Series.one(6)
    # residue must be nilpotent with a single Jordan block
    a0 = geo.conn.at0()
    assert all(a0[i][3].is_zero() for i in range(4))


def test_bmodel_pipeline_quintic():
    op = parse_pf(QUINTIC)
    report, table = bmodel_pipeline(op, Scalar(5), order=8)
    got = dict(table.entries)
    assert got[1] == Scalar(2875)
    assert got[2] == Scalar(609250)
    assert got[3] == Scalar(317206375)
    assert got[4] == Scalar(242467530000)
    assert got[5] == Scalar(229305888887625)
    basis = frobenius_solve(op, depth=2, order=8)
    assert report.mirror_coordinate == mirror_map_frobenius(basis)
    g = report.dn.a_series.entry(2, 1)
    assert g.coefficient(0) == ONE
    assert g.coefficient(1) == Scalar(575)
    assert g.coefficient(2) == Scalar(975375)


def test_trivial_operators_have_no_instantons():
    for text in ("theta^4", "theta^2"):
        op = parse_pf(text)
        report, table = bmodel_pipeline(op, Scalar(5), order=6)
        assert table.entries == {}
        assert report.mirror_coordinate == Series.coordinate(6)


def test_mirror_map_mismatch_names_the_order():
    canonical = Series([0, 1, 770, 1014275], 4)
    check_mirror_maps(canonical, canonical)
    other = Series([0, 1, 770, 1014276], 4)
    with pytest.raises(MirrorMapMismatch,
                       match=r"q\^3: 1014275 \(canonical\) vs 1014276"):
        check_mirror_maps(canonical, other)
    with pytest.raises(MirrorMapMismatch) as info:
        check_mirror_maps(Series.coordinate(4), Series.coordinate(5))
    assert str(info.value) == ("canonical coordinate and Frobenius mirror "
                               "map are known to different orders: 4 vs 5")


def test_the_pipeline_refuses_n5_before_the_normal_form(monkeypatch):
    """The septic's counts are refused without building its normal form."""
    def never(*args):
        raise AssertionError("the normal form was built")

    op = parse_pf("theta^6 - 7*q*(7*theta+1)*(7*theta+2)*(7*theta+3)"
                  "*(7*theta+4)*(7*theta+5)*(7*theta+6)")
    monkeypatch.setattr(picard_fuchs, "bmodel_normal_form", never)
    with pytest.raises(UnsupportedDimension) as info:
        bmodel_pipeline(op, Scalar(5), order=64)
    assert str(info.value) == (
        "instanton numbers in dimension 5 are not read from one connection "
        "entry; only n <= 4 is supported")


def test_nesting_limit():
    nested = "(" * 100 + "theta" + ")" * 100
    assert parse_pf(nested + "^4 - q").order_theta == 4
    with pytest.raises(ParseError, match="nested"):
        parse_pf("(" + nested + ")")
    with pytest.raises(ParseError, match="nested"):
        parse_pf("- " * 150 + "theta")


def ref_op_pow(a, k):
    """a^k with each factor multiplied in on the right."""
    out = {(0, 0): ONE}
    for _ in range(k):
        out = picard_fuchs._op_mul(out, a)
    return out


SCALARS = st.builds(lambda re, im, den: Scalar(Fraction(re, den),
                                                Fraction(im, den)),
                    st.integers(-3, 3), st.sampled_from((0, 0, 1, -2)),
                    st.sampled_from((1, 2, 3)))
# operators as monomial dicts (theta-power, q-power) -> nonzero scalar
OPS = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                      SCALARS.filter(lambda c: not c.is_zero()),
                      max_size=4)


@settings(max_examples=60, deadline=None)
@given(OPS, st.integers(0, 5))
def test_op_pow_matches_the_right_multiplying_loop(a, k):
    assert picard_fuchs._op_pow(a, k) == ref_op_pow(a, k)


def act(op, poly):
    """L applied to a polynomial {k: a_k}: theta^j q^k = k^j q^k, so
    L(q^k) = sum c_(j,b) k^j q^(k+b)."""
    out = {}
    for (j, b), c in op.items():
        for k, a in poly.items():
            out[k + b] = out.get(k + b, ZERO) + c * a * k ** j
    return {k: a for k, a in out.items() if not a.is_zero()}


@settings(max_examples=80, deadline=None)
@given(OPS, OPS)
def test_op_mul_composes_the_actions_on_monomials(x, y):
    xy = picard_fuchs._op_mul(x, y)
    assert all(not c.is_zero() for c in xy.values())
    for k in range(7):
        assert act(xy, {k: ONE}) == act(x, act(y, {k: ONE}))


GAUSSIAN = st.builds(lambda re, im, den: Scalar(Fraction(re, den),
                                                Fraction(im, den)),
                     st.integers(-40, 40), st.integers(-40, 40),
                     st.integers(1, 12))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(
           lambda depth: st.lists(GAUSSIAN, min_size=depth,
                                  max_size=depth)),
       GAUSSIAN.filter(lambda c: not c.is_zero()),
       st.integers(1, 6), st.integers(1, 60))
def test_indicial_quotient_is_the_general_eps_quotient(rho, lead, r, d):
    """-rho / P_0(d + eps) for P_0(t) = lead t^r, against the division by
    the full Taylor shift of P_0, lifted vector for lifted vector."""
    rho = lift_vector(rho)
    p0 = lift_vector([ZERO] * r + [lead])
    tau = picard_fuchs._taylor_shift(p0, d, len(rho[1]))
    assert picard_fuchs._indicial_quotient(
        rho, lead.inverse()._abd, r, d) == eps_quotient(rho, tau)


@st.composite
def unipotent_integer_ops(draw):
    """Monomial dicts with integer coefficients that parse_pf accepts:
    a unit leading coefficient theta^r and no other q^0 term."""
    r = draw(st.integers(1, 5))
    body = draw(st.dictionaries(
        st.tuples(st.integers(0, r), st.integers(1, 3)),
        st.integers(-40, 40).filter(bool), max_size=6))
    return {(r, 0): draw(st.integers(-9, 9).filter(bool)), **body}


@settings(max_examples=80, deadline=None)
@given(unipotent_integer_ops())
def test_monomials_round_trip_through_the_expression_language(op):
    text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)} q^{b} theta^{j}"
                    for (j, b), c in op.items()).removeprefix("+ ")
    r = max(j for j, _ in op)
    rows = [[op.get((j, b), 0) for b in
             range(1 + max((b for i, b in op if i == j), default=-1))]
            for j in range(r + 1)]
    assert parse_pf(text).coeffs == tuple(
        tuple(Scalar(c) for c in row) for row in rows)


@st.composite
def unipotent_operators(draw):
    """theta-order 2-5, q-degree <= 2, Gaussian coefficients, and
    c_j(0) = 0 below a nonzero leading c_r(0)."""
    r = draw(st.integers(2, 5))
    rows = [[ZERO] + draw(st.lists(SCALARS, min_size=2, max_size=2))
            for _ in range(r)]
    lead = draw(SCALARS.filter(lambda c: not c.is_zero()))
    rows.append([lead] + draw(st.lists(SCALARS, min_size=2, max_size=2)))
    return PFOperator(rows)


@settings(max_examples=30, deadline=None)
@given(unipotent_operators())
def test_frobenius_full_depth_restricts_to_depth_two(op):
    # frobenius_solve checks L(solution) = 0 itself, so returning at all
    # exercises the eps-ring up to eps^(r-1)
    full = frobenius_solve(op, depth=op.order_theta, order=6)
    two = frobenius_solve(op, depth=2, order=6)
    assert full.y0 == two.y0
    for j in range(2):
        assert full.solutions[j].parts[:2] == two.solutions[j].parts
        assert all(p.is_zero() for p in full.solutions[j].parts[2:])


@st.composite
def operator_and_log_series(draw):
    """(L, u, planted): L maximally unipotent with Gaussian-rational
    coefficients, theta-order 1-5 and q-degree 0-3; u a LogSeries of
    depth 1-4 and order 2-10.  planted says L u must not vanish: either
    a Frobenius solution perturbed at q^(order-1) in its deepest log
    part, or an L whose only q-dependence is in c_r applied to a u whose
    deepest part has a nonzero q^1 coefficient."""
    r, deg = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    depth, n = draw(st.integers(1, 4)), draw(st.integers(2, 10))
    case = draw(st.sampled_from(("random", "perturbed", "lead-only")))
    nonzero = SCALARS.filter(lambda c: not c.is_zero())
    rows = [[ZERO] + draw(st.lists(SCALARS, min_size=deg, max_size=deg))
            for _ in range(r)]
    lead = [draw(nonzero)] + draw(st.lists(SCALARS, min_size=deg,
                                           max_size=deg))
    if case == "lead-only":
        rows = [[ZERO]] * r
        lead = [lead[0], draw(nonzero)] + lead[2:]
    op = PFOperator(rows + [lead])
    if case == "perturbed":
        depth = min(depth, r)
        sol = frobenius_solve(op, depth=depth, order=n).solutions[-1]
        plant = Series([ZERO] * (n - 1) + [draw(nonzero)], n)
        return op, LogSeries(sol.parts[:-1] + (sol.parts[-1] + plant,)), True
    parts = [Series(draw(st.lists(SCALARS, min_size=n, max_size=n)), n)
             for _ in range(depth)]
    if case == "lead-only":
        parts[-1] += Series([ZERO, draw(nonzero)], n) \
            if parts[-1].coefficient(1).is_zero() else Series.zero(n)
    return op, LogSeries(parts), case != "random"


@settings(max_examples=80, deadline=None)
@given(operator_and_log_series())
def test_apply_matches_the_dense_series_products(case):
    op, sol, planted = case
    got = op.apply(sol)
    assert got == apply_by_series_products(op, sol)
    assert all(p.order == sol.order for p in got.parts)
    if planted:
        assert not got.is_zero()
