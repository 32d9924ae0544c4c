"""Property tests for the series kernels that the normal-form route leans
on: reversion, composition through the Lagrange-Buermann table, exp/log,
inverses, the single flat-gauge computation per normal form, and the
coefficient-major SeriesMatrix against entrywise Series arithmetic and
against Scalar references, with its stored lifts kept canonical."""
import operator
from fractions import Fraction
from functools import reduce
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vshstools import linalg, picard_fuchs, vshs
from vshstools.linalg import Accumulator, Lifted
from vshstools.scalars import ZERO, Scalar
from vshstools.series import Reversion, Series, SeriesMatrix

from genutil import (coefficients_dilate, coefficients_product,
                     coefficients_theta, coefficients_transpose, horner,
                     mat_add, mat_neg, mat_scale, matrix_identity,
                     matrix_inverse, scalar_product)

DATA = Path(__file__).resolve().parent.parent / "data"

PROPS = settings(max_examples=25, deadline=None)

rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
scalars = st.builds(Scalar, rationals, st.one_of(st.just(0), rationals))
nonzero_scalars = scalars.filter(lambda x: not x.is_zero())


@st.composite
def series(draw, order=None, vanishing=False):
    n = draw(st.integers(2, 12)) if order is None else order
    coeffs = draw(st.lists(scalars, min_size=n, max_size=n))
    if vanishing:
        coeffs[0] = ZERO
    return Series(coeffs, n)


@st.composite
def reversible(draw):
    """f with f(0) = 0 and f'(0) != 0, of order 2 to 12."""
    f = draw(series(vanishing=True))
    coeffs = list(f.coeffs)
    coeffs[1] = draw(nonzero_scalars)
    return Series(coeffs, f.order)


@PROPS
@given(reversible())
def test_reverse_is_a_two_sided_compositional_inverse(f):
    g = f.reverse()
    q = Series.coordinate(f.order)
    assert horner(f, g) == q
    assert horner(g, f) == q


@PROPS
@given(series(vanishing=True))
def test_log_exp_roundtrip(a):
    assert a.exp().log() == a


@PROPS
@given(series(), nonzero_scalars)
def test_series_inverse_times_self_is_one(a, a0):
    s = Series((a0,) + a.coeffs[1:], a.order)
    assert s.inverse() * s == Series.one(s.order)
    assert s * s.inverse() == Series.one(s.order)


@PROPS
@given(st.data())
def test_series_matrix_inverse_times_self_is_one(data):
    n = data.draw(st.integers(2, 3))
    order = data.draw(st.integers(1, 6))
    m = SeriesMatrix([[data.draw(series(order=order)) for _ in range(n)]
                      for _ in range(n)])
    assume(linalg.try_inverse(m.at0()) is not None)
    one = matrix_identity(n, order)
    assert matrix_inverse(m) * m == one
    assert m * matrix_inverse(m) == one


def test_normal_form_computes_no_flat_gauge(monkeypatch):
    calls = []
    gauge = vshs.formal_flat_gauge

    def counting(b):
        calls.append(b)
        return gauge(b)

    monkeypatch.setattr(vshs, "formal_flat_gauge", counting)
    op = picard_fuchs.parse_pf((DATA / "quintic.pf.txt").read_text())
    report = vshs.to_normal_form(picard_fuchs.companion_vhs(op, 6), Scalar(5))
    assert calls == []
    assert report.mirror_coordinate.coeffs[2] == Scalar(770)


# --- the coefficient-major SeriesMatrix against entrywise Series arithmetic

def _sum(terms):
    return reduce(operator.add, terms)


def ref_product(a, b):
    return [[_sum(a[i][l] * b[l][j] for l in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def ref_map(a, f):
    return [[f(e) for e in row] for row in a]


def lift(m, order):
    """A scalar matrix as a matrix of constant series."""
    return [[Series.constant(x, order) for x in row] for row in m]


@st.composite
def series_entries(draw, rows=None, cols=None, order=None):
    rows = draw(st.integers(1, 3)) if rows is None else rows
    cols = draw(st.integers(1, 3)) if cols is None else cols
    order = draw(st.integers(1, 6)) if order is None else order
    return [[draw(series(order=order)) for _ in range(cols)]
            for _ in range(rows)]


def scalar_matrix(draw, rows, cols):
    return [[draw(scalars) for _ in range(cols)] for _ in range(rows)]


@PROPS
@given(st.data())
def test_matrix_product_is_the_entrywise_product(data):
    r, m, c = (data.draw(st.integers(1, 3)) for _ in range(3))
    a = data.draw(series_entries(r, m))
    b = data.draw(series_entries(m, c, data.draw(st.integers(1, 6))))
    assert SeriesMatrix(a) * SeriesMatrix(b) == \
        SeriesMatrix(ref_product(a, b))


@PROPS
@given(series_entries(), st.data())
def test_series_and_scalar_factors_act_entrywise(a, data):
    c = data.draw(scalars)
    assert SeriesMatrix(a) * c == SeriesMatrix(ref_map(a, lambda e: e * c))
    assert c * SeriesMatrix(a) == SeriesMatrix(a) * c


@PROPS
@given(st.data())
def test_sum_and_difference_act_entrywise(data):
    a = data.draw(series_entries())
    b = data.draw(series_entries(len(a), len(a[0]), a[0][0].order))
    sums = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    diffs = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    assert SeriesMatrix(a) + SeriesMatrix(b) == SeriesMatrix(sums)
    assert SeriesMatrix(a) - SeriesMatrix(b) == SeriesMatrix(diffs)
    assert -SeriesMatrix(a) == SeriesMatrix(ref_map(a, lambda e: -e))


@PROPS
@given(series_entries(), st.data())
def test_transpose_theta_dilate_compose_act_entrywise(a, data):
    m = SeriesMatrix(a)
    c = data.draw(scalars)
    assert m.transpose() == SeriesMatrix(
        [[a[i][j] for i in range(m.rows)] for j in range(m.cols)])
    assert m.theta_entries() == SeriesMatrix(ref_map(a, Series.theta))
    assert m.dilate(c) == SeriesMatrix(ref_map(a, lambda e: e.dilate(c)))


@PROPS
@given(series_entries(), st.data())
def test_scalar_products_act_entrywise(a, data):
    m = SeriesMatrix(a)
    left = scalar_matrix(data.draw, data.draw(st.integers(1, 3)), m.rows)
    right = scalar_matrix(data.draw, m.cols, data.draw(st.integers(1, 3)))
    assert m.scalar_left_mul(left) == SeriesMatrix(
        ref_product(lift(left, m.order), a))
    assert m.scalar_right_mul(right) == SeriesMatrix(
        ref_product(a, lift(right, m.order)))


@PROPS
@given(series_entries())
def test_entries_survive_the_coefficient_storage(a):
    m = SeriesMatrix(a)
    assert all(m.entry(i, j) == a[i][j]
               for i in range(m.rows) for j in range(m.cols))
    rebuilt = SeriesMatrix.from_coefficients(
        [m.coefficient_matrix(k) for k in range(m.order)], m.rows,
        m.cols)
    assert rebuilt == m and hash(rebuilt) == hash(m)
    for k in range(m.order):
        coeff = m.coefficient_matrix(k)
        coeff[0][0] = coeff[0][0] + Scalar(1)
        coeff[0].append(ZERO)
        coeff.append([])
    assert m == rebuilt and m.at0() == rebuilt.at0()
    assert all(m.entry(i, j) == a[i][j]
               for i in range(m.rows) for j in range(m.cols))


# --- the stored lifts: one canonical Lifted per q-order -------------------
#
# A SeriesMatrix stores only its lifts and lowers them when read, so each
# operation must leave the canonical lift, the one Lifted.of builds from
# the lowered coefficients, and must lower to the Scalar reference.

LIFT_PROPS = settings(max_examples=40, deadline=None)
# Gaussian rationals with small parts and mixed denominators, zero first
# so that examples shrink to sparse matrices
GAUSSIANS = sorted({Scalar(Fraction(a, d), Fraction(b, e))
                    for a in range(-3, 4) for b in range(-3, 4)
                    for d in (1, 2, 3, 4, 6) for e in (1, 2, 4)},
                   key=lambda x: (not x.is_zero(), x.im != 0, x._abd))
gaussians = st.sampled_from(GAUSSIANS)


@st.composite
def coefficient_lists(draw, rows, cols, order):
    return [[[draw(gaussians) for _ in range(cols)] for _ in range(rows)]
            for _ in range(order)]


def assert_canonical(m: SeriesMatrix, name: str) -> None:
    for k, lift in enumerate(m._lifts):
        fresh = Lifted.of(m.coeffs[k])
        assert (lift.den, lift.rows, lift.real, lift.zero) == \
            (fresh.den, fresh.rows, fresh.real, fresh.zero), (name, k)


@LIFT_PROPS
@given(st.data())
def test_accumulated_lift_is_the_lift_of_the_sum(data):
    n, m, p = (data.draw(st.integers(1, 6)) for _ in range(3))
    acc, ref = Accumulator(n, p), linalg.zeros(n, p)
    for _ in range(data.draw(st.integers(0, 4))):
        a, b = data.draw(coefficient_lists(n, m, 1))[0], \
            data.draw(coefficient_lists(m, p, 1))[0]
        acc.add_product(Lifted.of(a), Lifted.of(b))
        ref = mat_add(ref, scalar_product(a, b))
    direct, fresh = acc.lifted(), Lifted.of(ref)
    assert (direct.den, direct.rows, direct.real, direct.zero) == \
        (fresh.den, fresh.rows, fresh.real, fresh.zero)


@LIFT_PROPS
@given(st.data())
def test_each_operation_keeps_the_canonical_lift(data):
    dim = st.integers(1, 6)
    r, c, s, t = (data.draw(dim) for _ in range(4))
    order = data.draw(st.integers(0, 6))
    a = data.draw(coefficient_lists(r, c, order))
    b = data.draw(coefficient_lists(r, c, order))
    p = data.draw(coefficient_lists(c, s, data.draw(st.integers(0, 6))))
    left = data.draw(coefficient_lists(t, r, 1))[0]
    right = data.draw(coefficient_lists(c, t, 1))[0]
    x, k = data.draw(gaussians), data.draw(st.integers(0, order))
    ma, mb, mp = (SeriesMatrix.from_coefficients(a, r, c),
                  SeriesMatrix.from_coefficients(b, r, c),
                  SeriesMatrix.from_coefficients(p, c, s))
    cases = {
        "product": (ma * mp, coefficients_product(a, p)),
        "scalar_left_mul": (ma.scalar_left_mul(left),
                            [scalar_product(left, m) for m in a]),
        "scalar_right_mul": (ma.scalar_right_mul(right),
                             [scalar_product(m, right) for m in a]),
        "+": (ma + mb, [mat_add(u, v) for u, v in zip(a, b)]),
        "-": (ma - mb, [mat_add(u, mat_neg(v)) for u, v in zip(a, b)]),
        "unary -": (-ma, [mat_neg(m) for m in a]),
        "scalar *": (ma * x, [mat_scale(m, x) for m in a]),
        "transpose": (ma.transpose(), coefficients_transpose(a)),
        "truncate": (ma.truncate(k), a[:k]),
        "dilate": (ma.dilate(x), coefficients_dilate(a, x)),
        "theta_entries": (ma.theta_entries(), coefficients_theta(a)),
    }
    for name, (got, want) in cases.items():
        assert list(got.coeffs) == want, name
        assert_canonical(got, name)


# --- the integer kernel of Series against per-term Scalar references ------
#
# The references are the schoolbook loops the kernel replaced: one Scalar
# product and one Scalar sum per term, normalized every time.

def ref_mul(a, b):
    n = min(a.order, b.order)
    out = [ZERO] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] = out[i + j] + a.coeffs[i] * b.coeffs[j]
    return Series(out, n)


def ref_inverse(a):
    inv0 = a.coeffs[0].inverse()
    out = [inv0]
    for k in range(1, a.order):
        s = ZERO
        for j in range(1, k + 1):
            s = s + a.coeffs[j] * out[k - j]
        out.append(-inv0 * s)
    return Series(out, a.order)


def ref_exp(a):
    out = [Scalar(1)] + [ZERO] * (a.order - 1)
    for k in range(1, a.order):
        s = ZERO
        for j in range(1, k + 1):
            s = s + Scalar(j) * a.coeffs[j] * out[k - j]
        out[k] = s / Scalar(k)
    return Series(out[:a.order], a.order)


def ref_compose(outer, inner):
    n = min(outer.order, inner.order)
    out = Series.zero(n)
    power = Series.one(n)
    for k in range(n):
        out = out + Series([outer.coeffs[k] * x for x in power.coeffs], n)
        power = ref_mul(power, inner.truncate(n))
    return out


def ref_reverse(f):
    """Lagrange inversion with one reference product per coefficient."""
    n = f.order
    if n <= 1:
        return Series.zero(n)
    h = ref_inverse(Series(f.coeffs[1:], n - 1))
    g = [ZERO]
    power = Series.one(n - 1)
    for m in range(1, n):
        power = ref_mul(power, h)
        g.append(power.coeffs[m - 1] / Scalar(m))
    return Series(g, n)


# mixed denominators, Gaussian entries and runs of zero coefficients;
# orders 0 to 4 are the step-size edge cases of the reversion
kernel_orders = st.one_of(st.integers(0, 4), st.integers(5, 20))
kernel_rationals = st.builds(Fraction, st.integers(-40, 40),
                             st.sampled_from((1, 2, 3, 4, 6, 9, 35, 128)))
kernel_scalars = st.one_of(
    st.just(ZERO),
    st.builds(Scalar, kernel_rationals),
    st.builds(Scalar, kernel_rationals, kernel_rationals))


@st.composite
def kernel_series(draw, order=None, vanishing=False, unit=False):
    n = draw(kernel_orders) if order is None else order
    coeffs = []
    while len(coeffs) < n:
        run = draw(st.integers(1, 4))
        c = draw(kernel_scalars)
        coeffs.extend([c] * run if c.is_zero() else [c])
    coeffs = coeffs[:n]
    if n and vanishing:
        coeffs[0] = ZERO
    if n > 1 and vanishing and unit:
        coeffs[1] = draw(kernel_scalars.filter(lambda x: not x.is_zero()))
    if n and unit and not vanishing:
        coeffs[0] = draw(kernel_scalars.filter(lambda x: not x.is_zero()))
    return Series(coeffs, n)


KERNEL = settings(max_examples=60, deadline=None)


@KERNEL
@given(kernel_series(), st.data())
def test_kernel_product_matches_reference(a, data):
    b = data.draw(kernel_series(order=data.draw(kernel_orders)))
    assert a * b == ref_mul(a, b)
    assert a * a == ref_mul(a, a)


@KERNEL
@given(kernel_series(unit=True).filter(lambda s: s.order > 0))
def test_kernel_inverse_matches_reference(a):
    assert a.inverse() == ref_inverse(a)


@KERNEL
@given(kernel_series(vanishing=True))
def test_kernel_exp_matches_reference(a):
    assert a.exp() == ref_exp(a)


@KERNEL
@given(kernel_series(vanishing=True, unit=True))
def test_kernel_reverse_matches_reference(f):
    assert f.reverse() == ref_reverse(f)


@KERNEL
@given(st.one_of(st.integers(0, 2), kernel_orders), st.data())
def test_kernel_compose_matches_reference(order, data):
    """outer(g) by the Lagrange-Buermann table of f, g the reverse of f,
    for outer series longer than f and as long or shorter."""
    f = data.draw(kernel_series(order=order, vanishing=True, unit=True))
    table, g = Reversion(f), ref_reverse(f)
    for outer_order in (order + data.draw(st.integers(1, 3)),
                        data.draw(st.integers(0, order))):
        outer = data.draw(kernel_series(order=outer_order))
        assert table.compose(outer) == ref_compose(outer, g)


@KERNEL
@given(kernel_series(vanishing=True), st.data())
def test_kernel_series_compose_matches_reference(inner, data):
    """genutil.horner, the composition the other tests check against, for
    an inner series that may have inner'(0) = 0."""
    for _ in range(2):
        outer = data.draw(kernel_series(order=data.draw(kernel_orders)))
        assert horner(outer, inner) == ref_compose(outer, inner)


def test_reverse_makes_about_two_sqrt_n_products(monkeypatch):
    order = 64
    f = Series([ZERO] + [Scalar(Fraction((-1) ** k * k, k % 3 + 1))
                         for k in range(1, order)], order)
    calls = []
    product = Series.__mul__

    def counting(a, b):
        calls.append(b)
        return product(a, b)

    monkeypatch.setattr(Series, "__mul__", counting)
    g = f.reverse()
    monkeypatch.undo()
    assert len(calls) <= 2 * isqrt(order - 1) + 2
    assert horner(f, g) == Series.coordinate(order)


def test_compose_makes_isqrt_n_products(monkeypatch):
    """Once the table of f is built, composing with the reverse of f takes
    one product F' phi^r per baby step and none per coefficient."""
    order = 64
    f = Series([ZERO] + [Scalar(Fraction((-1) ** k * k, k % 3 + 1))
                         for k in range(1, order)], order)
    outer = Series([Scalar(Fraction(k + 1, k % 4 + 1), Fraction(k % 3 - 1))
                    for k in range(order)], order)
    table = Reversion(f)
    calls = []
    product = Series.__mul__

    def counting(a, b):
        calls.append(b)
        return product(a, b)

    monkeypatch.setattr(Series, "__mul__", counting)
    composed = table.compose(outer)
    monkeypatch.undo()
    assert len(calls) == isqrt(order - 1)
    assert composed == horner(outer, f.reverse())


@PROPS
@given(reversible(), scalars, st.integers(0, 14))
def test_a_constant_composes_to_itself_with_no_product(f, c, order):
    """A constant outer series is its own composition, read off with no
    series product, at any order."""
    outer, table = Series.constant(c, order), Reversion(f)
    calls = []
    product = Series.__mul__

    def counting(a, b):
        calls.append(b)
        return product(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Series, "__mul__", counting)
        composed = table.compose(outer)
    assert calls == []
    assert composed == horner(outer, f.reverse())
