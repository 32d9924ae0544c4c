"""Property tests for the series kernels that the normal-form route leans
on: reversion, composition through a shared power table, exp/log,
inverses, the single flat-gauge computation per normal form, and the
coefficient-major SeriesMatrix against entrywise Series arithmetic."""
import operator
from fractions import Fraction
from functools import reduce
from math import isqrt
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vshstools import linalg, picard_fuchs, vshs
from vshstools.scalars import ZERO, Scalar
from vshstools.series import PowerTable, Series, SeriesMatrix

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


def horner(f: Series, g: Series) -> Series:
    """f(g) by Horner's rule, sharing no code with Series.compose."""
    n = min(f.order, g.order)
    acc = Series.zero(n)
    for k in range(n - 1, -1, -1):
        acc = acc * g.truncate(n) + Series.constant(f.coeffs[k], n)
    return acc


@PROPS
@given(reversible())
def test_reverse_is_a_two_sided_compositional_inverse(f):
    g = f.reverse()
    q = Series.coordinate(f.order)
    assert f.compose(g) == q
    assert g.compose(f) == q


@PROPS
@given(st.data())
def test_compose_entries_matches_entrywise_compose(data):
    n = data.draw(st.integers(2, 10))
    inner = data.draw(series(order=n, vanishing=True))
    entries = [[data.draw(series(order=n)) for _ in range(2)]
               for _ in range(2)]
    composed = SeriesMatrix(entries).compose_entries(inner)
    for i in range(2):
        for j in range(2):
            expected = horner(entries[i][j], inner)
            assert entries[i][j].compose(inner) == expected
            assert composed.entry(i, j) == expected


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
    one = SeriesMatrix.identity(n, order)
    assert m.inverse() * m == one
    assert m * m.inverse() == one


def test_normal_form_computes_no_flat_gauge(monkeypatch):
    calls = []
    gauge = vshs.formal_flat_gauge

    def counting(b):
        calls.append(b)
        return gauge(b)

    monkeypatch.setattr(vshs, "formal_flat_gauge", counting)
    op = picard_fuchs.parse_pf((DATA / "quintic.pf.txt").read_text())
    report = vshs.to_normal_form(picard_fuchs.companion_vhs(op, 6),
                                 normalization=Scalar(5), volume_basis=True)
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
@given(series_entries(), st.integers(1, 6), st.data())
def test_series_and_scalar_factors_act_entrywise(a, order, data):
    s = data.draw(series(order=order))
    c = data.draw(scalars)
    assert SeriesMatrix(a) * s == SeriesMatrix(ref_map(a, lambda e: e * s))
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
    inner = data.draw(series(order=m.order + 1, vanishing=True))
    assert m.transpose() == SeriesMatrix(
        [[a[i][j] for i in range(m.rows)] for j in range(m.cols)])
    assert m.theta_entries() == SeriesMatrix(ref_map(a, Series.theta))
    assert m.dilate(c) == SeriesMatrix(ref_map(a, lambda e: e.dilate(c)))
    assert m.compose_entries(inner) == SeriesMatrix(
        ref_map(a, lambda e: horner(e, inner)))


@PROPS
@given(series_entries(), st.data())
def test_scalar_products_and_apply_act_entrywise(a, data):
    m = SeriesMatrix(a)
    left = scalar_matrix(data.draw, data.draw(st.integers(1, 3)), m.rows)
    right = scalar_matrix(data.draw, m.cols, data.draw(st.integers(1, 3)))
    assert m.scalar_left_mul(left) == SeriesMatrix(
        ref_product(lift(left, m.order), a))
    assert m.scalar_right_mul(right) == SeriesMatrix(
        ref_product(a, lift(right, m.order)))
    vec = [data.draw(series(order=data.draw(st.integers(1, 6))))
           for _ in range(m.cols)]
    assert m.apply(vec) == [_sum(e * v for e, v in zip(row, vec))
                            for row in a]


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


def ref_apply(entries, vec):
    n = min([entries[0][0].order] + [v.order for v in vec])
    return [_sum([ref_mul(e.truncate(n), v.truncate(n))
                  for e, v in zip(row, vec)]) for row in entries]


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
@given(kernel_series(vanishing=True), st.data())
def test_kernel_compose_matches_reference(inner, data):
    table = PowerTable(inner)
    for _ in range(2):
        outer = data.draw(kernel_series(order=data.draw(kernel_orders)))
        assert table.compose(outer) == ref_compose(outer, inner)


@KERNEL
@given(st.data())
def test_kernel_apply_matches_reference(data):
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    order = data.draw(kernel_orders)
    entries = [[data.draw(kernel_series(order=order)) for _ in range(cols)]
               for _ in range(rows)]
    vec = [data.draw(kernel_series(order=data.draw(kernel_orders)))
           for _ in range(cols)]
    assert SeriesMatrix(entries).apply(vec) == ref_apply(entries, vec)


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
    assert f.compose(g) == Series.coordinate(order)
