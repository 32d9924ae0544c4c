"""Property tests for the series kernels that the normal-form route leans
on: reversion, composition through a shared power table, exp/log,
inverses, and the single flat-gauge computation per normal form."""
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vshstools import linalg, picard_fuchs, vshs
from vshstools.scalars import ZERO, Scalar
from vshstools.series import Series, SeriesMatrix

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


def test_normal_form_computes_one_flat_gauge(monkeypatch):
    calls = []
    gauge = vshs.formal_flat_gauge

    def counting(b):
        calls.append(b)
        return gauge(b)

    monkeypatch.setattr(vshs, "formal_flat_gauge", counting)
    op = picard_fuchs.parse_pf((DATA / "quintic.pf.txt").read_text())
    report = vshs.to_normal_form(picard_fuchs.companion_vhs(op, 6),
                                 normalization=Scalar(5), volume_basis=True)
    assert len(calls) == 1
    assert report.mirror_coordinate.coeffs[2] == Scalar(770)
