"""Instanton bookkeeping and the quantum-cohomology assembly.

The inversion oracle: push a hand-picked table through the defining sum
with plain Fraction arithmetic, then demand the module recover the
table from the resulting series.
"""
from fractions import Fraction
from random import Random

import pytest

from vshstools.amodel import (CohomologyInput, InstantonTable,
                              UnsupportedDimension, ZeroVolume,
                              build_amodel_dn, g_from_instantons,
                              instantons_from_g)
from vshstools.picard_fuchs import bmodel_pipeline, parse_pf
from vshstools.scalars import ONE, ZERO, Scalar
from vshstools.series import Series, SeriesMatrix
from vshstools.vshs import (DnObject, HardLefschetzFailure,
                            InvariantViolation, UnitNotPreserved)

ORD = 10


def series_of_table(entries, volume, order):
    """1 + (1/v) sum n_d d^3 q^(dm), written directly from the sum."""
    coeffs = [Fraction(0)] * order
    coeffs[0] = Fraction(1)
    for d, n_d in entries.items():
        for m in range(1, order):
            if d * m >= order:
                break
            coeffs[d * m] += Fraction(n_d) * d ** 3 / Fraction(volume)
    return Series([Scalar(c) for c in coeffs], order)


def test_inversion_against_hand_sum():
    entries = {1: 2875, 2: 609250, 3: -7, 5: Fraction(1, 1)}
    g = series_of_table(entries, 5, ORD)
    table = instantons_from_g(g, Scalar(5))
    assert table.entries == {d: Scalar(Fraction(v))
                             for d, v in entries.items()}
    assert table.suspect == ()


def test_roundtrip_both_directions():
    rng = Random(41)
    for _ in range(10):
        entries = {d: Scalar(rng.randint(-50, 50)) for d in range(1, 7)
                   if rng.random() < 0.7}
        table = InstantonTable(max_degree=ORD - 1, entries=entries)
        vol = Scalar(rng.choice((1, 2, 5)))
        g = g_from_instantons(table, vol, ORD)
        back = instantons_from_g(g, vol)
        assert back.entries == table.entries
        assert g_from_instantons(back, vol, ORD) == g


def test_zero_entries_are_dropped():
    table = InstantonTable(max_degree=4, entries={1: Scalar(5),
                                                  2: ZERO})
    assert 2 not in table.entries


def test_suspect_degrees_reported_exactly():
    g = Series([Scalar(1), Scalar(Fraction(1, 2))], 4)
    table = instantons_from_g(g, Scalar(1))
    # the half-integer at degree 1 contaminates its multiples too
    assert table.suspect == (1, 2, 3)
    assert table.entries[1] == Scalar(Fraction(1, 2))


def test_zero_volume():
    g = Series.one(4)
    with pytest.raises(ZeroVolume):
        instantons_from_g(g, Scalar(0))
    with pytest.raises(ZeroVolume):
        g_from_instantons(InstantonTable(max_degree=3), Scalar(0), 4)


def quintic_cohomology(g_series):
    one = Series.one(g_series.order)
    zero = Series.zero(g_series.order)
    quantum = SeriesMatrix([
        [zero, zero, zero, zero],
        [one, zero, zero, zero],
        [zero, g_series, zero, zero],
        [zero, zero, one, zero]])
    five = Scalar(5)
    intersection = [[ZERO] * 4 for _ in range(4)]
    for i in range(4):
        intersection[i][3 - i] = five
    return CohomologyInput(n=3, betti={0: 1, 2: 1, 4: 1, 6: 1},
                           intersection=intersection, quantum_mult=quantum)


def test_quintic_amodel_matches_bmodel():
    op = parse_pf(
        "theta^4 - 5 q (5 theta + 1)(5 theta + 2)(5 theta + 3)"
        "(5 theta + 4)")
    report, table = bmodel_pipeline(op, Scalar(5), order=ORD)
    g = g_from_instantons(table, Scalar(5), ORD)
    built = build_amodel_dn(quintic_cohomology(g))
    assert built == report.dn


def _anti_diagonal(rank, value):
    return [[value if i + j == rank - 1 else ZERO for j in range(rank)]
            for i in range(rank)]


def g_vanishes():
    zero = Series.zero(4)
    one = Series.one(4)
    quantum = SeriesMatrix([
        [zero, zero, zero, zero],
        [one, zero, zero, zero],
        [zero, zero, zero, zero],   # g = 0 kills H^2 -> H^4
        [zero, zero, one, zero]])
    return CohomologyInput(n=3, betti={0: 1, 2: 1, 4: 1, 6: 1},
                           intersection=_anti_diagonal(4, ONE),
                           quantum_mult=quantum)


def lopsided():
    # the intersection form is zero as well: Hard Lefschetz is named
    return CohomologyInput(n=2, betti={0: 1, 2: 2, 4: 1},
                           intersection=[[ZERO] * 4] * 4,
                           quantum_mult=SeriesMatrix.zeros(4, 4, 4))


def creeping_unit():
    zero = Series.zero(4)
    one = Series.one(4)
    creeping = one + Series([ZERO, ONE], 4)   # 1 + q on the unit column
    quantum = SeriesMatrix([
        [zero, zero, zero, zero],
        [creeping, zero, zero, zero],
        [zero, one, zero, zero],
        [zero, zero, one, zero]])
    return CohomologyInput(n=3, betti={0: 1, 2: 1, 4: 1, 6: 1},
                           intersection=_anti_diagonal(4, Scalar(5)),
                           quantum_mult=quantum)


def test_hard_lefschetz_failure():
    with pytest.raises(HardLefschetzFailure,
                       match=r"^A\(0\)\^1 is not an isomorphism V_-1 -> V_1$"):
        build_amodel_dn(g_vanishes())
    with pytest.raises(HardLefschetzFailure,
                       match=r"^A\(0\)\^2 is not an isomorphism V_-2 -> V_2$"):
        build_amodel_dn(lopsided())


def test_unit_not_preserved():
    with pytest.raises(UnitNotPreserved, match="must be constant$"):
        build_amodel_dn(creeping_unit())


def dn_arguments(data):
    """The DnObject of A-side data, written out from the convention:
    the Poincare form times (-1)^(n(n+1)/2) i^k in the column degree k."""
    n = data.n
    degrees = [deg - n for deg in sorted(data.betti)
               for _ in range(data.betti[deg])]
    sign = Scalar(-1 if (n * (n + 1) // 2) % 2 else 1)
    pairing0 = [[sign * Scalar.i_power(degrees[j]) * x
                 for j, x in enumerate(row)] for row in data.intersection]
    return dict(n=n, graded_dims={deg - n: d for deg, d in data.betti.items()},
                pairing0=pairing0, a_series=data.quantum_mult)


@pytest.mark.parametrize("data, error", [
    (g_vanishes, HardLefschetzFailure),
    (lopsided, HardLefschetzFailure),
    (creeping_unit, UnitNotPreserved),
], ids=["g-vanishes", "lopsided", "creeping-unit"])
def test_amodel_and_dn_object_raise_alike(data, error):
    assert issubclass(error, InvariantViolation)
    with pytest.raises(error) as built:
        build_amodel_dn(data())
    with pytest.raises(error) as direct:
        DnObject(**dn_arguments(data()))
    assert type(built.value) is type(direct.value) is error
    assert str(built.value) == str(direct.value)


def test_pairing_sign_convention():
    built = build_amodel_dn(quintic_cohomology(Series.one(4)))
    p0 = built.pairing0_matrix()
    # sign (-1)^{n(n+1)/2} = -1 for n = 3 and i-powers along the column
    minus_5i = Scalar(-5) * Scalar.i_power(1)
    assert p0[0][3] == minus_5i
    assert p0[1][2] == Scalar(5) * Scalar.i_power(1)
    assert p0[2][1] == minus_5i
    assert p0[3][0] == Scalar(5) * Scalar.i_power(1)
    for g in (Series.one(4), Series([ONE, Scalar(3), ZERO, Scalar(-2)], 4)):
        data = quintic_cohomology(g)
        assert build_amodel_dn(data) == DnObject(**dn_arguments(data))


def test_betti_validation():
    with pytest.raises(ValueError):
        build_amodel_dn(CohomologyInput(
            n=1, betti={0: 1, 5: 1}, intersection=[[ZERO, ONE], [ONE, ZERO]],
            quantum_mult=SeriesMatrix.zeros(2, 2, 4)))
    with pytest.raises(ValueError):
        build_amodel_dn(CohomologyInput(
            n=1, betti={0: 1, 2: 1}, intersection=[[ZERO]],
            quantum_mult=SeriesMatrix.zeros(2, 2, 4)))


# --- fourfolds: the entry from degree -2 to 0, multiple-cover weight d^2

SEXTIC_FOURFOLD = ("theta^5 - 6*q*(6*theta+1)*(6*theta+2)*(6*theta+3)"
                   "*(6*theta+4)*(6*theta+5)")
# computed by this package at order 8 (a regression pin, not quoted from
# the literature); every one is an integer
SEXTIC_FOURFOLD_N = (60480, 440884080, 6255156277440, 117715791990353760,
                     2591176156368821985600, 63022367592536650014764880,
                     1642558496795158117310144372160)


def test_sextic_fourfold_instantons_and_amodel():
    report, table = bmodel_pipeline(parse_pf(SEXTIC_FOURFOLD), Scalar(6),
                                    order=8)
    assert table.suspect == ()
    assert table.entries == {d: Scalar(v)
                             for d, v in enumerate(SEXTIC_FOURFOLD_N, 1)}
    g = g_from_instantons(table, Scalar(6), 8, n=4)
    one, zero = Series.one(8), Series.zero(8)
    quantum = SeriesMatrix([[one if (i, j) in ((1, 0), (4, 3)) else
                             g if i == j + 1 else zero for j in range(5)]
                            for i in range(5)])
    intersection = [[Scalar(6) if i + j == 4 else ZERO for j in range(5)]
                    for i in range(5)]
    built = build_amodel_dn(CohomologyInput(
        n=4, betti={0: 1, 2: 1, 4: 1, 6: 1, 8: 1},
        intersection=intersection, quantum_mult=quantum))
    assert built == report.dn


def test_fourfold_weight_roundtrip():
    table = InstantonTable(max_degree=5, entries={1: Scalar(3),
                                                  2: Scalar(-4)})
    g = g_from_instantons(table, Scalar(2), 6, n=4)
    # 1 + (1/2)(3 (q + q^2 + ...) + 2^2 (-4) (q^2 + q^4))
    assert g.coeffs[:3] == (ONE, Scalar(Fraction(3, 2)),
                            Scalar(Fraction(-13, 2)))
    assert instantons_from_g(g, Scalar(2), n=4) == table


def test_dimension_five_and_up_is_refused():
    with pytest.raises(UnsupportedDimension):
        instantons_from_g(Series.one(4), Scalar(1), n=5)
    with pytest.raises(UnsupportedDimension):
        g_from_instantons(InstantonTable(max_degree=3), Scalar(1), 4, n=6)


def test_k3_has_no_instantons():
    _, table = bmodel_pipeline(parse_pf("theta^3 - 8*q*(2*theta+1)^3"),
                               Scalar(5), order=8)
    assert table.entries == {}
