"""The normal-form machinery.

The anchor fixture is small enough to integrate by hand: for a rank-2
connection with lower-left entry h(q), the canonical coordinate is
q exp(theta^{-1}(h/h(0) - 1)), and everything downstream of it is
checked against series built independently from h.
"""
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vshstools import linalg, nilpotent, vshs
from vshstools.scalars import ONE, ZERO, Scalar
from vshstools.series import Series, SeriesMatrix
from vshstools.vshs import (DegreeViolation, DnObject, GeometricVHS,
                            InconsistentLift, InvariantViolation, NoVolumeForm,
                            NotHodgeTate, NotNilpotentResidue,
                            NotProportional, PairingUnderdetermined,
                            ReesModule, ResidueNotCompatible, ZeroKS,
                            ZeroScalar, canonical_coordinate, extend_pairing,
                            formal_flat_gauge, from_normal_form,
                            gauge_transform, geometric_to_rees,
                            hodge_tate_split,
                            rees_to_geometric, rescale_coordinate,
                            to_canonical_connection, to_normal_form,
                            verify_prevhs, yukawa)

from genutil import mat_vec, random_dn, random_flat_pair, random_rees

ORD = 8
COORD = Series.coordinate(ORD)


def smat(rows, order=ORD):
    built = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, Series):
                cells.append(cell)
            elif isinstance(cell, list):
                cells.append(Series([Scalar.of(c) for c in cell], order))
            else:
                cells.append(Series([Scalar.of(cell)], order))
        built.append(cells)
    return SeriesMatrix(built)


def anchor(h):
    b = SeriesMatrix([[Series.zero(ORD), Series.zero(ORD)],
                      [h, Series.zero(ORD)]])
    pairing = smat([[0, 1], [-1, 0]])
    return GeometricVHS(conn=b, levels2=(1, -1), pairing=pairing, parity=1)


def flag_gauge(rng, levels, order, constant=False):
    """Random invertible gauge preserving the coordinate Hodge flag."""
    rank = len(levels)
    while True:
        entries = []
        for i in range(rank):
            row = []
            for j in range(rank):
                if levels[i] < levels[j]:
                    row.append(Series.zero(order))
                    continue
                span = 1 if constant else order
                coeffs = [Scalar(Fraction(rng.randint(-2, 2),
                                          rng.randint(1, 2)))
                          for _ in range(span)]
                row.append(Series(coeffs, order))
            entries.append(row)
            entries[i][i] = entries[i][i] + Series.one(order)
        m = SeriesMatrix(entries)
        if linalg.try_inverse(m.at0()) is not None:
            return m


# --- canonical coordinate -------------------------------------------------

def test_mirror_map_anchor():
    h = Series([Scalar(1), Scalar(3), Scalar(2)], ORD)
    rep = to_normal_form(anchor(h))
    expected = COORD * (h - Series.one(ORD)).theta_inverse().exp()
    assert rep.mirror_coordinate == expected
    # 1 + 3q + 2q^2 integrates to 3q + q^2 in theta^{-1}
    assert rep.mirror_coordinate.coefficient(2) == Scalar(3)
    assert rep.mirror_coordinate.coefficient(3) == Scalar(Fraction(11, 2))
    assert rep.dn.n == 1
    assert rep.dn.degrees == (-1, 1)
    # in the mirror coordinate the Kodaira-Spencer entry is constant
    assert rep.dn.a_series.entry(1, 0) == Series.one(ORD)


def test_mirror_map_scaled_ks_is_unchanged():
    # the coordinate only sees h up to its value at 0
    h = Series([Scalar(1), Scalar(3), Scalar(2)], ORD)
    scaled = h * Scalar(7)
    assert to_normal_form(anchor(h)).mirror_coordinate == \
        to_normal_form(anchor(scaled)).mirror_coordinate


def test_canonical_coordinate_errors():
    a = smat([[0, 0], [[0, 1], 0]])  # KS entry q vanishes at 0
    with pytest.raises(ZeroKS):
        canonical_coordinate(a, (1, -1))
    bad = smat([[0, 0, 0], [1, 0, 0], [[1, 1], 0, 0]])
    with pytest.raises(NotProportional):
        canonical_coordinate(bad, (2, 0, 0))
    two_tops = smat([[0, 0], [0, 0]])
    with pytest.raises(NotProportional):
        canonical_coordinate(two_tops, (1, 1))


# --- flat gauge -----------------------------------------------------------

def test_formal_flat_gauge_solves_its_equation():
    rng = Random(21)
    for _ in range(5):
        dim = rng.randint(2, 4)
        entries = []
        for i in range(dim):
            row = []
            for j in range(dim):
                coeffs = [Scalar(Fraction(rng.randint(-3, 3), 1))
                          for _ in range(ORD)]
                if j >= i:
                    coeffs[0] = ZERO  # nilpotent residue
                row.append(Series(coeffs, ORD))
            entries.append(row)
        b = SeriesMatrix(entries)
        u = formal_flat_gauge(b)
        n_const = SeriesMatrix.from_scalar_matrix(b.at0(), ORD)
        assert u.at0() == linalg.identity(dim)
        assert u.theta_entries() == b * u - u * n_const


def test_formal_flat_gauge_rejects_invertible_residue():
    with pytest.raises(NotNilpotentResidue):
        formal_flat_gauge(smat([[1]]))


def test_gauge_transform_composes():
    rng = Random(22)
    b = smat([[0, [0, 1]], [[1, 2], 0]])
    g1 = flag_gauge(rng, (0, 0), ORD)
    g2 = flag_gauge(rng, (0, 0), ORD)
    once = gauge_transform(gauge_transform(b, g1), g2)
    assert once == gauge_transform(b, g1 * g2)


# --- Hodge-Tate splitting and canonical connection ------------------------

def test_canonical_connection_is_graded():
    rng = Random(23)
    d = random_dn(rng, 2, order=ORD, max_dim=2)
    geo = rees_to_geometric(from_normal_form(d))
    g = flag_gauge(rng, geo.levels2, ORD)
    scrambled = GeometricVHS(conn=gauge_transform(geo.conn, g),
                             levels2=geo.levels2, pairing=None,
                             parity=geo.parity)
    canon = to_canonical_connection(scrambled)
    for i in range(geo.rank):
        for j in range(geo.rank):
            if canon.levels2[i] != canon.levels2[j] - 2:
                assert canon.a_series.entry(i, j).is_zero()


def test_not_hodge_tate():
    # zero residue concentrates weight 0; levels (1,-1) cannot split it
    b = smat([[0, [0, 1]], [0, 0]])
    with pytest.raises(NotHodgeTate):
        to_canonical_connection(
            GeometricVHS(conn=b, levels2=(1, -1), pairing=None, parity=1))


def ref_split(g):
    """hodge_tate_split by the per-column recurrence of Scalar sums that
    the level-at-once kernel solve replaced: z_m below the level of
    column j is -S^-1 sum_l (U p0)_l z_(m-l) on the rows below it."""
    dim, order = g.rank, g.order
    u = formal_flat_gauge(g.conn)
    pieces = nilpotent.graded_splitting(g.conn.at0(), g.levels2)
    col_levels = [lv for lv in sorted(pieces, reverse=True)
                  for _ in pieces[lv]]
    p0_cols = [v for lv in sorted(pieces, reverse=True) for v in pieces[lv]]
    p0 = [[p0_cols[j][i] for j in range(dim)] for i in range(dim)]
    t = u.scalar_right_mul(p0).coeffs
    cols = []
    for j in range(dim):
        low_rows = [i for i in range(dim) if g.levels2[i] < col_levels[j]]
        low_cols = [c for c in range(dim) if col_levels[c] < col_levels[j]]
        z = [[ONE if c == j else ZERO for c in range(dim)]]
        for m in range(1, order):
            zm = [ZERO] * dim
            if low_rows:
                s_inv = linalg.inverse([[p0[i][c] for c in low_cols]
                                        for i in low_rows])
                rhs = []
                for i in low_rows:
                    s_val = ZERO
                    for l in range(1, m + 1):
                        for c in range(dim):
                            s_val = s_val + t[l][i][c] * z[m - l][c]
                    rhs.append(-s_val)
                for c, x in zip(low_cols, mat_vec(s_inv, rhs)):
                    zm[c] = x
            z.append(zm)
        cols.append([mat_vec(p0, zk) for zk in z])
    return SeriesMatrix.from_coefficients(
        [[[cols[j][k][i] for j in range(dim)] for i in range(dim)]
         for k in range(order)], dim, dim), tuple(col_levels)


def scrambled_dn(seed, n, mixed, gaussian):
    """A random D_n object as a GeometricVHS, moved by a random q-dependent
    flag-preserving gauge and, when gaussian, pulled back along a non-real
    dilation."""
    rng = Random(seed)
    d = random_dn(rng, n, order=ORD, max_dim=2, mixed=mixed)
    geo = rees_to_geometric(from_normal_form(d))
    conn = gauge_transform(geo.conn, flag_gauge(rng, geo.levels2, ORD))
    if gaussian:
        conn = conn.dilate(Scalar(Fraction(1, 2), Fraction(-3, 5)))
    return GeometricVHS(conn=conn, levels2=geo.levels2, pairing=None,
                        parity=geo.parity)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from((3, 4)), st.booleans(),
       st.booleans())
def test_split_matches_the_per_column_recurrence(seed, n, mixed, gaussian):
    scrambled = scrambled_dn(seed, n, mixed, gaussian)
    assert hodge_tate_split(scrambled) == ref_split(scrambled)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from((3, 4)), st.booleans(),
       st.booleans())
def test_canonical_connection_matches_the_gauge_by_the_split(seed, n, mixed,
                                                             gaussian):
    """The reference route through the splitting P of ref_split: the
    connection P^-1 (N P - theta P) of the constant residue N, and the
    frame U P, U the flat gauge."""
    scrambled = scrambled_dn(seed, n, mixed, gaussian)
    canon = to_canonical_connection(scrambled)
    p_ref, levels = ref_split(scrambled)
    residue = SeriesMatrix.from_scalar_matrix(scrambled.conn.at0(), ORD)
    assert canon.levels2 == levels
    assert canon.a_series == gauge_transform(residue, p_ref)
    assert canon.frame == formal_flat_gauge(scrambled.conn) * p_ref


def test_degree_violation():
    # mixed parity: a level-0 piece fed from level 1 by a q-term leaves
    # a degree -1 component that no splitting removes
    b = smat([[0, 0, 0], [[0, 1], 0, 0], [1, 0, 0]])
    g = GeometricVHS(conn=b, levels2=(1, 0, -1), pairing=None, parity=1)
    with pytest.raises(DegreeViolation):
        to_canonical_connection(g)


def test_degree_violation_names_its_order_and_entry():
    # the level-1 -> level-0 term q^2 passes the constructor's check and
    # no frame compatible with the splitting removes it; nothing at q^1
    b = smat([[0, 0, 0], [[0, 0, 1], 0, 0], [1, 0, 0]])
    g = GeometricVHS(conn=b, levels2=(1, 0, -1), pairing=None, parity=1)
    with pytest.raises(DegreeViolation,
                       match=r"nonzero at q\^2, entry \(1,0\), which relates "
                             r"levels 1 -> 0"):
        to_canonical_connection(g)


def test_mirror_invariant_under_q_dependent_gauge():
    rng = Random(24)
    done = 0
    while done < 3:
        d = random_dn(rng, rng.choice((2, 3)), order=ORD, max_dim=1)
        geo = rees_to_geometric(from_normal_form(d))
        base = GeometricVHS(conn=geo.conn, levels2=geo.levels2,
                            pairing=None, parity=geo.parity)
        g = flag_gauge(rng, geo.levels2, ORD)
        moved = GeometricVHS(conn=gauge_transform(geo.conn, g),
                             levels2=geo.levels2, pairing=None,
                             parity=geo.parity)
        try:
            ra = to_normal_form(base, normalization=Scalar(3))
            rb = to_normal_form(moved, normalization=Scalar(3))
        except PairingUnderdetermined:
            continue  # legitimate for unlucky draws; redraw
        assert ra.mirror_coordinate == COORD
        assert rb.mirror_coordinate == COORD
        assert ra.dn.graded_dims == rb.dn.graded_dims
        done += 1


def test_normal_form_invariant_under_constant_gauge():
    rng = Random(25)
    for n in (2, 3):
        d = random_dn(rng, n, order=ORD, max_dim=2)
        geo = rees_to_geometric(from_normal_form(d))
        g = flag_gauge(rng, geo.levels2, ORD, constant=True)
        moved = GeometricVHS(conn=gauge_transform(geo.conn, g),
                             levels2=geo.levels2,
                             pairing=g.transpose() * geo.pairing * g,
                             parity=geo.parity)
        ra = to_normal_form(geo, normalization=Scalar(2))
        rb = to_normal_form(moved, normalization=Scalar(2))
        assert ra.mirror_coordinate == rb.mirror_coordinate
        assert ra.dn.graded_dims == rb.dn.graded_dims
        vol, n_top = ra.dn.volume_index, ra.dn.n
        partner = ra.dn.rank - 1 if ra.dn.degrees[-1] == n_top else None
        assert partner is not None
        assert ra.dn.pairing0_matrix()[vol][partner] == \
            rb.dn.pairing0_matrix()[vol][partner]


# --- pairing extension ----------------------------------------------------

def test_extend_pairing_flat():
    rng = Random(26)
    for _ in range(3):
        a, m0 = random_flat_pair(rng, order=ORD)
        m = extend_pairing(a, m0)
        assert m.at0() == m0
        residual = m.theta_entries() - (a.transpose() * m + m * a)
        assert residual.is_zero()


def test_extend_pairing_rejects_bad_seed():
    a = smat([[0, 0], [1, 0]])
    bad = [[ZERO, ONE], [ONE, ZERO]]
    with pytest.raises(ResidueNotCompatible):
        extend_pairing(a, bad)


def test_extend_pairing_non_nilpotent_residue_does_not_terminate():
    # M0 is skew for A(0) = diag(1, -1), but A(0)^T X + X A(0) scales
    # the (1,1) and (0,0) entries by -2 and 2: the Neumann sum for the
    # A_1 term never ends
    a0 = [[ONE, ZERO], [ZERO, Scalar(-1)]]
    a1 = [[ZERO, ONE], [ZERO, ZERO]]
    a = SeriesMatrix.from_coefficients([a0, a1], 2, 2)
    m0 = [[ZERO, ONE], [ONE, ZERO]]
    with pytest.raises(ResidueNotCompatible, match="does not terminate"):
        extend_pairing(a, m0)


def test_extend_pairing_dn_mode_fixes_graded_constants():
    # for a graded object the self-adjoint seed extends without any
    # higher-order correction
    rng = Random(27)
    d = random_dn(rng, 3, order=ORD, max_dim=2)
    p0 = d.pairing0_matrix()
    rank = d.rank
    m0 = [[p0[i][j] * Scalar.i_power(-d.degrees[j]) for j in range(rank)]
          for i in range(rank)]
    ext = extend_pairing(d.a_series, m0, mode="dn", degrees=d.degrees)
    assert ext == SeriesMatrix.from_scalar_matrix(m0, ORD)


def test_extend_pairing_dn_mode_rejects():
    a = smat([[0, 0], [1, 0]])
    seed = [[ZERO, ZERO], [ZERO, ONE]]
    with pytest.raises(ResidueNotCompatible):
        extend_pairing(a, seed, mode="dn", degrees=(-1, 1))
    with pytest.raises(ValueError):
        extend_pairing(a, seed, mode="dn")
    with pytest.raises(ValueError):
        extend_pairing(a, seed, mode="other")


# --- pairing construction -------------------------------------------------

def test_constructed_pairing_matches_quintic_convention():
    h = Series([Scalar(1), Scalar(3), Scalar(2)], ORD)
    b = SeriesMatrix([[Series.zero(ORD), Series.zero(ORD)],
                      [h, Series.zero(ORD)]])
    g = GeometricVHS(conn=b, levels2=(1, -1), pairing=None, parity=1)
    rep = to_normal_form(g, normalization=Scalar(5))
    p0 = rep.dn.pairing0_matrix()
    minus_5i = Scalar.of(Fraction(-5)) * Scalar.i_power(1)
    assert p0[0][1] == minus_5i
    assert p0[1][0] == Scalar(5) * Scalar.i_power(1)
    assert p0[0][0].is_zero() and p0[1][1].is_zero()


def test_pairing_underdetermined():
    # two independent weight chains leave a 2-parameter solution space
    b = smat([[0, 0, 0, 0],
              [1, 0, 0, 0],
              [0, 0, 0, 0],
              [0, 1, 0, 0]])
    g = GeometricVHS(conn=b, levels2=(2, 0, 0, -2), pairing=None, parity=0)
    with pytest.raises(PairingUnderdetermined):
        to_normal_form(g)


def test_zero_normalization_rejected():
    h = Series.one(ORD)
    with pytest.raises(ZeroScalar):
        to_normal_form(anchor(h), normalization=Scalar(0))


# --- Rees module lifts ----------------------------------------------------

def test_rees_roundtrip():
    rng = Random(28)
    for _ in range(5):
        r = random_rees(rng, order=ORD)
        geo = rees_to_geometric(r)
        back = geometric_to_rees(geo)
        assert back == r
        report = verify_prevhs(r)
        assert all(report.values()), report


def test_rees_roundtrip_through_normal_form():
    rng = Random(29)
    d = random_dn(rng, 3, order=ORD, max_dim=2)
    r = from_normal_form(d)
    geo = rees_to_geometric(r)
    rep = to_normal_form(geo)
    assert rep.mirror_coordinate == COORD
    assert rep.dn == d


def test_geometric_to_rees_validation():
    zero = SeriesMatrix.zeros(2, 2, ORD)
    sym = smat([[1, 0], [0, 0]])
    no_pairing = GeometricVHS(conn=zero, levels2=(1, 0), pairing=None,
                              parity=0)
    with pytest.raises(ValueError):
        geometric_to_rees(no_pairing)

    mixed_conn = GeometricVHS(conn=smat([[0, 0], [[0, 1], 0]]),
                              levels2=(1, 0), pairing=sym, parity=0)
    with pytest.raises(InconsistentLift):
        geometric_to_rees(mixed_conn)

    mixed_pair = GeometricVHS(conn=zero, levels2=(1, 0),
                              pairing=smat([[0, 1], [1, 0]]), parity=0)
    with pytest.raises(InconsistentLift):
        geometric_to_rees(mixed_pair)

    neg_power = GeometricVHS(conn=zero, levels2=(1, 1),
                             pairing=smat([[0, 1], [1, 0]]), parity=0)
    with pytest.raises(InconsistentLift):
        geometric_to_rees(neg_power)

    ok = GeometricVHS(conn=zero, levels2=(1, -1),
                      pairing=smat([[0, 1], [1, 0]]), parity=0)
    with pytest.raises(InconsistentLift):
        geometric_to_rees(ok, degree_choice=[1, -1])
    lifted = geometric_to_rees(ok, degree_choice=[-1, 1])
    assert lifted.degrees == (-1, 1)


def test_verify_prevhs_flags_broken_covariance():
    rng = Random(30)
    d = random_dn(rng, 2, order=ORD, max_dim=1)
    r = from_normal_form(d)
    conn = dict(r.conn_u)
    bump = SeriesMatrix(
        [[Series([ZERO, ONE], r.order) if (i, j) == (1, 0)
          else Series.zero(r.order) for j in range(r.rank)]
         for i in range(r.rank)])
    conn[-1] = conn[-1] + bump
    broken = ReesModule(r.degrees, conn, dict(r.pairing_u), r.parity,
                        order=r.order)
    report = verify_prevhs(broken)
    assert report["grading"]
    assert not report["covariant_constancy"]


def test_from_normal_form_demands_all_orders():
    # pointwise-skew at q=0 but failing at order 1
    a = smat([[0, 0, 0], [1, 0, 0], [0, [-1, 1], 0]])
    p0 = [[ZERO, ZERO, ONE], [ZERO, ONE, ZERO], [ONE, ZERO, ZERO]]
    d = DnObject(n=2, graded_dims={-2: 1, 0: 1, 2: 1}, pairing0=p0,
                 a_series=a)
    with pytest.raises(InvariantViolation):
        from_normal_form(d)


def _one_term(rank, order, power, terms):
    """The matrix with sign * q^power at each entry (i, j) of terms."""
    cells = [[Series.zero(order)] * rank for _ in range(rank)]
    for (i, j), sign in terms.items():
        cells[i][j] = Series([ZERO] * power + [Scalar(sign)], order)
    return SeriesMatrix(cells)


def test_pairing_failure_names_its_q_order():
    rng = Random(33)
    d = random_dn(rng, 3, order=ORD, max_dim=1)
    geo = rees_to_geometric(from_normal_form(d))
    top, bottom = 0, geo.rank - 1
    # symmetric for parity 1: entry (j, i) is minus entry (i, j)
    spoiled = geo.pairing + _one_term(geo.rank, ORD, 3,
                                      {(top, bottom): 1, (bottom, top): -1})
    with pytest.raises(InvariantViolation,
                       match=r"not covariantly constant.*q\^3, entry"):
        GeometricVHS(conn=geo.conn, levels2=geo.levels2, pairing=spoiled,
                     parity=geo.parity)


def test_self_adjointness_failure_names_its_q_order():
    rng = Random(34)
    d = random_dn(rng, 3, order=ORD, max_dim=1)
    # degree -1 -> 1 -> 3: the top entry of A, free of the pointwise
    # checks above q^0
    top, below = d.degrees.index(3), d.degrees.index(1)
    a = d.a_series + _one_term(d.rank, ORD, 2, {(top, below): 1})
    spoiled = DnObject(n=d.n, graded_dims=d.graded_dims,
                       pairing0=d.pairing0_matrix(), a_series=a)
    with pytest.raises(InvariantViolation,
                       match=r"self-adjoint.*q\^2, entry"):
        from_normal_form(spoiled)


# --- coordinate rescale and Yukawa ----------------------------------------

def test_rescale_coordinate():
    rng = Random(31)
    d = random_dn(rng, 3, order=ORD, max_dim=1)
    c = Scalar(Fraction(3, 2))
    back = rescale_coordinate(rescale_coordinate(d, c), c.inverse())
    assert back == d
    with pytest.raises(ZeroScalar):
        rescale_coordinate(d, Scalar(0))


def test_rescale_dilates_yukawa():
    rng = Random(32)
    d = random_dn(rng, 3, order=ORD, max_dim=1)
    c = Scalar(2)
    assert yukawa(rescale_coordinate(d, c)) == \
        yukawa(d).dilate(c.inverse())


def test_yukawa_constant_connection():
    h = Series.one(ORD)
    rep = to_normal_form(anchor(h), normalization=Scalar(5))
    assert yukawa(rep.dn).coefficient(0) != ZERO


def test_yukawa_errors():
    zero = SeriesMatrix.zeros(2, 2, ORD)
    no_pairing = GeometricVHS(conn=zero, levels2=(1, -1), pairing=None,
                              parity=1)
    with pytest.raises(ValueError):
        yukawa(no_pairing)
    wide_top = GeometricVHS(
        conn=SeriesMatrix.zeros(4, 4, ORD), levels2=(1, 1, -1, -1),
        pairing=smat([[0, 0, 1, 0], [0, 0, 0, 1],
                      [-1, 0, 0, 0], [0, -1, 0, 0]]),
        parity=1)
    with pytest.raises(NoVolumeForm):
        yukawa(wide_top)
    with pytest.raises(TypeError):
        yukawa("nope")


# --- constructor validation ----------------------------------------------

def test_dn_object_rejects_bad_data():
    a = smat([[0, 0], [1, 0]])
    p0 = [[ZERO, ONE], [Scalar(-1), ZERO]]
    with pytest.raises(InvariantViolation):
        DnObject(n=1, graded_dims={-1: 2, 1: 1}, pairing0=p0, a_series=a)
    with pytest.raises(InvariantViolation):
        DnObject(n=1, graded_dims={-1: 1, 3: 1}, pairing0=p0, a_series=a)
    diag_pairing = [[ONE, ZERO], [ZERO, ONE]]
    with pytest.raises(InvariantViolation):
        DnObject(n=1, graded_dims={-1: 1, 1: 1}, pairing0=diag_pairing,
                 a_series=a)
    raising = smat([[0, 1], [1, 0]])
    with pytest.raises(InvariantViolation):
        DnObject(n=1, graded_dims={-1: 1, 1: 1}, pairing0=p0,
                 a_series=raising)
    not_iso = smat([[0, 0], [0, 0]])
    with pytest.raises(InvariantViolation):
        DnObject(n=1, graded_dims={-1: 1, 1: 1}, pairing0=p0,
                 a_series=not_iso)


def test_geometric_vhs_rejects_bad_data():
    with pytest.raises(InvariantViolation):
        GeometricVHS(conn=smat([[0, 0], [0, 0], ][0:2]), levels2=(1, -1),
                     pairing=smat([[0, 1], [1, 0]]), parity=1)
    with pytest.raises(InvariantViolation):
        GeometricVHS(conn=smat([[0, 1], [0, 0]]), levels2=(-2, 2),
                     pairing=None, parity=0)


def test_rees_module_rejects_empty():
    with pytest.raises(vshs.NotFree):
        ReesModule((), {}, {}, 0, order=4)
