"""The normal-form machinery.

The anchor fixture is small enough to integrate by hand: for a rank-2
connection with lower-left entry h(q), the canonical coordinate is
q exp(theta^{-1}(h/h(0) - 1)), and everything downstream of it is
checked against series built independently from h.
"""
import tracemalloc
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vshstools import linalg, nilpotent, picard_fuchs, series, vshs
from vshstools.linalg import Accumulator, Lifted
from vshstools.scalars import ONE, ZERO, Scalar
from vshstools.series import Series, SeriesMatrix
from vshstools.vshs import (DegreeViolation, DnObject, GeometricVHS,
                            InconsistentLift, InvariantViolation,
                            NotHodgeTate, NotNilpotentResidue,
                            NotProportional, ReesModule,
                            ResidueNotCompatible, ZeroKS, ZeroScalar,
                            canonical_coordinate, extend_pairing,
                            formal_flat_gauge, from_normal_form,
                            geometric_to_rees, rees_to_geometric,
                            rescale_coordinate, to_canonical_connection,
                            to_normal_form, verify_prevhs, yukawa)

from genutil import (block_diagonal, extend_pairing_two_products,
                     first_asymmetry, gauge_transform, horner, mat_neg,
                     mat_vec, pairing_residual, rand_fraction, rand_scalar,
                     random_dn, random_flat_pair, random_rees,
                     yukawa_by_derivatives)

ORD = 8
COORD = Series.coordinate(ORD)
RATIONALS = st.fractions(-5, 5, max_denominator=4)
GAUSSIAN = st.builds(Scalar, RATIONALS, RATIONALS).filter(
    lambda c: not c.is_zero())


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


def unpaired(geo):
    """geo without its pairing, for a normal form given a volume."""
    return GeometricVHS(conn=geo.conn, levels2=geo.levels2, pairing=None,
                        parity=geo.parity)


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
    """The Hodge-Tate splitting P, the canonical frame in the flat frame,
    with its levels, by the per-column recurrence of Scalar sums that
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
@given(st.integers(0, 2 ** 32), st.sampled_from((2, 3, 4)), st.booleans(),
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


@pytest.mark.parametrize("a0_entry, y_entry, fed, first",
                         [((2, 0), (0, 1), (2, 1), (2, 1)),
                          ((3, 1), (1, 2), (3, 2), (3, 0))])
def test_degree_violation_names_the_row_major_first_entry(a0_entry, y_entry,
                                                          fed, first):
    """Levels 3, 2, 1, 0 and A_0 one grade -2 entry.  R_k holds a grade-1
    entry, which Y_k keeps and [A_0, Y_k] carries to the grade -1 entry
    `fed`, and the grade -3 entry (3, 0), which is R alone.  The message
    names whichever comes first row by row, and `fed` when it is alone."""
    lev = (3, 2, 1, 0)
    a0 = linalg.zeros(4, 4)
    a0[a0_entry[0]][a0_entry[1]] = Scalar(2)
    for planted, named in (({y_entry: 5, (3, 0): 7}, first),
                           ({y_entry: 5}, fed)):
        r_mat = linalg.zeros(4, 4)
        for (i, j), x in planted.items():
            r_mat[i][j] = Scalar(Fraction(x, 3))
        r = Accumulator(4, 4)
        r.add_product(Lifted.of(r_mat), Lifted.of(linalg.identity(4)))
        with pytest.raises(DegreeViolation) as failure:
            vshs._graded_pass(r, 3, Lifted.of(a0), lev)
        i, j = named
        assert str(failure.value) == (
            f"canonical connection is nonzero at q^3, entry ({i},{j}), "
            f"which relates levels {lev[j]} -> {lev[i]}")


def test_a_residue_off_grade_minus_two_is_refused(monkeypatch):
    """A_0 has grade -2 for every splitting graded_splitting returns; a
    splitting with the two levels swapped gives it grade +2, which the
    one-time check refuses."""
    monkeypatch.setattr(nilpotent, "graded_splitting",
                        lambda n_mat, levels2: {1: [[ZERO, ONE]],
                                                -1: [[ONE, ZERO]]})
    b = smat([[0, 0], [1, 0]])
    g = GeometricVHS(conn=b, levels2=(1, -1), pairing=None, parity=1)
    with pytest.raises(NotNilpotentResidue,
                       match=r"^ad of the residue does not terminate$"):
        to_canonical_connection(g)


def test_the_canonical_connection_takes_no_neumann_sum(monkeypatch):
    """The quintic normal form at order 16 runs the graded pass only; its
    mirror map is the Frobenius one."""
    def refuse(*args):
        raise AssertionError("the canonical connection took a Neumann sum")

    monkeypatch.setattr(vshs, "_neumann_sum", refuse)
    data = Path(__file__).resolve().parent.parent / "data"
    op = picard_fuchs.parse_pf((data / "quintic.pf.txt").read_text())
    report = to_normal_form(picard_fuchs.companion_vhs(op, 16), Scalar(5))
    assert report.mirror_coordinate == picard_fuchs.mirror_map_frobenius(
        picard_fuchs.frobenius_solve(op, 2, 16))


def test_the_identity_gauge_takes_no_constant_product(monkeypatch):
    """graded_splitting returns the identity as p0 for the quintic
    companion connection, so at order 16 the canonical connection sums
    one R_k per q-order and forms neither p0^-1 b p0 nor the frame Y p0:
    order - 1 calls of sum_products once the splitting is given."""
    data = Path(__file__).resolve().parent.parent / "data"
    op = picard_fuchs.parse_pf((data / "quintic.pf.txt").read_text())
    g = picard_fuchs.companion_vhs(op, 16)
    pieces = nilpotent.graded_splitting(g.conn.at0(), g.levels2)
    calls = []
    kernel = linalg.sum_products

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(nilpotent, "graded_splitting", lambda *args: pieces)
    monkeypatch.setattr(linalg, "sum_products", counting)
    monkeypatch.setattr(series, "sum_products", counting)
    canon = to_canonical_connection(g)
    monkeypatch.undo()
    assert len(calls) == g.order - 1
    assert canon.frame.at0() == linalg.identity(g.rank)
    m = canon.a_series
    assert m.scalar_left_mul(linalg.identity(m.rows)) is m
    assert m.scalar_right_mul(linalg.identity(m.cols)) is m


def test_mirror_invariant_under_q_dependent_gauge():
    rng = Random(24)
    for _ in range(3):
        d = random_dn(rng, rng.choice((2, 3)), order=ORD, max_dim=1)
        geo = rees_to_geometric(from_normal_form(d))
        base = unpaired(geo)
        g = flag_gauge(rng, geo.levels2, ORD)
        moved = GeometricVHS(conn=gauge_transform(geo.conn, g),
                             levels2=geo.levels2, pairing=None,
                             parity=geo.parity)
        ra = to_normal_form(base, Scalar(3))
        rb = to_normal_form(moved, Scalar(3))
        assert ra.mirror_coordinate == COORD
        assert rb.mirror_coordinate == COORD
        assert ra.dn.graded_dims == rb.dn.graded_dims


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
        ra = to_normal_form(geo)
        rb = to_normal_form(moved)
        assert ra.mirror_coordinate == rb.mirror_coordinate
        assert ra.dn.graded_dims == rb.dn.graded_dims
        # the transported pairing keeps the gauge's scale of the volume
        # vector, which multiplies the Yukawa series by its square
        ya, yb = yukawa(ra.dn), yukawa(rb.dn)
        assert ya * ya.coefficient(0).inverse() == \
            yb * yb.coefficient(0).inverse()


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
    # the flat solve from the twisted pairing of a graded object, the
    # call the retired "dn" mode made: the seed extends without any
    # higher-order correction
    rng = Random(27)
    d = random_dn(rng, 3, order=ORD, max_dim=2)
    p0 = d.pairing0_matrix()
    ext = extend_pairing(d.a_series, p0, mode="flat")
    assert ext == SeriesMatrix.from_scalar_matrix(p0, ORD)


def test_extend_pairing_dn_mode_rejects():
    # "dn" is retired: it is an unknown mode like any other
    a = smat([[0, 0], [1, 0]])
    seed = [[ZERO, ZERO], [ZERO, ONE]]
    with pytest.raises(ResidueNotCompatible):
        extend_pairing(a, seed)
    for mode in ("dn", "other"):
        with pytest.raises(ValueError, match="unknown mode"):
            extend_pairing(a, seed, mode=mode)


def _invertible(rng, dim):
    while True:
        p = [[rand_scalar(rng, 2) for _ in range(dim)] for _ in range(dim)]
        p_inv = linalg.try_inverse(p)
        if p_inv is not None:
            return p, p_inv


def _is_pure(m):
    mt = linalg.transpose(m)
    return m == mt or m == mat_neg(mt)


def test_extend_pairing_matches_the_two_product_reference():
    rng = Random(36)
    pairs = {}
    while len(pairs) < 2:  # a symmetric and an antisymmetric seed
        a, m0 = random_flat_pair(rng, order=ORD)
        pairs.setdefault(m0 == linalg.transpose(m0), (a, m0))
    for a, m0 in pairs.values():
        assert extend_pairing(a, m0) == extend_pairing_two_products(a, m0)
    # mixed: the two side by side, moved by a constant gauge p so that
    # both parts of the seed fill the matrix
    (a1, s0), (a2, k0) = pairs[True], pairs[False]
    dim = a1.rows + a2.rows
    p, p_inv = _invertible(rng, dim)
    a = block_diagonal(a1, a2).scalar_left_mul(p_inv).scalar_right_mul(p)
    m0 = block_diagonal(SeriesMatrix.from_scalar_matrix(s0, 1),
                        SeriesMatrix.from_scalar_matrix(k0, 1)).at0()
    m0 = linalg.mat_mul(linalg.transpose(p), linalg.mat_mul(m0, p))
    assert not _is_pure(m0)
    assert extend_pairing(a, m0) == extend_pairing_two_products(a, m0)
    zero = linalg.zeros(dim, dim)
    assert extend_pairing(a, zero) == SeriesMatrix.zeros(dim, dim, ORD) \
        == extend_pairing_two_products(a, zero)


def test_extend_pairing_dn_mode_on_mixed_parity_matches_the_reference():
    rng = Random(37)
    # a mixed-parity threefold object beside a surface's: the seed,
    # diag(P0, P0'), is skew on one block and symmetric on the other,
    # and the flat solve from it is the call the retired "dn" mode made
    d3 = random_dn(rng, 3, order=ORD, max_dim=2, mixed=True)
    d2 = random_dn(rng, 2, order=ORD, max_dim=2)
    dim = d3.rank + d2.rank
    # A(0) is kept, the higher orders are free
    a = block_diagonal(d3.a_series, d2.a_series) + \
        SeriesMatrix.from_coefficients(
            [linalg.zeros(dim, dim)] + [[[rand_scalar(rng, 2, True)
                                          for _ in range(dim)]
                                         for _ in range(dim)]
                                        for _ in range(ORD - 1)], dim, dim)
    p0 = block_diagonal(SeriesMatrix.from_scalar_matrix(
        d3.pairing0_matrix(), 1), SeriesMatrix.from_scalar_matrix(
            d2.pairing0_matrix(), 1)).at0()
    assert not _is_pure(p0)
    ext = extend_pairing(a, p0, mode="flat")
    assert ext == extend_pairing_two_products(a, p0)
    assert not ext.is_zero()


def test_extend_pairing_checks_the_seed_shape():
    a = SeriesMatrix.zeros(3, 3, ORD)
    for seed in (linalg.zeros(2, 2), linalg.zeros(4, 4), [],
                 linalg.zeros(3, 2)):
        with pytest.raises(ValueError, match="^pairing shape mismatch: "
                                             r"the seed is \d x \d, A is "
                                             r"3 x 3$"):
            extend_pairing(a, seed)


def test_formal_flat_gauge_refuses_a_non_square_connection():
    with pytest.raises(ValueError, match="must be square, not 2 x 3") \
            as caught:
        formal_flat_gauge(smat([[0, 0, 0], [1, 0, 0]]))
    assert type(caught.value) is ValueError


def _unimodular(rng, dim):
    """A random integer matrix of determinant 1, a unit lower triangular
    times a unit upper triangular one, and its inverse."""
    def unit():
        return [[Scalar(rng.randint(-2, 2)) if j < i else
                 ONE if i == j else ZERO for j in range(dim)]
                for i in range(dim)]

    u = linalg.mat_mul(unit(), linalg.transpose(unit()))
    return u, linalg.inverse(u)


def _triangular_in_some_order(m):
    """Whether some order of the indices makes m triangular: whether the
    graph of its off-diagonal entries has no cycle."""
    left = set(range(len(m)))
    while left:
        sinks = {i for i in left if all(m[i][j].is_zero()
                                        for j in left - {i})}
        if not sinks:
            return False
        left -= sinks
    return True


def _gaussian(rng):
    return Scalar(rand_fraction(rng, 3) or 1, rand_fraction(rng, 3) or -1)


def _frame_moved_pair(rng, order, gaussian, mixed):
    """A compatible (A, M0) from random_flat_pair, beside one of the other
    parity if mixed, times non-real scalars and with non-real q^k terms
    added if gaussian, then moved by a unimodular constant gauge."""
    a, m0 = random_flat_pair(rng, order=order)
    if mixed:
        parity = m0 != linalg.transpose(m0)
        while True:
            b, n0 = random_flat_pair(rng, order=order)
            if (n0 != linalg.transpose(n0)) != parity:
                break
        a = block_diagonal(a, b)
        m0 = block_diagonal(SeriesMatrix.from_scalar_matrix(m0, 1),
                            SeriesMatrix.from_scalar_matrix(n0, 1)).at0()
    dim = a.rows
    if gaussian:
        a = a * _gaussian(rng) + SeriesMatrix.from_coefficients(
            [linalg.zeros(dim, dim)] + [[[_gaussian(rng) for _ in range(dim)]
                                         for _ in range(dim)]
                                        for _ in range(order - 1)], dim, dim)
        c = _gaussian(rng)
        m0 = [[x * c for x in row] for row in m0]
    u, u_inv = _unimodular(rng, dim)
    a = a.scalar_left_mul(u_inv).scalar_right_mul(u)
    m0 = linalg.mat_mul(linalg.transpose(u), linalg.mat_mul(m0, u))
    return a, m0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans(), st.booleans())
def test_neumann_kernel_matches_the_references(seed, gaussian, mixed):
    """Both callers of the integer Neumann kernel, on A(0) with a support
    that is triangular in no index order: extend_pairing equals the
    two-product reference, and formal_flat_gauge solves its equation."""
    order = 5
    a, m0 = _frame_moved_pair(Random(seed), order, gaussian, mixed)
    assume(not _triangular_in_some_order(a.at0()))
    if mixed:
        assert not _is_pure(m0)
    assert extend_pairing(a, m0) == extend_pairing_two_products(a, m0)
    u = formal_flat_gauge(a)
    assert u.at0() == linalg.identity(a.rows)
    assert u.theta_entries() == \
        a * u - u * SeriesMatrix.from_scalar_matrix(a.at0(), order)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_a_non_nilpotent_residue_does_not_terminate(seed, gaussian):
    """A(0) = diag(c, -c) moved by a unimodular gauge, with a compatible
    symmetric seed: the (0, 1) entry of A_1 feeds the (1, 1) slot, which
    L scales by -2c, so the Neumann sum never ends."""
    rng = Random(seed)
    c = _gaussian(rng) if gaussian else rand_fraction(rng, 3) or ONE
    a0 = [[Scalar.of(c), ZERO], [ZERO, -Scalar.of(c)]]
    a1 = [[rand_scalar(rng), ONE], [rand_scalar(rng), rand_scalar(rng)]]
    u, u_inv = _unimodular(rng, 2)
    a = SeriesMatrix.from_coefficients([a0, a1], 2, 2) \
        .scalar_left_mul(u_inv).scalar_right_mul(u)
    m0 = linalg.mat_mul(linalg.transpose(u), linalg.mat_mul(
        [[ZERO, ONE], [ONE, ZERO]], u))
    with pytest.raises(ResidueNotCompatible,
                       match="^residue action is not nilpotent; the "
                             "recursion does not terminate$"):
        extend_pairing(a, m0)


def test_the_flat_gauge_sum_gives_up_on_a_non_nilpotent_ad(monkeypatch):
    """With the nilpotency check of the residue skipped, ad_N for N =
    diag(1, -1) doubles the (0, 1) entry of b_1 at every step, so the
    Neumann sum of the flat gauge never ends: its step bound raises."""
    monkeypatch.setattr(nilpotent, "nilpotency_index", lambda n_mat: 1)
    with pytest.raises(NotNilpotentResidue,
                       match="^ad of the residue does not terminate$"):
        formal_flat_gauge(smat([[1, [0, 1]], [0, -1]]))


def _eps_symmetric(rng, dim, parity, gaussian):
    """A random matrix with M^T = (-1)^parity M."""
    m = linalg.zeros(dim, dim)
    for i in range(dim):
        for j in range(i + parity, dim):
            v = rand_scalar(rng, complex_ok=gaussian)
            m[i][j], m[j][i] = v, (-v if parity else v)
    return m


def _plant(m, k, i, j, delta, parity):
    """m plus delta (E_ij + eps E_ji) at q^k, eps = (-1)^parity."""
    coeffs = [linalg.copy_matrix(c) for c in m.coeffs]
    coeffs[k][i][j] = coeffs[k][i][j] + delta
    coeffs[k][j][i] = coeffs[k][j][i] + (-delta if parity else delta)
    return SeriesMatrix.from_coefficients(coeffs, m.rows, m.cols)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans(),
       st.sampled_from(("solution", "upper", "lower", "random",
                        "constant")), st.integers(0, 4))
def test_pairing_check_matches_the_scalar_residual(seed, gaussian, kind, k):
    """GeometricVHS checks theta M = A^T M + M A on the integer kernel,
    one product per term; the Scalar-level residual of genutil must give
    the same verdict and the same first (k, i, j)."""
    rng = Random(seed)
    order = 5
    a, m0 = random_flat_pair(rng, order=order)
    dim, parity = a.rows, int(m0 != linalg.transpose(m0))
    c = Scalar(Fraction(1, 2), Fraction(-3, 5)) if gaussian else Scalar(3)
    a = a.dilate(c)
    m = extend_pairing_two_products(a, m0) * c
    if kind in ("upper", "lower"):
        i, j = sorted(rng.sample(range(dim), 2), reverse=kind == "lower")
        m = _plant(m, k, i, j, rand_scalar(rng, complex_ok=gaussian) or ONE,
                   parity)
    elif kind == "random":
        m = SeriesMatrix.from_coefficients(
            [_eps_symmetric(rng, dim, parity, gaussian)
             for _ in range(order)], dim, dim)
    elif kind == "constant":
        m = SeriesMatrix.from_scalar_matrix(m0, order)
    hit = pairing_residual(a, m)
    try:
        GeometricVHS(conn=a, levels2=[0] * dim, pairing=m, parity=parity)
        failure = None
    except InvariantViolation as exc:
        failure = str(exc)
    if hit is None:
        assert failure is None
    else:
        assert failure == ("pairing is not covariantly constant: the "
                           f"residual is nonzero at q^{hit[0]}, entry "
                           f"({hit[1]},{hit[2]})")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 5), st.integers(1, 4),
       st.integers(0, 1), st.integers(0, 3))
def test_pairing_symmetry_names_the_first_asymmetric_entry(
        seed, dim, order, parity, spoiled):
    """GeometricVHS compares each pair (i, j), (j, i) on the integers of
    one lift; the Scalar loop of genutil must name the same first (i, j),
    i <= j, or none."""
    rng = Random(seed)
    coeffs = [_eps_symmetric(rng, dim, parity, True) for _ in range(order)]
    for _ in range(spoiled):
        k, i, j = (rng.randrange(n) for n in (order, dim, dim))
        coeffs[k][i][j] = rand_scalar(rng, complex_ok=True)
    m = SeriesMatrix.from_coefficients(coeffs, dim, dim)
    hit = first_asymmetry(m, parity)
    try:
        GeometricVHS(conn=SeriesMatrix.zeros(dim, dim, order),
                     levels2=[0] * dim, pairing=m, parity=parity)
        failure = None
    except InvariantViolation as exc:
        failure = str(exc)
    if hit is None:
        assert failure is None or "symmetry" not in failure
    else:
        assert failure == f"pairing symmetry fails at ({hit[0]},{hit[1]})"


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
    # two independent weight chains: a volume fixes one pairing value of
    # a 2-parameter family, and the volume basis has no chain to follow
    b = smat([[0, 0, 0, 0],
              [1, 0, 0, 0],
              [0, 0, 0, 0],
              [0, 1, 0, 0]])
    g = GeometricVHS(conn=b, levels2=(2, 0, 0, -2), pairing=None, parity=0)
    with pytest.raises(ValueError, match=r"^volume basis requires "
                       r"one-dimensional graded pieces$"):
        to_normal_form(g, Scalar(5))


@pytest.mark.parametrize("conn, levels2, parity, message", [
    ([[0, 0], [1, 0]], (1, -1), 0,
     "top level parity disagrees with the stated dimension parity"),
    ([[0, 0, 0], [0, 0, 0], [1, 0, 0]], (1, 0, -1), 1,
     "A(0) does not generate the frame from the volume vector"),
], ids=["parity", "no-volume-chain"])
def test_the_normal_form_refuses_a_frame_it_cannot_read(conn, levels2,
                                                        parity, message):
    g = GeometricVHS(conn=smat(conn, order=4), levels2=levels2,
                     pairing=None, parity=parity)
    with pytest.raises(InvariantViolation) as info:
        to_normal_form(g, Scalar(1))
    assert type(info.value) is InvariantViolation
    assert str(info.value) == message


def test_zero_normalization_rejected():
    h = Series.one(ORD)
    with pytest.raises(ZeroScalar):
        to_normal_form(unpaired(anchor(h)), Scalar(0))


def test_a_non_nilpotent_residue_is_refused_by_the_normal_form():
    g = GeometricVHS(conn=smat([[1, 0], [1, 0]]), levels2=(1, -1),
                     pairing=None, parity=1)
    with pytest.raises(NotNilpotentResidue, match=r"^N\^2 != 0$"):
        to_normal_form(g, Scalar(5))


@pytest.mark.parametrize("paired, volume",
                         [(True, Scalar(7)), (False, None)],
                         ids=["pairing-and-volume", "neither"])
def test_the_pairing_comes_from_exactly_one_place(paired, volume,
                                                  monkeypatch):
    """The input's pairing or a volume, never both or neither: either is
    refused before the canonical connection is computed."""
    def never(g):
        raise AssertionError("the canonical connection was computed")

    d = random_dn(Random(41), 3, order=ORD, max_dim=1)
    geo = rees_to_geometric(from_normal_form(d))
    monkeypatch.setattr(vshs, "to_canonical_connection", never)
    with pytest.raises(ValueError, match=r"^the pairing comes from exactly "
                       r"one place: "):
        to_normal_form(geo if paired else unpaired(geo), volume)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 6),
       st.one_of(RATIONALS.filter(bool).map(Scalar), GAUSSIAN))
def test_the_solved_pairing_is_the_one_the_volume_fixes(seed, n, volume):
    """Without a stored pairing, the frame runs along powers of A(0) from
    the volume vector, and the pairing is the one constant solution of
    degree 0, (-1)^n-symmetric and skew for A(0), whose top value is the
    prefactor times the volume."""
    d = random_dn(Random(seed), n, order=4, max_dim=1)
    report = to_normal_form(unpaired(rees_to_geometric(from_normal_form(d))),
                            volume)
    m, a0 = report.dn.pairing0_matrix(), report.dn.a_series.at0()
    degrees, rank = report.dn.degrees, report.dn.rank
    assert a0 == [[ONE if i == j + 1 else ZERO for j in range(rank)]
                  for i in range(rank)]
    skew = [[x + y for x, y in zip(r, s)] for r, s in
            zip(linalg.mat_mul(linalg.transpose(a0), m),
                linalg.mat_mul(m, a0))]
    assert linalg.is_zero_matrix(skew)
    assert all(m[i][j].is_zero() for i in range(rank) for j in range(rank)
               if degrees[i] + degrees[j])
    sign = Scalar(-1 if n % 2 else 1)
    assert linalg.transpose(m) == [[sign * x for x in row] for row in m]
    assert m[0][rank - 1] == vshs._prefactor(n) * volume


@pytest.mark.parametrize("volume, products", [(None, 0), (Scalar(7), 1)],
                         ids=["trivial-gauge", "volume-basis-and-volume"])
def test_the_normal_form_multiplies_the_frame_once(volume, products,
                                                   monkeypatch):
    """The diagonal gauge is applied once, to the frame, and not at all
    for a stored pairing; the composed connection is never conjugated."""
    d = random_dn(Random(41), 3, order=ORD, max_dim=1)
    geo = rees_to_geometric(from_normal_form(d))
    canon, seen = to_canonical_connection(geo), []
    monkeypatch.setattr(vshs, "to_canonical_connection", lambda g: canon)
    for name in ("scalar_left_mul", "scalar_right_mul"):
        def counted(self, m, method=getattr(SeriesMatrix, name), name=name):
            seen.append(name)
            return method(self, m)
        monkeypatch.setattr(SeriesMatrix, name, counted)
    report = to_normal_form(geo if volume is None else unpaired(geo), volume)
    assert seen == ["scalar_right_mul"] * products
    assert (report.dn == d) == (products == 0)


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
    with pytest.raises(InconsistentLift,
                       match=r"^connection entry \(1,0\) mixes parities$"):
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
    assert geometric_to_rees(ok).degrees == (-1, 1)


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
    # pointwise-skew at q=0 but failing at order 1: the constructor, the
    # one gate for the polarization, refuses it, so from_normal_form
    # never sees it
    a = smat([[0, 0, 0], [1, 0, 0], [0, [-1, 1], 0]])
    p0 = [[ZERO, ZERO, ONE], [ZERO, ONE, ZERO], [ONE, ZERO, ZERO]]
    with pytest.raises(InvariantViolation) as failure:
        DnObject(n=2, graded_dims={-2: 1, 0: 1, 2: 1}, pairing0=p0,
                 a_series=a)
    assert str(failure.value) == (
        "A(q) is not self-adjoint for the pairing: the residual is "
        "nonzero at q^1, entry (0,1)")


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


def pulled_back(d, f):
    """The D_n object d as a GeometricVHS in the coordinate q of Q = f(q),
    f a polynomial with f(0) = 0 and f'(0) = 1: the connection A(f(q))
    times theta log f, the constant pairing unchanged."""
    order = d.order
    geo = rees_to_geometric(from_normal_form(d))
    theta_log = Series(f.theta().coeffs[1:], order) * \
        Series(f.coeffs[1:], order).inverse()
    conn = SeriesMatrix([[horner(geo.conn.entry(i, j), f) * theta_log
                          for j in range(geo.rank)] for i in range(geo.rank)])
    return GeometricVHS(conn=conn, levels2=geo.levels2, pairing=geo.pairing,
                        parity=geo.parity)


@pytest.mark.parametrize("k, i, j", [(0, 1, 0), (2, 2, 2)])
def test_transported_pairing_failure_is_the_one_in_the_mirror_coordinate(
        k, i, j, monkeypatch):
    """to_normal_form checks the pairing F^T P F of the canonical frame F
    against the connection in q.  With entry (i, j) of F perturbed at
    q^k, the failure it names is the first residual in the canonical
    coordinate Q, where F^T P F is composed with q(Q)."""
    rng = Random(40 + k)
    d = random_dn(rng, 3, order=ORD, max_dim=1)
    f = Series([ZERO, ONE, Scalar(2), Scalar(Fraction(-1, 3))], ORD)
    geo = pulled_back(d, f)
    report = to_normal_form(geo)
    assert report.mirror_coordinate == f
    assert report.dn == d
    canonical = vshs.to_canonical_connection
    bump = rand_scalar(rng, complex_ok=True) or ONE

    def perturbed(g):
        canon = canonical(g)
        mats = [canon.frame.coefficient_matrix(m)
                for m in range(canon.frame.order)]
        mats[k][i][j] = mats[k][i][j] + bump
        return canon._replace(frame=SeriesMatrix.from_coefficients(
            mats, g.rank, g.rank))

    frame = perturbed(geo).frame
    m = frame.transpose() * geo.pairing * frame
    inverse_map = f.reverse()
    transported = SeriesMatrix([[horner(m.entry(a, b), inverse_map)
                                 for b in range(geo.rank)]
                                for a in range(geo.rank)])
    hit = pairing_residual(report.dn.a_series, transported)
    assert hit is not None
    monkeypatch.setattr(vshs, "to_canonical_connection", perturbed)
    with pytest.raises(InvariantViolation) as failure:
        to_normal_form(geo)
    assert str(failure.value) == (
        "transported pairing is not covariantly constant in the canonical "
        f"frame: the residual is nonzero at q^{hit[0]}, entry "
        f"({hit[1]},{hit[2]})")


def test_self_adjointness_failure_names_its_q_order():
    rng = Random(34)
    d = random_dn(rng, 3, order=ORD, max_dim=1)
    # degree -1 -> 1 -> 3: the top entry of A, free of the pointwise
    # checks above q^0
    top, below = d.degrees.index(3), d.degrees.index(1)
    a = d.a_series + _one_term(d.rank, ORD, 2, {(top, below): 1})
    with pytest.raises(InvariantViolation) as failure:
        DnObject(n=d.n, graded_dims=d.graded_dims,
                 pairing0=d.pairing0_matrix(), a_series=a)
    assert str(failure.value) == (
        "A(q) is not self-adjoint for the pairing: the residual is "
        f"nonzero at q^2, entry (0,{below})")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 5), st.booleans(),
       st.integers(1, 5), GAUSSIAN, st.data())
def test_the_constructor_checks_self_adjointness_at_every_order(
        seed, n, mixed, k, c, data):
    """K = P0 A with a term c q^k added at an off-diagonal (i, j) of
    degree -2: with its mirror (-1)^(n+1) c q^k at (j, i), the symmetry
    random_dn draws K with, A stays self-adjoint; alone, the constructor
    names exactly q^k and (min(i, j), max(i, j)).  The entries that touch
    V_-n are left out: the unit check refuses those first."""
    d = random_dn(Random(seed), n, order=6, max_dim=2, mixed=mixed)
    degrees, rank = d.degrees, d.rank
    slots = [(i, j) for i in range(rank) for j in range(rank)
             if i != j and degrees[i] + degrees[j] == -2
             and -n not in (degrees[i], degrees[j])]
    assume(slots)
    i, j = data.draw(st.sampled_from(slots))
    p0 = d.pairing0_matrix()
    p0_inv = linalg.inverse(p0)
    k_mat = d.a_series.scalar_left_mul(p0)

    def rebuilt(terms):
        bump = _one_term(rank, 6, k, terms) * c
        return DnObject(n=n, graded_dims=d.graded_dims, pairing0=p0,
                        a_series=(k_mat + bump).scalar_left_mul(p0_inv))

    assert rebuilt({(i, j): 1, (j, i): 1 if n % 2 else -1}).order == 6
    with pytest.raises(InvariantViolation) as failure:
        rebuilt({(i, j): 1})
    assert str(failure.value) == (
        "A(q) is not self-adjoint for the pairing: the residual is "
        f"nonzero at q^{k}, entry ({min(i, j)},{max(i, j)})")


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
    rep = to_normal_form(unpaired(anchor(h)), Scalar(5))
    assert yukawa(rep.dn).coefficient(0) != ZERO


def test_yukawa_errors():
    # a GeometricVHS is refused too: the coupling is read off D_n objects
    for obj in ("nope", anchor(Series.one(ORD))):
        with pytest.raises(TypeError):
            yukawa(obj)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 6), st.booleans(),
       st.booleans())
def test_yukawa_matches_the_derivative_reference(seed, n, mixed, gaussian):
    """<vol, A^n vol> against <vol, nabla^n vol> with the theta terms
    kept; gaussian pulls A back along a non-real dilation and scales
    the pairing by a non-real constant."""
    d = random_dn(Random(seed), n, order=6, max_dim=2, mixed=mixed)
    if gaussian:
        c = Scalar(Fraction(1, 2), Fraction(-3, 5))
        d = DnObject(n=n, graded_dims=d.graded_dims,
                     pairing0=[[c * x for x in row]
                               for row in d.pairing0_matrix()],
                     a_series=d.a_series.dilate(c))
    assert yukawa(d) == yukawa_by_derivatives(d)


def test_yukawa_multiplies_no_series_matrix(monkeypatch):
    """The quintic coupling steps the volume row over the support of A,
    entry by entry, with no SeriesMatrix product."""
    def refuse(*args):
        raise AssertionError("yukawa multiplied a SeriesMatrix")

    data = Path(__file__).resolve().parent.parent / "data"
    op = picard_fuchs.parse_pf((data / "quintic.pf.txt").read_text())
    dn = picard_fuchs.bmodel_normal_form(op, Scalar(5), 16).dn
    expected = yukawa_by_derivatives(dn)
    monkeypatch.setattr(SeriesMatrix, "__mul__", refuse)
    assert yukawa(dn) == expected


def test_random_dn_draws_every_mixed_object_the_yukawa_test_asks_for():
    # the mixed draws of the test above at n = 5 and 6, seeds 0-299:
    # every graded profile the recipe draws satisfies Hard Lefschetz,
    # so no seed runs out of tries
    for n in (5, 6):
        for seed in range(300):
            d = random_dn(Random(seed), n, order=6, max_dim=2, mixed=True)
            assert d.n == n


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


def test_dn_object_powers_a0_no_further_than_the_rank(monkeypatch):
    """A(0) raises the degree by 2, so A(0)^rank = 0 and the power check
    stops multiplying there, however large n is."""
    calls = []
    mat_mul = linalg.mat_mul

    def counting(a, b):
        calls.append(a)
        return mat_mul(a, b)

    monkeypatch.setattr(linalg, "mat_mul", counting)
    n = 10001
    p0 = [[ZERO, ONE], [Scalar(-1), ZERO]]
    with pytest.raises(InvariantViolation) as info:
        DnObject(n=n, graded_dims={-n: 1, n: 1}, pairing0=p0,
                 a_series=smat([[0, 0], [0, 0]]))
    assert str(info.value) == \
        f"A(0)^{n} is not an isomorphism V_{-n} -> V_{n}"
    assert len(calls) <= 2


def test_dn_object_checks_the_size_before_listing_degrees():
    """A stored dimension of a million, against a 2 x 2 matrix, is refused
    before a degree list of a million entries is built."""
    p0 = [[ZERO, ONE], [Scalar(-1), ZERO]]
    a = smat([[0, 0], [1, 0]])
    tracemalloc.start()
    try:
        with pytest.raises(InvariantViolation) as info:
            DnObject(n=1, graded_dims={-1: 1, 1: 10 ** 6}, pairing0=p0,
                     a_series=a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "A matrix size disagrees with grading"
    assert peak < 2 ** 20


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
