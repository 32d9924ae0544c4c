from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vshstools import linalg
from vshstools.linalg import Accumulator, Lifted
from vshstools.scalars import ONE, ZERO, Scalar

from genutil import (mat_add, mat_neg, mat_pow, mat_scale, mat_vec, rank,
                     scalar_product, subspace_equal, subspace_intersection,
                     subspace_leq, subspace_sum)


def _rand_matrix(rng, rows, cols, span=5):
    return [[Scalar(rng.randint(-span, span)) for _ in range(cols)]
            for _ in range(rows)]


def test_rref_known():
    m = [[Scalar(1), Scalar(2)], [Scalar(2), Scalar(4)]]
    r, pivots = linalg.rref(m)
    assert pivots == [0]
    assert r[0] == [ONE, Scalar(2)]
    assert r[1] == [ZERO, ZERO]


def test_rank_and_nullspace():
    m = [[Scalar(1), Scalar(2), Scalar(3)],
         [Scalar(2), Scalar(4), Scalar(6)]]
    assert rank(m) == 1
    ns = linalg.nullspace(m)
    assert len(ns) == 2
    for v in ns:
        assert all(x.is_zero() for x in mat_vec(m, v))


def test_inverse_random():
    rng = Random(2)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = _rand_matrix(rng, n, n)
        inv = linalg.try_inverse(m)
        if inv is None:
            assert rank(m) < n
            continue
        assert linalg.mat_mul(m, inv) == linalg.identity(n)
        assert linalg.mat_mul(inv, m) == linalg.identity(n)


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        linalg.inverse([[ZERO]])


def test_subspace_operations():
    e0 = [ONE, ZERO, ZERO]
    e1 = [ZERO, ONE, ZERO]
    e2 = [ZERO, ZERO, ONE]
    plane = [e0, e1]
    assert subspace_leq([[Scalar(3), Scalar(-2), ZERO]], plane)
    assert not subspace_leq([e2], plane)
    assert subspace_leq([e0], plane)
    assert not subspace_leq(plane, [e0])
    assert subspace_equal(
        subspace_sum([e0], [e1]), plane)
    inter = subspace_intersection(plane, [e1, e2])
    assert subspace_equal(inter, [e1])


def test_row_space_basis_canonical():
    rng = Random(3)
    for _ in range(20):
        vecs = [_rand_matrix(rng, 1, 4)[0] for _ in range(3)]
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        assert linalg.row_space_basis(vecs) == \
            linalg.row_space_basis(shuffled)


def test_mat_pow():
    m = [[ZERO, ONE], [ZERO, ZERO]]
    assert mat_pow(m, 0) == linalg.identity(2)
    assert linalg.is_zero_matrix(mat_pow(m, 2))


# --- the integer product kernel --------------------------------------------

PROPS = settings(max_examples=60, deadline=None)
_num = st.integers(-40, 40)
_den = st.integers(1, 12)
_ENTRIES = {
    "integer": _num.map(Scalar),
    "real": st.builds(lambda a, d: Scalar(Fraction(a, d)), _num, _den),
    "imaginary": st.builds(lambda b, d: Scalar(0, Fraction(b, d)),
                           _num, _den),
    "gaussian": st.builds(lambda a, b, d, e: Scalar(Fraction(a, d),
                                                    Fraction(b, e)),
                          _num, _num, _den, _den),
}
_ENTRIES["mixed"] = st.one_of(st.just(ZERO), *_ENTRIES.values())


@st.composite
def matrices(draw, rows, cols):
    """A rows x cols matrix of one entry kind, some rows all zero."""
    entry = _ENTRIES[draw(st.sampled_from(sorted(_ENTRIES)))]
    return [[ZERO] * cols if draw(st.booleans()) and draw(st.booleans())
            else [draw(entry) for _ in range(cols)] for _ in range(rows)]


def _in_normal_form(x: Scalar) -> bool:
    a, b, d = x._abd
    return d > 0 and gcd(a, b, d) == 1


@PROPS
@given(st.data())
def test_kernel_product_matches_scalar_reference(data):
    n, m, p = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = data.draw(matrices(n, m))
    b = data.draw(matrices(m, p))
    ref = scalar_product(a, b)
    acc = Accumulator(n, p)
    acc.add_product(Lifted.of(a), Lifted.of(b))
    assert acc.lower() == ref
    assert linalg.mat_mul(a, b) == ref


@PROPS
@given(st.data())
def test_kernel_accumulates_over_mixed_denominators(data):
    n, p = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    acc = Accumulator(n, p)
    ref = linalg.zeros(n, p)
    for _ in range(data.draw(st.integers(1, 5))):
        if data.draw(st.booleans()):
            m = data.draw(st.integers(1, 4))
            a, b = data.draw(matrices(n, m)), data.draw(matrices(m, p))
            acc.add_product(Lifted.of(a), Lifted.of(b))
            ref = mat_add(ref, scalar_product(a, b))
        else:
            c = data.draw(_ENTRIES["mixed"])
            x = data.draw(matrices(n, p))
            if data.draw(st.booleans()):
                acc.add_product(Lifted.scalar(c, n), Lifted.of(x))
            else:
                acc.add_product(Lifted.of(x), Lifted.scalar(c, p))
            ref = mat_add(ref, mat_scale(x, c))
    assert acc.lower() == ref
    # the unnormalized form holds the same values
    again = Accumulator(n, p)
    again.add_product(Lifted.scalar(ONE, n), acc.lifted())
    assert again.lower() == ref


@PROPS
@given(st.data())
def test_kernel_lowers_to_normal_form(data):
    n, m, p = (data.draw(st.integers(1, 4)) for _ in range(3))
    acc = Accumulator(n, p)
    for _ in range(data.draw(st.integers(1, 3))):
        acc.add_product(Lifted.of(data.draw(matrices(n, m))),
                        Lifted.of(data.draw(matrices(m, p))))
    lowered = acc.lower()
    assert all(_in_normal_form(x) for row in lowered for x in row)
    # dividing out the common content gives the lcm of the reduced
    # denominators, the form a fresh lift of the lowered matrix has
    direct, fresh = acc.lifted(), Lifted.of(lowered)
    assert (direct.den, direct.rows) == (fresh.den, fresh.rows)
    assert (direct.real, direct.zero) == (fresh.real, fresh.zero)


@PROPS
@given(st.data())
def test_kernel_lifts_entries_over_their_least_denominator(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(matrices(n, n))
    # each nonzero entry over a random multiple of its denominator, in a
    # shuffled order
    entries = []
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            if not x.is_zero():
                a, b, d = x._abd
                f = data.draw(st.integers(-3, 3).filter(bool))
                entries.append((i, j, a * f, b * f, d * f))
    entries = data.draw(st.permutations(entries))
    direct, fresh = Lifted.from_entries(entries, n), Lifted.of(m)
    assert direct.den == fresh.den
    assert direct.rows == fresh.rows
    assert (direct.real, direct.zero) == (fresh.real, fresh.zero)
    negated = mat_neg(m)
    assert Lifted.of(m).negated().rows == Lifted.of(negated).rows


@PROPS
@given(st.data())
def test_slot_map_is_the_sandwich_on_the_integers(data):
    """slot_map(P, Q) takes the integer slots of Y to those of den (P Y +
    Y Q): the bracket [P, Y] for Q = -P, and with eps = +-1 and Q = P^T
    the i <= j half of an eps-symmetric image."""
    n = data.draw(st.integers(1, 4))
    eps = data.draw(st.sampled_from((None, 1, -1)))
    p = data.draw(matrices(n, n))
    q = linalg.transpose(p) if eps else mat_neg(p)
    gaussian = st.builds(Scalar, _num, _num)
    y = [[data.draw(gaussian) for _ in range(n)] for _ in range(n)]
    if eps:
        y = [[y[min(i, j)][max(i, j)] * (eps if i > j else 1)
              for j in range(n)] for i in range(n)]
        for i in range(n):
            y[i][i] = y[i][i] if eps == 1 else ZERO
    slots, rows, den, real = linalg.slot_map(Lifted.of(p), Lifted.of(q), eps)
    assert slots == [(i, j) for i in range(n)
                     for j in range(i if eps else 0, n)]
    assert den == Lifted.of(p).den == Lifted.of(q).den
    z = [int(y[i][j].re) for i, j in slots] + \
        [int(y[i][j].im) for i, j in slots]
    image = [sum(a * z[t] for t, a in row) for row in rows]
    want = mat_scale(mat_add(scalar_product(p, y), scalar_product(y, q)),
                     Scalar(den))
    k = len(slots)
    assert [Scalar(image[o], image[k + o]) for o in range(k)] == \
        [want[i][j] for i, j in slots]
    if real:
        assert all(t < k for row in rows[:k] for t, _ in row)
