from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vshstools import linalg
from vshstools.linalg import Accumulator, Lifted
from vshstools.scalars import ONE, ZERO, Scalar

from genutil import (mat_pow, mat_vec, subspace_equal, subspace_intersection,
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
    assert linalg.rank(m) == 1
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
            assert linalg.rank(m) < n
            continue
        assert linalg.mat_eq(linalg.mat_mul(m, inv), linalg.identity(n))
        assert linalg.mat_eq(linalg.mat_mul(inv, m), linalg.identity(n))


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        linalg.inverse([[ZERO]])


def test_solve():
    a = [[Scalar(2), Scalar(1)], [Scalar(1), Scalar(3)]]
    b = [Scalar(5), Scalar(10)]
    x = linalg.solve(a, b)
    assert x is not None
    assert mat_vec(a, x) == b
    assert linalg.solve([[ONE, ONE], [ONE, ONE]], [ONE, Scalar(2)]) is None


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
    assert linalg.mat_eq(mat_pow(m, 0), linalg.identity(2))
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


def _reference_product(a, b):
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0])):
            s = ZERO
            for x, brow in zip(row, b):
                s = s + x * brow[j]
            out[-1].append(s)
    return out


def _in_normal_form(x: Scalar) -> bool:
    a, b, d = x._abd
    return d > 0 and gcd(a, b, d) == 1


@PROPS
@given(st.data())
def test_kernel_product_matches_scalar_reference(data):
    n, m, p = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = data.draw(matrices(n, m))
    b = data.draw(matrices(m, p))
    ref = _reference_product(a, b)
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
            ref = linalg.mat_add(ref, _reference_product(a, b))
        else:
            c = data.draw(_ENTRIES["mixed"])
            x = data.draw(matrices(n, p))
            if data.draw(st.booleans()):
                acc.add_product(Lifted.scalar(c, n), Lifted.of(x))
            else:
                acc.add_product(Lifted.of(x), Lifted.scalar(c, p))
            ref = linalg.mat_add(ref, linalg.mat_scale(x, c))
    assert acc.lower() == ref
    keep = [[data.draw(st.booleans()) for _ in range(p)] for _ in range(n)]
    assert acc.lower(keep) == [[x if k else ZERO for x, k in zip(row, ks)]
                               for row, ks in zip(ref, keep)]
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
