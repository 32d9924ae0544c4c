"""Weight filtrations checked against the closed-form kernel/image
description, which shares no code with the top-down recursion
W_k = ker N^(k+1) + N W_(k+2) used by the module:

    MW_{<=k} = sum over j >= max(0, -k) of  ker(N^{j+k+1}) ∩ im(N^j)
"""
from itertools import product
from random import Random

import pytest

from vshstools import linalg
from vshstools.nilpotent import (NotNilpotent, NotSplit, WeightFiltration,
                                 graded_splitting, jordan_partition,
                                 nilpotency_index, weight_filtration)
from vshstools.scalars import ONE, ZERO, Scalar

from genutil import random_nilpotent_conjugate


def jordan_matrix(partition):
    """Subdiagonal-block nilpotent with the given block sizes."""
    dim = sum(partition)
    mat = [[ZERO] * dim for _ in range(dim)]
    pos = 0
    for size in partition:
        for k in range(size - 1):
            mat[pos + k][pos + k + 1] = ONE
        pos += size
    return mat


def deligne_filtration(mat):
    """k -> MW_{<=k} for |k| <= dim + 1, by the closed formula."""
    dim = len(mat)
    powers = [linalg.identity(dim)]
    for _ in range(2 * dim + 2):
        powers.append(linalg.mat_mul(powers[-1], mat))
    images = [linalg.row_space_basis(
        [linalg.mat_vec(p, row) for row in linalg.identity(dim)])
        for p in powers]
    kernels = [linalg.nullspace(p) for p in powers]
    out = {}
    for k in range(-dim - 1, dim + 2):
        space: list[list[Scalar]] = []
        for j in range(max(0, -k), dim + 1):
            space = linalg.subspace_sum(
                space, linalg.subspace_intersection(kernels[j + k + 1],
                                                    images[j]))
        out[k] = space
    return out


def partitions(total):
    if total == 0:
        yield ()
        return
    for first in range(total, 0, -1):
        for rest in partitions(total - first):
            if not rest or first >= rest[0]:
                yield (first,) + rest


def test_nilpotency_index():
    assert nilpotency_index(jordan_matrix([3, 1])) == 2
    assert nilpotency_index([[ZERO]]) == 0
    with pytest.raises(NotNilpotent):
        nilpotency_index([[ONE]])
    with pytest.raises(NotNilpotent):
        nilpotency_index([[ZERO, ONE], [ONE, ZERO]])


def test_jordan_partition_known():
    assert jordan_partition(jordan_matrix([4, 2, 1])) == [4, 2, 1]
    assert jordan_partition([[ZERO]]) == [1]
    assert jordan_partition(jordan_matrix([2, 2])) == [2, 2]


def test_jordan_partition_conjugation_invariant():
    rng = Random(11)
    for part in [(3,), (2, 1), (3, 2), (2, 2, 1)]:
        mat = jordan_matrix(list(part))
        conj, _ = random_nilpotent_conjugate(rng, mat)
        assert jordan_partition(conj) == list(part)


def test_weight_filtration_single_block():
    # size-3 block: jumps at -2, 0, 2 spanned by e1, e2, e3
    wf = weight_filtration(jordan_matrix([3]))
    assert wf.center_shift == 2
    assert wf.dimension_le(-3) == 0
    assert wf.le(-2) == [[ONE, ZERO, ZERO]]
    assert wf.dimension_le(-1) == 1
    assert wf.dimension_le(0) == 2
    assert wf.dimension_le(1) == 2
    assert wf.dimension_le(2) == 3


def test_weight_filtration_zero_map():
    wf = weight_filtration([[ZERO, ZERO], [ZERO, ZERO]])
    assert wf.center_shift == 0
    assert wf.dimension_le(-1) == 0
    assert wf.dimension_le(0) == 2


def test_matches_kernel_image_formula_all_small_types():
    rng = Random(12)
    types = [part for dim in range(1, 6) for part in partitions(dim)]
    # a sample of the larger types, and single blocks up to size 12
    types += rng.sample([p for dim in (6, 7, 8) for p in partitions(dim)],
                        9)
    types += [(size,) for size in range(6, 13)]
    for part in types:
        plain = jordan_matrix(list(part))
        mats = [plain, random_nilpotent_conjugate(rng, plain)[0]]
        if sum(part) <= 8:
            # Gaussian (non-real) conjugates
            mats.append(random_nilpotent_conjugate(rng, plain,
                                                   complex_ok=True)[0])
        for mat in mats:
            wf = weight_filtration(mat)
            expected = deligne_filtration(mat)
            n = wf.center_shift
            for k in range(-n - 1, n + 2):
                assert wf.le(k) == expected[k], (part, k)


def test_empty_matrix():
    assert weight_filtration([]) == WeightFiltration(0, 0, {0: []})
    with pytest.raises(NotNilpotent):
        nilpotency_index([])
    with pytest.raises(NotNilpotent):
        jordan_partition([])


def test_filtration_axioms():
    rng = Random(13)
    for part in [(3,), (2, 2), (3, 1), (4, 2), (3, 3, 1)]:
        mat, _ = random_nilpotent_conjugate(rng, jordan_matrix(list(part)))
        wf = weight_filtration(mat)
        n = wf.center_shift
        for k in range(-n, n + 1):
            # N MW_{<=k} ⊆ MW_{<=k-2}
            mapped = [linalg.mat_vec(mat, v) for v in wf.le(k)]
            assert linalg.subspace_leq(
                linalg.row_space_basis(mapped), wf.le(k - 2))
        for k in range(1, n + 1):
            # N^k : Gr_k -> Gr_{-k} bijective
            assert wf.graded_dimension(k) == wf.graded_dimension(-k)
            power = linalg.mat_pow(mat, k)
            pushed = linalg.subspace_sum(
                [linalg.mat_vec(power, v) for v in wf.le(k)], wf.le(-k - 1))
            assert linalg.subspace_equal(pushed, wf.le(-k))


def test_conjugation_equivariance():
    rng = Random(14)
    mat = jordan_matrix([3, 2])
    wf = weight_filtration(mat)
    conj, p = random_nilpotent_conjugate(rng, mat)
    wf_conj = weight_filtration(conj)
    for k in range(-3, 4):
        moved = [linalg.mat_vec(p, v) for v in wf.le(k)]
        assert linalg.subspace_equal(wf_conj.le(k),
                                     linalg.row_space_basis(moved))


def e(i, dim):
    return [ONE if j == i else ZERO for j in range(dim)]


def test_graded_splitting_regular_block():
    mat = jordan_matrix([3])
    flag = {2: [e(2, 3)], 0: [e(1, 3), e(2, 3)], -2: linalg.identity(3)}
    pieces = graded_splitting(mat, flag)
    assert sorted(pieces) == [-2, 0, 2]
    assert linalg.subspace_equal(pieces[-2], [e(0, 3)])
    assert linalg.subspace_equal(pieces[0], [e(1, 3)])
    assert linalg.subspace_equal(pieces[2], [e(2, 3)])


def test_graded_splitting_rejects_incompatible_flag():
    # zero map concentrates all weight at 0; a flag with a genuine step
    # above 0 cannot induce a splitting
    zero = [[ZERO, ZERO], [ZERO, ZERO]]
    with pytest.raises(NotSplit):
        graded_splitting(zero, {1: [e(0, 2)]})


def test_graded_splitting_rejects_non_nested_flag():
    mat = jordan_matrix([2])
    with pytest.raises(ValueError):
        graded_splitting(mat, {1: [e(0, 2)], 0: [e(1, 2)]})


def test_graded_splitting_respects_n_action():
    # for the regular block, N maps the piece at p into the piece at p-2
    mat = jordan_matrix([4])
    dim = 4
    flag = {}
    start = dim - 1
    for p in (3, 1, -1, -3):
        flag[p] = [e(i, dim) for i in range(start, dim)]
        start -= 1
    pieces = graded_splitting(mat, flag)
    for p in (3, 1, -1):
        mapped = [linalg.mat_vec(mat, v) for v in pieces[p]]
        assert linalg.subspace_leq(
            linalg.row_space_basis(mapped), pieces[p - 2])
