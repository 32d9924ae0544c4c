"""Weight filtrations checked against the closed-form kernel/image
description, which shares no code with the top-down recursion
W_k = ker N^(k+1) + N W_(k+2) used by the module:

    MW_{<=k} = sum over j >= max(0, -k) of  ker(N^{j+k+1}) ∩ im(N^j)

The graded splitting is checked against a copy of its earlier form,
which took a flag dictionary and walked both refinements.
"""
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vshstools import linalg, picard_fuchs, vshs
from vshstools.nilpotent import (NotNilpotent, NotSplit, WeightFiltration,
                                 graded_splitting, jordan_partition,
                                 nilpotency_index, weight_filtration)
from vshstools.scalars import ONE, ZERO, Scalar

from genutil import (mat_pow, mat_vec, rand_scalar, random_dn,
                     random_nilpotent_conjugate, subspace_equal,
                     subspace_intersection, subspace_leq, subspace_sum)


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
        [mat_vec(p, row) for row in linalg.identity(dim)])
        for p in powers]
    kernels = [linalg.nullspace(p) for p in powers]
    out = {}
    for k in range(-dim - 1, dim + 2):
        space: list[list[Scalar]] = []
        for j in range(max(0, -k), dim + 1):
            space = subspace_sum(
                space, subspace_intersection(kernels[j + k + 1], images[j]))
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
            mapped = [mat_vec(mat, v) for v in wf.le(k)]
            assert subspace_leq(
                linalg.row_space_basis(mapped), wf.le(k - 2))
        for k in range(1, n + 1):
            # N^k : Gr_k -> Gr_{-k} bijective
            assert wf.graded_dimension(k) == wf.graded_dimension(-k)
            power = mat_pow(mat, k)
            pushed = subspace_sum(
                [mat_vec(power, v) for v in wf.le(k)], wf.le(-k - 1))
            assert subspace_equal(pushed, wf.le(-k))


def test_conjugation_equivariance():
    rng = Random(14)
    mat = jordan_matrix([3, 2])
    wf = weight_filtration(mat)
    conj, p = random_nilpotent_conjugate(rng, mat)
    wf_conj = weight_filtration(conj)
    for k in range(-3, 4):
        moved = [mat_vec(p, v) for v in wf.le(k)]
        assert subspace_equal(wf_conj.le(k),
                                     linalg.row_space_basis(moved))


def e(i, dim):
    return [ONE if j == i else ZERO for j in range(dim)]


def test_graded_splitting_regular_block():
    mat = jordan_matrix([3])
    pieces = graded_splitting(mat, (-2, 0, 2))
    assert sorted(pieces) == [-2, 0, 2]
    assert subspace_equal(pieces[-2], [e(0, 3)])
    assert subspace_equal(pieces[0], [e(1, 3)])
    assert subspace_equal(pieces[2], [e(2, 3)])


def test_graded_splitting_rejects_incompatible_flag():
    # zero map concentrates all weight at 0; a flag with a genuine step
    # above 0 cannot induce a splitting
    zero = [[ZERO, ZERO], [ZERO, ZERO]]
    with pytest.raises(NotSplit):
        graded_splitting(zero, (1, 0))


def test_graded_splitting_respects_n_action():
    # for the regular block, N maps the piece at p into the piece at p-2
    mat = jordan_matrix([4])
    pieces = graded_splitting(mat, (-3, -1, 1, 3))
    for p in (3, 1, -1):
        mapped = [mat_vec(mat, v) for v in pieces[p]]
        assert subspace_leq(
            linalg.row_space_basis(mapped), pieces[p - 2])


# --- the splitting against the two-walk reference -------------------------

def ref_graded_splitting(n_mat, flag):
    """Graded pieces of a general decreasing flag {p: basis of F^(>=p)}:
    the flag is checked nested, and the partial sums are walked from
    below against the weight filtration and from above against the
    flag, as the module did before it took a level list."""
    dim = len(n_mat)
    mw = weight_filtration(n_mat)
    keys = sorted(flag)
    canonical = {p: linalg.row_space_basis(flag[p]) for p in keys}
    for lower, upper in zip(keys, keys[1:]):
        if not subspace_leq(canonical[upper], canonical[lower]):
            raise ValueError("flag bases are not nested")

    def ge(p):
        if not keys or p < keys[0]:
            return linalg.identity(dim)
        if p > keys[-1]:
            return []
        return canonical[min(k for k in keys if k >= p)]

    lo = min([-mw.center_shift] + keys)
    hi = max([mw.center_shift] + keys)
    pieces = {}
    assembled = []
    below = []
    for p in range(lo, hi + 1):
        piece = subspace_intersection(ge(p), mw.le(p))
        if piece:
            pieces[p] = piece
            assembled.extend(piece)
        below = subspace_sum(below, piece)
        if not subspace_equal(below, mw.le(p)):
            raise NotSplit(f"partial sums up to {p} miss the weights")
    if len(assembled) != dim or linalg.rank(assembled) != dim:
        raise NotSplit("graded pieces do not span")
    above = []
    for p in range(hi, lo - 1, -1):
        above = subspace_sum(above, pieces.get(p, []))
        if not subspace_equal(above, ge(p)):
            raise NotSplit(f"partial sums down to {p} miss the flag")
    return pieces


def same_splitting(n_mat, levels2):
    """Both splittings raise NotSplit or both return equal pieces;
    True when they split."""
    dim = len(levels2)
    flag = {level: [e(j, dim) for j in range(dim) if levels2[j] >= level]
            for level in sorted(set(levels2))}
    try:
        expected = ref_graded_splitting(n_mat, flag)
    except NotSplit:
        with pytest.raises(NotSplit):
            graded_splitting(n_mat, levels2)
        return False
    assert graded_splitting(n_mat, levels2) == expected
    return True


def weight_levels(partition):
    """Weight of each basis vector of jordan_matrix(partition)."""
    return [2 * k - size + 1 for size in partition for k in range(size)]


def flag_conjugate(rng, mat, levels2, complex_ok):
    """g N g^-1 for a random invertible g preserving the coordinate flag
    of levels2; it moves each weight step by g and keeps the flag, so it
    keeps a splitting a splitting."""
    dim = len(mat)
    while True:
        g = [[rand_scalar(rng, 2, complex_ok)
              if levels2[i] >= levels2[j] else ZERO for j in range(dim)]
             for i in range(dim)]
        g_inv = linalg.try_inverse(g)
        if g_inv is not None:
            return linalg.mat_mul(g, linalg.mat_mul(mat, g_inv))


SMALL_TYPES = [part for dim in range(1, 7) for part in partitions(dim)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(SMALL_TYPES),
       st.sampled_from(("flag", "conjugate", "levels")), st.booleans())
def test_graded_splitting_matches_two_walk_reference(seed, part, mode,
                                                     gaussian):
    rng = Random(seed)
    mat = jordan_matrix(list(part))
    levels2 = weight_levels(part)
    dim = len(levels2)
    if mode == "flag":
        # a flag-preserving conjugate, coordinates shuffled: splits
        mat = flag_conjugate(rng, mat, levels2, gaussian)
        perm = rng.sample(range(dim), dim)
        mat = [[mat[perm[i]][perm[j]] for j in range(dim)]
               for i in range(dim)]
        levels2 = [levels2[perm[i]] for i in range(dim)]
        assert same_splitting(mat, levels2)
        return
    if mode == "conjugate" or rng.random() < 0.5:
        mat, _ = random_nilpotent_conjugate(rng, mat, complex_ok=gaussian)
    if mode == "levels":
        levels2 = [rng.randint(-dim, dim) for _ in range(dim)]
    same_splitting(mat, levels2)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from((2, 3, 4)), st.booleans(),
       st.booleans())
def test_graded_splitting_of_random_dn_residues(seed, n, mixed, gaussian):
    rng = Random(seed)
    d = random_dn(rng, n, order=2, max_dim=2, mixed=mixed)
    geo = vshs.rees_to_geometric(vshs.from_normal_form(d))
    mat = flag_conjugate(rng, geo.conn.at0(), geo.levels2, gaussian)
    assert same_splitting(mat, geo.levels2)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_graded_splitting_of_companion_residues(n):
    op = picard_fuchs.parse_pf(f"theta^{n} - q*(theta+1)^{n}")
    geo = picard_fuchs.companion_vhs(op, 2)
    assert same_splitting(geo.conn.at0(), geo.levels2)
