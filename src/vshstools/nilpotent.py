"""Nilpotent endomorphisms: index, Jordan data, monodromy weight filtration.

All three read one list of powers [I, N, ..., N^n], n the nilpotency
index.  The weight filtration (Deligne, Weil II, 1.6) is built top-down:
W_n = V, W_k = ker N^(k+1) + N W_(k+2) for n > k >= 0 (W_(n+1) = V) and
W_(-k) = N^k W_k.  On one Jordan block both sides of each step are
spanned by the same tail of the block's basis, and kernels, images and
sums respect a sum of blocks.  Subspaces are kept in reduced echelon
form throughout so equality is a literal comparison.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .linalg import Matrix, Vector


class NotNilpotent(ValueError):
    """The endomorphism has no vanishing power up to the dimension."""


class NotSplit(ValueError):
    """Hodge flag and weight filtration fail to induce a direct sum."""


def _powers(n_mat: Matrix) -> list[Matrix]:
    """[I, N, ..., N^n] with N^(n+1) = 0."""
    dim = len(n_mat)
    powers = [linalg.identity(dim)]
    for _ in range(dim):
        power = linalg.mat_mul(powers[-1], n_mat)
        if linalg.is_zero_matrix(power):
            return powers
        powers.append(power)
    raise NotNilpotent(f"N^{dim} != 0")


def nilpotency_index(n_mat: Matrix) -> int:
    """Smallest n with N^(n+1) = 0."""
    return len(_powers(n_mat)) - 1


def jordan_partition(n_mat: Matrix) -> list[int]:
    """Jordan block sizes in decreasing order, via rank differences."""
    ranks = [linalg.rank(p) for p in _powers(n_mat)] + [0, 0]
    # blocks of size exactly s: r_{s-1} - 2 r_s + r_{s+1}
    sizes = []
    for s in range(1, len(ranks) - 1):
        count = ranks[s - 1] - 2 * ranks[s] + ranks[s + 1]
        sizes.extend([s] * count)
    return sorted(sizes, reverse=True)


@dataclass(frozen=True, eq=True)
class WeightFiltration:
    """Increasing filtration MW_{<=k}, k in [-n, n], n the nilpotency index.

    Each stored basis is in canonical reduced echelon form.  Queries
    outside the stored range clamp to the zero space below and the full
    space above, which is what the doubled-index convention needs.
    """

    center_shift: int
    dim: int
    subspaces: dict[int, list[Vector]] = field(compare=True)

    def le(self, k: int) -> list[Vector]:
        n = self.center_shift
        if k < -n:
            return []
        if k > n:
            k = n
        return [list(v) for v in self.subspaces[k]]

    def dimension_le(self, k: int) -> int:
        return len(self.le(k))

    def graded_dimension(self, k: int) -> int:
        return self.dimension_le(k) - self.dimension_le(k - 1)


def _image(m: Matrix, basis: list[Vector]) -> list[Vector]:
    """Canonical basis of m span(basis); basis nonempty."""
    return linalg.row_space_basis(
        linalg.transpose(linalg.mat_mul(m, linalg.transpose(basis))))


def weight_filtration(n_mat: Matrix) -> WeightFiltration:
    """The unique filtration with N MW_{<=k} in MW_{<=k-2} and
    N^k : Gr_k -> Gr_{-k} an isomorphism for every k >= 0."""
    dim = len(n_mat)
    if dim == 0:
        return WeightFiltration(center_shift=0, dim=0, subspaces={0: []})
    powers = _powers(n_mat)
    n = len(powers) - 1
    full = powers[0]
    w = {n: full}
    for k in range(n - 1, -1, -1):
        w[k] = linalg.row_space_basis(
            linalg.nullspace(powers[k + 1])
            + _image(n_mat, w.get(k + 2, full)))
    for k in range(1, n + 1):
        w[-k] = _image(powers[k], w[k])
    return WeightFiltration(center_shift=n, dim=dim,
                            subspaces=dict(sorted(w.items())))


def _flag_evaluator(flag: dict[int, list[Vector]], dim: int):
    """Decreasing flag p -> F^{>=p}; clamps to full below, zero above."""
    keys = sorted(flag)
    canonical = {p: linalg.row_space_basis(flag[p]) for p in keys}
    for lower, upper in zip(keys, keys[1:]):
        if not linalg.subspace_leq(canonical[upper], canonical[lower]):
            raise ValueError("flag bases are not nested")
    full = linalg.identity(dim)

    def ge(p: int) -> list[Vector]:
        # below the lowest stated step the flag is the whole space
        if not keys or p < keys[0]:
            return full
        if p > keys[-1]:
            return []
        return canonical[min(k for k in keys if k >= p)]

    return ge, keys


def graded_splitting(
        n_mat: Matrix,
        flag: dict[int, list[Vector]]) -> dict[int, list[Vector]]:
    """Graded pieces F^{>=p} ∩ MW_{<=p}, verified to give a direct sum.

    Both refinement identities are checked: partial sums from below must
    recover the weight filtration and partial sums from above the flag.
    Raises NotSplit when either fails.
    """
    dim = len(n_mat)
    mw = weight_filtration(n_mat)
    ge, keys = _flag_evaluator(flag, dim)

    lo = min([-mw.center_shift] + keys) if keys else -mw.center_shift
    hi = max([mw.center_shift] + keys) if keys else mw.center_shift

    pieces: dict[int, list[Vector]] = {}
    assembled: list[Vector] = []
    below: list[Vector] = []
    for p in range(lo, hi + 1):
        piece = linalg.subspace_intersection(ge(p), mw.le(p))
        if piece:
            pieces[p] = piece
            assembled.extend(piece)
        below = linalg.subspace_sum(below, piece)
        if not linalg.subspace_equal(below, mw.le(p)):
            raise NotSplit(
                f"partial sums up to weight {p} miss the weight filtration")
    if len(assembled) != dim or linalg.rank(assembled) != dim:
        raise NotSplit("graded pieces do not span")
    above: list[Vector] = []
    for p in range(hi, lo - 1, -1):
        above = linalg.subspace_sum(above, pieces.get(p, []))
        if not linalg.subspace_equal(above, ge(p)):
            raise NotSplit(
                f"partial sums down to weight {p} miss the flag")
    return pieces
