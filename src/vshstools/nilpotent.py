"""Nilpotent endomorphisms: index, Jordan data, monodromy weight
filtration, and its splitting against a coordinate Hodge flag.

The first three read one list of powers [I, N, ..., N^n], n the nilpotency
index.  The weight filtration (Deligne, Weil II, 1.6) is built top-down:
W_n = V, W_k = ker N^(k+1) + N W_(k+2) for n > k >= 0 (W_(n+1) = V) and
W_(-k) = N^k W_k.  On one Jordan block both sides of each step are
spanned by the same tail of the block's basis, and kernels, images and
sums respect a sum of blocks.  Subspaces are kept in reduced echelon
form throughout so equality is a literal comparison.  The splitting
cuts each weight step down to the coordinate flag step of the same index
and checks only that the pieces are a direct sum, which implies that
they refine both filtrations.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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


def graded_splitting(n_mat: Matrix,
                     levels2: Sequence[int]) -> dict[int, list[Vector]]:
    """Pieces I^p = F^(>=p) ∩ MW_(<=p), checked to be a direct sum of V.

    F^(>=p) is the span of the e_j with levels2[j] >= p.  A direct sum
    gives both refinements, MW_(<=p) = sum_(j<=p) I^j and F^(>=p+1) =
    sum_(j>p) I^j (Deligne, Hodge II, 1.2): their intersection lies in
    I^p ∩ I^(p+1) = 0, the two sums lie in them and together fill V, so
    by dimension both inclusions are equalities.  Raises NotSplit when
    the pieces are not dim independent vectors.
    """
    dim = len(n_mat)
    mw = weight_filtration(n_mat)
    pieces: dict[int, list[Vector]] = {}
    assembled: list[Vector] = []
    for p in range(-mw.center_shift, max(levels2, default=0) + 1):
        # the combinations of W_p's basis vanishing off F^(>=p)
        w = mw.le(p)
        low = [[v[i] for v in w] for i in range(dim) if levels2[i] < p]
        if low and w:
            w = linalg.mat_mul(linalg.nullspace(low), w)
        piece = linalg.row_space_basis(w)
        if piece:
            pieces[p] = piece
            assembled.extend(piece)
    if len(assembled) != dim or linalg.rank(assembled) != dim:
        raise NotSplit("graded pieces do not give a direct sum")
    return pieces
