"""Nilpotent endomorphisms: index, Jordan data, monodromy weight
filtration, and its splitting against a coordinate Hodge flag.

The last three read one Jordan chain basis of N, one nullspace per power
of N.  N^i t, t a top of size s, has weight s - 1 - 2i, and W_k (Deligne,
Weil II, 1.6) is spanned by the chain vectors of weight <= k.  Subspaces
are returned in reduced echelon form so equality is a literal comparison.
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
    powers = [linalg.identity(len(n_mat))]
    for _ in n_mat:
        power = linalg.mat_mul(powers[-1], n_mat)
        if linalg.is_zero_matrix(power):
            return powers
        powers.append(power)
    raise NotNilpotent(f"N^{len(n_mat)} != 0")


def _adapted(vectors: list[Vector], order: Sequence[int]) -> list[int]:
    """One pass along order, in place: coordinate i pivots on the first
    unpivoted vector nonzero there and is cleared from the later ones.
    Returns each vector's pivot; it is zero before it in order."""
    pivots = [-1] * len(vectors)
    for i in order:
        hit = [j for j, p in enumerate(pivots)
               if p < 0 and not vectors[j][i].is_zero()]
        if hit:
            pivot, inv = vectors[hit[0]], vectors[hit[0]][i].inverse()
            pivots[hit[0]] = i
            for k in hit[1:]:
                c = vectors[k][i] * inv
                vectors[k] = [x - c * y for x, y in zip(vectors[k], pivot)]
    return pivots


def _chain_basis(n_mat: Matrix) -> tuple[list[int], list[tuple[int, Vector]]]:
    """Block sizes, decreasing, and (weight, chain vector) pairs by
    weight.  K_s = ker N^s is keyed by free column, the last nonzero
    entry of its basis vectors; K_(s-1) pivots at its own, clearing them
    from the longer chains at level s, and the tops of size s are the
    vectors of K_s at the other free columns where those do not pivot."""
    powers = _powers(n_mat)
    kernels = [{}] + [
        {max(i for i, x in enumerate(v) if not x.is_zero()): v for v in k}
        for k in [linalg.nullspace(p) for p in powers[1:]]
        + [linalg.identity(len(n_mat))]]
    n_t = linalg.transpose(n_mat)
    sizes, chain, level = [], [], []  # level: the longer chains at s
    for s in range(len(powers), 0, -1):
        low = kernels[s - 1]
        new = [g for g in kernels[s] if g not in low]
        if level:  # no tops if the longer chains fill the new columns
            pivots = new if len(level) == len(new) else _adapted(
                list(low.values()) + level, list(low) + new)
            new = [g for g in new if g not in pivots]
        level += [kernels[s][g] for g in new]
        sizes += [s] * len(new)
        chain += [(2 * s - t - 1, v) for t, v in zip(sizes, level)]
        if s > 1:
            level = linalg.mat_mul(level, n_t)
    return sizes, sorted(chain, key=lambda pair: pair[0])


def nilpotency_index(n_mat: Matrix) -> int:
    """Smallest n with N^(n+1) = 0."""
    return len(_powers(n_mat)) - 1


def jordan_partition(n_mat: Matrix) -> list[int]:
    """Jordan block sizes in decreasing order, those of the chain tops."""
    return _chain_basis(n_mat)[0]


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
        return [list(v) for v in self.subspaces[min(k, n)]]

    def dimension_le(self, k: int) -> int:
        return len(self.le(k))

    def graded_dimension(self, k: int) -> int:
        return self.dimension_le(k) - self.dimension_le(k - 1)


def weight_filtration(n_mat: Matrix) -> WeightFiltration:
    """The unique filtration with N MW_{<=k} in MW_{<=k-2} and
    N^k : Gr_k -> Gr_{-k} an isomorphism for every k >= 0."""
    if not n_mat:
        return WeightFiltration(center_shift=0, dim=0, subspaces={0: []})
    sizes, chain = _chain_basis(n_mat)
    n, span, w = sizes[0] - 1, [], {}
    for k in range(-n, n + 1):
        new = [v for weight, v in chain if weight == k]
        w[k] = span = linalg.row_space_basis(span + new) if new else span
    return WeightFiltration(center_shift=n, dim=len(n_mat), subspaces=w)


def graded_splitting(n_mat: Matrix,
                     levels2: Sequence[int]) -> dict[int, list[Vector]]:
    """Pieces I^p = F^(>=p) ∩ MW_(<=p), checked to be a direct sum of V.

    F^(>=p) is the span of the e_j with levels2[j] >= p; a direct sum
    gives both refinements (Deligne, Hodge II, 1.2).  One pass over the
    chain vectors by weight, along the coordinates by level, keeps W_p
    spanned by those of weight <= p and F^(>=p) by those of pivot level
    >= p, so I^p by those with both.  The sum is direct exactly when each
    weight is its pivot level (else a vector is in two pieces or in none).
    """
    if not n_mat:
        return {}
    _, chain = _chain_basis(n_mat)
    vectors = [v for _, v in chain]
    pivots = _adapted(vectors, sorted(range(len(vectors)),
                                      key=levels2.__getitem__))
    if any(w != levels2[i] for (w, _), i in zip(chain, pivots)):
        raise NotSplit("graded pieces do not give a direct sum")
    return {p: linalg.row_space_basis(
        [v for (w, _), v in zip(chain, vectors) if w == p])
        for p in sorted({w for w, _ in chain})}
