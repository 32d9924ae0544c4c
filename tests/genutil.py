"""Randomized object generators shared by the test modules.

Everything is driven by an explicit random.Random so failures replay.
The DnObject generator works through the pairing: choosing K(q) = P0 A(q)
with the right (anti)symmetry makes A automatically graded, nilpotent at
0, and self-adjoint at every order, so only the isomorphism conditions
need a retry loop.
"""
from __future__ import annotations

from fractions import Fraction
from random import Random

from vshstools import linalg, vshs
from vshstools.scalars import ONE, ZERO, Scalar
from vshstools.series import Series, SeriesMatrix


def rand_fraction(rng: Random, span: int = 4) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.choice((1, 1, 2, 3))
    return Fraction(num, den)


def rand_scalar(rng: Random, span: int = 4, complex_ok: bool = False
                ) -> Scalar:
    re = rand_fraction(rng, span)
    im = rand_fraction(rng, span) if complex_ok and rng.random() < 0.4 \
        else Fraction(0)
    return Scalar(re, im)


def rand_series(rng: Random, order: int, span: int = 3,
                constant: bool = False) -> Series:
    if constant:
        return Series([rand_scalar(rng, span)], order)
    return Series([rand_scalar(rng, span) for _ in range(order)], order)


def _degrees_profile(rng: Random, n: int, max_dim: int,
                     mixed: bool) -> list[int]:
    dims: dict[int, int] = {}
    for k in range(n, 0, -2):
        d = 1 if k == n else rng.randint(1, max_dim)
        dims[k] = d
        dims[-k] = d
    if n % 2 == 0:
        dims[0] = rng.randint(1, max_dim)
    if mixed and n >= 1:
        m = n - 1
        for k in range(m, 0, -2):
            # self-paired skew blocks (K at degree -1 for even n) force
            # an even dimension there
            d = 2 if (k == 1 and n % 2 == 0) else rng.randint(1, max_dim)
            dims[k] = d
            dims[-k] = d
        if m % 2 == 0:
            # same parity issue for the pairing block at degree 0
            dims[0] = 2 if n % 2 else rng.randint(1, max_dim)
    degrees: list[int] = []
    for k in sorted(dims):
        degrees.extend([k] * dims[k])
    return degrees


def _random_pairing0(rng: Random, degrees: list[int],
                     n: int) -> list[list[Scalar]] | None:
    rank = len(degrees)
    sign = Scalar(-1 if n % 2 else 1)
    p0 = linalg.zeros(rank, rank)
    for i in range(rank):
        for j in range(i, rank):
            if degrees[i] + degrees[j] != 0:
                continue
            if i == j:
                if n % 2 == 0:
                    p0[i][j] = rand_scalar(rng) + Scalar(1)
                continue
            v = rand_scalar(rng)
            p0[i][j] = v
            p0[j][i] = sign * v
    if linalg.try_inverse(p0) is None:
        return None
    return p0


def random_dn(rng: Random, n: int, *, order: int = 8, max_dim: int = 2,
              mixed: bool = False, tries: int = 80) -> vshs.DnObject:
    """A valid DnObject with random graded dimensions and entries."""
    for _ in range(tries):
        degrees = _degrees_profile(rng, n, max_dim, mixed)
        rank = len(degrees)
        p0 = _random_pairing0(rng, degrees, n)
        if p0 is None:
            continue
        p0_inv = linalg.inverse(p0)
        ksym = Scalar(1 if n % 2 else -1)  # K = (-1)^(n+1) K^T
        zero = Series.zero(order)
        k_entries = [[zero for _ in range(rank)] for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                if degrees[i] + degrees[j] != -2:
                    continue
                bottom = degrees[min(i, j, key=lambda t: degrees[t])] == -n
                if i == j:
                    if n % 2 == 0:
                        continue
                    k_entries[i][j] = rand_series(rng, order,
                                                  constant=bottom)
                    continue
                s = rand_series(rng, order, constant=bottom)
                k_entries[i][j] = s
                k_entries[j][i] = s * ksym
        k_mat = SeriesMatrix(k_entries)
        a_mat = k_mat.scalar_left_mul(p0_inv)
        dims: dict[int, int] = {}
        for k in degrees:
            dims[k] = dims.get(k, 0) + 1
        try:
            return vshs.DnObject(n=n, graded_dims=dims, pairing0=p0,
                                 a_series=a_mat)
        except vshs.InvariantViolation:
            continue
    raise RuntimeError("no valid random object found; widen the search")


def random_flat_pair(rng: Random, *, order: int = 16
                     ) -> tuple[SeriesMatrix, list[list[Scalar]]]:
    """(A, M0) with A(0)^T M0 + M0 A(0) = 0, A(0) nilpotent, and the
    higher coefficients of A completely unconstrained."""
    while True:
        n = rng.choice((2, 3, 4))
        degrees = _degrees_profile(rng, n, 2, mixed=False)
        rank = len(degrees)
        m0 = _random_pairing0(rng, degrees, n)
        if m0 is not None:
            break
    m0_inv = linalg.inverse(m0)
    ksym = Scalar(1 if n % 2 else -1)
    k0 = linalg.zeros(rank, rank)
    for i in range(rank):
        for j in range(i, rank):
            if degrees[i] + degrees[j] != -2:
                continue
            if i == j:
                if n % 2 == 0:
                    continue
                k0[i][j] = rand_scalar(rng)
                continue
            v = rand_scalar(rng)
            k0[i][j] = v
            k0[j][i] = v * ksym
    a0 = linalg.mat_mul(m0_inv, k0)
    coeffs = [a0] + [
        [[rand_scalar(rng, 2) for _ in range(rank)] for _ in range(rank)]
        for _ in range(order - 1)]
    a_mat = SeriesMatrix(
        [[Series([coeffs[m][i][j] for m in range(order)], order)
          for j in range(rank)] for i in range(rank)])
    return a_mat, m0


def random_rees(rng: Random, *, order: int = 8) -> vshs.ReesModule:
    """A valid Rees module, potentially mixing both degree parities."""
    n = rng.choice((2, 3))
    mixed = rng.random() < 0.6
    d = random_dn(rng, n, order=order, max_dim=2, mixed=mixed)
    return vshs.from_normal_form(d)


def random_nilpotent_conjugate(rng: Random, mat, span: int = 2,
                               complex_ok: bool = False):
    """P N P^-1 for a random invertible P; exercises non-coordinate
    subspace positions, and Gaussian entries when complex_ok."""
    dim = len(mat)
    while True:
        p = [[rand_scalar(rng, span, complex_ok) for _ in range(dim)]
             for _ in range(dim)]
        p_inv = linalg.try_inverse(p)
        if p_inv is not None:
            return linalg.mat_mul(p, linalg.mat_mul(mat, p_inv)), p


def mat_vec(a, v):
    """The matrix a applied to the vector v."""
    out = []
    for row in a:
        s = ZERO
        for c, x in zip(row, v):
            if not c.is_zero():
                s = s + c * x
        out.append(s)
    return out


def mat_pow(a, k):
    out = linalg.identity(len(a))
    for _ in range(k):
        out = linalg.mat_mul(out, a)
    return out


def subspace_equal(a, b):
    return linalg.row_space_basis(a) == linalg.row_space_basis(b)


def subspace_leq(sub, sup):
    """span(sub) ⊆ span(sup)."""
    if not sub:
        return True
    return linalg.rank(list(sup) + list(sub)) == linalg.rank(sup)


def subspace_sum(a, b):
    return linalg.row_space_basis(list(a) + list(b))


def subspace_intersection(a, b):
    """Canonical basis of span(a) ∩ span(b), by the general route: the
    nullspace of the coefficients on a and on b; a reference for the
    coordinate intersections of nilpotent.graded_splitting."""
    if not a or not b:
        return []
    dim = len(a[0])
    # columns: coefficients on a, then on b; rows: ambient coordinates
    m = [[a[k][i] for k in range(len(a))] + [-b[k][i] for k in range(len(b))]
         for i in range(dim)]
    out = []
    for sol in linalg.nullspace(m):
        vec = [ZERO] * dim
        for k in range(len(a)):
            c = sol[k]
            if not c.is_zero():
                vec = [x + c * y for x, y in zip(vec, a[k])]
        out.append(vec)
    return linalg.row_space_basis(out)
