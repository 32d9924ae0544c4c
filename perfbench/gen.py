"""Seeded input generators for the benchmark workloads.

These re-implement the random-object recipes of the acceptance suite
(normal-form roundtrip, pairing extension, coordinate rescaling) so that
later edits to the test helpers cannot move the benchmark.  Two changes
are deliberate, so that every seed asks for the same amount of work and
only the entries differ: the graded dimensions are not drawn but taken
from a fixed list of shapes per workload, and the pairing residue A(0)
always has its shape's largest nilpotency index.
"""
from __future__ import annotations

from fractions import Fraction
from random import Random


def rand_fraction(rng: Random, span: int) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3)))


def rand_scalar(pkg, rng: Random, span: int = 4):
    return pkg.Scalar(rand_fraction(rng, span))


def rand_series(pkg, rng: Random, order: int, span: int = 3,
                constant: bool = False):
    if constant:
        return pkg.Series([rand_scalar(pkg, rng, span)], order)
    return pkg.Series([rand_scalar(pkg, rng, span) for _ in range(order)],
                     order)


def degrees_of(dims: dict[int, int]) -> list[int]:
    degrees: list[int] = []
    for k in sorted(dims):
        degrees.extend([k] * dims[k])
    return degrees


def graded_dims(n: int, free: dict[int, int], mixed: bool) -> dict[int, int]:
    """Graded dimensions of a shape, symmetric under k -> -k.

    `free` gives the dimension of each degree k > 0 (and of 0) that the
    recipe would draw from 1..max_dim; the top degree n is always one
    dimensional and the degrees the pairing forces to be even-dimensional
    are set to 2, exactly as in the recipe.
    """
    dims: dict[int, int] = {}
    for k in range(n, 0, -2):
        d = 1 if k == n else free[k]
        dims[k] = dims[-k] = d
    if n % 2 == 0:
        dims[0] = free[0]
    if mixed and n >= 1:
        m = n - 1
        for k in range(m, 0, -2):
            d = 2 if (k == 1 and n % 2 == 0) else free[k]
            dims[k] = dims[-k] = d
        if m % 2 == 0:
            dims[0] = 2 if n % 2 else free[0]
    return dims


def random_pairing0(pkg, rng: Random, degrees: list[int], n: int):
    rank = len(degrees)
    sign = pkg.Scalar(-1 if n % 2 else 1)
    p0 = pkg.linalg.zeros(rank, rank)
    for i in range(rank):
        for j in range(i, rank):
            if degrees[i] + degrees[j] != 0:
                continue
            if i == j:
                if n % 2 == 0:
                    p0[i][j] = rand_scalar(pkg, rng) + pkg.Scalar(1)
                continue
            v = rand_scalar(pkg, rng)
            p0[i][j] = v
            p0[j][i] = sign * v
    if pkg.linalg.try_inverse(p0) is None:
        return None
    return p0


def random_dn(pkg, rng: Random, n: int, dims: dict[int, int], *,
              order: int, tries: int = 80):
    """A valid DnObject of the given shape (normal-form recipe).

    K(q) = P0 A(q) is drawn with the (anti)symmetry that makes A graded,
    nilpotent at 0 and self-adjoint at every order; only the
    isomorphism conditions need the retry loop.
    """
    degrees = degrees_of(dims)
    rank = len(degrees)
    for _ in range(tries):
        p0 = random_pairing0(pkg, rng, degrees, n)
        if p0 is None:
            continue
        p0_inv = pkg.linalg.inverse(p0)
        ksym = pkg.Scalar(1 if n % 2 else -1)
        zero = pkg.Series.zero(order)
        k_entries = [[zero for _ in range(rank)] for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                if degrees[i] + degrees[j] != -2:
                    continue
                bottom = degrees[min(i, j, key=lambda t: degrees[t])] == -n
                if i == j:
                    if n % 2 == 0:
                        continue
                    k_entries[i][j] = rand_series(pkg, rng, order,
                                                  constant=bottom)
                    continue
                s = rand_series(pkg, rng, order, constant=bottom)
                k_entries[i][j] = s
                k_entries[j][i] = s * ksym
        a_mat = pkg.SeriesMatrix(k_entries).scalar_left_mul(p0_inv)
        try:
            return pkg.vshs.DnObject(n=n, graded_dims=dims, pairing0=p0,
                                    a_series=a_mat)
        except pkg.vshs.InvariantViolation:
            continue
    raise RuntimeError(f"no valid object of shape {dims} found")


def rand_nonzero_scalar(pkg, rng: Random, span: int = 4):
    while True:
        x = rand_scalar(pkg, rng, span)
        if not x.is_zero():
            return x


def random_flat_pair(pkg, rng: Random, n: int, dims: dict[int, int], *,
                     order: int):
    """(A, M0) with A(0)^T M0 + M0 A(0) = 0 and A(0) nilpotent; the
    higher coefficients of A are unconstrained (pairing recipe).

    Unlike the recipe, the entries that build A(0) are never zero, so
    A(0) has the largest nilpotency index its shape allows.  A zero
    there lowers the index, which shortens every Neumann sum and about
    halves the cost: it is a different shape, not different entries.
    """
    degrees = degrees_of(dims)
    rank = len(degrees)
    m0 = None
    while m0 is None:
        m0 = random_pairing0(pkg, rng, degrees, n)
    m0_inv = pkg.linalg.inverse(m0)
    ksym = pkg.Scalar(1 if n % 2 else -1)
    k0 = pkg.linalg.zeros(rank, rank)
    for i in range(rank):
        for j in range(i, rank):
            if degrees[i] + degrees[j] != -2:
                continue
            if i == j:
                if n % 2 == 0:
                    continue
                k0[i][j] = rand_nonzero_scalar(pkg, rng)
                continue
            v = rand_nonzero_scalar(pkg, rng)
            k0[i][j] = v
            k0[j][i] = v * ksym
    a0 = pkg.linalg.mat_mul(m0_inv, k0)
    coeffs = [a0] + [
        [[rand_scalar(pkg, rng, 2) for _ in range(rank)] for _ in range(rank)]
        for _ in range(order - 1)]
    a_mat = pkg.SeriesMatrix(
        [[pkg.Series([coeffs[m][i][j] for m in range(order)], order)
          for j in range(rank)] for i in range(rank)])
    return a_mat, m0


def nonreal_gaussian(pkg, rng: Random, span: int = 3):
    """A random Gaussian rational with nonzero imaginary part."""
    while True:
        c = pkg.Scalar(rand_fraction(rng, span), rand_fraction(rng, span))
        if c.im != 0:
            return c
