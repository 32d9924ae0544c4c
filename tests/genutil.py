"""Randomized object generators shared by the test modules.

Everything is driven by an explicit random.Random so failures replay.
The DnObject generator works through the pairing: choosing K(q) = P0 A(q)
with the right (anti)symmetry makes A automatically graded, nilpotent at
0, and self-adjoint at every order, so only the isomorphism conditions
need a retry loop.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd
from random import Random

from vshstools import linalg, vshs
from vshstools.nilpotent import NotNilpotent, NotSplit, WeightFiltration
from vshstools.picard_fuchs import LogSeries, PFOperator, frobenius_solve
from vshstools.scalars import ONE, ZERO, Scalar
from vshstools.series import LiftedVector, Series, SeriesMatrix


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
    """Graded degrees whose dimensions Hard Lefschetz allows: each part
    (weight n, and n - 1 when mixed) grows toward the middle degree, and
    on the mixed part the form <v, A(0)^k w> of V_-k is skew (A(0) is
    skew for the pairing, which is (-1)^n symmetric), so each of its
    dimensions is even.  One draw per free degree either way."""
    dims: dict[int, int] = {}
    prev = 1
    for k in range(n, 0, -2):
        d = 1 if k == n else max(prev, rng.randint(1, max_dim))
        dims[k] = dims[-k] = prev = d
    if n % 2 == 0:
        dims[0] = max(prev, rng.randint(1, max_dim))
    if mixed and n >= 1:
        m, prev = n - 1, 2
        for k in range(m, 0, -2):
            d = 2 if (k == 1 and n % 2 == 0) else rng.randint(1, max_dim)
            dims[k] = dims[-k] = prev = max(prev, d - d % 2 or 2)
        if m % 2 == 0:
            dims[0] = prev
    degrees: list[int] = []
    for k in sorted(dims):
        degrees.extend([k] * dims[k])
    return degrees


def _random_pairing0(rng: Random, degrees: list[int], n: int
                     ) -> tuple[list[list[Scalar]], list[list[Scalar]]] | None:
    """A random pairing of degree 0 and its inverse, or None if it is
    singular."""
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
    p0_inv = linalg.try_inverse(p0)
    return None if p0_inv is None else (p0, p0_inv)


def random_dn(rng: Random, n: int, *, order: int = 8, max_dim: int = 2,
              mixed: bool = False, tries: int = 80) -> vshs.DnObject:
    """A valid DnObject with random graded dimensions and entries."""
    for _ in range(tries):
        degrees = _degrees_profile(rng, n, max_dim, mixed)
        rank = len(degrees)
        pair = _random_pairing0(rng, degrees, n)
        if pair is None:
            continue
        p0, p0_inv = pair
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
        pair = _random_pairing0(rng, degrees, n)
        if pair is not None:
            break
    m0, m0_inv = pair
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


def mat_add(a, b):
    """a + b, entry by entry in Scalars."""
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a):
    """-a, entry by entry in Scalars."""
    return [[-x for x in row] for row in a]


def mat_scale(a, c):
    """c a, entry by entry in Scalars."""
    return [[c * x for x in row] for row in a]


def scalar_product(a, b):
    """a b, one Scalar product and one Scalar sum per term: the reference
    for the integer kernel's products."""
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0])):
            s = ZERO
            for x, brow in zip(row, b):
                s = s + x * brow[j]
            out[-1].append(s)
    return out


# References for SeriesMatrix on its coefficient lists (the scalar
# matrix of each q^k), in Scalars, one q-order at a time.

def coefficients_product(a, b):
    """C_k = sum_(j=0..k) A_j B_(k-j), to the shorter order."""
    return [reduce(mat_add, (scalar_product(a[j], b[k - j])
                             for j in range(k + 1)))
            for k in range(min(len(a), len(b)))]


def coefficients_transpose(a):
    return [[list(col) for col in zip(*m)] for m in a]


def coefficients_theta(a):
    """theta applied to every entry: A_k times k."""
    return [mat_scale(m, Scalar(k)) for k, m in enumerate(a)]


def coefficients_dilate(a, c):
    """q -> c q in every entry: A_k times c^k."""
    out, power = [], ONE
    for m in a:
        out.append(mat_scale(m, power))
        power = power * c
    return out


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


def rank(m):
    """Dimension of the row space of m."""
    return len(linalg.row_space_basis(m))


def subspace_equal(a, b):
    return linalg.row_space_basis(a) == linalg.row_space_basis(b)


def subspace_leq(sub, sup):
    """span(sub) ⊆ span(sup)."""
    if not sub:
        return True
    return rank(list(sup) + list(sub)) == rank(sup)


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


# References for the nilpotent module: the weight filtration by the
# kernel/image recursion and the splitting by one cut per level, as the
# module built them before it read both off a Jordan chain basis.

def _image(m, basis):
    """Canonical basis of m span(basis); basis nonempty."""
    return linalg.row_space_basis(
        linalg.transpose(linalg.mat_mul(m, linalg.transpose(basis))))


def ref_weight_filtration(n_mat) -> WeightFiltration:
    """Top-down: W_n = V, W_k = ker N^(k+1) + N W_(k+2) for n > k >= 0
    (W_(n+1) = V) and W_(-k) = N^k W_k, n the nilpotency index.  On one
    Jordan block both sides of each step are spanned by the same tail of
    the block's basis, and kernels, images and sums respect a sum of
    blocks.  Raises NotNilpotent as the module does."""
    dim = len(n_mat)
    if dim == 0:
        return WeightFiltration(center_shift=0, dim=0, subspaces={0: []})
    powers = [linalg.identity(dim)]
    for _ in range(dim):
        power = linalg.mat_mul(powers[-1], n_mat)
        if linalg.is_zero_matrix(power):
            break
        powers.append(power)
    else:
        raise NotNilpotent(f"N^{dim} != 0")
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


def ref_cut_splitting(n_mat, levels2):
    """I^p = F^(>=p) ∩ W_p, one cut per level: the combinations of W_p's
    basis that vanish off F^(>=p), then one rank for the direct sum.
    Raises NotSplit and NotNilpotent as the module does."""
    dim = len(n_mat)
    mw = ref_weight_filtration(n_mat)
    pieces = {}
    assembled = []
    for p in range(-mw.center_shift, max(levels2, default=0) + 1):
        w = mw.le(p)
        low = [[v[i] for v in w] for i in range(dim) if levels2[i] < p]
        if low and w:
            w = linalg.mat_mul(linalg.nullspace(low), w)
        piece = linalg.row_space_basis(w)
        if piece:
            pieces[p] = piece
            assembled.extend(piece)
    if len(assembled) != dim or rank(assembled) != dim:
        raise NotSplit("graded pieces do not give a direct sum")
    return pieces


def matrix_identity(n: int, order: int) -> SeriesMatrix:
    return SeriesMatrix.from_scalar_matrix(linalg.identity(n), order)


def matrix_inverse(m: SeriesMatrix) -> SeriesMatrix:
    """The inverse of m order by order, for m(0) invertible:
    X_0 = M_0^-1 and X_k = -M_0^-1 sum_(j=1..k) M_j X_(k-j)."""
    n = m.rows
    xs = [linalg.inverse(m.coeffs[0])]
    neg_inv = mat_neg(xs[0])
    for k in range(1, m.order):
        s = linalg.zeros(n, n)
        for j in range(1, k + 1):
            s = mat_add(s, linalg.mat_mul(m.coeffs[j], xs[k - j]))
        xs.append(linalg.mat_mul(neg_inv, s))
    return SeriesMatrix.from_coefficients(xs, n, n)


def gauge_transform(b: SeriesMatrix, g: SeriesMatrix) -> SeriesMatrix:
    """The connection matrix b in the frame g: g^-1 (b g - theta g)."""
    return matrix_inverse(g) * (b * g - g.theta_entries())


def horner(f: Series, g: Series) -> Series:
    """f(g) by Horner's rule, one product per term: the reference
    composition of the tests."""
    n = min(f.order, g.order)
    acc = Series.zero(n)
    for k in range(n - 1, -1, -1):
        acc = acc * g.truncate(n) + Series.constant(f.coeffs[k], n)
    return acc


def pairing_residual(a: SeriesMatrix, m: SeriesMatrix
                     ) -> tuple[int, int, int] | None:
    """(k, i, j) of the first nonzero coefficient of theta M - A^T M - M A,
    by q-order and then row by row, or None.  Summed Scalar by Scalar, as
    two products per term: the reference for the integer kernel that
    vshs checks the pairing equation with."""
    dim = a.rows
    for k in range(min(a.order, m.order)):
        for i in range(dim):
            for j in range(dim):
                r = Scalar(k) * m.coeffs[k][i][j]
                for t in range(k + 1):
                    a_t, m_t = a.coeffs[t], m.coeffs[k - t]
                    for l in range(dim):
                        r = r - a_t[l][i] * m_t[l][j] - m_t[i][l] * a_t[l][j]
                if not r.is_zero():
                    return k, i, j
    return None


def first_asymmetry(m: SeriesMatrix, parity: int) -> tuple[int, int] | None:
    """The first (i, j), row by row with i <= j, where M^T = (-1)^parity M
    fails at some q-order, or None, compared Scalar by Scalar: the
    reference for the integer check of GeometricVHS."""
    for i in range(m.rows):
        for j in range(i, m.cols):
            if any(c[i][j] != (-c[j][i] if parity else c[j][i])
                   for c in m.coeffs):
                return i, j
    return None


def extend_pairing_two_products(a: SeriesMatrix, m0) -> SeriesMatrix:
    """The solution M of theta M = A^T M + M A with M(0) = m0, order by
    order: k M_k = L(M_k) + Phi_k with L(X) = A_0^T X + X A_0 and
    Phi_k = sum_(j=1..k) A_j^T M_(k-j) + M_(k-j) A_j, two products per
    term, by the terminating Neumann sum.  The reference for
    vshs.extend_pairing in mode "flat", for a compatible seed."""
    dim = a.rows
    at = [linalg.transpose(c) for c in a.coeffs]

    def sandwich(j, x):
        return mat_add(linalg.mat_mul(at[j], x),
                       linalg.mat_mul(x, a.coeffs[j]))

    ms = [linalg.copy_matrix(m0)]
    for k in range(1, a.order):
        term = linalg.zeros(dim, dim)
        for j in range(1, k + 1):
            term = mat_add(term, sandwich(j, ms[k - j]))
        m_k, factor = linalg.zeros(dim, dim), ONE / Scalar(k)
        for _ in range(2 * dim + 3):
            if linalg.is_zero_matrix(term):
                break
            m_k = mat_add(m_k, mat_scale(term, factor))
            term, factor = sandwich(0, term), factor / Scalar(k)
        else:
            raise AssertionError("the Neumann sum does not terminate")
        ms.append(m_k)
    return SeriesMatrix.from_coefficients(ms, dim, dim)


def yukawa_by_derivatives(d: vshs.DnObject) -> Series:
    """<vol, nabla^n vol> over (-1)^(n(n+1)/2) i^n, nabla = theta + A
    applied n times to the volume vector, entry by entry with the theta
    terms kept.  The reference for vshs.yukawa, which drops theta."""
    n, order, rank, vol = d.n, d.order, d.rank, d.volume_index
    a = [[d.a_series.entry(i, j) for j in range(rank)] for i in range(rank)]
    vec = [Series.one(order) if i == vol else Series.zero(order)
           for i in range(rank)]
    for _ in range(n):
        vec = [sum((a[i][j] * vec[j] for j in range(rank)), vec[i].theta())
               for i in range(rank)]
    total = sum((vec[j] * d.pairing0[vol][j] for j in range(rank)),
                Series.zero(order))
    sign = Scalar(-1 if (n * (n + 1) // 2) % 2 else 1)
    return total * (sign * Scalar.i_power(n)).inverse()


def block_diagonal(x: SeriesMatrix, y: SeriesMatrix) -> SeriesMatrix:
    """diag(x, y), for square x and y of one order."""
    n1, n2 = x.rows, y.rows
    return SeriesMatrix.from_coefficients(
        [[row + [ZERO] * n2 for row in cx] + [[ZERO] * n1 + row for row in cy]
         for cx, cy in zip(x.coeffs, y.coeffs)], n1 + n2, n1 + n2)


def eps_quotient(rho: LiftedVector, tau: LiftedVector) -> LiftedVector:
    """-rho / tau in the eps-series of their common length n, tau(0) != 0,
    over one denominator with the common content divided out, for any
    tau.  The reference for the Frobenius step, which divides by the
    indicial monomial only.

    With 1/tau_0 = c / n0, c = conj tau_0 and n0 = |tau_0|^2, the
    quotient v of the numerators has v_s = V_s / n0^(s+1) and
        V_s = c (n0^s rho_s - sum_(i=1..s) n0^(i-1) tau_i V_(s-i)),
    all Gaussian integers; the denominators then give -rho / tau =
    -tau_den V_s n0^(n-1-s) / (rho_den n0^n).
    """
    n = len(rho[1])
    rr, ri = rho[1], rho[2] or [0] * n
    tr, ti = tau[1], tau[2] or [0] * n
    n0, cr, ci = tr[0] * tr[0] + ti[0] * ti[0], tr[0], -ti[0]
    vr: list[int] = []
    vi: list[int] = []
    for s in range(n):
        xr, xi = n0 ** s * rr[s], n0 ** s * ri[s]
        for i in range(1, s + 1):
            f = n0 ** (i - 1)
            xr -= f * (tr[i] * vr[s - i] - ti[i] * vi[s - i])
            xi -= f * (tr[i] * vi[s - i] + ti[i] * vr[s - i])
        vr.append(xr * cr - xi * ci)
        vi.append(xr * ci + xi * cr)
    re = [-tau[0] * x * n0 ** (n - 1 - s) for s, x in enumerate(vr)]
    im = [-tau[0] * x * n0 ** (n - 1 - s) for s, x in enumerate(vi)]
    den = rho[0] * n0 ** n
    g = gcd(den, *re, *im)
    return (den // g, [x // g for x in re],
            [x // g for x in im] if any(im) else None)


def apply_by_series_products(op: PFOperator, sol: LogSeries) -> LogSeries:
    """L sol written densely: theta^j sol from Series.theta part by part,
    theta(f (log q)^i / i!) = theta f (log q)^i / i! + f (log q)^(i-1) /
    (i-1)!, and one full series product per part and term c_j(q) theta^j.
    The reference for PFOperator.apply on the integer kernel."""
    n = sol.order
    total = [Series.zero(n)] * sol.depth
    parts = list(sol.parts)
    for j in range(op.order_theta + 1):
        cj = op.coefficient_series(j, n)
        total = [t + p * cj for t, p in zip(total, parts)]
        parts = [p.theta() + nxt
                 for p, nxt in zip(parts, parts[1:] + [Series.zero(n)])]
    return LogSeries(total)


def couplings_by_periods(op: PFOperator, order: int) -> list[LogSeries]:
    """K_0 .. K_n from the periods, for an operator of theta-order n + 1:
    with omega_j the Frobenius solutions and y0 log q + f the single-log
    one, g^(0)_j = omega_j / y0, theta_t = (1 + theta(f/y0))^-1 theta
    (t = log q + f/y0) and, for j >= k,
        g^(k)_j = theta_t (g^(k-1)_j / K_(k-1)),  K_k = g^(k)_k.
    Each K_k is a LogSeries, so a log part that fails to cancel shows;
    the division by K_(k-1) reads its part without log.  The periods
    reference for the normal form, whose entry (k, k-1) is K_k in the
    mirror coordinate."""
    basis = frobenius_solve(op, op.order_theta, order)
    y0_inv = basis.y0.inverse()
    dt_inv = ((basis.solutions[1].parts[0] * y0_inv).theta()
              + Series.one(order)).inverse()

    def times(x: LogSeries, s: Series) -> LogSeries:
        return LogSeries([p * s for p in x.parts])

    g = [times(w, y0_inv) for w in basis.solutions]
    ks = [g[0]]
    for _ in range(1, len(g)):
        k_inv = ks[-1].parts[0].inverse()
        g = [times(times(x, k_inv).theta(), dt_inv) for x in g[1:]]
        ks.append(g[0])
    return ks
