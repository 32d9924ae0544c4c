"""Acceptance suite: nine exact end-to-end properties, one test each.

Every check is zero-tolerance rational arithmetic.  Each test finishes
by printing a single PASS line, so `pytest -v -s tests/test_acceptance.py`
reads as a checklist; a failure surfaces as an ordinary pytest failure.
"""
import io
import json
import time
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path
from random import Random

import pytest

from vshstools import cli, linalg, picard_fuchs, vshs
from vshstools.nilpotent import weight_filtration
from vshstools.scalars import ONE, ZERO, Scalar
from vshstools.series import Series

from genutil import (mat_vec, rand_scalar, random_dn, random_flat_pair,
                     random_nilpotent_conjugate, random_rees, subspace_equal)

DATA = Path(__file__).resolve().parent.parent / "data"
QUINTIC = str(DATA / "quintic.pf.txt")


@pytest.fixture(scope="module")
def quintic_order_12():
    """One timed order-12 pipeline run shared by criteria 1 and 2."""
    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        code = cli.main(["pipeline", "--input", QUINTIC, "--order", "12",
                         "--volume", "5", "--sign", "1",
                         "--format", "json"])
    elapsed = time.perf_counter() - start
    assert code == 0
    return json.loads(buf.getvalue()), elapsed


def test_criterion_1_quintic_curve_counts(quintic_order_12):
    payload, elapsed = quintic_order_12
    entries = payload["instantons"]["entries"]
    assert entries["1"] == "2875"
    assert entries["2"] == "609250"
    assert elapsed < 10.0
    print(f"criterion 1 PASS: quintic n_1 = 2875 and n_2 = 609250 "
          f"exactly ({elapsed:.2f}s at order 12)")


def test_criterion_2_integrality_through_degree_10(quintic_order_12):
    payload, elapsed = quintic_order_12
    entries = payload["instantons"]["entries"]
    assert payload["instantons"]["suspect"] == []
    for d in range(3, 11):
        value = entries[str(d)]
        assert "/" not in value and "i" not in value
        assert int(value) > 0
    assert elapsed < 60.0
    print(f"criterion 2 PASS: n_3..n_10 are positive integers "
          f"({elapsed:.2f}s at order 12)")


def test_criterion_3_two_route_mirror_map():
    operators = ("quintic", "synthetic-a", "synthetic-b", "synthetic-c")
    for name in operators:
        op = picard_fuchs.parse_pf((DATA / f"{name}.pf.txt").read_text())
        assert op.order_theta == 4
        basis = picard_fuchs.frobenius_solve(op, depth=2, order=12)
        q_frobenius = picard_fuchs.mirror_map_frobenius(basis)
        geometric = picard_fuchs.companion_vhs(op, 12)
        canonical = vshs.to_canonical_connection(geometric)
        q_canonical = vshs.canonical_coordinate(canonical.a_series,
                                                canonical.levels2)
        assert q_frobenius == q_canonical
        assert q_frobenius.coefficient(1) == ONE
    print("criterion 3 PASS: Frobenius and canonical-coordinate mirror "
          "maps agree to order 12 on all 4 operators")


def test_criterion_4_normal_form_roundtrip():
    rng = Random(401)
    start = time.perf_counter()
    for i in range(50):
        n = 3 if i % 2 else 4
        d = random_dn(rng, n, order=8, max_dim=2)
        geometric = vshs.rees_to_geometric(vshs.from_normal_form(d))
        report = vshs.to_normal_form(geometric)
        assert report.dn == d
        assert report.mirror_coordinate == Series.coordinate(8)
    elapsed = time.perf_counter() - start
    print(f"criterion 4 PASS: 50 random D3/D4 objects return from the "
          f"geometric side exactly ({elapsed:.1f}s)")


def test_criterion_5_pairing_extension_recursion():
    rng = Random(502)
    start = time.perf_counter()
    for _ in range(100):
        a, m0 = random_flat_pair(rng, order=16)
        ext = vshs.extend_pairing(a, m0, mode="flat")
        residual = ext.theta_entries() - a.transpose() * ext - ext * a
        assert residual.is_zero()
        assert ext.at0() == m0
    elapsed = time.perf_counter() - start
    print(f"criterion 5 PASS: theta M - A^T M - M A vanishes mod q^16 "
          f"on 100 random compatible pairs ({elapsed:.1f}s)")


def jordan_matrix(partition):
    dim = sum(partition)
    mat = [[ZERO] * dim for _ in range(dim)]
    pos = 0
    for size in partition:
        for k in range(size - 1):
            mat[pos + k][pos + k + 1] = ONE
        pos += size
    return mat


def partitions(total):
    if total == 0:
        yield ()
        return
    for first in range(total, 0, -1):
        for rest in partitions(total - first):
            if not rest or first >= rest[0]:
                yield (first,) + rest


def unit_vector(i, dim):
    return [ONE if j == i else ZERO for j in range(dim)]


def brute_force_weights(mat):
    """Search every basis weight assignment for the filtration axioms.

    Works on plain Jordan matrices, where each column of each power has
    at most one nonzero entry, so both axioms reduce to comparisons of
    the assigned weights.  Returns the unique admissible assignment.
    """
    dim = len(mat)
    powers = [linalg.identity(dim)]
    while any(not x.is_zero() for row in powers[-1] for x in row):
        powers.append(linalg.mat_mul(mat, powers[-1]))
    n = len(powers) - 2
    support = []
    for p in powers:
        cols = []
        for j in range(dim):
            hits = [i for i in range(dim) if not p[i][j].is_zero()]
            assert len(hits) <= 1
            cols.append(hits[0] if hits else None)
        support.append(cols)

    def admissible(wt):
        for i, w in enumerate(wt):
            j = support[1][i]
            if j is not None and wt[j] > w - 2:
                return False
        for k in range(n + 1):
            sources = [i for i, w in enumerate(wt) if w == k]
            targets = {i for i, w in enumerate(wt) if w == -k}
            images = set()
            for i in sources:
                j = support[k][i]
                if j is None or wt[j] != -k:
                    return False
                images.add(j)
            if len(images) != len(sources) or images != targets:
                return False
        return True

    survivors = [wt for wt in product(range(-n, n + 1), repeat=dim)
                 if admissible(wt)]
    assert len(survivors) == 1
    return survivors[0], n


def test_criterion_6_weight_filtration_vs_exhaustive_search():
    rng = Random(606)
    checked = 0
    for dim in range(1, 6):
        for part in partitions(dim):
            mat = jordan_matrix(list(part))
            weights, n = brute_force_weights(mat)
            wf = weight_filtration(mat)
            assert wf.center_shift == n
            for k in range(-n - 1, n + 2):
                expected = linalg.row_space_basis(
                    [unit_vector(i, dim) for i in range(dim)
                     if weights[i] <= k])
                assert subspace_equal(wf.le(k), expected)
            if dim >= 2:
                conj, p = random_nilpotent_conjugate(rng, mat)
                wf_conj = weight_filtration(conj)
                for k in range(-n - 1, n + 2):
                    moved = [mat_vec(p, v) for v in wf.le(k)]
                    assert subspace_equal(
                        wf_conj.le(k), linalg.row_space_basis(moved))
            checked += 1
    assert checked == 18
    print("criterion 6 PASS: filtration matches the exhaustive search "
          "on all 18 Jordan types of dimension <= 5")


def test_criterion_7_rees_roundtrip():
    rng = Random(707)
    start = time.perf_counter()
    mixed_seen = 0
    for _ in range(50):
        rees = random_rees(rng, order=8)
        if len({k % 2 for k in rees.degrees}) == 2:
            mixed_seen += 1
        assert all(vshs.verify_prevhs(rees).values())
        back = vshs.geometric_to_rees(vshs.rees_to_geometric(rees))
        assert back == rees
    assert mixed_seen >= 10
    elapsed = time.perf_counter() - start
    print(f"criterion 7 PASS: 50 Rees modules survive the geometric "
          f"roundtrip exactly, {mixed_seen} with mixed parity "
          f"({elapsed:.1f}s)")


def test_criterion_8_coordinate_rescaling():
    rng = Random(808)
    start = time.perf_counter()
    for _ in range(50):
        d = random_dn(rng, 3, order=8, max_dim=2)
        c = rand_scalar(rng, 3, complex_ok=True)
        while c.is_zero():
            c = rand_scalar(rng, 3, complex_ok=True)
        geometric = vshs.rees_to_geometric(vshs.from_normal_form(d))
        c_inv = c.inverse()
        pulled = vshs.GeometricVHS(conn=geometric.conn.dilate(c_inv),
                                   levels2=geometric.levels2,
                                   pairing=geometric.pairing.dilate(c_inv),
                                   parity=geometric.parity)
        report = vshs.to_normal_form(pulled)
        assert report.dn == vshs.rescale_coordinate(d, c)
        assert report.mirror_coordinate == Series.coordinate(8)
    elapsed = time.perf_counter() - start
    print(f"criterion 8 PASS: pulled-back objects renormalize to "
          f"A(Q/c) on 50 random (D3, c) draws ({elapsed:.1f}s)")


def test_criterion_9_trivial_connection_sanity():
    op4 = picard_fuchs.parse_pf((DATA / "theta4.pf.txt").read_text())
    report4, table4 = picard_fuchs.bmodel_pipeline(op4, Scalar(5), 10)
    dn = report4.dn
    g = dn.a_series.entry(dn.degrees.index(1), dn.degrees.index(-1))
    assert g == Series.one(10)
    assert table4.entries == {}
    assert report4.mirror_coordinate == Series.coordinate(10)

    op2 = picard_fuchs.parse_pf((DATA / "theta2.pf.txt").read_text())
    report2, table2 = picard_fuchs.bmodel_pipeline(op2, Scalar(5), 10)
    assert vshs.yukawa(report2.dn) * Scalar(5).inverse() == Series.one(10)
    assert table2.entries == {}
    assert report2.mirror_coordinate == Series.coordinate(10)
    print("criterion 9 PASS: theta^4 and theta^2 give g = 1 and empty "
          "instanton tables")
