"""The three benchmark workloads: inputs, one operation, output check.

Each workload builds a batch of inputs from a seed, runs one operation
per input, and checks each output outside the timed call.  A check
returns None when the output is right and a one-line reason otherwise.
The inputs of one batch have distinct labels (one per shape or order),
so times of the same label can be compared across batches.
"""
from __future__ import annotations

import hashlib
import importlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path
from random import Random

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
QUINTIC = ROOT / "data" / "quintic.pf.txt"


def missing_sources() -> list[str]:
    """Files the benchmark needs from the checkout that are not there."""
    need = [SRC / "vshstools" / "__init__.py", QUINTIC]
    return [str(p.relative_to(ROOT)) for p in need if not p.is_file()]


def load_package():
    """Import vshstools afresh from the checkout's src/ and return it.

    Earlier imports are dropped first, so each call pays the full import
    (this is what set-up time repeats).
    """
    for name in [n for n in sys.modules
                 if n == "vshstools" or n.startswith("vshstools.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pkg = importlib.import_module("vshstools")
    importlib.import_module("vshstools.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"vshstools imported from {pkg.__file__}, "
                          f"not from {SRC}")
    return pkg


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# quintic-sweep
# ---------------------------------------------------------------------------

QUINTIC_ORDERS = (12, 16, 24, 32)
# Orders timed in every pass.  Order 32 alone takes about 14 s, half a
# run, so it is run once, untraced, in the traced run (pipeline_s.o32).
SWEEP_ORDERS = (12, 16, 24)
# sha256 of `vshs pipeline --format json` stdout on the quintic, recorded
# at the commit that introduced this benchmark; the output is exact, so
# any change of these bytes is a wrong output.
QUINTIC_SHA256 = {
    12: "b2a3e597d88c89697ed76333f9e180a4b56923a5ed5795cc4afcdb603b8cebfa",
    16: "7d604c497e25f1287e3d5228dbfd54834ca8f4fef1d1af5cd0e14d66971e3f4e",
    24: "44b0220257f64eae0921ab8c00978899366ebee8cee25d53cdc224d76080a1fe",
    32: "4b34a7ad77229d470d083ceb60e15f7a1621c606f93bbf2e7b695a08ca180b41",
}
# genus-zero instanton numbers n_1 .. n_10 of the quintic threefold
QUINTIC_N = (2875, 609250, 317206375, 242467530000, 229305888887625,
             248249742118022000, 295091050570845659250,
             375632160937476603550000, 503840510416985243645106250,
             704288164978454686113488249750)


def _pipeline_input(order: int) -> dict:
    return {"order": order,
            "argv": ["pipeline", "--input", str(QUINTIC), "--order",
                     str(order), "--format", "json"]}


class QuinticSweep:
    name = "quintic-sweep"

    def build(self, pkg, rng: Random) -> list[dict]:
        # the operator is fixed; the seed only orders the sweep
        orders = list(SWEEP_ORDERS)
        rng.shuffle(orders)
        return [_pipeline_input(n) for n in orders]

    def trace_extra(self, pkg) -> list[dict]:
        return [_pipeline_input(n) for n in QUINTIC_ORDERS
                if n not in SWEEP_ORDERS]

    def digest(self, pkg, inputs) -> str:
        text = QUINTIC.read_text(encoding="utf-8") + json.dumps(
            [[x["order"], x["argv"][1:]] for x in inputs])
        return _sha256(text)

    def label(self, inp) -> str:
        return f"o{inp['order']}"

    def run(self, pkg, inp):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = pkg.cli.main(inp["argv"])
        return code, buf.getvalue()

    def check(self, pkg, inp, out) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        if _sha256(text) != QUINTIC_SHA256[inp["order"]]:
            return "stdout differs from the recorded output"
        table = json.loads(text)["instantons"]
        got = tuple(int(table["entries"][str(d)]) for d in range(1, 11))
        if got != QUINTIC_N:
            return "n_1 .. n_10 differ from the quintic's"
        if table["suspect"] != []:
            return f"non-integral instanton numbers at {table['suspect']}"
        return None


# ---------------------------------------------------------------------------
# pairing-ext
# ---------------------------------------------------------------------------

PAIRING_ORDER = 16
# Shapes the pairing recipe can draw (n and the free graded dims), one
# of each rank from 3 to 7 and n = 2, 3 and 4; a seed changes only the
# entries.  The rank-8 shape (about 5 s) is left out so that a pass takes
# about 7.5 s and a run holds several passes.
PAIRING_SHAPES = ((2, {0: 1}), (3, {1: 1}), (4, {2: 1, 0: 1}), (3, {1: 2}),
                  (4, {2: 2, 0: 1}))

# The residual check runs in the image of the Gaussian rationals in
# Z/P, sending i to a square root of -1 mod P (P = 1 mod 4, so one
# exists).  The map is a ring homomorphism on every value whose
# denominators are prime to P, so a true identity holds in the image;
# a nonzero residual vanishes there only if P divides all its
# numerators.  This checks the recursion in integer arithmetic that
# shares no code with the package, at a small fraction of its cost.
P = 2 ** 64 - 59


def _sqrt_minus_one(p: int) -> int:
    for c in range(2, 200):
        r = pow(c, (p - 1) // 4, p)
        if r * r % p == p - 1:
            return r
    raise ArithmeticError("no square root of -1 found")


I_MOD = _sqrt_minus_one(P)


def _mod(x) -> int:
    """Image of a Scalar in Z/P; raises ValueError if P divides a
    denominator."""
    v = x.re.numerator * pow(x.re.denominator, -1, P)
    if x.im:
        v += x.im.numerator * pow(x.im.denominator, -1, P) * I_MOD
    return v % P


def _mod_coeffs(m) -> list[list[list[int]]]:
    """coefficient k -> row i -> column j, reduced mod P."""
    return [[[_mod(m.entry(i, j).coeffs[k]) for j in range(m.cols)]
             for i in range(m.rows)] for k in range(m.order)]


def flat_residual_vanishes(a, ext) -> bool:
    """theta M == A^T M + M A modulo q^order, checked mod P."""
    order, dim = a.order, a.rows
    ac, mc = _mod_coeffs(a), _mod_coeffs(ext)
    for k in range(order):
        for i in range(dim):
            for j in range(dim):
                s = 0
                for t in range(k + 1):
                    at, mkt = ac[t], mc[k - t]
                    for l in range(dim):
                        s += at[l][i] * mkt[l][j] + mkt[i][l] * at[l][j]
                if (k * mc[k][i][j] - s) % P:
                    return False
    return True


class PairingExt:
    name = "pairing-ext"

    def build(self, pkg, rng: Random) -> list[tuple]:
        out = []
        for n, free in PAIRING_SHAPES:
            dims = gen.graded_dims(n, free, mixed=False)
            out.append(gen.random_flat_pair(pkg, rng, n, dims,
                                            order=PAIRING_ORDER))
        return out

    def digest(self, pkg, inputs) -> str:
        objs = [[pkg.jsonio.matrix_to_obj(a),
                 pkg.jsonio.scalar_matrix_to_obj(m0)] for a, m0 in inputs]
        return _sha256(json.dumps(objs, sort_keys=True))

    def label(self, inp) -> str:
        a, _ = inp
        return f"r{a.rows}"

    def trace_extra(self, pkg) -> list:
        return []

    def run(self, pkg, inp):
        a, m0 = inp
        return pkg.vshs.extend_pairing(a, m0, mode="flat")

    def check(self, pkg, inp, out) -> str | None:
        a, m0 = inp
        if out.rows != a.rows or out.order != a.order:
            return "extension has the wrong shape or order"
        if out.at0() != m0:
            return "M(0) != M0"
        if not flat_residual_vanishes(a, out):
            return "theta M - A^T M - M A != 0"
        return None


# ---------------------------------------------------------------------------
# nf-roundtrip
# ---------------------------------------------------------------------------

NF_ORDER = 8
# n, free graded dims, mixed parity: pure-parity shapes of ranks 4, 5, 6
# and 8 and the mixed-parity shape of rank 10 (n = 3), which takes about
# 45% of a pass.  A seed changes only the entries and c.  The rank-13
# mixed shape (n = 4, about 7 s) is left out so that a pass takes about
# 7.5 s and a run holds several passes.
NF_SHAPES = ((3, {1: 1}, False), (4, {2: 1, 0: 1}, False),
             (3, {1: 2}, False), (4, {2: 2, 0: 2}, False),
             (3, {1: 1, 2: 2}, True))


class NfRoundtrip:
    name = "nf-roundtrip"

    def build(self, pkg, rng: Random) -> list[tuple]:
        out = []
        for n, free, mixed in NF_SHAPES:
            dims = gen.graded_dims(n, free, mixed)
            d = gen.random_dn(pkg, rng, n, dims, order=NF_ORDER)
            out.append((d, gen.nonreal_gaussian(pkg, rng)))
        return out

    def digest(self, pkg, inputs) -> str:
        objs = [[pkg.jsonio.dn_to_obj(d), pkg.jsonio.scalar_to_str(c)]
                for d, c in inputs]
        return _sha256(json.dumps(objs, sort_keys=True))

    def label(self, inp) -> str:
        d, _ = inp
        return f"n{d.n}.r{d.rank}"

    def trace_extra(self, pkg) -> list:
        return []

    def run(self, pkg, inp):
        """Normal form -> Rees -> geometric -> Rees, then the pull-back
        q -> q/c renormalized."""
        vshs = pkg.vshs
        d, c = inp
        rees = vshs.from_normal_form(d)
        geometric = vshs.rees_to_geometric(rees)
        back = vshs.geometric_to_rees(geometric)
        c_inv = c.inverse()
        pulled = vshs.GeometricVHS(conn=geometric.conn.dilate(c_inv),
                                   levels2=geometric.levels2,
                                   pairing=geometric.pairing.dilate(c_inv),
                                   parity=geometric.parity)
        return rees, back, vshs.to_normal_form(pulled)

    def check(self, pkg, inp, out) -> str | None:
        d, c = inp
        rees, back, report = out
        if back != rees:
            return "geometric_to_rees does not return the Rees module"
        if report.mirror_coordinate != pkg.Series.coordinate(d.order):
            return "canonical coordinate is not q"
        if report.dn != pkg.vshs.rescale_coordinate(d, c):
            return "normal form is not the rescaled input"
        return None


WORKLOADS = {w.name: w for w in (QuinticSweep(), PairingExt(),
                                 NfRoundtrip())}
