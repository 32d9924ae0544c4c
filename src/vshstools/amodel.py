"""Quantum cohomology input and instanton bookkeeping.

build_amodel_dn assembles the graded normal-form object of a variety
from classical topological data plus the divisor quantum multiplication
matrix.  The other half of the module is the Aspinwall-Morrison
correspondence between the middle connection entry g(Q) and genus-zero
instanton numbers of a variety of dimension n:

    g = 1 + (1/volume) * sum_d n_d d^w Q^d / (1 - Q^d)

with multiple-cover weight w = 3 for a threefold and w = 2 for a fourfold
(where g is the entry from degree -2 to 0), inverted degree by degree.
Inversion never rounds: a degree whose number fails to be a rational
integer is reported as suspect.  From n = 5 on the middle entries carry
several invariants (Greene-Morrison-Plesser, hep-th/9310022), so there is
no single g to invert and both directions refuse.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import linalg, vshs
from .linalg import Matrix
from .scalars import ONE, ZERO, Scalar
from .series import Series, SeriesMatrix


class ZeroVolume(ValueError):
    """The volume scalar must be nonzero to convert either way."""


class HardLefschetzFailure(ValueError):
    """Cup product with the divisor fails to induce the required
    isomorphisms."""


class UnsupportedDimension(ValueError):
    """Instanton numbers are read from one connection entry only for
    n <= 4."""


class UnitNotPreserved(ValueError):
    """Quantum multiplication does not keep the unit's divisor action
    classical."""


@dataclass(frozen=True)
class CohomologyInput:
    """Classical data of an n-dimensional variety in a homogeneous basis.

    betti maps cohomological degree to dimension; the basis is ordered
    by ascending degree, blocks in the order betti lists them.
    intersection is the Poincare pairing in that basis and
    quantum_mult is the matrix of quantum multiplication by the chosen
    divisor class, constant term the classical cup product.
    """
    n: int
    betti: Mapping[int, int]
    intersection: Matrix
    quantum_mult: SeriesMatrix


@dataclass(frozen=True)
class InstantonTable:
    """Nonzero candidate instanton numbers by degree.

    suspect lists degrees whose entry is not a rational integer; those
    values are reported exactly, never rounded.
    """
    max_degree: int
    entries: Mapping[int, Scalar] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "entries",
            {int(d): v for d, v in sorted(self.entries.items())
             if not v.is_zero()})

    @property
    def suspect(self) -> tuple[int, ...]:
        return tuple(d for d, v in self.entries.items()
                     if not v.is_integer())

    def __eq__(self, other) -> bool:
        if not isinstance(other, InstantonTable):
            return NotImplemented
        return (self.max_degree, self.entries) == \
            (other.max_degree, other.entries)


def cover_power(n: int) -> int:
    """The exponent w of the multiple-cover weight d^w in dimension n."""
    if n >= 5:
        raise UnsupportedDimension(
            f"instanton numbers in dimension {n} are not read from one "
            "connection entry; only n <= 4 is supported")
    return 2 if n == 4 else 3


def g_from_instantons(table: InstantonTable, volume: Scalar,
                      order: int, n: int = 3) -> Series:
    """The connection entry a table predicts, to the requested order."""
    power = cover_power(n)
    volume = Scalar.of(volume)
    if volume.is_zero():
        raise ZeroVolume("volume must be nonzero")
    coeffs = [ZERO] * order
    coeffs[0] = ONE
    vol_inv = volume.inverse()
    for d, n_d in table.entries.items():
        if d <= 0:
            raise ValueError("instanton degrees must be positive")
        weight = n_d * Scalar(d) ** power * vol_inv
        m = d
        while m < order:
            coeffs[m] = coeffs[m] + weight
            m += d
    return Series(coeffs, order)


def instantons_from_g(g: Series, volume: Scalar,
                      n: int = 3) -> InstantonTable:
    """Invert the Aspinwall-Morrison sum degree by degree."""
    power = cover_power(n)
    volume = Scalar.of(volume)
    if volume.is_zero():
        raise ZeroVolume("volume must be nonzero")
    order = g.order
    entries: dict[int, Scalar] = {}
    raw: dict[int, Scalar] = {}
    for k in range(1, order):
        acc = volume * g.coefficient(k)
        for d in range(1, k):
            if k % d == 0 and d in raw:
                acc = acc - raw[d] * Scalar(d) ** power
        n_k = acc * (Scalar(k) ** power).inverse()
        raw[k] = n_k
        if not n_k.is_zero():
            entries[k] = n_k
    return InstantonTable(max_degree=order - 1, entries=entries)


def build_amodel_dn(data: CohomologyInput) -> vshs.DnObject:
    """DnObject of a variety: V_k = H^(n+k), pairing the i-twisted
    Poincare form, connection the divisor quantum multiplication."""
    n = data.n
    degrees: list[int] = []
    for deg in sorted(data.betti):
        d = data.betti[deg]
        if d < 0:
            raise ValueError("negative Betti number")
        if deg < 0 or deg > 2 * n:
            raise ValueError(f"cohomological degree {deg} out of range")
        degrees.extend([deg - n] * d)
    rank = len(degrees)
    if data.quantum_mult.rows != rank or data.quantum_mult.cols != rank:
        raise ValueError("quantum multiplication size disagrees with "
                         "Betti numbers")
    if len(data.intersection) != rank or \
            any(len(r) != rank for r in data.intersection):
        raise ValueError("intersection form size disagrees with Betti "
                         "numbers")

    a0 = data.quantum_mult.at0()
    power = linalg.identity(rank)
    for k in range(1, n + 1):
        power = linalg.mat_mul(power, a0)
        dim_k = sum(1 for d in degrees if d == k)
        dim_mk = sum(1 for d in degrees if d == -k)
        if dim_k != dim_mk:
            raise HardLefschetzFailure(
                f"Betti numbers at degrees {n - k} and {n + k} differ")
        if dim_k == 0:
            continue
        rows = [i for i, d in enumerate(degrees) if d == k]
        cols = [j for j, d in enumerate(degrees) if d == -k]
        block = [[power[i][j] for j in cols] for i in rows]
        if linalg.rank(block) != dim_k:
            raise HardLefschetzFailure(
                f"divisor power {k} is not an isomorphism "
                f"H^{n - k} -> H^{n + k}")

    if n >= 1:
        rows = [i for i, d in enumerate(degrees) if d == -n + 2]
        cols = [j for j, d in enumerate(degrees) if d == -n]
        for i in rows:
            for j in cols:
                e = data.quantum_mult.entry(i, j)
                if any(not c.is_zero() for c in e.coeffs[1:]):
                    raise UnitNotPreserved(
                        "quantum multiplication must act classically "
                        "on the unit")

    sign = Scalar(-1 if (n * (n + 1) // 2) % 2 else 1)
    pairing0 = [[sign * Scalar.i_power(degrees[j]) *
                 data.intersection[i][j]
                 for j in range(rank)] for i in range(rank)]
    dims: dict[int, int] = {}
    for k in degrees:
        dims[k] = dims.get(k, 0) + 1
    return vshs.DnObject(n=n, graded_dims=dims, pairing0=pairing0,
                         a_series=data.quantum_mult)
