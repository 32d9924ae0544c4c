"""Quantum cohomology input and instanton bookkeeping.

build_amodel_dn assembles the graded normal-form object of a variety
from classical topological data plus the divisor quantum
multiplication matrix, and leaves checking it to vshs.DnObject.  The
other half of the module is the Aspinwall-Morrison correspondence
between the middle connection entry g(Q) and genus-zero instanton
numbers of a variety of dimension n:

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

from . import vshs
from .scalars import ONE, ZERO, Scalar
from .series import Series, SeriesMatrix


class ZeroVolume(ValueError):
    """The volume scalar must be nonzero to convert either way."""


class UnsupportedDimension(ValueError):
    """Instanton numbers are read from one connection entry only for
    n <= 4."""


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
    intersection: list[list[Scalar]]
    quantum_mult: SeriesMatrix


@dataclass(frozen=True)
class InstantonTable:
    """Nonzero candidate instanton numbers by degree, each degree in
    1..max_degree; vshs.InvariantViolation otherwise.

    suspect lists degrees whose entry is not a rational integer; those
    values are reported exactly, never rounded.
    """
    max_degree: int
    entries: Mapping[int, Scalar] = field(default_factory=dict)

    def __post_init__(self):
        if self.max_degree < 0:
            raise vshs.InvariantViolation(
                f"max_degree must be nonnegative; found {self.max_degree}")
        for d in sorted(map(int, self.entries)):
            if not 1 <= d <= self.max_degree:
                raise vshs.InvariantViolation(
                    f"instanton degrees must lie in 1..{self.max_degree}; "
                    f"found {d}")
        object.__setattr__(
            self, "entries",
            {int(d): v for d, v in sorted(self.entries.items())
             if not v.is_zero()})

    @property
    def suspect(self) -> tuple[int, ...]:
        return tuple(d for d, v in self.entries.items()
                     if not v.is_integer())


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
    """DnObject of a variety: V_k = H^(n+k), pairing the Poincare form
    times vshs._prefactor(n) i^(k-n) in the degree k of the second
    argument, connection the divisor quantum multiplication.  Only the
    Betti numbers and the size of the intersection form are checked
    here; DnObject checks the rest (vshs.HardLefschetzFailure,
    vshs.UnitNotPreserved and other vshs.InvariantViolation)."""
    n = data.n
    if any(d < 0 for d in data.betti.values()):
        raise ValueError("negative Betti number")
    degrees = [deg - n for deg in sorted(data.betti)
               for _ in range(data.betti[deg])]
    rank = len(degrees)
    if len(data.intersection) != rank or \
            any(len(r) != rank for r in data.intersection):
        raise ValueError("intersection form size disagrees with Betti "
                         "numbers")
    twist = [vshs._prefactor(n) * Scalar.i_power(k - n) for k in degrees]
    pairing0 = [[t * x for t, x in zip(twist, row)]
                for row in data.intersection]
    return vshs.DnObject(
        n=n, graded_dims={deg - n: d for deg, d in data.betti.items()},
        pairing0=pairing0, a_series=data.quantum_mult)
