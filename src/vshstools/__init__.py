"""Exact-arithmetic variations of semi-infinite Hodge structure.

Truncated power series over the Gaussian rationals, weight filtrations
of nilpotent endomorphisms, the Rees-module/geometric dictionary with
its normal forms, Picard-Fuchs operators with Frobenius bases, and the
instanton bookkeeping that ties a threefold's quantum connection to its
genus-zero numbers.
"""
from .amodel import (CohomologyInput, InstantonTable, ZeroVolume,
                     build_amodel_dn, g_from_instantons, instantons_from_g)
from .nilpotent import (NotNilpotent, NotSplit, WeightFiltration,
                        graded_splitting, jordan_partition,
                        nilpotency_index, weight_filtration)
from .picard_fuchs import (FrobeniusBasis, LogSeries, MirrorMapMismatch,
                           NotMaximallyUnipotent, ParseError, PFOperator,
                           bmodel_pipeline, companion_vhs, frobenius_solve,
                           mirror_map_frobenius, parse_pf)
from .scalars import Scalar, format_scalar, parse_scalar
from .series import (BadConstantTerm, NonzeroConstant, NotReversible, Series,
                     SeriesMatrix, ZeroConstantTerm)
from .vshs import (DegreeViolation, DnObject, GeometricVHS,
                   HardLefschetzFailure, InconsistentLift,
                   InvariantViolation, NormalFormReport, NotFree,
                   NotHodgeTate, NotNilpotentResidue, NotProportional,
                   ReesModule, ResidueNotCompatible, UnitNotPreserved, ZeroKS,
                   ZeroScalar, canonical_coordinate, extend_pairing,
                   formal_flat_gauge, from_normal_form, geometric_to_rees,
                   rees_to_geometric, rescale_coordinate,
                   to_canonical_connection, to_normal_form, verify_prevhs,
                   yukawa)

__version__ = "0.1.0"

__all__ = [
    "BadConstantTerm", "CohomologyInput", "DegreeViolation", "DnObject",
    "FrobeniusBasis", "GeometricVHS", "HardLefschetzFailure",
    "InconsistentLift", "InstantonTable", "InvariantViolation", "LogSeries",
    "MirrorMapMismatch", "NonzeroConstant", "NormalFormReport",
    "NotFree", "NotHodgeTate", "NotMaximallyUnipotent", "NotNilpotent",
    "NotNilpotentResidue", "NotProportional", "NotReversible", "NotSplit",
    "ParseError", "PFOperator", "ReesModule",
    "ResidueNotCompatible", "Scalar", "Series", "SeriesMatrix",
    "UnitNotPreserved", "WeightFiltration", "ZeroConstantTerm", "ZeroKS",
    "ZeroScalar", "ZeroVolume", "bmodel_pipeline", "build_amodel_dn",
    "canonical_coordinate", "companion_vhs", "extend_pairing",
    "formal_flat_gauge", "format_scalar", "from_normal_form",
    "frobenius_solve", "g_from_instantons", "geometric_to_rees",
    "graded_splitting", "instantons_from_g", "jordan_partition",
    "mirror_map_frobenius", "nilpotency_index", "parse_pf", "parse_scalar",
    "rees_to_geometric", "rescale_coordinate",
    "to_canonical_connection", "to_normal_form", "verify_prevhs",
    "weight_filtration", "yukawa",
]
