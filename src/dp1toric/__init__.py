"""Exact invariants of degree-1 del Pezzo fibrations in toric P(1,1,2,3)-bundles.

All arithmetic is exact rational arithmetic over fractions.Fraction.
"""

from .chow import (CycleClass, DegreeMismatch, DegreeOverflow,
                   anticanonical_on_x, derive_h4, evaluate_top, minus_k_cubed,
                   product, triple_on_x, x_class)
from .classify import (DEFAULT_BOX, ClassificationRow, SearchBox,
                       classify_k2_failures, nonsingular_delta, oracle_search)
from .conditions import (DEFAULT_THRESHOLDS, CaseLabel, FibrationReport,
                         InvalidParams, KFailureReason, KStatus,
                         RestrictBranch, ValidityReport, Verdict,
                         WeightRatios, classify_case, delta, k2_condition,
                         k3_condition, k_status, nef_threshold, report,
                         validity)
from .grading import (BOTTOM_ROW, F, H, VARIABLES, BundleParams, DivisorClass,
                      EmptyLinearSystem, ExponentVector, GradingMatrix,
                      InvalidMatrix, Stratum, base_locus_strata,
                      is_dz_movable_on_x, monomial_basis, monomial_bidegree,
                      monomial_count, normalize, torus_divisor_class)

__all__ = [
    "BOTTOM_ROW", "BundleParams", "CaseLabel", "ClassificationRow",
    "CycleClass", "DEFAULT_BOX", "DEFAULT_THRESHOLDS", "DegreeMismatch",
    "DegreeOverflow", "DivisorClass", "EmptyLinearSystem", "ExponentVector",
    "F", "FibrationReport", "GradingMatrix", "H", "InvalidMatrix",
    "InvalidParams", "KFailureReason", "KStatus", "RestrictBranch",
    "SearchBox", "Stratum", "VARIABLES", "ValidityReport", "Verdict",
    "WeightRatios", "anticanonical_on_x", "base_locus_strata",
    "classify_case", "classify_k2_failures", "delta", "derive_h4",
    "evaluate_top", "is_dz_movable_on_x", "k2_condition", "k3_condition",
    "k_status", "minus_k_cubed", "monomial_basis", "monomial_bidegree",
    "monomial_count", "nef_threshold", "nonsingular_delta", "normalize",
    "oracle_search", "product", "report", "torus_divisor_class",
    "triple_on_x", "validity", "x_class",
]
