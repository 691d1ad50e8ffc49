"""Exact cohomology operations and characteristic-class computations for
closed manifolds, with a decision procedure for the existence of (over-twisted)
contact structures on closed orientable 9-manifolds.

Everything is computed with exact integer / F2 arithmetic; there is no
floating point anywhere in the package.
"""

__version__ = "0.1.0"

from .simplicial import SimplicialComplex, Cochain, cup, cup_i, coboundary
from .cohomology import Cohomology, cohomology, GradedGroup
from .model import (
    CohomologyModel, ManifoldModel, F2Class, ZClass, GradedPiece,
    validate, build_product, connected_sum, from_simplicial,
    transform_model, random_model_iso, NotClosedManifoldError,
)
from .library import library, LIBRARY_NAMES, corpus
from .charclasses import (
    WuClasses, SWClasses, CosetH8, SpincData,
    wu_classes, sw_classes, integral_lift, compute_dm,
    half_product_solutions, sigma_w4, spinc_data,
)
from .decider import (
    Verdict, Outcome, ObstructionStage, O8Branch, MissingDatum, GradedIso,
    Analysis, analyse, decide, decide_connected_sum, evaluate_omega_pc,
    homotopy_invariance_check, check_w7_theorem,
)

__all__ = [
    "SimplicialComplex", "Cochain", "cup", "cup_i", "coboundary",
    "Cohomology", "cohomology", "GradedGroup",
    "CohomologyModel", "ManifoldModel", "F2Class", "ZClass", "GradedPiece",
    "validate", "build_product", "connected_sum", "from_simplicial",
    "transform_model", "random_model_iso", "NotClosedManifoldError",
    "library", "LIBRARY_NAMES", "corpus",
    "WuClasses", "SWClasses", "CosetH8", "SpincData",
    "wu_classes", "sw_classes", "integral_lift", "compute_dm",
    "half_product_solutions",
    "sigma_w4", "spinc_data",
    "Verdict", "Outcome", "ObstructionStage", "O8Branch", "MissingDatum", "GradedIso",
    "Analysis", "analyse", "decide", "decide_connected_sum", "evaluate_omega_pc",
    "homotopy_invariance_check", "check_w7_theorem",
]
