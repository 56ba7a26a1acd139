"""Locally recoverable codes with overlapping recovering sets.

Binary constructions with availability t and overlap budget x, exact rate
bounds, recovering-set discovery and verification, a random-permutation
coloring experiment, and an erasure-repair simulator.
"""

from .bounds import (
    BoundReport,
    RateComparisonRow,
    bound_report,
    decimal4,
    distance_bound_tbf,
    distance_bound_wr,
    f_value,
    n_lower,
    n_upper,
    rate_product,
    rate_upper,
    table1,
    table2,
)
from .errors import (
    DimensionTooLarge,
    FamilyNotFound,
    InvalidCodeword,
    InvalidParams,
    LrckitError,
    ParseError,
)
from .gf2 import (
    BitMatrix,
    nullspace_basis,
    rank,
    recovery_parity_word,
    rref,
    solve,
)
from .params import CodeParams
from .recovery_graph import (
    ColoringOutcome,
    MonteCarloStats,
    RecoveryGraph,
    build_graph,
    color_vertices,
    exhaustive_expected_fraction,
    monte_carlo_colored_fraction,
    structural_check,
    structural_sweep,
    trial_permutation,
)
from .repair_sim import RepairTrace, simulate_repair, systematic_encode
from .verifier import (
    RecoveringFamily,
    VerificationReport,
    candidate_sets,
    discover_family,
    verify_family,
)
from .wzl import WzlCode, build_wzl, check_recursion, complement_columns
from .xlrc import XlrcCode, build_xlrc, canonical_family, map_params

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "BoundReport",
    "CodeParams",
    "ColoringOutcome",
    "DimensionTooLarge",
    "FamilyNotFound",
    "InvalidCodeword",
    "InvalidParams",
    "LrckitError",
    "MonteCarloStats",
    "ParseError",
    "RateComparisonRow",
    "RecoveringFamily",
    "RecoveryGraph",
    "RepairTrace",
    "VerificationReport",
    "WzlCode",
    "XlrcCode",
    "bound_report",
    "build_graph",
    "build_wzl",
    "build_xlrc",
    "candidate_sets",
    "canonical_family",
    "check_recursion",
    "color_vertices",
    "complement_columns",
    "decimal4",
    "discover_family",
    "distance_bound_tbf",
    "distance_bound_wr",
    "exhaustive_expected_fraction",
    "f_value",
    "map_params",
    "monte_carlo_colored_fraction",
    "n_lower",
    "n_upper",
    "nullspace_basis",
    "rank",
    "rate_product",
    "rate_upper",
    "recovery_parity_word",
    "rref",
    "simulate_repair",
    "solve",
    "structural_check",
    "structural_sweep",
    "systematic_encode",
    "table1",
    "table2",
    "trial_permutation",
    "verify_family",
]
