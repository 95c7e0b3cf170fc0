"""Exact enumeration of rigid-rod coverings on open rectangular lattices,
with full verification of the strip and diagonal recurrences, the weighted
identity arrangement that proves the diagonal one, and the registry of
summation certificates behind the cancellation arguments."""

from .errors import CheckFailedError, IntegralityError, ParameterError, ResourceLimitError
from .lattice import (
    CountTable,
    LatticeSpec,
    brute_force_count,
    count_configurations,
    count_polynomial,
)
from .hseq import (
    column_sum,
    column_sum_closed_form,
    h_domain,
    h_explicit,
    h_from_double_gf,
    h_from_gf,
    h_recursive,
)
from .recurrences import (
    DiagonalSeed,
    diagonal_rhs,
    extend_diagonal,
    fit_polynomial,
    seed_from_enumeration,
    verify_diagonal,
    verify_diagonal_corollary,
    verify_strip,
)
from .weights import (
    PlacedIdentity,
    RhsModel,
    WeightGrid,
    accumulate_lhs,
    accumulate_rhs,
    alpha_p1,
    build_weight_grid,
    verify_quadrant_lemmas,
    verify_rhs_column_sums,
)
from .identities import (
    IdentityCheck,
    registry,
    run_registry,
)
from .symbolic import PoleError, eval_term

__version__ = "0.1.0"

__all__ = [
    "CheckFailedError",
    "CountTable",
    "DiagonalSeed",
    "IdentityCheck",
    "IntegralityError",
    "LatticeSpec",
    "ParameterError",
    "PlacedIdentity",
    "PoleError",
    "ResourceLimitError",
    "RhsModel",
    "WeightGrid",
    "accumulate_lhs",
    "accumulate_rhs",
    "alpha_p1",
    "brute_force_count",
    "build_weight_grid",
    "column_sum",
    "column_sum_closed_form",
    "count_configurations",
    "count_polynomial",
    "diagonal_rhs",
    "eval_term",
    "extend_diagonal",
    "fit_polynomial",
    "h_domain",
    "h_explicit",
    "h_from_double_gf",
    "h_from_gf",
    "h_recursive",
    "registry",
    "run_registry",
    "seed_from_enumeration",
    "verify_diagonal",
    "verify_diagonal_corollary",
    "verify_quadrant_lemmas",
    "verify_rhs_column_sums",
    "verify_strip",
]
