"""Exact generating functions of directed lattice walks on Z+ x Z**d with
steps {-1,+1}**d that touch the space origin only at a periodic set of
admissible even times, together with a brute-force path-counting oracle and
the circulant determinant identities satisfied by the solved series."""

from .circulant import (
    column_substitution_check,
    cramer_ratio_check,
    escaping_circulant,
    hn_determinant_check,
    quarter,
    restriction_circulant,
    row_relation_check,
    series_determinant,
)
from .errors import ResourceLimitError
from .loops import LoopModel
from .oracle import (
    PathCountTable,
    count_escaping,
    count_loops,
    count_odd_length,
    count_restricted,
    count_simple_loops,
)
from .periodic import PeriodicSet, hajnal_nagy_set
from .series import TruncatedSeries, inv_sqrt_one_minus_monomial
from .system import (
    RestrictedPathSolution,
    build_system,
    restricted_path_gf,
    solve_linear_system,
    solve_restricted,
)

__version__ = "0.1.0"

__all__ = [
    "LoopModel",
    "PathCountTable",
    "PeriodicSet",
    "ResourceLimitError",
    "RestrictedPathSolution",
    "TruncatedSeries",
    "build_system",
    "column_substitution_check",
    "count_escaping",
    "count_loops",
    "count_odd_length",
    "count_restricted",
    "count_simple_loops",
    "cramer_ratio_check",
    "escaping_circulant",
    "hajnal_nagy_set",
    "hn_determinant_check",
    "inv_sqrt_one_minus_monomial",
    "quarter",
    "restricted_path_gf",
    "restriction_circulant",
    "row_relation_check",
    "series_determinant",
    "solve_linear_system",
    "solve_restricted",
]
