"""Mean value quantities for complex polynomials and their analogues over
a finite sup-norm model of a commutative function algebra."""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    PreconditionError,
    RootFindError,
    SmaleLabError,
)
from .polycore import from_coeffs, from_roots
from .smale import SampleConfig, bound_report, ds0, ds_at, s0, s_at
from .cstar import CStarElement, CStarPoly, check_strong_forms
from .dynamics import OrbitConfig, mlp_check
from .search import SearchConfig, search_extremal_s0

__all__ = [
    "CStarElement",
    "CStarPoly",
    "DomainError",
    "OrbitConfig",
    "PreconditionError",
    "RootFindError",
    "SampleConfig",
    "SearchConfig",
    "SmaleLabError",
    "bound_report",
    "check_strong_forms",
    "ds0",
    "ds_at",
    "from_coeffs",
    "from_roots",
    "mlp_check",
    "s0",
    "s_at",
    "search_extremal_s0",
]
