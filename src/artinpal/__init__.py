"""Computation in Artin groups of finite type: positive-word arithmetic,
Garside fundamental elements, left-invariant orderings, palindromization
and its decompositions, with a brute-force rewriting oracle as referee.
"""

from .coxeter import (
    INF,
    CoxeterMatrix,
    builtin,
    classify,
    format_word,
    is_finite_type,
    named_matrix,
    parse_matrix,
    parse_word,
    serialize_matrix,
)
from .errors import (
    ArtinError,
    BudgetExceededError,
    DeltaUndefinedError,
    HandleReductionOverflow,
    InfiniteTypeError,
    InvalidBudgetError,
    InvalidMatrixError,
    InvalidWordError,
    NotPalindromeError,
    NotPureError,
    NotTauInvariantError,
    PreconditionError,
    SearchExhaustedError,
)
from .group import GroupElement
from .monoid import PositiveWord
from .orderings import Comparison, OrderingHandle, Sign, SppcReport
from .palindromes import PalDecomposition

__all__ = [
    "INF",
    "CoxeterMatrix",
    "builtin",
    "classify",
    "is_finite_type",
    "named_matrix",
    "parse_matrix",
    "serialize_matrix",
    "ArtinError",
    "BudgetExceededError",
    "DeltaUndefinedError",
    "HandleReductionOverflow",
    "InfiniteTypeError",
    "InvalidBudgetError",
    "InvalidMatrixError",
    "InvalidWordError",
    "NotPalindromeError",
    "NotPureError",
    "NotTauInvariantError",
    "PreconditionError",
    "SearchExhaustedError",
    "GroupElement",
    "PositiveWord",
    "format_word",
    "parse_word",
    "Comparison",
    "OrderingHandle",
    "Sign",
    "SppcReport",
    "PalDecomposition",
]

__version__ = "0.1.0"
