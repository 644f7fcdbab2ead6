"""Shared exception types.

Every failure mode callers are expected to branch on gets its own class.
The split between "proved impossible" and "gave up" matters throughout:
word reversing can prove that two elements admit no common multiple
(reported as an absent value), while a budget overrun proves nothing and
is always raised, never folded into an answer.
"""


class ArtinError(Exception):
    """Base class for all package-specific errors."""


class InvalidMatrixError(ArtinError):
    """Malformed Coxeter matrix data (file or constructor input)."""


class InvalidWordError(ArtinError):
    """A word refers to a generator index outside the valid range."""


class InfiniteTypeError(ArtinError):
    """An operation that needs a finite-type system got an infinite one."""


class DeltaUndefinedError(InfiniteTypeError):
    """The requested parabolic has no fundamental element."""


class BudgetExceededError(ArtinError):
    """A bounded computation ran out of budget before reaching an answer.

    Carries no mathematical content: the query may still hold or fail.
    """


class HandleReductionOverflow(BudgetExceededError):
    """Handle reduction exceeded its step cap.

    An overflow never certifies anything about the sign of the input word.
    """

    def __init__(self, word, steps, cap):
        self.word = tuple(word)
        self.steps = steps
        self.cap = cap
        super().__init__(
            f"handle reduction spent {steps} steps against a cap of {cap} "
            f"on a word of length {len(self.word)}"
        )


class PreconditionError(ArtinError):
    """A documented operation precondition was violated by the caller."""


class InvalidBudgetError(PreconditionError, ValueError):
    """A budget below any answer's length, e.g. an lcm budget under an operand's."""


class NotPalindromeError(PreconditionError):
    """Operation requires a palindromic element and the input is not one."""


class NotPureError(ArtinError):
    """Palindromization inverse applied to a palindrome that is not pure."""


class NotTauInvariantError(PreconditionError):
    """Operation requires a tau-invariant element and the input is not one."""


class SearchExhaustedError(ArtinError):
    """A complete search finished without finding any admissible answer."""
