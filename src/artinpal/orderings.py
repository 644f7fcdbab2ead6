"""Left-invariant orderings with controlled behaviour under reversal.

Three constructions: the Dehornoy order on braid groups (decided by handle
reduction), the Magnus order on free groups (graded-lexicographic first
coefficient of the power-series image), and the type-B order pulled back
through b_j -> s_j, b_n -> s_n^2 into the braid group on n+1 strands.

Every order is packaged as an OrderingHandle: a sign function into
{Negative, Zero, Positive} plus a difference map, with compare(x, y)
derived as the sign of difference(x, y) read as "x^-1 y".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from . import group, monoid
from .coxeter import CoxeterMatrix, builtin
from .errors import HandleReductionOverflow, InvalidWordError, PreconditionError
from .group import GroupElement

DEFAULT_HANDLE_CAP = 1_000_000


class Sign(enum.IntEnum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


class Comparison(enum.Enum):
    LESS = "LESS"
    EQUAL = "EQUAL"
    GREATER = "GREATER"


_SIGN_TO_CMP = {
    Sign.POSITIVE: Comparison.LESS,
    Sign.ZERO: Comparison.EQUAL,
    Sign.NEGATIVE: Comparison.GREATER,
}


@dataclass(frozen=True)
class OrderingHandle:
    """A left-order presented by its sign function.

    sign(x) classifies x against the identity; difference(x, y) returns
    the element playing the role of x^-1 y, so x < y exactly when
    sign(difference(x, y)) is Positive.
    """

    name: str
    sign: Callable[[object], Sign]
    difference: Callable[[object, object], object]

    def compare(self, x, y) -> Comparison:
        return _SIGN_TO_CMP[self.sign(self.difference(x, y))]


def _group_difference(x: GroupElement, y: GroupElement) -> GroupElement:
    return group.mult(group.inv(x), y)


def _element_order(name: str, matrix: CoxeterMatrix,
                   sign: Callable[[GroupElement], Sign]) -> OrderingHandle:
    """Order elements over `matrix` by `sign`; refuse elements over any other."""

    def sign_fn(x: GroupElement) -> Sign:
        if x.matrix.entries != matrix.entries:
            raise PreconditionError("element is over a different matrix")
        return sign(x)

    return OrderingHandle(name, sign_fn, _group_difference)


def _garside_word(x: GroupElement) -> tuple[int, ...]:
    """Delta^inf a_1 ... a_r: unlike `group.to_signed_word`'s Delta^-2k p,
    no cancelling Delta^-1 Delta pair when inf is odd and negative."""
    d = monoid.ambient_delta(x.matrix).letters
    head = d if x.inf >= 0 else tuple(-a for a in reversed(d))
    return head * abs(x.inf) + x.p[len(d) * (2 * x.k + x.inf):]


# ---------------------------------------------------------------------------
# Dehornoy order: handle reduction


def reduce_handles(word, cap: int = DEFAULT_HANDLE_CAP) -> tuple[tuple[int, ...], int]:
    """Reduce to a handle-free word; returns (word, reduction step count).

    A handle is a subword g^e ... g^-e whose interior letters all have
    index > g.  A left-to-right scan keeps a stack of open positions (each
    position's nearest earlier letter of index <= its own) and stops at the
    first letter that closes a handle.  No other handle closes inside that
    one, so it is permitted, and reducing permitted handles terminates.

    One step removes the two ends and conjugates the interior: letters of
    index g+1 and sign d become the triple (g+1)^-e, g^d, (g+1)^e where e
    is the sign of the opening letter; letters of index >= g+2 commute past
    and are kept as they are.  Nothing closes before the opening position
    i, so the next scan resumes, with an empty stack, at the last index-1
    letter before i: no letter pops it, so no earlier position could ever
    be on top of the stack again.
    """
    w = list(word)
    steps = 0
    start = 0
    while True:
        opened: list[int] = []
        for j in range(start, len(w)):
            x = w[j]
            g = abs(x)
            while opened and abs(w[opened[-1]]) > g:
                opened.pop()
            if opened and w[opened[-1]] == -x:
                break
            opened.append(j)
        else:
            return tuple(w), steps
        steps += 1
        if steps > cap:
            raise HandleReductionOverflow(word, steps, cap)
        i = opened[-1]
        e = 1 if w[i] > 0 else -1
        mid: list[int] = []
        for x in w[i + 1:j]:
            if abs(x) >= g + 2:
                mid.append(x)
            else:
                d = 1 if x > 0 else -1
                mid.extend((-e * (g + 1), d * g, e * (g + 1)))
        w[i:j + 1] = mid
        start = max(i - 1, 0)
        while start > 0 and abs(w[start]) > 1:
            start -= 1


def dehornoy_sign(word, n: int, cap: int = DEFAULT_HANDLE_CAP) -> Sign:
    """Sign of a braid word on n strands under the Dehornoy order.

    Positive iff the word is sigma-positive: its handle-free form is
    nonempty and the lowest occurring index appears only positively.  In a
    handle-free word the lowest index cannot occur with both signs, so
    reading any one occurrence decides.
    """
    w = tuple(word)
    for x in w:
        if not isinstance(x, int) or x == 0 or abs(x) > n - 1:
            raise InvalidWordError(
                f"letter {x!r} is not a braid generator on {n} strands"
            )
    reduced, _ = reduce_handles(w, cap)
    if not reduced:
        return Sign.ZERO
    g = min(abs(x) for x in reduced)
    for x in reduced:
        if abs(x) == g:
            return Sign.POSITIVE if x > 0 else Sign.NEGATIVE
    raise InvalidWordError("internal: minimal index must occur")


def _require_builtin(matrix: CoxeterMatrix, family: str):
    if matrix.rank < 1 or matrix.entries != builtin(family, matrix.rank).entries:
        raise PreconditionError(
            f"this order needs the type {family} matrix of matching rank"
        )


def dehornoy_order(matrix: CoxeterMatrix,
                   cap: int = DEFAULT_HANDLE_CAP) -> OrderingHandle:
    """The Dehornoy order on the braid group of a type A matrix of rank
    n-1, i.e. the braid group on n strands."""
    _require_builtin(matrix, "A")
    n = matrix.rank + 1
    return _element_order("dehornoy", matrix,
                          lambda x: dehornoy_sign(_garside_word(x), n, cap))


def dehornoy_compare(x: GroupElement, y: GroupElement,
                     cap: int = DEFAULT_HANDLE_CAP) -> Comparison:
    if x.matrix != y.matrix:
        raise PreconditionError("operands live over different matrices")
    return dehornoy_order(x.matrix, cap).compare(x, y)


# ---------------------------------------------------------------------------
# Magnus order: power series with noncommuting indeterminates


def free_reduce(word) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def exponent_sums(word) -> dict[int, int]:
    """Generator index -> signed letter count; indices with sum 0 included
    when they occur."""
    sums: dict[int, int] = {}
    for x in word:
        g = abs(x)
        sums[g] = sums.get(g, 0) + (1 if x > 0 else -1)
    return sums


class SeriesTrunc:
    """Integer power series in noncommuting indeterminates, truncated
    above a fixed total degree.

    coeffs maps a monomial, written as the tuple of its indeterminate
    indices, to its coefficient; zero coefficients are never stored.
    Instances are value-semantic: operations return new objects.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs=None):
        self.degree = degree
        self.coeffs = {m: c for m, c in dict(coeffs or {}).items() if c != 0}

    @classmethod
    def one(cls, degree: int) -> "SeriesTrunc":
        return cls(degree, {(): 1})

    @classmethod
    def generator(cls, j: int, sign: int, degree: int) -> "SeriesTrunc":
        """Image of a single letter: 1 + X_j for a positive letter, the
        truncated geometric series 1 - X_j + X_j^2 - ... for its inverse."""
        if sign > 0:
            return cls(degree, {(): 1, (j,): 1})
        return cls(degree, {(j,) * k: (-1) ** k for k in range(degree + 1)})

    def __mul__(self, other: "SeriesTrunc") -> "SeriesTrunc":
        if self.degree != other.degree:
            raise InvalidWordError("series truncation degrees differ")
        acc: dict[tuple[int, ...], int] = {}
        for ma, ca in self.coeffs.items():
            room = self.degree - len(ma)
            for mb, cb in other.coeffs.items():
                if len(mb) > room:
                    continue
                m = ma + mb
                v = acc.get(m, 0) + ca * cb
                if v:
                    acc[m] = v
                elif m in acc:
                    del acc[m]
        return SeriesTrunc(self.degree, acc)

    def first_nonconstant(self) -> tuple[tuple[int, ...], int] | None:
        """Leading term of (self - constant) in the graded order: total
        degree first, then lexicographic on the index sequence."""
        best = None
        for m, c in self.coeffs.items():
            if not m:
                continue
            key = (len(m), m)
            if best is None or key < best[0]:
                best = (key, m, c)
        if best is None:
            return None
        return best[1], best[2]

    def __eq__(self, other):
        return (isinstance(other, SeriesTrunc)
                and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def __repr__(self):
        terms = sorted(self.coeffs.items(), key=lambda mc: (len(mc[0]), mc[0]))
        return f"SeriesTrunc(deg={self.degree}, {terms[:6]}{'...' if len(terms) > 6 else ''})"


def magnus_image(word, degree: int) -> SeriesTrunc:
    """mu(word) truncated at the given total degree."""
    acc = SeriesTrunc.one(degree)
    for x in word:
        if not isinstance(x, int) or x == 0:
            raise InvalidWordError(f"letter {x!r} is not a free-group letter")
        acc = acc * SeriesTrunc.generator(abs(x), 1 if x > 0 else -1, degree)
    return acc


def magnus_sign(word, n: int | None = None) -> Sign:
    """Sign of a free-group word: the sign of the first nonzero coefficient
    of mu(word) - 1 in the graded-lexicographic monomial order.

    The word is freely reduced first, so triviality is syntactic.  When
    some exponent sum is nonzero the verdict is already visible in degree
    one: the degree-one coefficient of X_j is the exponent sum of x_j, and
    degree one is scanned before anything else.  Otherwise the series is
    expanded degree by degree from 2, stopping at the first degree with a
    nonzero nonconstant coefficient; truncating at degree d leaves every
    coefficient of degree <= d exact, so that is the leading term.  For
    the reduced word x_{i1}^{e1} ... x_{ik}^{ek} the monomial
    X_{i1} ... X_{ik} has coefficient e1 ... ek != 0, so the search stops
    by degree k <= len(word).
    """
    for x in word:
        if not isinstance(x, int) or x == 0 or (n is not None and abs(x) > n):
            raise InvalidWordError(f"letter {x!r} is not a generator of F_{n or 'n'}")
    w = free_reduce(word)
    if not w:
        return Sign.ZERO
    sums = exponent_sums(w)
    for j in sorted(sums):
        if sums[j]:
            return Sign.POSITIVE if sums[j] > 0 else Sign.NEGATIVE
    for degree in range(2, len(w) + 1):
        lead = magnus_image(w, degree).first_nonconstant()
        if lead is not None:
            return Sign.POSITIVE if lead[1] > 0 else Sign.NEGATIVE
    raise InvalidWordError("internal: nontrivial reduced word with trivial image")


def _free_difference(x, y) -> tuple[int, ...]:
    return tuple(-a for a in reversed(tuple(x))) + tuple(y)


def magnus_order(n: int | None = None) -> OrderingHandle:
    """The Magnus order on a free group; elements are signed word tuples."""
    return OrderingHandle(
        "magnus", lambda w: magnus_sign(w, n), _free_difference
    )


def magnus_element_order(matrix: CoxeterMatrix) -> OrderingHandle:
    """Magnus sign evaluated on the canonical signed-word representative
    of a group element.

    The difference is computed in the group first, so compare(x, y) is
    Equal exactly on group-equal pairs; beyond that the verdict depends
    on the representative, not only on the element, unless the matrix is
    free (all labels infinite).
    """
    return _element_order("magnus", matrix, lambda x: magnus_sign(
        group.to_signed_word(x), matrix.rank))


# ---------------------------------------------------------------------------
# The type B embedding order


def typeB_embed(word, n: int) -> tuple[int, ...]:
    """Signed word over the type B generators to a braid word on n+1
    strands: generator j < n passes through, generator n doubles."""
    out: list[int] = []
    for x in word:
        g = abs(x)
        if not isinstance(x, int) or x == 0 or g > n:
            raise InvalidWordError(f"letter {x!r} out of range for type B rank {n}")
        if g < n:
            out.append(x)
        else:
            out.append(x)
            out.append(x)
    return tuple(out)


def typeB_order(n: int, cap: int = DEFAULT_HANDLE_CAP) -> OrderingHandle:
    """Left order on the type B Artin group of rank n >= 2, pulled back
    through the embedding into the braid group on n+1 strands.

    Every generator image is a palindromic word, so the embedding commutes
    with rev and the order's behaviour under rev transfers from the braid
    side.  Injectivity of the embedding is classical and consumed as an
    external fact; the defining relations are checked in the tests.
    """
    if n < 2:
        raise PreconditionError("type B order needs rank >= 2")
    return _element_order(
        "typeB-embedding", builtin("B", n),
        lambda x: dehornoy_sign(typeB_embed(_garside_word(x), n), n + 1, cap))


def order_for_matrix(matrix: CoxeterMatrix, kind: str,
                     cap: int = DEFAULT_HANDLE_CAP) -> OrderingHandle:
    """Resolve an order name against a matrix: dehornoy on type A, the
    embedding order on type B, magnus on representatives anywhere."""
    if kind == "dehornoy":
        if matrix.rank >= 1 and matrix.entries == builtin("A", matrix.rank).entries:
            return dehornoy_order(matrix, cap)
        if matrix.rank >= 2 and matrix.entries == builtin("B", matrix.rank).entries:
            return typeB_order(matrix.rank, cap)
        raise PreconditionError(
            "dehornoy ordering needs a type A or type B matrix"
        )
    if kind == "magnus":
        return magnus_element_order(matrix)
    raise PreconditionError(f"unknown ordering {kind!r}")


# ---------------------------------------------------------------------------
# Positive-cone preservation reports


@dataclass(frozen=True)
class SppcReport:
    """Outcome of sampling sign(x) against sign(phi(x)); a strong
    positive-cone claim demands zero violations."""

    total: int
    violations: int
    examples: tuple

    @property
    def ok(self) -> bool:
        return self.violations == 0


def sppc_check(order: OrderingHandle, involution, sampler,
               keep: int = 5) -> SppcReport:
    """Count sampled x with sign(x) != sign(involution(x)).

    sampler is any iterable of elements acceptable to the order's sign
    function; the first few violating samples are kept for diagnosis.
    """
    total = 0
    violations = 0
    examples: list = []
    for x in sampler:
        total += 1
        if order.sign(x) != order.sign(involution(x)):
            violations += 1
            if len(examples) < keep:
                examples.append(x)
    return SppcReport(total, violations, tuple(examples))
