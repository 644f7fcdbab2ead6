"""Left-invariant orderings with controlled behaviour under reversal.

Two orders on group elements, one per matrix type (`order_for_matrix`):
the Dehornoy order on type A braid groups, decided by Dynnikov coordinates
in one pass over the word, and the type-B order pulled back through
b_j -> s_j, b_n -> s_n^2 into the braid group on n+1 strands.  Beside them,
the Magnus order on free words (graded-lexicographic first coefficient of
the power-series image), which orders no group element here.

Two small kernels carry every sign: `dynnikov_action`, a fixed number of
integer operations per letter on flat lists of coordinates, and
`magnus_image`, which expands a word by multiplying one coefficient dict
in place.  Element orders reach the first through the module's
`dehornoy_sign`, and `magnus_sign` reaches the second through
`magnus_image`; `SeriesTrunc.__mul__` is the reference product that the
tests hold the expansion to.

Every order is packaged as an OrderingHandle: a sign function into
{Negative, Zero, Positive} plus a difference map, with compare(x, y)
derived as the sign of difference(x, y) read as "x^-1 y".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from . import group
from .coxeter import CoxeterMatrix, builtin, check_kind, letters
from .errors import InvalidWordError, PreconditionError
from .group import GroupElement


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


# ---------------------------------------------------------------------------
# Dehornoy order: Dynnikov coordinates


def dynnikov_action(word, coords) -> tuple[int, ...]:
    """Act by a braid word on (a_1, b_1, ..., a_n, b_n), n = len(coords) // 2.

    The letters act left to right, each in a fixed number of integer
    operations (Dynnikov, Russ. Math. Surveys 57 (2002); Dehornoy,
    Dynnikov, Rolfsen and Wiest, *Ordering Braids*, ch. XII).  Letter i or
    -i changes only the pairs i and i+1, and every right-hand side below
    reads the old values; x+ and x- are max(x, 0) and min(x, 0):

        sigma_i:    t = a_i - b_i- - a_i+1 + b_i+1+
                    a_i   <- a_i + b_i+ + (b_i+1+ - t)+
                    b_i   <- b_i+1 - t+
                    a_i+1 <- a_i+1 + b_i+1- + (b_i- + t)-
                    b_i+1 <- b_i + t+
        sigma_i^-1: t = a_i + b_i- - a_i+1 - b_i+1+
                    a_i   <- a_i - b_i+ - (b_i+1+ + t)+
                    b_i   <- b_i+1 + t-
                    a_i+1 <- a_i+1 - b_i+1- - (b_i- - t)-
                    b_i+1 <- b_i - t-

    So sigma_i^-1 acts as sigma_i between two sign changes of every a_j.
    Every letter is checked before any acts, and the a's and b's are kept
    in two lists indexed by pair, so letter i reads and writes entries i-1
    and i of each (`_act`).
    """
    word = letters(word)
    c = letters(coords)
    if len(c) % 2 or not all(isinstance(v, int) for v in c):
        raise InvalidWordError(f"coordinates {coords!r} are not an even number of ints")
    a = list(c[0::2])
    b = list(c[1::2])
    _act(_braid_word(word, len(a)), a, b)
    out = list(c)
    out[0::2] = a
    out[1::2] = b
    return tuple(out)


def _braid_word(word: tuple, n: int) -> tuple:
    """word, once every letter is a braid generator on n strands or its
    inverse; InvalidWordError names the first that is not."""
    for x in word:
        if not isinstance(x, int) or x == 0 or not -n < x < n:
            raise InvalidWordError(
                f"letter {x!r} is not a braid generator on {n} strands"
            )
    return word


def _act(word: tuple, a: list, b: list) -> None:
    """The Dynnikov action of a checked word on the a's and b's, in place:
    the formulas of `dynnikov_action`."""
    for x in word:
        j = x if x > 0 else -x
        i = j - 1
        a1, b1, a2, b2 = a[i], b[i], a[j], b[j]
        if b1 > 0:
            p1, m1 = b1, 0
        else:
            p1, m1 = 0, b1
        if b2 > 0:
            p2, m2 = b2, 0
        else:
            p2, m2 = 0, b2
        if x > 0:
            t = a1 - m1 - a2 + p2
            if t > 0:
                b[i] = b2 - t
                b[j] = b1 + t
            else:
                b[i] = b2
                b[j] = b1
            a[i] = a1 + p1 + p2 - t if t < p2 else a1 + p1
            a[j] = a2 + m2 + m1 + t if m1 + t < 0 else a2 + m2
        else:
            t = a1 + m1 - a2 - p2
            if t < 0:
                b[i] = b2 + t
                b[j] = b1 - t
            else:
                b[i] = b2
                b[j] = b1
            a[i] = a1 - p1 - p2 - t if p2 + t > 0 else a1 - p1
            a[j] = a2 - m2 - m1 + t if m1 < t else a2 - m2


def dehornoy_sign(word, n: int) -> Sign:
    """Sign of a braid word on n strands under the Dehornoy order.

    The word acts on the coordinates (0, 1, ..., 0, 1) of the trivial
    braid; the sign is that of the first nonzero entry of
    (a_1, b_1 - 1, a_2, b_2 - 1, ...) afterwards, and ZERO if there is
    none.  The word's letters are checked as `dynnikov_action` checks
    them, and the action runs on lists built here (`_act`), so these
    coordinates, known to be ints, are not checked again.
    `oracle.reduce_handles` decides the same sign by handle reduction and
    referees this one in the tests.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidWordError(f"strand count {n!r} is not an integer >= 1")
    a, b = [0] * n, [1] * n
    _act(_braid_word(letters(word), n), a, b)
    for ai, bi in zip(a, b):
        if ai:
            return Sign.POSITIVE if ai > 0 else Sign.NEGATIVE
        if bi != 1:
            return Sign.POSITIVE if bi > 1 else Sign.NEGATIVE
    return Sign.ZERO


def _require_builtin(matrix: CoxeterMatrix, family: str):
    check_kind(CoxeterMatrix, matrix)
    if matrix.entries != builtin(family, matrix.rank).entries:
        raise PreconditionError(
            f"this order needs the type {family} matrix of matching rank"
        )


def dehornoy_order(matrix: CoxeterMatrix) -> OrderingHandle:
    """The Dehornoy order on the braid group of a type A matrix of rank
    n-1, i.e. the braid group on n strands."""
    _require_builtin(matrix, "A")
    n = matrix.rank + 1
    return _element_order("dehornoy", matrix,
                          lambda x: dehornoy_sign(group.garside_word(x), n))


def dehornoy_compare(x: GroupElement, y: GroupElement) -> Comparison:
    if not (isinstance(x, GroupElement) and isinstance(y, GroupElement)):
        raise PreconditionError(f"expected two GroupElements, got {x!r} and {y!r}")
    if x.matrix != y.matrix:
        raise PreconditionError("operands live over different matrices")
    return dehornoy_order(x.matrix).compare(x, y)


# ---------------------------------------------------------------------------
# Magnus order: power series with noncommuting indeterminates


def _free_letters(word, n: int | None = None) -> tuple[int, ...]:
    """The word as a tuple of free-group letters: nonzero ints, of absolute
    value at most n when n is given, or InvalidWordError."""
    word = letters(word)
    for x in word:
        if not isinstance(x, int) or x == 0 or (n is not None and abs(x) > n):
            raise InvalidWordError(f"letter {x!r} is not a generator of F_{n or 'n'}")
    return word


def free_reduce(word) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[int] = []
    for x in _free_letters(word):
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def exponent_sums(word) -> dict[int, int]:
    """Generator index -> signed letter count; indices with sum 0 included
    when they occur."""
    sums: dict[int, int] = {}
    for x in _free_letters(word):
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
    """mu(word) truncated at the given total degree, an int >= 0.

    One coefficient dict, starting at 1, is multiplied on the right by
    each letter's series in place: x_j adds c to the coefficient of m X_j
    for every term c m, and x_j^-1 adds (-1)^k c to that of m X_j^k for
    k = 1, 2, ... up to the degree.  Each contribution is read off the
    terms before the letter, and a coefficient that reaches 0 is deleted,
    so the result is the `SeriesTrunc` product of the letters' generators.
    """
    if not isinstance(degree, int) or degree < 0:
        raise InvalidWordError(f"degree {degree!r} is not an integer >= 0")
    acc: dict[tuple[int, ...], int] = {(): 1}
    for x in _free_letters(word):
        # the letter's series: X_j^k has coefficient sign^k for k <= top
        j, sign, top = ((x,), 1, 1) if x > 0 else ((-x,), -1, degree)
        for m, c in list(acc.items()):
            for _ in range(min(top, degree - len(m))):
                m += j
                c *= sign
                v = acc.get(m, 0) + c
                if v:
                    acc[m] = v
                else:
                    del acc[m]
    return SeriesTrunc(degree, acc)


def _check_count(n) -> None:
    if n is not None and (not isinstance(n, int) or n < 0):
        raise InvalidWordError(f"generator count {n!r} is not an integer >= 0")


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
    _check_count(n)
    w = free_reduce(_free_letters(word, n))
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
    _check_count(n)
    return OrderingHandle(
        "magnus", lambda w: magnus_sign(w, n), _free_difference
    )


# ---------------------------------------------------------------------------
# The type B embedding order


def typeB_embed(word, n: int) -> tuple[int, ...]:
    """Signed word over the type B generators to a braid word on n+1
    strands: generator j < n passes through, generator n doubles."""
    if not isinstance(n, int) or n < 1:
        raise InvalidWordError(f"type B rank {n!r} is not an integer >= 1")
    out: list[int] = []
    for x in letters(word):
        if not isinstance(x, int) or x == 0 or abs(x) > n:
            raise InvalidWordError(f"letter {x!r} out of range for type B rank {n}")
        out.append(x)
        if abs(x) == n:
            out.append(x)
    return tuple(out)


def typeB_order(n: int) -> OrderingHandle:
    """Left order on the type B Artin group of rank n >= 2, pulled back
    through the embedding into the braid group on n+1 strands.

    Every generator image is a palindromic word, so the embedding commutes
    with rev and the order's behaviour under rev transfers from the braid
    side.  Injectivity of the embedding is classical and consumed as an
    external fact; the defining relations are checked in the tests.
    """
    if not isinstance(n, int) or n < 2:
        raise PreconditionError(f"type B order needs an int rank >= 2, got {n!r}")
    return _element_order(
        "typeB-embedding", builtin("B", n),
        lambda x: dehornoy_sign(typeB_embed(group.garside_word(x), n), n + 1))


def order_for_matrix(matrix: CoxeterMatrix) -> OrderingHandle:
    """The order on group elements over `matrix`, which the matrix alone
    decides: the Dehornoy order on the type A matrix, the embedding order
    on the type B matrix.  Any other matrix, a renumbered type A or B
    included, raises PreconditionError."""
    check_kind(CoxeterMatrix, matrix)
    if matrix.entries == builtin("A", matrix.rank).entries:
        return dehornoy_order(matrix)
    if matrix.rank >= 2 and matrix.entries == builtin("B", matrix.rank).entries:
        return typeB_order(matrix.rank)
    raise PreconditionError(
        "an element order needs a type A or type B matrix in builtin numbering")


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
    if not isinstance(order, OrderingHandle) or not callable(involution):
        raise PreconditionError(
            f"expected an OrderingHandle and a callable, got {order!r} and {involution!r}")
    try:
        samples = iter(sampler)
    except TypeError:
        raise PreconditionError(f"sampler {sampler!r} is not iterable") from None
    total = 0
    violations = 0
    examples: list = []
    for x in samples:
        total += 1
        if order.sign(x) != order.sign(involution(x)):
            violations += 1
            if len(examples) < keep:
                examples.append(x)
    return SppcReport(total, violations, tuple(examples))
