"""Positive words and the Artin monoid word problem.

Everything here works for an arbitrary Coxeter matrix (finite labels or
not), and reads only `coxeter` and `errors`; only the fundamental elements
need finite-type parabolics.  The
basic decision procedure is generator left-extraction: a rewriting scheme,
run in place over an explicit stack of nested extractions, that rewrites a
window w[lo:hi] of a list either into s * w'' or, when the generator s is
not a left divisor of it, into some equal word.  Equality, divisibility,
starting sets, the normal form and the palindrome peel are built on it,
each on one buffer that successive extractions rewrite; least common
multiples come from signed-word reversing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .coxeter import INF, CoxeterMatrix, check_kind, is_finite_type, w_word
from .errors import (
    BudgetExceededError,
    DeltaUndefinedError,
    InvalidBudgetError,
    InvalidWordError,
    NotPalindromeError,
    PreconditionError,
)


@dataclass(frozen=True)
class PositiveWord:
    """A word in the monoid generators, tied to its Coxeter matrix."""

    matrix: CoxeterMatrix
    letters: tuple[int, ...]

    def __post_init__(self):
        check_kind(CoxeterMatrix, self.matrix)
        object.__setattr__(self, "letters",
                           self.matrix.check_word(self.letters, positive=True))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __mul__(self, other: "PositiveWord") -> "PositiveWord":
        if self.matrix != other.matrix:
            raise InvalidWordError("cannot concatenate words over different matrices")
        return _trusted(self.matrix, self.letters + other.letters)

    def __repr__(self):
        body = " ".join(str(x) for x in self.letters) if self.letters else "e"
        return f"<{body}>"


def _trusted(matrix: CoxeterMatrix, letters: tuple[int, ...]) -> PositiveWord:
    """A PositiveWord from letters known to be valid, without the check."""
    w = object.__new__(PositiveWord)
    w.__dict__.update(matrix=matrix, letters=letters)
    return w


def word(matrix: CoxeterMatrix, letters) -> PositiveWord:
    return PositiveWord(matrix, letters)


def rev(w: PositiveWord) -> PositiveWord:
    """Reverse the reading of the word; an anti-automorphism."""
    check_kind(PositiveWord, w)
    return _trusted(w.matrix, w.letters[::-1])


@lru_cache(maxsize=None)
def _rules(matrix: CoxeterMatrix) -> tuple:
    """rules[x][t] for generators x != t: None when they commute, () when
    their label is inf, else the alternating word (x, t, x, ...) of length m."""
    return ((),) + tuple(
        (None,) + tuple(None if m <= 2 else () if m == INF else w_word(x, t, m)
                        for t, m in enumerate(row, 1))
        for x, row in enumerate(matrix.entries, 1))


@lru_cache(maxsize=None)
def _reversals(matrix: CoxeterMatrix) -> tuple:
    """flips[a][b]: what a^-1 b reverses to, w_(m-1)(b, a) followed by the
    inverse of w_(m-1)(a, b) (empty when a = b), or None when m = inf."""
    def flip(a: int, b: int, m) -> tuple[int, ...] | None:
        if m == INF:
            return None
        return w_word(b, a, m - 1) + tuple(-x for x in reversed(w_word(a, b, m - 1)))

    return ((),) + tuple((None,) + tuple(flip(a, b, m) for b, m in enumerate(row, 1))
                         for a, row in enumerate(matrix.entries, 1))


def _extract(rules: tuple, w: list[int], s: int, lo: int, hi: int) -> bool:
    """Left-extraction in place: rewrite the window w[lo:hi] into an equal
    word starting with s and return True, or return False if s does not
    left-divide it.  Each step is a commutation or a full relation, so the
    window stays equal to its input, also on failure; w outside it is kept.
    Deterministic strategy: track the leftmost occurrence of s (relations
    never create or destroy occurrences of a letter, so absence is final).
    Commute it past label-2 neighbors; at a label-m >= 3 blocker t, first
    extract the alternating continuation t, s, t, ... (m - 2 letters) from
    the suffix, then fire the full relation w_m(t,s) -> w_m(s,t), which
    moves the tracked occurrence one step left.  A label inf blocker is a
    dead end: no relation can ever move s past it, and the tracked
    occurrence is the leftmost, so s cannot surface.

    The continuations nest, so the work is an explicit stack of frames.  A
    frame [base, letter, i, j] moves its letter from w[i] to w[base] and
    rewrites only w[base:hi]; j counts the continuation letters it has
    placed at the current blocker.  Any failing frame fails the whole call.
    """
    try:
        stack = [[lo, s, w.index(s, lo, hi), 0]]
    except ValueError:
        return False
    while stack:
        base, x, i, j = frame = stack[-1]
        if i == base:
            stack.pop()
            continue
        t = w[i - 1]
        r = rules[x][t]
        if r is None:
            w[i - 1], w[i] = x, t
            frame[2] = i - 1
        elif not r:
            return False
        elif j < len(r) - 2:
            pos = i + 1 + j
            try:
                k = w.index(r[j + 1], pos, hi)
            except ValueError:
                return False
            frame[3] = j + 1
            stack.append([pos, r[j + 1], k, 0])
        else:
            w[i - 1 : i - 1 + len(r)] = r
            frame[2], frame[3] = i - 1, 0
    return True


def left_extract(w: PositiveWord, s: int) -> PositiveWord | None:
    """If s left-divides w, return some w'' with w = s * w''; else None."""
    check_kind(PositiveWord, w)
    w.matrix.check_word((s,), positive=True)
    return divides_left(_trusted(w.matrix, (s,)), w)


def _heads(rules: tuple, w: list[int], lo: int, hi: int) -> tuple[int, ...]:
    """The starting set of the window w[lo:hi], extracted on the window."""
    return tuple(s for s in sorted(set(w[lo:hi])) if _extract(rules, w, s, lo, hi))


def _divides(rules: tuple, w: list[int], letters, lo: int, hi: int) -> bool:
    """Whether the letters, the k-th extracted at lo + k, left-divide w[lo:hi]."""
    return all(_extract(rules, w, t, lo + k, hi) for k, t in enumerate(letters))


def starting_set(w: PositiveWord) -> tuple[int, ...]:
    """Generators that left-divide w, sorted."""
    check_kind(PositiveWord, w)
    return _heads(_rules(w.matrix), list(w.letters), 0, len(w.letters))


def finishing_set(w: PositiveWord) -> tuple[int, ...]:
    """Generators that right-divide w: the starting set of rev(w)."""
    return starting_set(rev(w))


def _check_same_matrix(u: PositiveWord, v: PositiveWord):
    check_kind(PositiveWord, u, v)
    if u.matrix is not v.matrix and u.matrix != v.matrix:
        raise InvalidWordError("operands live over different matrices")


def divides_left(u: PositiveWord, v: PositiveWord) -> PositiveWord | None:
    """Quotient u\\v with v = u * (u\\v) in the monoid, or None.

    Extracts the letters of u from one copy of v, the k-th at position k;
    sound because each successful extraction is an equality in the monoid,
    complete because extraction decides one-generator divisibility.
    """
    _check_same_matrix(u, v)
    n, buf = len(u.letters), list(v.letters)
    if n > len(buf) or not _divides(_rules(u.matrix), buf, u.letters, 0, len(buf)):
        return None
    return _trusted(u.matrix, tuple(buf[n:]))


def equals(u: PositiveWord, v: PositiveWord) -> bool:
    """Monoid equality: length check, then consume u's letters from one
    copy of v, as `divides_left` does, with no quotient built."""
    _check_same_matrix(u, v)
    n = len(v.letters)
    return len(u.letters) == n and _divides(_rules(u.matrix), list(v.letters),
                                            u.letters, 0, n)


def right_lcm(u: PositiveWord, v: PositiveWord,
              budget: int | None = None) -> PositiveWord | None:
    """Least common right multiple of u and v, or None if provably absent.

    Computed by signed-word reversing: rewrite -a +b into the complement
    pair until the sequence is positives-then-negatives.  Hitting a pair
    with label inf proves no common multiple exists (None).  budget bounds
    the length of the returned multiple; blowing past it (or the internal
    step cap) raises BudgetExceededError, which proves nothing.  A budget
    below max(len(u), len(v)), or one that is not an int, raises
    InvalidBudgetError.
    """
    _check_same_matrix(u, v)
    mat = u.matrix
    if budget is None:
        # lcm(1, 2) in I2(m) has m letters, so the largest finite label counts
        top = max(m for row in mat.entries for m in row if m != INF)
        budget = 2 * (len(u.letters) + len(v.letters)) * max(mat.rank, top)
        budget = max(budget, len(u.letters), len(v.letters), 4)
    elif not isinstance(budget, int) or budget < max(len(u.letters), len(v.letters)):
        raise InvalidBudgetError(
            f"budget must be an int of at least max(len(u), len(v)), got {budget!r}")
    seq: list[int] = [-x for x in reversed(u.letters)] + list(v.letters)
    flips = _reversals(mat)
    max_letters = 4 * budget + len(seq) + 16
    step_cap = 64 * budget + 4096
    steps = 0
    i = 0
    while True:
        while i < len(seq) - 1 and not (seq[i] < 0 < seq[i + 1]):
            i += 1
        if i >= len(seq) - 1:
            break
        flip = flips[-seq[i]][seq[i + 1]]
        if flip is None:
            return None
        seq[i : i + 2] = flip
        i = max(i - 1, 0)
        steps += 1
        if len(seq) > max_letters or steps > step_cap:
            raise BudgetExceededError(
                f"word reversing exceeded its budget ({budget}) on "
                f"lengths {len(u.letters)}, {len(v.letters)}"
            )
    positives = [x for x in seq if x > 0]
    lcm_letters = u.letters + tuple(positives)
    if len(lcm_letters) > budget:
        raise BudgetExceededError(
            f"common multiple of length {len(lcm_letters)} exceeds budget {budget}"
        )
    return _trusted(mat, lcm_letters)


@lru_cache(maxsize=None)
def _delta_cached(matrix: CoxeterMatrix, subset: tuple[int, ...]) -> PositiveWord | None:
    """`delta` on a sorted tuple of distinct generators, unchecked: a
    starting set already is one, so the peel and the normal form call it."""
    if not is_finite_type(matrix, subset):
        return None
    d = _trusted(matrix, subset[:1])
    for s in subset[1:]:
        d = right_lcm(d, _trusted(matrix, (s,)))
    return d


def delta(matrix: CoxeterMatrix, subset) -> PositiveWord | None:
    """Fundamental element Delta_I: iterated right lcm of the generators.

    Returns None exactly when the parabolic W_I is infinite, as decided by
    `coxeter.is_finite_type`: Delta_I exists iff W_I is finite
    (Brieskorn-Saito, Invent. Math. 17 (1972)).  Otherwise each partial
    lcm, itself the Delta of a parabolic, runs with `right_lcm`'s default
    budget, so a BudgetExceededError would be an internal fault; it is
    raised, never read as "no Delta".
    The empty subset yields the empty word.  Memoized per (matrix, subset).
    """
    check_kind(CoxeterMatrix, matrix)
    idx = tuple(sorted(set(matrix.check_word(subset, positive=True))))
    return _delta_cached(matrix, idx)


def ambient_delta(matrix: CoxeterMatrix) -> PositiveWord:
    """Delta over all generators; raises for infinite type."""
    check_kind(CoxeterMatrix, matrix)
    d = delta(matrix, matrix.generators)
    if d is None:
        raise DeltaUndefinedError(
            "the full generator set has no fundamental element (not finite type)"
        )
    return d


def normal_form(w: PositiveWord) -> tuple[tuple[int, ...], ...]:
    """Sequence of starting sets peeled off by their fundamental elements.

    w = Delta_{I_1} w_1, I_1 = S(w), then recurse on w_1.  Two positive
    words are equal in the monoid iff their sequences agree, so the
    sequence is a complete, hashable invariant.  Total for any matrix:
    whenever two generators left-divide w they admit a common multiple
    (namely w), so Delta_{S(w)} always exists and divides w; extracting
    its letters rewrites the window to start with it.
    """
    check_kind(PositiveWord, w)
    rules, buf = _rules(w.matrix), list(w.letters)
    out, lo, hi = [], 0, len(buf)
    while lo < hi:
        heads = _heads(rules, buf, lo, hi)
        d = _delta_cached(w.matrix, heads)
        _divides(rules, buf, d.letters, lo, hi)
        lo += len(d.letters)
        out.append(heads)
    return tuple(out)


def peel(w: PositiveWord, twisted: bool = False
         ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(y, I) with w = y Delta_I rev(y), y given by its letters, for a
    palindrome w = rev(w) over any matrix; deterministic.

    One list, whose window [lo, hi) holds the palindrome w still to peel,
    is rewritten in place into equal words.  Loop: extract S = S(w) from
    the window; if w equals Delta_S stop with I = S; otherwise take the
    smallest s finishing the tail Delta_S \\ w, and continue on
    a = Delta_J \\ w / Delta_J for J = {s}, or J = {s, tau(s)} when
    twisted, tau the Delta-twist of `compute_tau_perm`, which exists only
    in finite type.  Delta_S exists and left-divides w because the letters
    of S have the common multiple w, so w equals it when the lengths
    agree.  A letter finishing the tail finishes w = rev(w), so lies in S;
    s in S finishes it iff every t in S, hence Delta_S, left-divides
    w / s = rev(s \\ w).  Twisted, the caller promises tau(w) = w: then S
    and the tail are tau-stable, so tau(s) finishes the tail too, and so
    does their right lcm Delta_J.  Either way Delta_J finishes the tail,
    hence w, and starts w = rev(w).  a inherits palindromicity (and
    tau-stability) by two-sided cancellation.  y is the concatenated
    Delta_J words.

    Every answer spells w, whatever the input: each round rewrites the
    window into an equal word or its reverse, the divisions by Delta_J are
    extractions, and y Delta_I rev(y) is its own reverse.  So an input that
    is not a palindrome is never answered; it raises NotPalindromeError
    when no letter finishes the tail, or PreconditionError, as does a
    Delta_J that does not divide w, or a twisted that is not a bool; a
    twisted peel over an infinite-type matrix raises InfiniteTypeError.
    This is the peel for any matrix, and the reference of `group.peel`.
    """
    check_kind(PositiveWord, w)
    check_kind(bool, twisted)
    mat, rules, buf = w.matrix, _rules(w.matrix), list(w.letters)
    tau = _tau_perm(mat) if twisted else None
    lo, hi, prefix = 0, len(buf), []
    while True:
        s_set = _heads(rules, buf, lo, hi)
        if len(_delta_cached(mat, s_set).letters) == hi - lo:
            return tuple(prefix), s_set
        for s in s_set:
            # s \ w reversed is w / s on [lo, hi - 1); s goes last and leads
            # it, so that for J = {s} both extractions below find s in place
            _extract(rules, buf, s, lo, hi)
            buf[lo:hi] = buf[lo:hi][::-1]
            if all(_extract(rules, buf, t, lo, hi - 1)
                   for t in [t for t in s_set if t != s] + [s]):
                break
        else:
            raise NotPalindromeError("peel needs w = rev(w)")
        dj = delta(mat, (s,) if tau is None else (s, tau[s - 1]))
        # Delta_J \ w = a Delta_J, reversed Delta_J a; then a, equal to its reverse
        for _ in range(2):
            if not _divides(rules, buf, dj.letters, lo, hi):
                raise PreconditionError(
                    "peel needs w = rev(w), and Delta_J to start and finish it")
            lo += len(dj.letters)
            buf[lo:hi] = buf[lo:hi][::-1]
        prefix.extend(dj.letters)


def compute_tau_perm(matrix: CoxeterMatrix) -> tuple[int, ...]:
    """The permutation tau with s * Delta = Delta * tau(s); finite type only.

    Entry i-1 holds tau(i), read off that definition: i * Delta is a right
    multiple of Delta, so it is the right lcm of Delta and i * Delta, and
    `right_lcm` spells it Delta's letters and then tau(i), by reversing,
    without extraction.  Raises InfiniteTypeError for an infinite-type
    matrix.
    """
    check_kind(CoxeterMatrix, matrix)
    return _tau_perm(matrix)


@lru_cache(maxsize=None)
def _tau_perm(matrix: CoxeterMatrix) -> tuple[int, ...]:
    d = ambient_delta(matrix)
    return tuple(right_lcm(d, _trusted(matrix, (s,) + d.letters)).letters[-1]
                 for s in matrix.generators)

