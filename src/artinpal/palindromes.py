"""Palindromization x -> x*rev(x), its inverse on pure palindromes, and
decompositions x = y * Delta_I * rev(y).

Every routine reduces group-level input to a positive palindromic element
by clearing denominators with a central power of Delta: if x = Delta^(-2k)
p, the smallest even N >= k makes z = Delta^(2N) x positive, Delta^N
central and rev-fixed, and any positive decomposition z = u Delta_I rev(u)
shifts back to x = (Delta^(-N) u) Delta_I rev(Delta^(-N) u).  The peel
(`group.peel`) and the decomposition search (`group.decompositions`)
therefore only ever touch positive elements, on their Garside normal
forms; none of them extracts.  The peel's every step is an exact
quotient, so its answer spells z and is not checked again.  A pure core,
such as every pal(x) that `unpal` and `decompose` meet on a round trip,
is peeled one normal-form factor per round instead of one letter: it has
one root, so the answer is the same.  `decompose_rev_tau` reads its
input contract off the peel's answer instead of testing it first.  Like
the peel, the routines here carry no self-checks of their answers: each
rests on the proof in its docstring, and the tier-1 tests referee it
against the oracle and the paper's criteria.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import index

from . import group, monoid, weyl
from .coxeter import CoxeterMatrix, check_kind, w_word
from .errors import (
    ArtinError,
    BudgetExceededError,
    NotPalindromeError,
    NotPureError,
    NotTauInvariantError,
    PreconditionError,
    SearchExhaustedError,
)
from .group import GroupElement

_SEARCH_BUDGET = 200_000
_TAU_STATE_BUDGET = 10_000


@dataclass(frozen=True)
class PalDecomposition:
    """One witness pair for x = y * Delta_I * rev(y); I sorted, maybe empty."""

    y: GroupElement
    I: tuple[int, ...]


def reconstruct(d: PalDecomposition) -> GroupElement:
    check_kind(PalDecomposition, d)
    d_i = group.delta_element(d.y.matrix, d.I)
    return group.mult(group.mult(d.y, d_i), group.rev(d.y))


def pal(x: GroupElement) -> GroupElement:
    return group.mult(x, group.rev(x))


def _shift(x: GroupElement, m: int) -> GroupElement:
    """Delta^m x: Delta^m Delta^inf a_1 ... a_r is already a normal form."""
    return GroupElement(x.matrix, x.inf + m, x.factors)


def _core(x: GroupElement) -> tuple[GroupElement, int]:
    """(z, N) with z = Delta^(2N) x for N the least even exponent >= x.k,
    so that z is positive.  As N is even, Delta^N is central (tau^N is the
    identity) and rev-fixed, so z = u Delta_I rev(u) gives x = Delta^-N u
    Delta_I rev(u) Delta^-N = y Delta_I rev(y) with y = Delta^-N u."""
    n = 2 * ((x.k + 1) // 2)
    return _shift(x, 2 * n), n


def _peel(x: GroupElement, twisted: bool = False) -> PalDecomposition:
    """Deterministic decomposition of a palindrome x: `group.peel` of its
    core z = Delta^(2N) x, twisted or not, whose answer spells z, with
    y = Delta^-N u.  The peel's steps are exact quotients, and z is a
    palindrome iff x is, and tau-fixed iff x is.  Untwisted, an s that
    finishes the tail gives z = Delta_S T s, so s left-divides z s^-1 and
    s^-1 z s^-1 is positive: a round with no such s is the peel's only
    failure, and a non-palindrome raises NotPalindromeError."""
    check_kind(GroupElement, x)
    z, n = _core(x)
    u, subset = group.peel(z, twisted)
    return PalDecomposition(y=_shift(u, -n), I=subset)


def decompose(x: GroupElement) -> PalDecomposition:
    """Some (y, I) with x = y * Delta_I * rev(y); deterministic.  A
    non-palindrome raises NotPalindromeError.  For a pure x this is
    (unpal(x), ()), peeled a whole normal-form factor per round."""
    return _peel(x)


def unpal(x: GroupElement) -> GroupElement:
    """The unique preimage of a pure palindrome under palindromization.

    The peel's x = y Delta_I rev(y) has Coxeter image w(y) w0(I) w(y)^-1,
    which is trivial exactly when I is empty, and then x = pal(y).  So a
    non-palindrome raises NotPalindromeError from the peel, and a
    palindrome peeled with I nonempty NotPureError.  On a pure core the
    peel cuts a whole normal-form factor a off the left and rev(a) off the
    right per round, so a round trip costs a round per factor of the
    core, not per letter of y."""
    d = _peel(x)
    if d.I:
        raise NotPureError("unpal needs trivial Coxeter image")
    return d.y


def core_decompositions(x: GroupElement, budget: int | None = None):
    """Every (y, I) with x = y Delta_I rev(y) and Delta^N y positive for the
    canonical even denominator-clearing exponent N.

    Returns a deterministically ordered tuple of PalDecomposition: those of
    `group.decompositions` on the core z = Delta^(2N) x, each shifted back
    by y = Delta^-N u.  The budget counts the distinct cores the search
    records, _SEARCH_BUDGET when it is None.  A budget that is not a
    nonnegative int raises InvalidBudgetError, and a non-palindrome
    NotPalindromeError.
    """
    check_kind(GroupElement, x)
    z, n = _core(x)
    found = group.decompositions(z, _SEARCH_BUDGET if budget is None else budget)
    return tuple(PalDecomposition(y=_shift(u, -n), I=subset)
                 for u, subset in found)


def canonical_decompose(x: GroupElement, order, opp: bool = False,
                        budget: int | None = None) -> PalDecomposition:
    """The decomposition minimizing (Delta_I, y) lexicographically under the
    supplied left-ordering handle; opp flips only the Delta_I comparison.
    An order without callable sign and difference raises PreconditionError
    before the search.

    The deterministic peel's path is one path of `core_decompositions`, so
    the search never comes back empty on a palindrome.  A left order's sign
    is ZERO only at the identity, and the search lists each (y, I) once, so
    no two candidates tie; a tie would keep the earlier one."""
    if not all(callable(getattr(order, f, None)) for f in ("sign", "difference")):
        raise PreconditionError(f"expected an ordering handle, got {order!r}")
    cands = core_decompositions(x, budget=budget)
    mat = x.matrix

    def below(a: GroupElement, b: GroupElement) -> int:
        # a < b exactly when the handle's sign of difference(a, b) is positive
        return order.sign(order.difference(a, b))

    best = cands[0]
    best_delta = group.delta_element(mat, best.I)
    for cand in cands[1:]:
        cd = group.delta_element(mat, cand.I)
        c = -below(cd, best_delta) if opp else below(cd, best_delta)
        if c > 0 or not c and below(cand.y, best.y) > 0:
            best, best_delta = cand, cd
    return best


def decompose_rev_tau(x: GroupElement) -> PalDecomposition:
    """A decomposition with tau(y) = y and tau(I) = I, for a palindrome x
    with tau(x) = x; any other x raises NotPalindromeError, or
    NotTauInvariantError when it is a palindrome.

    The twisted peel cuts Delta_{s, tau(s)} off both ends: the two-sided
    factor is itself rev- and tau-fixed, so both invariances descend to
    the middle and the accumulated y-word is a product of tau-fixed
    blocks.  The peel's steps are exact quotients, so the answer spells x;
    the last middle is a tau-fixed Delta_I, so tau(I) = I.

    The contract is read off the peel's answer, without a rev or tau of x.
    An answer y Delta_I rev(y) spells x, so x is a palindrome, and y is a
    product of tau-fixed cuts (Delta_J for J = {s} or {s, tau(s)}, whole
    factors and powers of Delta that tau fixes, and the central even power
    Delta^-N), so tau(y) = y.  As tau commutes with rev, tau(x) = y
    Delta_{tau(I)} rev(y), which by cancellation is x exactly when
    Delta_{tau(I)} = Delta_I, that is when tau(I) = I, as Delta_I's
    starting set is I.  So an answer with tau(I) = I is returned at once;
    tau(I) is read off `monoid.compute_tau_perm`, which names the same
    permutation as the group tables' sigma that the peel twists by.
    Only when the peel raises, or answers with tau(I) != I, are the two
    checks run, palindrome first, and then the peel again, so each input
    raises the error it would with the checks in front; a tau-fixed
    palindrome always peels, so valid input never gets there.
    """
    check_kind(GroupElement, x)
    try:
        perm = monoid.compute_tau_perm(x.matrix)
        d = _peel(x, twisted=True)
    except ArtinError:
        pass
    else:
        if all(perm[i - 1] in d.I for i in d.I):
            return d
    if not group.is_palindrome(x):
        raise NotPalindromeError("decompose_rev_tau needs rev(x) = x")
    if not group.eq(group.tau(x), x):
        raise NotTauInvariantError("decompose_rev_tau needs tau(x) = x")
    return _peel(x, twisted=True)


def _pairwise_commuting(mat: CoxeterMatrix, subset) -> bool:
    items = sorted(mat.check_word(subset, positive=True))
    return all(
        mat.m(a, b) == 2 for pos, a in enumerate(items) for b in items[pos + 1:]
    )


def check_singleton(d: PalDecomposition) -> bool:
    """True iff d.I is pairwise non-adjacent, so Delta_I is the plain
    product of its generators."""
    check_kind(PalDecomposition, d)
    return _pairwise_commuting(d.y.matrix, d.I)


def _flank_words(s: int, t: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For an odd label m = 2k+1: words D, C with
    Delta_{s,t} = D s rev(D) = C t rev(C) letter by letter."""
    if k % 2 == 0:
        return w_word(s, t, k), w_word(t, s, k)
    return w_word(t, s, k), w_word(s, t, k)


def tau_symmetrize(d: PalDecomposition) -> PalDecomposition:
    """Rewrite a pairwise-commuting decomposition into one with tau(I) = I.

    Swaps across an odd edge m(s,s') = 2k+1, for s in J and s' outside J
    commuting with the rest of J: J' = J - {s} + {s'} and y <- y * D^-1 C,
    since Delta_J = (D^-1 C) Delta_{J'} rev(D^-1 C).  A swap keeps J
    pairwise commuting.  Growing J to J + {s'}, by Delta_{J+{s'}} =
    D Delta_J rev(D), would put the adjacent s and s' in J, and no later
    move could part them, so it never leads to an accepted J and is not
    searched.  Breadth-first over subsets, accepting the first tau-stable
    J.  Each swap is an equality of elements, so every state spells d's
    element.  Exhaustion of the (finite) reachable set raises
    SearchExhaustedError; popping more than _TAU_STATE_BUDGET states raises
    BudgetExceededError.
    """
    check_kind(PalDecomposition, d)
    mat = d.y.matrix
    if not _pairwise_commuting(mat, d.I):
        raise PreconditionError("tau_symmetrize needs pairwise-commuting I")
    perm = monoid.compute_tau_perm(mat)
    if all(perm[i - 1] == i for i in mat.generators):
        return d
    gens = mat.generators
    for a in gens:
        for b in gens:
            if a < b:
                m = mat.m(a, b)
                if m != 2 and m % 2 == 0:
                    raise PreconditionError(
                        "tau_symmetrize with nontrivial tau needs all diagram "
                        "labels odd"
                    )

    start = frozenset(d.I)
    queue = deque([(start, d.y)])
    visited = {start}
    popped = 0
    while queue:
        j, y = queue.popleft()
        popped += 1
        if popped > _TAU_STATE_BUDGET:
            raise BudgetExceededError("tau-symmetrization budget exhausted")
        if frozenset(perm[i - 1] for i in j) == j:
            return PalDecomposition(y=y, I=tuple(sorted(j)))
        for s in sorted(j):
            for sp in gens:
                m = mat.m(s, sp)
                if sp in j or m == 2 or any(mat.m(sp, t) != 2 for t in j if t != s):
                    continue
                swap = frozenset((j - {s}) | {sp})
                if swap not in visited:
                    visited.add(swap)
                    dw, cw = _flank_words(s, sp, (m - 1) // 2)
                    move = group.from_word(mat, tuple(-x for x in reversed(dw)) + cw)
                    queue.append((swap, group.mult(y, move)))
    raise SearchExhaustedError("no tau-invariant commuting I is reachable")


def delta_associated(x: GroupElement) -> GroupElement:
    """delta with x = Delta * delta * rev(delta), for x with rev(tau(x)) = x
    mapping onto the longest Coxeter element: Delta^-1 x is then a pure
    palindrome, and delta = unpal(Delta^-1 x) spells it as pal(delta)."""
    if not group.eq(group.rev(group.tau(x)), x):
        raise PreconditionError("delta_associated needs rev(tau(x)) = x")
    mat = x.matrix
    d_elt = group.delta_element(mat)
    if group.w_image(x).perm != group.w_image(d_elt).perm:
        raise PreconditionError(
            "delta_associated needs the Coxeter image of Delta"
        )
    return unpal(group.mult(group.inv(d_elt), x))


def involution_lift(matrix: CoxeterMatrix, target) -> PalDecomposition:
    """A decomposition y Delta_I rev(y) whose Coxeter image is the given
    involution (or the identity), found by descent: while some simple s,
    lowest first, has w(alpha_s) < 0 and s w s != w, set w = s w s and
    record s.  For an involution a right descent is a left descent, so each
    step shortens w by 2; the loop ends at w0(I) for
    I = {s : w(alpha_s) = -alpha_s}, and y is the recorded word (Richardson,
    Bull. Austral. Math. Soc. 26 (1982); Geck-Pfeiffer (2000), Thm 3.2.9).
    The target is then w(y) w0(I) w(y)^-1, the image of y Delta_I rev(y).
    A target outside W raises PreconditionError."""
    rep = weyl.build_root_system(matrix)
    try:
        perm = tuple(map(index, target.perm if isinstance(target, weyl.WElement)
                         else target))
    except TypeError:
        perm = ()
    if sorted(perm) != list(range(rep.degree)):
        raise PreconditionError("involution_lift needs a permutation of the roots")
    if weyl.compose(perm, perm) != rep.identity().perm:
        raise PreconditionError("involution_lift needs an element of order <= 2")

    negative = rep.negative
    refl = rep.simple_reflections
    minus = [r[i] for i, r in enumerate(refl)]  # the index of -alpha_(i+1)
    # s w s = w iff w(alpha_s) = +-alpha_s: a step needs w(alpha_s) < 0, not -alpha_s
    # no involution of W is longer than |Phi+| = degree / 2, so a longer
    # descent, or one that ends away from w0(I), starts outside W
    w, letters = perm, []
    while (i := next((i for i, m in enumerate(minus)
                      if negative[w[i]] and w[i] != m), None)) is not None:
        if len(letters) == rep.degree // 4:
            raise PreconditionError("involution_lift needs an element of W")
        w = weyl.compose(refl[i], weyl.compose(w, refl[i]))
        letters.append(i + 1)
    subset = tuple(i + 1 for i, m in enumerate(minus) if w[i] == m)
    if group.w_image(group.delta_element(matrix, subset)).perm != w:
        raise PreconditionError("involution_lift needs an element of W")
    return PalDecomposition(y=group.make(matrix, 0, letters), I=subset)
