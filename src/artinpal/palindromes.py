"""Palindromization x -> x*rev(x), its inverse on pure palindromes, and
decompositions x = y * Delta_I * rev(y).

Every routine reduces group-level input to a positive palindromic word by
clearing denominators with a central power of Delta: if x = Delta^(-2k) p,
the smallest even N >= k makes z = Delta^(2N) x positive, Delta^N central
and rev-fixed, and any positive decomposition z = u Delta_I rev(u) shifts
back to x = (Delta^(-N) u) Delta_I rev(Delta^(-N) u).  The peeling
recursions below therefore only ever touch positive words.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import group, monoid, weyl
from .coxeter import INF, CoxeterMatrix, _alt
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
from .monoid import PositiveWord

_SEARCH_BUDGET = 200_000


@dataclass(frozen=True)
class PalDecomposition:
    """One witness pair for x = y * Delta_I * rev(y); I sorted, maybe empty."""

    y: GroupElement
    I: tuple[int, ...]


def reconstruct(d: PalDecomposition) -> GroupElement:
    mat = d.y.matrix
    d_i = _delta_word(mat, d.I)
    return group.mult(group.mult(d.y, group.from_positive(d_i)), group.rev(d.y))


def _delta_word(mat: CoxeterMatrix, subset) -> PositiveWord:
    d = monoid.delta(mat, subset)
    if d is None:
        raise ArtinError("internal: parabolic delta must exist in finite type")
    return d


def pal(x: GroupElement) -> GroupElement:
    return group.mult(x, group.rev(x))


def _positive_core(x: GroupElement) -> tuple[PositiveWord, int]:
    """(z, half) with z positive, x = Delta^(-2*half) ... precisely
    x = Delta^(-N) z' in the sense z = Delta^(2N-2k) p for N = 2*half,
    the smallest even N >= x.k."""
    mat = x.matrix
    half = (x.k + 1) // 2
    pad = 2 * (2 * half - x.k)
    d = monoid.ambient_delta(mat)
    return PositiveWord(mat, d.letters * pad + x.p), half


def _lift(mat: CoxeterMatrix, half: int, letters) -> GroupElement:
    """Delta^(-2*half) * positive word, as a group element."""
    return group.make(mat, half, tuple(letters))


def _peel_positive(w: PositiveWord) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Deterministic decomposition of a positive palindromic word.

    Loop: if w equals Delta_{S(w)} stop with I = S(w); otherwise take the
    smallest s finishing the tail Delta_S \\ w, peel w = s * a * s with
    a = (s \\ Delta_S) * (tail minus its final s), and continue on a.
    Each turn shortens w by 2, and a inherits palindromicity by two-sided
    cancellation.
    """
    mat = w.matrix
    prefix: list[int] = []
    while True:
        s_set = monoid.starting_set(w)
        d = _delta_word(mat, s_set)
        if len(d) == len(w):
            return tuple(prefix), tuple(sorted(s_set))
        tail = monoid.divides_left(d, w)
        if tail is None:
            raise ArtinError("internal: Delta over the starting set divides w")
        fin = monoid.finishing_set(tail)
        if not fin:
            raise ArtinError("internal: nonempty tail has a finishing letter")
        s = min(fin)
        if s not in s_set:
            raise ArtinError("internal: finishing letters of the tail start w")
        head = monoid.divides_left(PositiveWord(mat, (s,)), d)
        stripped = monoid.left_extract(monoid.rev(tail), s)
        if stripped is None:
            raise ArtinError("internal: s finishes the tail")
        prefix.append(s)
        w = head * monoid.rev(stripped)


def decompose(x: GroupElement) -> PalDecomposition:
    """Some (y, I) with x = y * Delta_I * rev(y); deterministic."""
    if not group.is_palindrome(x):
        raise NotPalindromeError("decompose needs rev(x) = x")
    core, half = _positive_core(x)
    letters, subset = _peel_positive(core)
    d = PalDecomposition(y=_lift(x.matrix, half, letters), I=subset)
    if not group.eq(reconstruct(d), x):
        raise ArtinError("internal: decomposition failed to reconstruct")
    return d


def unpal(x: GroupElement) -> GroupElement:
    """The unique preimage of a pure palindrome under palindromization."""
    if not group.is_palindrome(x):
        raise NotPalindromeError("unpal needs rev(x) = x")
    if not group.is_pure(x):
        raise NotPureError("unpal needs trivial Coxeter image")
    d = decompose(x)
    if d.I:
        raise ArtinError("internal: pure palindromes decompose with I empty")
    if not group.eq(pal(d.y), x):
        raise ArtinError("internal: unpal round trip failed")
    return d.y


def core_decompositions(x: GroupElement, budget: int | None = None):
    """Every (y, I) with x = y Delta_I rev(y) and Delta^N y positive for the
    canonical even denominator-clearing exponent N.

    Returns a deterministically ordered tuple of PalDecomposition.  The
    search peels one generator from both ends at a time; memoization is by
    monoid normal form, so equal cores are explored once.
    """
    if not group.is_palindrome(x):
        raise NotPalindromeError("decomposition search needs rev(x) = x")
    core, half = _positive_core(x)
    mat = x.matrix
    cap = _SEARCH_BUDGET if budget is None else budget
    memo: dict = {}
    spent = 0

    def search(w: PositiveWord):
        nonlocal spent
        key = monoid.normal_form(w)
        hit = memo.get(key)
        if hit is not None:
            return hit
        spent += 1
        if spent > cap:
            raise BudgetExceededError("decomposition search budget exhausted")
        found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        seen = set()
        s_set = monoid.starting_set(w)
        d = _delta_word(mat, s_set)
        if len(d) == len(w):
            entry = ((), tuple(sorted(s_set)))
            found.append(entry)
            seen.add((monoid.normal_form(PositiveWord(mat, ())), entry[1]))
        fin = set(monoid.finishing_set(w))
        for s in sorted(set(s_set) & fin):
            left = monoid.left_extract(w, s)
            inner = monoid.left_extract(monoid.rev(left), s)
            if inner is None:
                # both-end occurrences of s can collide; no s.a.s form then
                continue
            a = monoid.rev(inner)
            for ys, subset in search(a):
                yw = (s,) + ys
                mark = (monoid.normal_form(PositiveWord(mat, yw)), subset)
                if mark in seen:
                    continue
                seen.add(mark)
                found.append((yw, subset))
        memo[key] = tuple(found)
        return memo[key]

    return tuple(
        PalDecomposition(y=_lift(mat, half, yw), I=subset)
        for yw, subset in search(core)
    )


def canonical_decompose(x: GroupElement, order, opp: bool = False,
                        budget: int | None = None) -> PalDecomposition:
    """The decomposition minimizing (Delta_I, y) lexicographically under the
    supplied left-ordering handle; opp flips only the Delta_I comparison."""
    from .orderings import Comparison

    cands = core_decompositions(x, budget=budget)
    mat = x.matrix

    def delta_elt(d: PalDecomposition) -> GroupElement:
        return group.from_positive(_delta_word(mat, d.I))

    best = None
    best_delta = None
    for cand in cands:
        if best is None:
            best, best_delta = cand, delta_elt(cand)
            continue
        cd = delta_elt(cand)
        c = order.compare(cd, best_delta)
        if opp:
            c = {Comparison.LESS: Comparison.GREATER,
                 Comparison.GREATER: Comparison.LESS}.get(c, c)
        if c is Comparison.LESS:
            best, best_delta = cand, cd
        elif c is Comparison.EQUAL:
            cy = order.compare(cand.y, best.y)
            if cy is Comparison.LESS:
                best, best_delta = cand, cd
            elif cy is Comparison.EQUAL:
                raise ArtinError("internal: two minimal decompositions")
    if best is None:
        raise ArtinError("internal: search returned no decomposition")
    return best


def decompose_rev_tau(x: GroupElement) -> PalDecomposition:
    """A decomposition with tau(y) = y and tau(I) = I.

    Peels Delta_{s, tau(s)} from both ends: the two-sided factor is itself
    rev- and tau-fixed, so both invariances descend to the middle and the
    accumulated y-word is a product of tau-fixed blocks.
    """
    if not group.is_palindrome(x):
        raise NotPalindromeError("decompose_rev_tau needs rev(x) = x")
    if not group.eq(group.tau(x), x):
        raise NotTauInvariantError("decompose_rev_tau needs tau(x) = x")
    mat = x.matrix
    perm = monoid.compute_tau_perm(mat)
    core, half = _positive_core(x)

    prefix: list[int] = []
    w = core
    while True:
        s_set = monoid.starting_set(w)
        d = _delta_word(mat, s_set)
        if len(d) == len(w):
            subset = tuple(sorted(s_set))
            break
        tail = monoid.divides_left(d, w)
        s = min(monoid.finishing_set(tail))
        j = tuple(sorted({s, perm[s - 1]}))
        dj = _delta_word(mat, j)
        w1 = monoid.divides_left(dj, w)
        if w1 is None:
            raise ArtinError("internal: Delta_{s,tau(s)} starts a tau-fixed w")
        inner = monoid.divides_left(dj, monoid.rev(w1))
        if inner is None:
            raise ArtinError("internal: Delta_{s,tau(s)} also finishes it")
        prefix.extend(dj.letters)
        w = monoid.rev(inner)

    d = PalDecomposition(y=_lift(mat, half, prefix), I=subset)
    if not group.eq(reconstruct(d), x):
        raise ArtinError("internal: rev-tau decomposition reconstruction")
    if not group.eq(group.tau(d.y), d.y):
        raise ArtinError("internal: rev-tau decomposition tau(y) = y")
    if tuple(sorted(perm[i - 1] for i in d.I)) != d.I:
        raise ArtinError("internal: rev-tau decomposition tau(I) = I")
    return d


def _pairwise_commuting(mat: CoxeterMatrix, subset) -> bool:
    items = sorted(subset)
    return all(
        mat.m(a, b) == 2 for pos, a in enumerate(items) for b in items[pos + 1:]
    )


def check_singleton(d: PalDecomposition) -> bool:
    """True iff d.I is pairwise non-adjacent, so Delta_I is the plain
    product of its generators."""
    return _pairwise_commuting(d.y.matrix, d.I)


def _flank_words(s: int, t: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For an odd label m = 2k+1: words D, C with
    Delta_{s,t} = D s rev(D) = C t rev(C) letter by letter."""
    if k % 2 == 0:
        return _alt(s, t, k), _alt(t, s, k)
    return _alt(t, s, k), _alt(s, t, k)


def tau_symmetrize(d: PalDecomposition, state_cap: int = 10_000) -> PalDecomposition:
    """Rewrite a pairwise-commuting decomposition into one with tau(I) = I.

    Moves across an odd edge m(s,s') = 2k+1, for a pivot s in J commuting
    with the rest of J and s' outside J also commuting with the rest:
    (A) grow J to J + {s'} with y <- y * D^-1, since
        Delta_{J+{s'}} = D Delta_J rev(D);
    (B) swap s for s' with y <- y * D^-1 C, since
        Delta_J = (D^-1 C) Delta_{J'} rev(D^-1 C).
    Breadth-first over subsets, accepting the first tau-stable
    pairwise-commuting J.  Exhaustion of the (finite) reachable set raises.
    """
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

    target = reconstruct(d)

    def accepted(j: frozenset) -> bool:
        return frozenset(perm[i - 1] for i in j) == j and _pairwise_commuting(mat, j)

    start = frozenset(d.I)
    queue = deque([(start, d.y)])
    visited = {start}
    popped = 0
    while queue:
        j, y = queue.popleft()
        popped += 1
        if popped > state_cap:
            raise SearchExhaustedError("tau_symmetrize state cap exceeded")
        if accepted(j):
            out = PalDecomposition(y=y, I=tuple(sorted(j)))
            if not group.eq(reconstruct(out), target):
                raise ArtinError("internal: move algebra broke the element")
            return out
        for s in sorted(j):
            if any(mat.m(s, t) != 2 for t in j if t != s):
                continue
            for sp in gens:
                if sp in j:
                    continue
                m = mat.m(s, sp)
                if m == 2 or m == INF or m % 2 == 0:
                    continue
                if any(mat.m(sp, t) != 2 for t in j if t != s):
                    continue
                dw, cw = _flank_words(s, sp, (m - 1) // 2)
                d_elt = group.from_word(mat, dw)
                c_elt = group.from_word(mat, cw)
                grow = frozenset(j | {sp})
                if grow not in visited:
                    visited.add(grow)
                    queue.append((grow, group.mult(y, group.inv(d_elt))))
                swap = frozenset((j - {s}) | {sp})
                if swap not in visited:
                    visited.add(swap)
                    queue.append(
                        (swap, group.mult(y, group.mult(group.inv(d_elt), c_elt)))
                    )
    raise SearchExhaustedError("no tau-invariant commuting I is reachable")


def delta_associated(x: GroupElement) -> GroupElement:
    """delta with x = Delta * delta * rev(delta), for x with rev(tau(x)) = x
    mapping onto the longest Coxeter element."""
    mat = x.matrix
    if not group.eq(group.rev(group.tau(x)), x):
        raise PreconditionError("delta_associated needs rev(tau(x)) = x")
    d_elt = group.delta_element(mat)
    if group.w_image(x).perm != group.w_image(d_elt).perm:
        raise PreconditionError(
            "delta_associated needs the Coxeter image of Delta"
        )
    root = unpal(group.mult(group.inv(d_elt), x))
    if not group.eq(group.mult(group.mult(d_elt, root), group.rev(root)), x):
        raise ArtinError("internal: delta_associated reconstruction")
    return root


def pure_rev_tau_root(x: GroupElement) -> GroupElement:
    """unpal specialized to tau-invariant input; the root is tau-fixed."""
    if not group.is_pure(x):
        raise NotPureError("pure_rev_tau_root needs a pure element")
    if not group.is_palindrome(x):
        raise NotPalindromeError("pure_rev_tau_root needs a palindrome")
    if not group.eq(group.tau(x), x):
        raise NotTauInvariantError("pure_rev_tau_root needs tau(x) = x")
    root = unpal(x)
    if not group.eq(group.tau(root), root):
        raise ArtinError("internal: tau-invariance must descend to the root")
    return root


def involution_lift(matrix: CoxeterMatrix, target,
                    cap: int = 1_000_000) -> PalDecomposition:
    """A decomposition y Delta_I rev(y) whose Coxeter image is the given
    involution (or identity); searched over conjugates of parabolic
    longest elements."""
    rep = weyl.build_root_system(matrix)
    perm = target.perm if isinstance(target, weyl.WElement) else tuple(target)
    ident = rep.identity().perm
    square = weyl.compose(perm, perm)
    if square != ident:
        raise PreconditionError("involution_lift needs an element of order <= 2")

    elements = weyl.enumerate_group(rep, cap)
    # g d_I g^-1 = target  <=>  g d_I = target g; the right side per element
    target_g = [weyl.compose(perm, g.perm) for g in elements]
    gens = matrix.generators
    subsets: list[tuple[int, ...]] = [()]
    for g in gens:
        subsets.extend(prev + (g,) for prev in list(subsets))
    subsets.sort(key=lambda s: (len(s), s))
    for subset in subsets:
        d_img = weyl.image(rep, _delta_word(matrix, subset).letters).perm
        for g, tg in zip(elements, target_g):
            if weyl.compose(g.perm, d_img) == tg:
                y = group.make(matrix, 0, g.word)
                out = PalDecomposition(y=y, I=subset)
                if group.w_image(reconstruct(out)).perm != perm:
                    raise ArtinError("internal: lift image mismatch")
                return out
    raise SearchExhaustedError("no palindromic lift found")
