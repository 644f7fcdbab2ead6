"""Palindromization x -> x*rev(x), its inverse on pure palindromes, and
decompositions x = y * Delta_I * rev(y).

Every routine reduces group-level input to a positive palindromic word by
clearing denominators with a central power of Delta: if x = Delta^(-2k) p,
the smallest even N >= k makes z = Delta^(2N) x positive, Delta^N central
and rev-fixed, and any positive decomposition z = u Delta_I rev(u) shifts
back to x = (Delta^(-N) u) Delta_I rev(Delta^(-N) u).  The peeling
recursions below therefore only ever touch positive words and elements.
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


def _core(x: GroupElement) -> tuple[GroupElement, int]:
    """(z, half) with z = Delta^(2N) x for N = 2 * half, the least even
    exponent >= x.k.  z is positive, and as Delta^N is central, z =
    u Delta_I rev(u) gives x = y Delta_I rev(y) with y = Delta^-N u."""
    half = (x.k + 1) // 2
    shift = group.make(x.matrix, half, ())  # Delta^-N
    return group.mult(x, group.inv(group.mult(shift, shift))), half


def _peel(x: GroupElement, block) -> PalDecomposition:
    """Deterministic decomposition of a palindrome x, peeled off the
    positive word w = z.p of its core.

    Loop: if w equals Delta_{S(w)} stop with I = S(w); otherwise take the
    smallest s finishing the tail Delta_S \\ w, J = block(s), and continue
    on a = Delta_J \\ w / Delta_J.  A letter finishing the tail finishes
    w = rev(w), so lies in S; s in S finishes it iff every t in S, hence
    Delta_S, left-divides w / s = rev(s \\ w).  When J = {s, tau(s)}, w, S
    and the tail are tau-stable, so Delta_J finishes the tail and starts w.
    a inherits palindromicity (and tau-stability) by two-sided
    cancellation.  y is Delta^-N times the concatenated Delta_J words.
    """
    mat = x.matrix
    z, half = _core(x)
    w = monoid.word(mat, z.p)
    prefix: list[int] = []
    while True:
        # s \ w for every s in S(w), each extracted once
        cuts = {s: q for s in sorted(set(w.letters))
                if (q := monoid.left_extract(w, s)) is not None}
        if len(_delta_word(mat, cuts)) == len(w):
            break
        s = next((s for s, q in cuts.items() if all(
            monoid.left_extract(monoid.rev(q), t) is not None for t in cuts)), None)
        if s is None:
            raise ArtinError("internal: nonempty tail has a finishing letter")
        dj = _delta_word(mat, block(s))
        q = monoid.divides_left(dj, w)
        a = None if q is None else monoid.divides_left(dj, monoid.rev(q))
        if a is None:
            raise ArtinError("internal: Delta_J starts and finishes w")
        prefix.extend(dj.letters)
        w = monoid.rev(a)
    d = PalDecomposition(y=group.make(mat, half, prefix), I=tuple(cuts))
    if not group.eq(reconstruct(d), x):
        raise ArtinError("internal: decomposition failed to reconstruct")
    return d


def decompose(x: GroupElement) -> PalDecomposition:
    """Some (y, I) with x = y * Delta_I * rev(y); deterministic."""
    if not group.is_palindrome(x):
        raise NotPalindromeError("decompose needs rev(x) = x")
    return _peel(x, lambda s: (s,))


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
    search runs on normal forms: a core z, first Delta^(2N) x, is its own
    memo key; z = Delta_S(z) is a base case; each s in S(z) = F(z) peels to
    s^-1 rev(s^-1 z) = s^-1 z s^-1 when that is positive.  Each core's
    search is a generator that yields the inner cores it needs and is sent
    their results, driven depth first over an explicit stack, so the depth
    of the peel is not bounded by the Python stack.
    """
    if not group.is_palindrome(x):
        raise NotPalindromeError("decomposition search needs rev(x) = x")
    mat = x.matrix
    core, half = _core(x)
    shift = group.make(mat, half, ())  # Delta^-N, central
    gens = {s: group.from_word(mat, (s,)) for s in mat.generators}
    invs = {s: group.inv(g) for s, g in gens.items()}
    cap = _SEARCH_BUDGET if budget is None else budget
    memo: dict = {}
    spent = 0

    def search(z: GroupElement):
        nonlocal spent
        spent += 1
        if spent > cap:
            raise BudgetExceededError("decomposition search budget exhausted")
        # (y, I) in order of discovery, each once
        found: dict = {}
        s_set = group.starting_set(z)
        if group.length(z) == len(_delta_word(mat, s_set)):
            found[group.identity(mat), s_set] = None
        for s in s_set:
            inner = group.mult(invs[s], group.rev(group.mult(invs[s], z)))
            if inner.inf < 0:
                # s does not finish s^-1 z; no s a s form then
                continue
            for y, subset in (yield inner):
                found.setdefault((group.mult(gens[s], y), subset))
        memo[z] = tuple(found)
        return memo[z]

    stack = [search(core)]
    result = None
    while stack:
        try:
            z = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
            continue
        result = memo.get(z)
        if result is None:
            stack.append(search(z))

    return tuple(PalDecomposition(y=group.mult(y, shift), I=subset)
                 for y, subset in result)


def canonical_decompose(x: GroupElement, order, opp: bool = False,
                        budget: int | None = None) -> PalDecomposition:
    """The decomposition minimizing (Delta_I, y) lexicographically under the
    supplied left-ordering handle; opp flips only the Delta_I comparison."""
    from .orderings import Comparison

    cands = core_decompositions(x, budget=budget)
    if not cands:
        raise ArtinError("internal: search returned no decomposition")
    mat = x.matrix

    def delta_elt(d: PalDecomposition) -> GroupElement:
        return group.from_positive(_delta_word(mat, d.I))

    best = cands[0]
    best_delta = delta_elt(best)
    for cand in cands[1:]:
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
    perm = monoid.compute_tau_perm(x.matrix)
    d = _peel(x, lambda s: (s, perm[s - 1]))
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


def involution_lift(matrix: CoxeterMatrix, target) -> PalDecomposition:
    """A decomposition y Delta_I rev(y) whose Coxeter image is the given
    involution (or the identity), found by descent: while some simple s,
    lowest first, has w(alpha_s) < 0 and s w s != w, set w = s w s and
    record s.  For an involution a right descent is a left descent, so each
    step shortens w by 2; the loop ends at w0(I) for
    I = {s : w(alpha_s) = -alpha_s}, and y is the recorded word (Richardson,
    Bull. Austral. Math. Soc. 26 (1982); Geck-Pfeiffer (2000), Thm 3.2.9).
    A target outside W raises PreconditionError."""
    rep = weyl.build_root_system(matrix)
    perm = target.perm if isinstance(target, weyl.WElement) else tuple(target)
    if len(perm) != rep.degree or set(perm) != set(range(rep.degree)):
        raise PreconditionError("involution_lift needs a permutation of the roots")
    if weyl.compose(perm, perm) != rep.identity().perm:
        raise PreconditionError("involution_lift needs an element of order <= 2")

    negative = weyl._negative_roots(rep)
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
    if weyl.image(rep, _delta_word(matrix, subset).letters).perm != w:
        raise PreconditionError("involution_lift needs an element of W")
    out = PalDecomposition(y=group.make(matrix, 0, letters), I=subset)
    if group.w_image(reconstruct(out)).perm != perm:
        raise ArtinError("internal: lift image mismatch")
    return out
