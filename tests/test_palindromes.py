import itertools
import random
import time

import pytest

from artinpal import coxeter, group, monoid, palindromes, weyl
from artinpal.errors import (
    BudgetExceededError,
    NotPalindromeError,
    NotPureError,
    NotTauInvariantError,
    PreconditionError,
    SearchExhaustedError,
)
from artinpal.orderings import dehornoy_order, order_for_matrix
from artinpal.palindromes import (
    PalDecomposition,
    canonical_decompose,
    check_singleton,
    core_decompositions,
    decompose,
    decompose_rev_tau,
    delta_associated,
    involution_lift,
    pal,
    pure_rev_tau_root,
    reconstruct,
    tau_symmetrize,
    unpal,
)

A2 = coxeter.builtin("A", 2)
A3 = coxeter.builtin("A", 3)
B2 = coxeter.builtin("B", 2)

SEED = 20240816


def random_signed_word(rng, rank, max_len):
    return tuple(
        rng.choice([1, -1]) * rng.randint(1, rank)
        for _ in range(rng.randint(0, max_len))
    )


def test_pal():
    x = group.from_word(A3, (1, 2))
    assert group.eq(pal(x), group.from_word(A3, (1, 2, 2, 1)))
    assert group.eq(pal(group.identity(A3)), group.identity(A3))
    # pal always lands on a pure palindrome, whatever the input
    y = group.from_word(A3, (-1, 3, 2))
    assert group.is_palindrome(pal(y)) and group.is_pure(pal(y))


def test_reconstruct():
    d = PalDecomposition(y=group.from_word(A3, (2,)), I=(1, 3))
    assert group.eq(reconstruct(d), group.from_word(A3, (2, 1, 3, 2)))
    d0 = PalDecomposition(y=group.identity(A3), I=())
    assert group.eq(reconstruct(d0), group.identity(A3))


def test_decompose_examples():
    d = decompose(group.from_word(A3, (2, 1, 3, 2)))
    assert d.I == (1, 3)
    assert group.eq(d.y, group.from_word(A3, (2,)))
    d = decompose(group.delta_element(A3))
    assert d.I == (1, 2, 3) and group.eq(d.y, group.identity(A3))
    d = decompose(group.identity(A3))
    assert d.I == () and group.eq(d.y, group.identity(A3))
    with pytest.raises(NotPalindromeError):
        decompose(group.from_word(A3, (1, 2)))


def test_decompose_random_constructions():
    rng = random.Random(SEED)
    deltas = [(), (1,), (2,), (1, 3), (1, 2), (1, 2, 3)]
    for _ in range(40):
        y = group.from_word(A3, random_signed_word(rng, 3, 5))
        I = rng.choice(deltas)
        x = reconstruct(PalDecomposition(y=y, I=I))
        d = decompose(x)
        assert group.eq(reconstruct(d), x)


def test_unpal_round_trips():
    rng = random.Random(SEED)
    for mat, rank in ((A3, 3), (B2, 2)):
        for _ in range(30):
            x = group.from_word(mat, random_signed_word(rng, rank, 6))
            assert group.eq(unpal(pal(x)), x)


def test_unpal_errors():
    with pytest.raises(NotPalindromeError):
        unpal(group.from_word(A3, (1, 2)))
    with pytest.raises(NotPureError):
        unpal(group.delta_element(A3))
    with pytest.raises(NotPureError):
        unpal(group.from_word(A3, (2,)))  # palindrome, image s2 != e
    assert group.eq(unpal(group.from_word(A3, (1, 1))), group.from_word(A3, (1,)))


def test_core_decompositions_delta_a3():
    out = core_decompositions(group.delta_element(A3))
    got = {(monoid.normal_form(monoid.PositiveWord(A3, d.y.p)), d.I) for d in out}
    nf = lambda w: monoid.normal_form(monoid.PositiveWord(A3, w))
    assert got == {
        (nf(()), (1, 2, 3)),
        (nf((1, 2)), (1, 3)),
        (nf((3, 2)), (1, 3)),
    }
    for d in out:
        assert d.y.k == 0
        assert group.eq(reconstruct(d), group.delta_element(A3))


def test_core_decompositions_small():
    out = core_decompositions(group.from_word(A3, (1, 1)))
    assert len(out) == 1 and out[0].I == () and group.eq(out[0].y, group.from_word(A3, (1,)))
    out = core_decompositions(group.identity(A3))
    assert len(out) == 1 and out[0].I == ()
    with pytest.raises(NotPalindromeError):
        core_decompositions(group.from_word(A3, (1, 2)))
    with pytest.raises(BudgetExceededError):
        core_decompositions(group.delta_element(A3), budget=0)


def test_canonical_decompose():
    order = dehornoy_order(A3)
    d = canonical_decompose(group.delta_element(A3), order)
    assert d.I == (1, 3) and group.eq(d.y, group.from_word(A3, (3, 2)))
    d_opp = canonical_decompose(group.delta_element(A3), order, opp=True)
    assert d_opp.I == (1, 2, 3) and group.eq(d_opp.y, group.identity(A3))


def test_decompose_rev_tau():
    x = group.from_word(A3, (2, 1, 3, 2))
    d = decompose_rev_tau(x)
    perm = monoid.compute_tau_perm(A3)
    assert group.eq(reconstruct(d), x)
    assert group.eq(group.tau(d.y), d.y)
    assert tuple(sorted(perm[i - 1] for i in d.I)) == d.I
    with pytest.raises(NotPalindromeError):
        decompose_rev_tau(group.from_word(A3, (1, 2)))
    with pytest.raises(NotTauInvariantError):
        decompose_rev_tau(group.from_word(A3, (1, 1)))


def test_decompose_rev_tau_random():
    rng = random.Random(SEED)
    blocks = [(2,), (1, 3), (-2,), (-1, -3)]
    subsets = [(), (2,), (1, 3), (1, 2, 3)]
    perm = monoid.compute_tau_perm(A3)
    for _ in range(25):
        yw = sum((rng.choice(blocks) for _ in range(rng.randint(0, 3))), ())
        y = group.from_word(A3, yw)
        x = reconstruct(PalDecomposition(y=y, I=rng.choice(subsets)))
        d = decompose_rev_tau(x)
        assert group.eq(reconstruct(d), x)
        assert group.eq(group.tau(d.y), d.y)
        assert tuple(sorted(perm[i - 1] for i in d.I)) == d.I


# Inputs x = y Delta_J rev(y) with tau(y) = y and tau(J) = J, and the exact
# (to_signed_word(y), I) that decompose and decompose_rev_tau return on
# them.  The peel loop is deterministic, so any change of its choices shows
# here; each positive core is 60 to 150 letters long, so it takes many turns.
PINNED_DECOMPOSITIONS = [
    ("A5", "2 4 2 4 1 5 -4 -2 1 5 1 5", (2, 4),
     ("-1 -2 -3 -4 -5 -1 -2 -3 -4 -1 -2 -3 -1 -2 -1 -1 -2 -3 -4 -5 -1 "
      "-2 -3 -4 -1 -2 -3 -1 -2 -1 1 2 1 3 2 1 4 3 2 1 5 4 3 2 1 2 4 2 1 "
      "4 3 2 1 5 2 3 5 4 3 2 1 1 4 1 2 3 4",
      (2, 3, 5)),
     ("-1 -2 -3 -4 -5 -1 -2 -3 -4 -1 -2 -3 -1 -2 -1 -1 -2 -3 -4 -5 -1 "
      "-2 -3 -4 -1 -2 -3 -1 -2 -1 1 2 1 3 2 1 4 3 2 1 5 4 3 2 1 2 3 2 1 "
      "4 3 2 1 5 4 3 1 2 5 4 2 1 4 5 1 2 5 4",
      (1, 5))),
    ("A5", "-4 -2 3 1 5 -4 -2 1 5 -5 -1", (2, 4),
     ("-1 -2 -3 -4 -5 -1 -2 -3 -4 -1 -2 -3 -1 -2 -1 -1 -2 -3 -4 -5 -1 "
      "-2 -3 -4 -1 -2 -3 -1 -2 -1 1 2 3 2 1 4 3 2 5 4 3 2 1 1 3 5 1 3 2 "
      "1 5 4 3 2 1",
      (2, 3, 4, 5)),
     ("-1 -2 -3 -4 -5 -1 -2 -3 -4 -1 -2 -3 -1 -2 -1 -1 -2 -3 -4 -5 -1 "
      "-2 -3 -4 -1 -2 -3 -1 -2 -1 1 2 3 2 1 4 3 2 5 4 3 2 1 1 3 5 1 3 2 "
      "1 4 3 2 5 4 3 2 2 4",
      (1, 5))),
    ("D4", "4 -1 -1 -1 -1 4", (2,),
     ("-4 -2 -3 -1 -2 -4 -1 -2 -3 -1 -2 -1 -4 -2 -3 -1 -2 -4 -1 -2 -3 "
      "-1 -2 -1 -4 -2 -3 -1 -2 -4 -1 -2 -3 -1 -2 -1 -4 -2 -3 -1 -2 -4 "
      "-1 -2 -3 -1 -2 -1 2 1 3 2 1 4 2 1 3 2 4 2 1 3 2 1 4 2 1 3 2 4 2 "
      "1 3 2 1 4 2 1 3 2 4 2 1 3 2 1 4 2 1 3 2 4 4",
      (2, 4)),
     ("-4 -2 -3 -1 -2 -4 -1 -2 -3 -1 -2 -1 -4 -2 -3 -1 -2 -4 -1 -2 -3 "
      "-1 -2 -1 -4 -2 -3 -1 -2 -4 -1 -2 -3 -1 -2 -1 -4 -2 -3 -1 -2 -4 "
      "-1 -2 -3 -1 -2 -1 2 1 3 2 1 4 2 1 3 2 4 2 1 3 2 1 4 2 1 3 2 4 2 "
      "1 3 2 1 4 2 1 3 2 4 2 1 3 2 1 4 2 1 3 2 4 4",
      (2, 4))),
    ("D4", "-4 1 -3 -1 -3 -3", (3,),
     ("-4 -2 -3 -1 -2 -4 -1 -2 -3 -1 -2 -1 -4 -2 -3 -1 -2 -4 -1 -2 -3 "
      "-1 -2 -1 -4 -2 -3 -1 -2 -4 -1 -2 -3 -1 -2 -1 -4 -2 -3 -1 -2 -4 "
      "-1 -2 -3 -1 -2 -1 1 2 1 3 2 1 4 2 1 3 2 4 1 2 1 3 2 4 2 1 3 2 4 "
      "1 2 1 3 2 4 2 1 3 2 4 1 2 1 3 2 4 2 1 3",
      (2, 3)),
     ("-4 -2 -3 -1 -2 -4 -1 -2 -3 -1 -2 -1 -4 -2 -3 -1 -2 -4 -1 -2 -3 "
      "-1 -2 -1 -4 -2 -3 -1 -2 -4 -1 -2 -3 -1 -2 -1 -4 -2 -3 -1 -2 -4 "
      "-1 -2 -3 -1 -2 -1 1 2 1 3 2 1 4 2 1 3 2 4 1 2 1 3 2 4 2 1 3 2 4 "
      "1 2 1 3 2 4 2 1 3 2 4 1 2 1 3 2 4 2 1 3",
      (2, 3))),
    ("E6", "2 1 6 -2 -2 3 5 -2", (1, 6),
     ("-1 -3 -4 -5 -6 -2 -4 -3 -1 -5 -4 -3 -2 -4 -5 -6 -2 -4 -3 -1 -5 "
      "-4 -2 -3 -4 -5 -3 -4 -2 -1 -3 -4 -1 -3 -2 -1 -1 -3 -4 -5 -6 -2 "
      "-4 -3 -1 -5 -4 -3 -2 -4 -5 -6 -2 -4 -3 -1 -5 -4 -2 -3 -4 -5 -3 "
      "-4 -2 -1 -3 -4 -1 -3 -2 -1 1 3 1 4 2 3 1 4 3 5 4 2 3 1 4 3 5 4 2 "
      "6 5 4 2 3 1 4 3 5 4 2 6 5 4 3 1 1 3 1 4 3 1 5 4 2 3 1 4 3 5 4 2 "
      "6 5 4 2 3 1 4 3 5 4 2 6 5 4 3 1 1 5 1 3 4 5",
      (3, 4, 6)),
     ("-1 -3 -4 -5 -6 -2 -4 -3 -1 -5 -4 -3 -2 -4 -5 -6 -2 -4 -3 -1 -5 "
      "-4 -2 -3 -4 -5 -3 -4 -2 -1 -3 -4 -1 -3 -2 -1 -1 -3 -4 -5 -6 -2 "
      "-4 -3 -1 -5 -4 -3 -2 -4 -5 -6 -2 -4 -3 -1 -5 -4 -2 -3 -4 -5 -3 "
      "-4 -2 -1 -3 -4 -1 -3 -2 -1 1 3 1 4 2 3 1 4 3 5 4 2 3 1 4 3 5 4 2 "
      "6 5 4 2 3 1 4 3 5 4 2 6 5 4 3 1 1 3 1 4 2 3 1 4 3 5 4 2 3 1 4 3 "
      "5 4 2 6 5 4 2 3 1 4 3 5 4 2 6 5 4 3 1 1 6 1 6",
      (3, 5))),
    ("E6", "-4 -6 -1 2 -5 -3 2 3 5", (4,),
     ("-1 -3 -4 -5 -6 -2 -4 -3 -1 -5 -4 -3 -2 -4 -5 -6 -2 -4 -3 -1 -5 "
      "-4 -2 -3 -4 -5 -3 -4 -2 -1 -3 -4 -1 -3 -2 -1 -1 -3 -4 -5 -6 -2 "
      "-4 -3 -1 -5 -4 -3 -2 -4 -5 -6 -2 -4 -3 -1 -5 -4 -2 -3 -4 -5 -3 "
      "-4 -2 -1 -3 -4 -1 -3 -2 -1 1 2 3 1 4 3 1 2 4 3 5 4 3 2 4 5 1 3 4 "
      "2 6 5 4 2 3 4 5 1 3 4 2 6 5 4 3 1 2 3 1 4 2 3 1 5 4 2 3 1 4 3 5 "
      "4 2 6 5 4 2 3 1 4 3 5 4 2 6 5 4 3 2 2",
      (4, 5)),
     ("-1 -3 -4 -5 -6 -2 -4 -3 -1 -5 -4 -3 -2 -4 -5 -6 -2 -4 -3 -1 -5 "
      "-4 -2 -3 -4 -5 -3 -4 -2 -1 -3 -4 -1 -3 -2 -1 -1 -3 -4 -5 -6 -2 "
      "-4 -3 -1 -5 -4 -3 -2 -4 -5 -6 -2 -4 -3 -1 -5 -4 -2 -3 -4 -5 -3 "
      "-4 -2 -1 -3 -4 -1 -3 -2 -1 1 2 3 1 4 3 1 2 4 3 5 4 3 2 4 5 1 3 4 "
      "2 6 5 4 2 3 4 5 1 3 4 2 6 5 4 3 1 2 3 1 4 2 3 1 4 5 4 2 3 1 4 3 "
      "5 4 2 6 5 4 2 3 1 4 3 5 4 2 6 5 4 3 2 2",
      (4,))),
]


@pytest.mark.parametrize("name, yw, J, dec, rev_tau", PINNED_DECOMPOSITIONS)
def test_decompositions_pinned(name, yw, J, dec, rev_tau):
    mat = coxeter.named_matrix(name)
    y = group.from_word(mat, coxeter.parse_word(yw))
    x = reconstruct(PalDecomposition(y=y, I=J))
    for fn, (want_y, want_i) in ((decompose, dec), (decompose_rev_tau, rev_tau)):
        d = fn(x)
        assert (coxeter.format_word(group.to_signed_word(d.y)), d.I) == (
            want_y, want_i)


def test_core_decompositions_delta_a3_order():
    out = core_decompositions(group.delta_element(A3))
    got = [(coxeter.format_word(group.to_signed_word(d.y)), d.I) for d in out]
    assert got == [("e", (1, 2, 3)), ("1 2", (1, 3)), ("3 2", (1, 3))]


def test_check_singleton():
    e = group.identity(A3)
    assert check_singleton(PalDecomposition(y=e, I=()))
    assert check_singleton(PalDecomposition(y=e, I=(2,)))
    assert check_singleton(PalDecomposition(y=e, I=(1, 3)))
    assert not check_singleton(PalDecomposition(y=e, I=(1, 2)))
    assert not check_singleton(PalDecomposition(y=e, I=(1, 2, 3)))


def test_tau_symmetrize_a3():
    d = PalDecomposition(y=group.identity(A3), I=(1,))
    out = tau_symmetrize(d)
    assert out.I == (2,)
    assert group.eq(reconstruct(out), reconstruct(d))
    assert check_singleton(out)
    # starting from {3} must land on the same invariant subset
    d3 = PalDecomposition(y=group.identity(A3), I=(3,))
    assert tau_symmetrize(d3).I == (2,)


def test_tau_symmetrize_trivial_tau_returns_input():
    d = PalDecomposition(y=group.from_word(B2, (1,)), I=(2,))
    assert tau_symmetrize(d) is d


def test_tau_symmetrize_errors():
    with pytest.raises(PreconditionError):
        tau_symmetrize(PalDecomposition(y=group.identity(A3), I=(1, 2)))
    # in rank 2 with odd label, {1} can only move between {1} and {2},
    # neither of which is tau-stable
    with pytest.raises(SearchExhaustedError):
        tau_symmetrize(PalDecomposition(y=group.identity(A2), I=(1,)))
    with pytest.raises(SearchExhaustedError):
        tau_symmetrize(
            PalDecomposition(y=group.identity(A3), I=(1,)), state_cap=0
        )


def test_delta_associated():
    rng = random.Random(SEED)
    d_elt = group.delta_element(A3)
    for _ in range(15):
        r = group.from_word(A3, random_signed_word(rng, 3, 4))
        x = group.mult(group.mult(d_elt, r), group.rev(r))
        root = delta_associated(x)
        assert group.eq(root, r)
    with pytest.raises(PreconditionError):
        delta_associated(group.identity(A3))  # image is not that of Delta
    with pytest.raises(PreconditionError):
        delta_associated(group.from_word(A3, (1,)))  # rev(tau(x)) != x


def test_pure_rev_tau_root():
    y = group.from_word(A3, (2, 1, 3))
    x = pal(y)
    root = pure_rev_tau_root(x)
    assert group.eq(root, y)
    assert group.eq(group.tau(root), root)
    # purity is checked before palindromicity
    with pytest.raises(NotPureError):
        pure_rev_tau_root(group.delta_element(A3))
    with pytest.raises(NotPalindromeError):
        pure_rev_tau_root(group.from_word(A3, (1, 1, 2, 2)))
    with pytest.raises(NotTauInvariantError):
        pure_rev_tau_root(pal(group.from_word(A3, (1,))))


@pytest.mark.parametrize("name", ["A2", "B2", "A3"])
def test_involution_lift_complete(name):
    mat = coxeter.named_matrix(name)
    rep = weyl.build_root_system(mat)
    targets = [g for g in weyl.enumerate_group(rep, 1000)
               if weyl.is_involution(g) or weyl.is_identity(g)]
    assert len(targets) >= 2
    for t in targets:
        d = involution_lift(mat, t)
        assert group.w_image(reconstruct(d)).perm == t.perm


def test_involution_lift_identity_and_errors():
    d = involution_lift(A3, group.w_image(group.identity(A3)))
    assert d.I == () and group.eq(d.y, group.identity(A3))
    rep = weyl.build_root_system(A2)
    order3 = weyl.image(rep, (1, 2))
    with pytest.raises(PreconditionError):
        involution_lift(A2, order3)
    # raw permutation tuples are accepted too
    s1 = weyl.image(rep, (1,))
    d = involution_lift(A2, s1.perm)
    assert group.w_image(reconstruct(d)).perm == s1.perm


def _enumeration_lifts(mat, rep):
    """The search involution_lift used to run, as the small-rank referee:
    subsets by (size, letters), then W in breadth-first order, taking the
    first g with g w0(I) g^-1 = target.  Returns {target perm: (g word, I)}."""
    elements = weyl.enumerate_group(rep, 100_000)
    inverses = []
    for g in elements:
        inv = [0] * len(g.perm)
        for i, j in enumerate(g.perm):
            inv[j] = i
        inverses.append(tuple(inv))
    subsets = [()]
    for s in mat.generators:
        subsets.extend(prev + (s,) for prev in list(subsets))
    subsets.sort(key=lambda s: (len(s), s))
    found = {}
    for subset in subsets:
        d_img = weyl.image(rep, monoid.delta(mat, subset).letters).perm
        for g, g_inv in zip(elements, inverses):
            conj = weyl.compose(weyl.compose(g.perm, d_img), g_inv)
            found.setdefault(conj, (g.word, subset))
    return found


def _acts_as_minus_one(mat, rep, subset) -> bool:
    """w0(I) sends every simple root of I, hence every root of I, to its
    negative; the index of -alpha_s is that of s(alpha_s)."""
    d_img = weyl.image(rep, monoid.delta(mat, subset).letters).perm
    refl = rep.simple_reflections
    return all(d_img[s - 1] == refl[s - 1][s - 1] for s in subset)


@pytest.mark.parametrize("name", ["A4", "B4", "D4", "D5", "F4", "H3", "I2(5)",
                                  "I2(8)"])
def test_involution_lift_descent_against_enumeration(name):
    mat = coxeter.named_matrix(name)
    rep = weyl.build_root_system(mat)
    old = _enumeration_lifts(mat, rep)
    targets = [g for g in weyl.enumerate_group(rep, 100_000) if weyl.is_involution(g)]
    assert targets
    for t in targets:
        d = involution_lift(mat, t)
        yw, subset = old[t.perm]
        ref = PalDecomposition(y=group.make(mat, 0, yw), I=subset)
        assert group.w_image(reconstruct(d)).perm == t.perm
        assert group.w_image(reconstruct(ref)).perm == t.perm
        assert _acts_as_minus_one(mat, rep, d.I)
        # the -1 eigenspace of a conjugate of w0(I) has dimension |I|
        assert len(d.I) == len(subset)


@pytest.mark.parametrize("name", ["E7", "E8", "H4"])
def test_involution_lift_large_types(name):
    mat = coxeter.named_matrix(name)
    rep = weyl.build_root_system(mat)
    rng = random.Random(SEED)
    for _ in range(8):
        gw = tuple(rng.randint(1, mat.rank) for _ in range(rng.randint(0, 40)))
        J = tuple(s for s in mat.generators if rng.random() < 0.5)
        w0_j = monoid.delta(mat, J).letters
        target = weyl.image(rep, gw + w0_j + gw[::-1])
        start = time.perf_counter()
        d = involution_lift(mat, target)
        assert time.perf_counter() - start < 1.0
        assert group.w_image(reconstruct(d)).perm == target.perm
        assert _acts_as_minus_one(mat, rep, d.I)


def test_involution_lift_never_enumerates(monkeypatch):
    def refuse(rep, cap):
        raise AssertionError("involution_lift enumerated W")

    monkeypatch.setattr(weyl, "enumerate_group", refuse)
    mat = coxeter.named_matrix("E8")
    rep = weyl.build_root_system(mat)
    target = weyl.image(rep, (2, 4, 3, 8, 3, 4, 2))
    d = involution_lift(mat, target)
    assert group.w_image(reconstruct(d)).perm == target.perm
    # descent lifts A3's s2 as Delta_{2}; the enumeration gave y = 1 2, I = {1}
    d = involution_lift(A3, weyl.image(weyl.build_root_system(A3), (2,)))
    assert d.I == (2,) and group.eq(d.y, group.identity(A3))


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_involution_lift_rejects_involutions_outside_w(name):
    """Every involutive permutation of the roots that is not in W raises,
    without looping: 72 in A2, 758 in B2."""
    mat = coxeter.named_matrix(name)
    rep = weyl.build_root_system(mat)
    in_w = {g.perm for g in weyl.enumerate_group(rep, 1000)}
    identity = rep.identity().perm
    outside = [p for p in itertools.permutations(range(rep.degree))
               if weyl.compose(p, p) == identity and p not in in_w]
    assert len(outside) == {"A2": 72, "B2": 758}[name]
    start = time.perf_counter()
    for p in outside:
        with pytest.raises(PreconditionError):
            involution_lift(mat, p)
    assert time.perf_counter() - start < 1.0


def test_involution_lift_rejects_non_permutations():
    for target in ((5,), (), (0, 0, 2, 3, 4, 5), tuple(range(7))):
        with pytest.raises(PreconditionError):
            involution_lift(A2, target)


def test_core_search_never_extracts(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the core search reached extraction")

    monkeypatch.setattr(monoid, "_extract", refuse)
    b3 = coxeter.builtin("B", 3)
    for mat, yw, subset in ((A3, (2, -1, 3), (1, 3)), (A3, (), (1, 2, 3)),
                            (b3, (1, -2, 3), (2,)), (b3, (3, 3), (1, 2))):
        x = reconstruct(PalDecomposition(y=group.from_word(mat, yw), I=subset))
        cands = core_decompositions(x)
        assert cands and all(group.eq(reconstruct(d), x) for d in cands)
        best = canonical_decompose(x, order_for_matrix(mat, "dehornoy"))
        assert best in cands
