"""The decomposition search and the peel, refereed by the oracle on every
palindromic class of short positive words.

A class is palindromic when it is closed under reversal.  On each one the
set of (class of y, I) from `core_decompositions` must equal the oracle's
`all_pal_decompositions` with its own Delta_I words, and the peel's
answers (`decompose`, and `decompose_rev_tau` on tau-stable classes) must
be the ones its rule picks, replayed on the oracle's classes.
"""

import pytest

from artinpal import coxeter, group, monoid, oracle
from artinpal.palindromes import core_decompositions, decompose, decompose_rev_tau

CASES = [("A3", 11), ("B3", 10), ("H3", 10), ("I2(5)", 10), ("D4", 8), ("A4", 8),
         ("F4", 8)]


def palindromic_classes(P, max_len):
    for length in range(max_len + 1):
        for members in oracle.enumerate_classes(P, length):
            if members[0][::-1] in members:
                yield members


def oracle_peel(P, p, deltas, block):
    """The peel's rule on rewriting classes: while w is not Delta_S for
    S = S(w), take the least s in S with Delta_S | w / s, and cut
    Delta_J, J = block(s), off both ends of w and onto y."""
    w, y = p, ()
    while True:
        members = oracle.class_of(P, w).members
        heads = tuple(sorted({m[0] for m in members if m}))
        if deltas[heads] in members:
            return y, heads
        s = next(s for s in heads if oracle.divides_left_oracle(
            P, deltas[heads], next(m[:-1] for m in members if m[-1] == s)))
        dj = deltas[block(s)]
        k = len(dj)
        w = next(m[k:-k] for m in members if m[:k] == dj and m[-k:] == dj)
        y += dj


@pytest.mark.parametrize("name, max_len", CASES, ids=[name for name, _ in CASES])
def test_decompositions_agree_with_the_oracle(name, max_len):
    mat = coxeter.named_matrix(name)
    P = oracle.presentation_from_matrix(mat)
    deltas = oracle.artin_deltas(mat, max_len=max_len)
    perm = monoid.compute_tau_perm(mat)

    def pair(y, subset):
        return oracle.class_of(P, y).canonical, subset

    checked = 0
    for members in palindromic_classes(P, max_len):
        p = members[0]
        expected = {pair(y, subset)
                    for y, subset in oracle.all_pal_decompositions(P, p, deltas)}
        x = group.from_word(mat, p)
        cands = core_decompositions(x)
        assert all(d.y.k == 0 for d in cands), p
        found = {pair(d.y.p, d.I) for d in cands}
        assert found == expected and len(cands) == len(found), p
        d = decompose(x)
        assert pair(d.y.p, d.I) == pair(*oracle_peel(P, p, deltas, lambda s: (s,))), p
        assert pair(d.y.p, d.I) in expected, p
        if tuple(perm[s - 1] for s in p) in members:
            d = decompose_rev_tau(x)
            orbit = oracle_peel(P, p, deltas, lambda s: tuple(sorted({s, perm[s - 1]})))
            assert pair(d.y.p, d.I) == pair(*orbit), p
            assert pair(d.y.p, d.I) in expected, p
            assert tuple(sorted(perm[s - 1] for s in d.I)) == d.I, p
        checked += 1
    assert checked > 0
