"""The monoid and the group against the rewriting oracle on drawn Coxeter
matrices.

Hypothesis draws, with fixed draws, connected matrices of rank 2 to 4 with
labels in {2, 3, 4, 5, 6, inf}, reducible ones of rank 2 to 4 (two such
blocks joined by label 2) and renumbered named finite types of rank 2 to 4.
On every positive word of up to 5 letters (4 at rank 4) the oracle's class
of the word referees `starting_set`, `finishing_set`, `normal_form` and the
palindrome peel of u rev(u); on drawn pairs it referees `equals`,
`divides_left` with its quotient and, on finite draws, `group.eq`.  On
finite draws the keys of `group.from_word` split the words into exactly the
oracle's classes, and `group.peel` gives `monoid.peel`'s answer on every
u rev(u).
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from artinpal import coxeter, group, monoid, oracle
from artinpal.coxeter import INF

LABELS = (2, 3, 4, 5, 6, INF)
FINITE = ("A2", "B2", "I2(5)", "I2(6)", "A3", "B3", "H3", "A4", "B4", "D4", "F4", "H4")


def _matrix(rank: int, label) -> coxeter.CoxeterMatrix:
    rows = [[1 if i == j else label(i, j) for j in range(rank)] for i in range(rank)]
    return coxeter.CoxeterMatrix(rank, tuple(map(tuple, rows)))


def _connected_labels(draw, gens) -> dict:
    """Labels on the pairs of gens: each generator after the first is
    joined, by a label other than 2, to an earlier one; every other pair
    takes any label."""
    labels = {}
    for j in range(1, len(gens)):
        joined = draw(st.integers(0, j - 1), label="joined to")
        for i in range(j):
            choices = LABELS[1:] if i == joined else LABELS
            labels[gens[i], gens[j]] = labels[gens[j], gens[i]] = draw(
                st.sampled_from(choices))
    return labels


@st.composite
def connected(draw):
    rank = draw(st.integers(2, 4), label="rank")
    labels = _connected_labels(draw, range(rank))
    return _matrix(rank, lambda i, j: labels[i, j])


@st.composite
def reducible(draw):
    """Two connected blocks on a drawn split of the generators, every pair
    across them labelled 2."""
    order = draw(st.permutations(range(draw(st.integers(2, 4), label="rank"))))
    cut = draw(st.integers(1, len(order) - 1), label="first block size")
    labels = {**_connected_labels(draw, order[:cut]), **_connected_labels(draw, order[cut:])}
    return _matrix(len(order), lambda i, j: labels.get((i, j), 2))


@st.composite
def renumbered(draw):
    """A named finite type with its generators permuted."""
    mat = coxeter.named_matrix(draw(st.sampled_from(FINITE), label="type"))
    perm = draw(st.permutations(range(mat.rank)), label="renumbering")
    return _matrix(mat.rank, lambda i, j: mat.entries[perm[i]][perm[j]])


def _words(mat):
    top = 4 if mat.rank == 4 else 5
    return [w for n in range(top + 1) for w in itertools.product(mat.generators, repeat=n)]


@settings(max_examples=150, derandomize=True)
@given(mat=st.one_of(connected(), reducible(), renumbered()), seed=st.integers(0, 2 ** 32))
def test_drawn_matrices_agree_with_the_oracle(mat, seed):
    P = oracle.presentation_from_matrix(mat)
    finite = coxeter.is_finite_type(mat)
    words = _words(mat)
    rng = random.Random(seed)
    cls = {w: oracle.class_of(P, w) for w in words}
    pw = {w: monoid.word(mat, w) for w in words}
    elt = {w: group.from_word(mat, w) for w in words} if finite else None

    # starting and finishing sets, and the normal form as a class invariant
    form_of = {}
    for w in words:
        members = cls[w].members
        assert monoid.starting_set(pw[w]) == tuple(sorted({m[0] for m in members if m})), w
        assert monoid.finishing_set(pw[w]) == tuple(sorted({m[-1] for m in members if m})), w
        form = monoid.normal_form(pw[w])
        assert form_of.setdefault(cls[w].canonical, form) == form, w
    assert len(set(form_of.values())) == len(form_of)
    if finite:
        key_of = {}
        for w in words:
            key = elt[w].key()
            assert key_of.setdefault(cls[w].canonical, key) == key, w
        assert len(set(key_of.values())) == len(key_of)

    # equals, divides_left with its quotient, and group.eq on drawn pairs:
    # u a prefix of a member of v's class, or any word at most as long as v
    for v in words:
        member = rng.choice(sorted(cls[v].members))
        shorter = [u for u in words if len(u) <= len(v)]
        for u in [member[:rng.randint(0, len(v))], *rng.choices(shorter, k=3)]:
            same = len(u) == len(v) and u in cls[v].members
            assert monoid.equals(pw[u], pw[v]) is same, (u, v)
            q = monoid.divides_left(pw[u], pw[v])
            assert (q is not None) is oracle.divides_left_oracle(P, u, v), (u, v)
            if q is not None:
                assert u + q.letters in cls[v].members, (u, v)
            if finite:
                assert group.eq(elt[u], elt[v]) is same, (u, v)

    # the peel of u rev(u): y Delta_I rev(y) spells it, and on finite
    # draws group.peel gives the same I and y as an element
    deltas = oracle.artin_deltas(mat, max_len=2 * len(words[-1]))
    for u in words:
        p = u + u[::-1]
        y, subset = monoid.peel(monoid.word(mat, p))
        assert oracle.equals_oracle(P, y + deltas[subset] + y[::-1], p), p
        if finite:
            gy, gsubset = group.peel(group.from_word(mat, p))
            assert gsubset == subset and group.eq(gy, group.from_word(mat, y)), p
    oracle.class_of.cache_clear()
