"""The Dehornoy sign from Dynnikov coordinates, refereed by handle reduction.

`orderings.dehornoy_sign` reads the sign off the coordinates the word
reaches; `oracle.reduce_handles` reaches a handle-free word, whose lowest
index occurs with one sign only.  The two share no code.  Besides the
signs, the coordinate action itself must satisfy the braid group's
relations on arbitrary integer vectors, which catches a wrong sign in one
term even where the signs of short words happen to agree.
"""

import itertools
import random

import pytest

from artinpal import coxeter, group, orderings
from artinpal.oracle import reduce_handles
from artinpal.orderings import dehornoy_sign, dynnikov_action, typeB_embed

SEED = 20261019


def referee_sign(word) -> int:
    reduced, _ = reduce_handles(word)
    if not reduced:
        return 0
    g = min(abs(x) for x in reduced)
    return next(1 if x > 0 else -1 for x in reduced if abs(x) == g)


def braid_delta(strands):
    return tuple(j for i in range(1, strands) for j in range(i, 0, -1))


def signed_word(rng, top, length):
    return tuple(rng.choice((1, -1)) * rng.randint(1, top) for _ in range(length))


def disagreements(cases):
    return [(strands, w) for strands, w in cases
            if dehornoy_sign(w, strands) != referee_sign(w)]


@pytest.mark.parametrize("strands,max_len", [(3, 8), (4, 6)])
def test_every_short_word(strands, max_len):
    """87,381 words on 3 strands and 55,987 on 4."""
    letters = [e * i for i in range(1, strands) for e in (1, -1)]
    cases = [(strands, w) for length in range(max_len + 1)
             for w in itertools.product(letters, repeat=length)]
    assert len(cases) == {3: 87_381, 4: 55_987}[strands]
    assert disagreements(cases) == []


def test_long_random_words():
    """100-400 letters over A4 and A6, and over B4 through the embedding
    into the braid group on 5 strands."""
    rng = random.Random(SEED)
    cases = []
    for rank in (4, 6):
        cases += [(rank + 1, signed_word(rng, rank, rng.randint(100, 400)))
                  for _ in range(12)]
    cases += [(5, typeB_embed(signed_word(rng, 4, rng.randint(100, 400)), 4))
              for _ in range(12)]
    assert disagreements(cases) == []


def test_delta_shaped_words():
    """Delta^-2k p with a positive p, as in the orderings benchmark, on 4
    to 8 strands, and the trivial Delta^-2k Delta^2k."""
    rng = random.Random(SEED + 1)
    cases = []
    for strands in range(4, 9):
        d = braid_delta(strands)
        inv = tuple(-x for x in reversed(d))
        for k in (1, 2):
            cases.append((strands, inv * (2 * k) + d * (2 * k)))
            for _ in range(4):
                p = tuple(rng.randint(1, strands - 1) for _ in range(
                    rng.randint(k * len(d), 3 * k * len(d))))
                cases.append((strands, inv * (2 * k) + p))
    assert {dehornoy_sign(w, s) for s, w in cases} == set(orderings.Sign)
    assert disagreements(cases) == []


@pytest.mark.parametrize("name", ["A4", "A6", "B4"])
def test_element_orders(name):
    """The orders on group elements read Garside words, here of about 250
    to 750 letters; their signs agree with handle reduction on the same
    words."""
    mat = coxeter.named_matrix(name)
    n = mat.rank
    order = orderings.order_for_matrix(mat)
    rng = random.Random(SEED + n)
    for _ in range(6):
        x = group.from_word(mat, signed_word(rng, n, rng.randint(100, 200)))
        w = group.garside_word(x)
        if name[0] == "B":
            w = typeB_embed(w, n)
        assert order.sign(x) == referee_sign(w)


def test_coordinate_action_satisfies_the_braid_relations():
    """On random vectors in Z^12 (6 strands): sigma_i sigma_i^-1 and
    sigma_i^-1 sigma_i act trivially, sigma_i sigma_i+1 sigma_i =
    sigma_i+1 sigma_i sigma_i+1, and far generators commute."""
    rng = random.Random(SEED + 2)
    strands = 6
    relations = []
    for i in range(1, strands):
        relations += [((i, -i), ()), ((-i, i), ())]
    for i in range(1, strands - 1):
        j = i + 1
        relations += [((i, j, i), (j, i, j)), ((-i, -j, -i), (-j, -i, -j))]
    for i, j in itertools.combinations(range(1, strands), 2):
        if j - i >= 2:
            for e, f in itertools.product((1, -1), repeat=2):
                relations.append(((e * i, f * j), (f * j, e * i)))
    for _ in range(300):
        top = rng.choice((3, 50, 10 ** 6))
        v = tuple(rng.randint(-top, top) for _ in range(2 * strands))
        for lhs, rhs in relations:
            assert dynnikov_action(lhs, v) == dynnikov_action(rhs, v), (lhs, rhs, v)
