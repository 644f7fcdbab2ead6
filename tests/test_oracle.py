import ast
import collections
import hashlib
import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinpal import coxeter, group, monoid, oracle
from artinpal.errors import (
    BudgetExceededError,
    HandleReductionOverflow,
    InvalidBudgetError,
    InvalidWordError,
    PreconditionError,
)
from artinpal.oracle import (
    Presentation,
    all_pal_decompositions,
    artin_deltas,
    class_of,
    coxeter_order_oracle,
    divides_left_oracle,
    enumerate_classes,
    equals_oracle,
    parse_presentation,
    presentation_from_matrix,
    reduce_handles,
    square_free_oracle,
)

A2 = coxeter.builtin("A", 2)
A3 = coxeter.builtin("A", 3)
B2 = coxeter.builtin("B", 2)
B3 = coxeter.builtin("B", 3)
H3 = coxeter.builtin("H3")
MIXED = coxeter.parse_matrix("rank 3\nm 1 2 3\nm 2 3 4\nm 1 3 inf\n")
P_A2 = presentation_from_matrix(A2)
P_A3 = presentation_from_matrix(A3)
# the one-relator monoid with x^2 = y^2
P_XY = Presentation(2, (((1, 1), (2, 2)),))


def test_presentation_validation():
    with pytest.raises(PreconditionError):
        Presentation(0, ())
    with pytest.raises(PreconditionError):
        Presentation(2, (((1,), (2, 2)),))  # inhomogeneous
    with pytest.raises(PreconditionError):
        Presentation(2, (((1, 3), (2, 2)),))  # letter out of range
    with pytest.raises(PreconditionError):
        P_A2.check_word((0,))
    with pytest.raises(PreconditionError):
        P_A2.check_word((3,))


def test_check_word_reads_through_letters():
    # a word that is not iterable is an invalid word, as for every reader
    # of `coxeter.letters`; letters out of range stay precondition errors
    assert P_A2.check_word([1, 2]) == (1, 2)
    for bad in (None, 5, 1.5):
        with pytest.raises(InvalidWordError, match="is not a sequence of letters"):
            P_A2.check_word(bad)
    with pytest.raises(InvalidWordError):
        equals_oracle(P_A2, None, (1,))
    with pytest.raises(InvalidWordError):
        divides_left_oracle(P_A2, (1,), 7)


def test_class_of():
    cls = class_of(P_A2, (1, 2, 1))
    assert cls.members == frozenset({(1, 2, 1), (2, 1, 2)})
    assert cls.canonical == (1, 2, 1)
    assert class_of(P_A2, (1, 1)).members == frozenset({(1, 1)})
    assert class_of(P_XY, (1, 1)).members == frozenset({(1, 1), (2, 2)})
    # class_of is constant on classes
    assert class_of(P_A2, (2, 1, 2)) == cls


def test_class_of_reads_any_iterable_word():
    """Arguments that cannot be a cache key are checked before the cache,
    so a list is read like the tuple of its letters and shares its cache
    entry, and an unhashable bad argument raises an ArtinError."""
    class_of.cache_clear()
    assert class_of(P_A2, [1, 2, 1]) == class_of(P_A2, (1, 2, 1))
    assert class_of(P_A2, iter((2, 1, 2))).canonical == (1, 2, 1)
    assert class_of.cache_info().misses == 2
    with pytest.raises(PreconditionError):
        class_of(P_A2, [1, 3])
    with pytest.raises(PreconditionError):
        class_of(P_A2, ([1],))
    with pytest.raises(PreconditionError):
        class_of({}, (1,))
    with pytest.raises(InvalidBudgetError):
        class_of(P_A2, (1,), [])


def test_class_budget_errors():
    with pytest.raises(BudgetExceededError):
        class_of(P_A2, tuple([1] * 20), 1_000_000)
    with pytest.raises(BudgetExceededError):
        class_of(P_A3, tuple(monoid.ambient_delta(A3).letters), 2)


def test_equals_oracle():
    assert equals_oracle(P_A2, (1, 2, 1), (2, 1, 2))
    assert not equals_oracle(P_A2, (1, 2), (2, 1))
    assert not equals_oracle(P_A2, (1,), (1, 1))
    assert equals_oracle(P_XY, (1, 1), (2, 2))
    assert not equals_oracle(P_XY, (1,), (2,))


def test_divides_left_oracle():
    assert divides_left_oracle(P_A2, (1,), (1, 2, 1))
    assert divides_left_oracle(P_A2, (2,), (1, 2, 1))
    assert not divides_left_oracle(P_A2, (2,), (1, 2))
    assert not divides_left_oracle(P_A2, (1, 2, 1, 1), (1, 2, 1))
    # pal(x) = pal(y) in the x^2 = y^2 monoid even though x != y
    assert divides_left_oracle(P_XY, (2,), (1, 1))


def test_square_free_oracle():
    d3 = tuple(monoid.ambient_delta(A3).letters)
    assert square_free_oracle(P_A3, d3)
    assert not square_free_oracle(P_A2, (1, 1))
    assert square_free_oracle(P_A2, (1, 2, 1))
    assert not square_free_oracle(P_A2, (1, 2, 2))


def test_artin_deltas():
    d = artin_deltas(A3)
    assert d[()] == ()
    assert d[(1,)] == (1,)
    assert equals_oracle(P_A3, d[(1, 2)], (1, 2, 1))
    assert d[(1, 3)] in {(1, 3), (3, 1)}
    assert len(d[(1, 2, 3)]) == 6
    assert set(d) == {(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)}
    capped = artin_deltas(A3, max_len=2)
    assert (1, 2, 3) not in capped and (1, 2) not in capped
    assert (1, 3) in capped
    mixed = coxeter.parse_matrix("rank 3\nm 1 2 3\nm 2 3 4\nm 1 3 inf\n")
    dm = artin_deltas(mixed)
    assert (1, 3) not in dm and (1, 2, 3) not in dm
    assert (2, 3) in dm and len(dm[(2, 3)]) == 4


def test_all_pal_decompositions_examples():
    deltas3 = artin_deltas(A3)
    # s1 s1 = e * Delta_{} ... no; its only split is y = s1, I = {}
    out = all_pal_decompositions(P_A3, (1, 1), deltas3)
    assert out == (((1,), ()),)
    # Delta(A3) admits the leaf and two one-step peels
    d3 = tuple(monoid.ambient_delta(A3).letters)
    out = all_pal_decompositions(P_A3, d3, deltas3)
    got = {(class_of(P_A3, y).canonical, I) for y, I in out}
    assert got == {
        ((), (1, 2, 3)),
        (class_of(P_A3, (1, 2)).canonical, (1, 3)),
        (class_of(P_A3, (3, 2)).canonical, (1, 3)),
    }
    # the A2 braid word 1 2 1 is Delta itself and peels as 1*(2)*1
    deltas2 = artin_deltas(A2)
    out = all_pal_decompositions(P_A2, (1, 2, 1), deltas2)
    got = {(y, I) for y, I in out}
    assert ((), (1, 2)) in got and ((1,), (2,)) in got
    # odd-length non-palindromes decompose not at all
    assert all_pal_decompositions(P_A2, (1, 1, 2), deltas2) == ()


def test_all_pal_decompositions_verify_reconstruction():
    deltas = artin_deltas(A3)
    rng = random.Random(20240816)
    for _ in range(20):
        y = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
        I = rng.choice(list(deltas))
        p = y + deltas[I] + y[::-1]
        if len(p) > 10:
            continue
        out = all_pal_decompositions(P_A3, p, deltas)
        assert out, (y, I, p)
        for yy, J in out:
            assert equals_oracle(P_A3, yy + deltas[J] + yy[::-1], p)


# sha256 of repr((p, all_pal_decompositions(P, p, deltas))) over every
# palindromic class, p its least member, in enumerate_classes order: 390,
# 333, 312, 439 and 502 classes, 1,976 in all, recorded before the search
# closed each class once per call
PINNED_SEARCH = {
    ("A3", 10): "4970ddb9a5013ca256fc64368c3831fbfa4024dccb52281e09da1fb077916f67",
    ("B3", 9): "92510c75453db0e13e2ef6e0bbcd8b69b0e78fd646163574cebec20afeb4d414",
    ("H3", 9): "8759bbd3d6edd5f2128e3b9fd6e684ef4cfa96d55db60fd82c5305ea6502ee35",
    ("A4", 8): "cfbe3ceeef0849fd631309e0f0e55261d4e7d84004f7f3808028c3c5bbc3dce0",
    ("D4", 8): "549925946a6233fb82cc5388dfe58596869ede6ee57ee7372aee2f12a944422b",
}


def _palindromic_classes(P, max_len):
    """The least member of every class closed under reversal."""
    for length in range(max_len + 1):
        for members in enumerate_classes(P, length):
            if members[0][::-1] in members:
                yield members[0]


@pytest.mark.parametrize("name, max_len", PINNED_SEARCH,
                         ids=[name for name, _ in PINNED_SEARCH])
def test_all_pal_decompositions_is_pinned(name, max_len):
    mat = coxeter.named_matrix(name)
    P = presentation_from_matrix(mat)
    deltas = artin_deltas(mat, max_len=max_len)
    digest = hashlib.sha256()
    for p in _palindromic_classes(P, max_len):
        digest.update(repr((p, all_pal_decompositions(P, p, deltas))).encode())
    assert digest.hexdigest() == PINNED_SEARCH[name, max_len]


def test_search_closes_each_class_once(monkeypatch):
    """After a cache clear, one search call misses class_of's cache exactly
    once per distinct class it reaches, and so does enumerate_classes."""
    reached = set()
    real = oracle.class_of

    def recording(*args, **kwargs):
        cls = real(*args, **kwargs)
        reached.add(cls.canonical)
        return cls

    monkeypatch.setattr(oracle, "class_of", recording)
    for mat, p in ((A3, (1, 2, 1, 3, 2, 1)), (A3, (2, 1, 3, 2, 2, 3, 1, 2)),
                   (B3, (1, 2, 3, 2, 3, 2, 1)), (H3, (3, 1, 2, 1, 2, 1, 3))):
        P = presentation_from_matrix(mat)
        deltas = artin_deltas(mat)
        real.cache_clear()
        reached.clear()
        assert all_pal_decompositions(P, p, deltas)
        assert real.cache_info().misses == len(reached) > 1, (mat, p)
    real.cache_clear()
    reached.clear()
    classes = enumerate_classes(P_A3, 6)
    assert real.cache_info().misses == len(reached) == len(classes)


def test_enumerate_classes():
    assert len(enumerate_classes(P_A2, 3)) == 7
    assert len(enumerate_classes(P_XY, 2)) == 3
    assert enumerate_classes(P_A2, 0) == (((),),)
    flat = [w for cls in enumerate_classes(P_A2, 2) for w in cls]
    assert sorted(flat) == sorted((a, b) for a in (1, 2) for b in (1, 2))
    with pytest.raises(BudgetExceededError):
        enumerate_classes(P_A2, 30)


@pytest.mark.parametrize(
    "name,order",
    [("A2", 6), ("A3", 24), ("B2", 8), ("B3", 48), ("I2(5)", 10), ("H3", 120)],
)
def test_coxeter_order_oracle(name, order):
    assert coxeter_order_oracle(coxeter.named_matrix(name)) == order


def test_coxeter_order_oracle_closes_each_candidate_once(monkeypatch):
    """Each candidate word, a representative times one generator, reaches
    `_class_of` once: its class gives both its square-freeness and its
    canonical representative."""
    calls = collections.Counter()
    real = oracle._class_of

    def counted(P, w, *caps):
        calls[w] += 1
        return real(P, w, *caps)

    monkeypatch.setattr(oracle, "_class_of", counted)
    assert coxeter_order_oracle(A3) == 24
    assert set(calls.values()) == {1} and len(calls) == 24 * A3.rank


AFFINE_A2 = coxeter.CoxeterMatrix(3, ((1, 3, 3), (3, 1, 3), (3, 3, 1)))


@pytest.mark.parametrize("mat", [MIXED, AFFINE_A2], ids=["MIXED", "affine_A2"])
def test_coxeter_order_oracle_rejects_inf(mat):
    # affine A2 has no inf label but an infinite group; the BFS over its
    # reduced words would never end, so the precondition must catch it
    start = time.perf_counter()
    with pytest.raises(PreconditionError):
        coxeter_order_oracle(mat)
    assert time.perf_counter() - start < 1.0


def test_parse_serialize_presentation():
    text = "gens 3\nrel 1 2 1 = 2 1 2\nrel 1 3 = 3 1\nrel 2 3 2 = 3 2 3\n"
    assert parse_presentation(text) == P_A3
    P = parse_presentation("# comment\ngens 2\nrel 1 1 = 2 2\n")
    assert P == P_XY
    for bad in (
        "rel 1 = 2\n",            # gens must come first
        "gens 2\nrel 1 1 = 2\n",  # inhomogeneous
        "gens 2\nrel 1 = -1\n",   # negative letter
        "gens 2\nrel 1 2\n",      # missing =
        "gens 2\nwhat 1\n",
        "gens x\n",
        "",
    ):
        with pytest.raises(PreconditionError):
            parse_presentation(bad)


# B3 and H3 have labels m with m - 2 >= 2 continuation letters per braid
# pivot; the (3,4,inf) matrix has the inf dead end
@pytest.mark.parametrize("mat", [A3, B3, H3, MIXED],
                         ids=["A3", "B3", "H3", "MIXED"])
@given(
    st.lists(st.integers(1, 3), max_size=5),
    st.lists(st.integers(1, 3), max_size=5),
)
def test_oracle_agrees_with_monoid(mat, u, v):
    pres = presentation_from_matrix(mat)
    uw = monoid.word(mat, u)
    vw = monoid.word(mat, v)
    assert equals_oracle(pres, tuple(u), tuple(v)) == monoid.equals(uw, vw)
    assert divides_left_oracle(pres, tuple(u), tuple(v)) == (
        monoid.divides_left(uw, vw) is not None
    )


# ---------------------------------------------------------------------------
# The closure on the rewrite table against the per-relation scan it replaced


def _old_neighbors(P, w):
    for lhs, rhs in P.relations:
        for a, b in ((lhs, rhs), (rhs, lhs)):
            k = len(a)
            for i in range(len(w) - k + 1):
                if w[i:i + k] == a:
                    yield w[:i] + b + w[i + k:]


def _old_closure(P, w):
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for u in frontier:
            for v in _old_neighbors(P, u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


# one side, 1 2, appears in two relations
P_SHARED = Presentation(3, (((1, 2), (2, 1)), ((1, 2), (3, 3))))


@pytest.mark.parametrize("pres", [
    *(presentation_from_matrix(coxeter.named_matrix(n))
      for n in ("A3", "B3", "D4", "H3", "I2(5)")),
    presentation_from_matrix(MIXED), P_XY, P_SHARED,
], ids=["A3", "B3", "D4", "H3", "I2(5)", "MIXED", "P_XY", "P_SHARED"])
def test_class_of_matches_the_per_relation_scan(pres):
    rng = random.Random(20240816)
    for length in range(11):
        for _ in range(4 if length > 8 else 8):
            w = tuple(rng.randint(1, pres.ngens) for _ in range(length))
            want = _old_closure(pres, w)
            cls = class_of(pres, w)
            assert cls.members == want, w
            assert cls.canonical == min(want)


def _two_closure_divides_left(P, u, v, class_cap=oracle.DEFAULT_CLASS_CAP):
    """The definition divides_left_oracle had: close u's class too, and look
    for a member of v's class whose prefix lies in it."""
    if len(u) > len(v):
        return False
    uc = class_of(P, u, class_cap).members
    k = len(u)
    return any(m[:k] in uc for m in class_of(P, v, class_cap).members)


@pytest.mark.parametrize("pres", [
    P_A3, presentation_from_matrix(B3), presentation_from_matrix(MIXED),
    P_XY, P_SHARED,
], ids=["A3", "B3", "MIXED", "P_XY", "P_SHARED"])
def test_divides_left_oracle_matches_the_two_closure_definition(pres):
    words = [w for k in range(7)
             for w in itertools.product(range(1, pres.ngens + 1), repeat=k)]
    for u in words:
        for v in words:
            assert divides_left_oracle(pres, u, v) == _two_closure_divides_left(
                pres, u, v), (u, v)


def test_divides_left_oracle_closes_only_v():
    # u = 1 2 1 has a class of 2 members, over the cap of 1; 3 3 3's has one
    u, v = (1, 2, 1), (3, 3, 3)
    with pytest.raises(BudgetExceededError):
        _two_closure_divides_left(P_A3, u, v, class_cap=1)
    assert not divides_left_oracle(P_A3, u, v, class_cap=1)
    # a u that divides v has a class no larger than v's, so that still raises
    with pytest.raises(BudgetExceededError):
        divides_left_oracle(P_A3, u, u + (3,), class_cap=1)


def test_shared_side_rewrites_to_both_partners():
    assert class_of(P_SHARED, (1, 2)).members == {(1, 2), (2, 1), (3, 3)}


def test_class_cap_message_unchanged():
    with pytest.raises(BudgetExceededError, match="^class size exceeds the cap 2$"):
        class_of(P_A3, (1, 2, 1, 3, 2, 1), 2)


# Presentations keyed by the bytes that letter ngens spans, 1, 2, 4 or 8;
# each relates letters that need the most bits of its presentation.
P_WIDE = {
    1: Presentation(255, (((1, 2, 1), (2, 1, 2)), ((1, 255), (255, 1)))),
    2: Presentation(300, (((1, 2, 1), (2, 1, 2)), ((299, 300), (300, 299)),
                          ((1, 300), (300, 1)), ((2, 299, 2), (299, 2, 299)))),
    4: Presentation(70_000, (((65_536, 70_000), (70_000, 65_536)),
                             ((1, 65_537, 1), (65_537, 1, 65_537)),
                             ((2, 70_000), (1, 1)))),
    8: Presentation(2 ** 40, (((1, 2 ** 40), (2 ** 40, 1)),
                              ((2 ** 32, 2, 2 ** 32), (2, 2 ** 32, 2)))),
}


@pytest.mark.parametrize("width", sorted(P_WIDE))
def test_wide_letters_and_the_empty_word_match_the_per_relation_scan(width):
    """class_of, canonical, equals_oracle and divides_left_oracle agree
    with the per-relation scan on words over the relation letters, the
    empty word among them, whatever the bits per letter."""
    pres = P_WIDE[width]
    alphabet = sorted({x for rel in pres.relations for side in rel for x in side})
    rng = random.Random(f"wide letters {width}")
    words = [()] + [tuple(rng.choice(alphabet) for _ in range(n))
                    for n in range(1, 8) for _ in range(6)]
    if width == 2:
        words.append((1, 2, 1, 299, 300, 1))
    closures = {w: _old_closure(pres, w) for w in words}
    assert sum(len(c) > 1 for c in closures.values()) >= 3
    for w in words:
        cls = class_of(pres, w)
        assert cls.bits == {1: 8, 2: 9, 4: 17, 8: 41}[width]
        assert cls.members == closures[w], w
        assert cls.canonical == min(closures[w])
    for u in words:
        for v in words:
            assert equals_oracle(pres, u, v) == (v in closures[u]), (u, v)
            assert divides_left_oracle(pres, u, v) == (len(u) <= len(v) and any(
                m[:len(u)] == u for m in closures[v])), (u, v)
    assert class_of(pres, ()).members == {()} and class_of(pres, ()).canonical == ()


def test_bits_per_letter_at_the_boundaries():
    """A letter takes ngens.bit_length() bits, so a presentation of any
    size answers, 2^64 generators and more among them."""
    for ngens, bits in ((1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4), (255, 8),
                        (256, 9), (65_535, 16), (65_536, 17), (2 ** 64 - 1, 64),
                        (2 ** 64, 65), (2 ** 100, 101)):
        cls = class_of(Presentation(ngens, ()), (ngens, 1, ngens))
        assert (cls.bits, cls.members) == (bits, {(ngens, 1, ngens)})
    top = 2 ** 64
    pres = Presentation(top, (((1, top), (top, 1)), ((top - 1, 2), (1, 1))))
    assert class_of(pres, (top - 1, 2, top)).members == {
        (top - 1, 2, top), (1, 1, top), (1, top, 1), (top, 1, 1), (top, top - 1, 2)}
    assert class_of(pres, (top, 1, 1)).canonical == (1, 1, top)
    assert equals_oracle(pres, (top, 1, 1), (top - 1, 2, top))
    assert not equals_oracle(pres, (top, 1, 1), (1, 1, top - 1))
    assert divides_left_oracle(pres, (top - 1,), (1, top, 1))
    assert not divides_left_oracle(pres, (2,), (1, top, 1))


# ngens on both sides of each boundary of the bits per letter
NGENS = (1, 2, 3, 4, 7, 8, 255, 256, 65_535, 65_536, 2 ** 40, 2 ** 64)


@st.composite
def _homogeneous(draw, ngens):
    """(P, words): 1-4 relations whose sides have equal length, 1-3
    letters, over an alphabet of at most 3 letters with ngens among them
    (letter ngens occurs in the first relation), and words of up to 7
    letters over that alphabet, the empty word first."""
    alphabet = sorted({ngens, *draw(st.lists(st.integers(1, ngens), max_size=2))})
    letter = st.sampled_from(alphabet)
    relations = []
    for _ in range(draw(st.integers(1, 4), label="relations")):
        k = draw(st.integers(1, 3), label="side length")
        side = st.lists(letter, min_size=k, max_size=k).map(tuple)
        relations.append((draw(side), draw(side)))
    lhs, rhs = relations[0]
    relations[0] = ((ngens,) + lhs[1:], rhs)
    words = [()] + draw(st.lists(st.lists(letter, min_size=1, max_size=7).map(tuple),
                                 min_size=3, max_size=6), label="words")
    return Presentation(ngens, tuple(relations)), words


@pytest.mark.parametrize("ngens", NGENS, ids=str)
@settings(max_examples=20, derandomize=True)
@given(data=st.data())
def test_packing_at_every_bit_width_matches_the_per_relation_scan(ngens, data):
    """class_of's members and canonical, equals_oracle and
    divides_left_oracle agree with the per-relation scan on drawn
    homogeneous presentations, whatever bits a letter takes."""
    pres, words = data.draw(_homogeneous(ngens))
    closures = {w: _old_closure(pres, w) for w in words}
    for w in words:
        cls = class_of(pres, w)
        assert cls.bits == ngens.bit_length()
        assert cls.members == closures[w], w
        assert cls.canonical == min(closures[w]), w
    for u in words:
        for v in words:
            assert equals_oracle(pres, u, v) == (v in closures[u]), (u, v)
            assert divides_left_oracle(pres, u, v) == (len(u) <= len(v) and any(
                m[:len(u)] == u for m in closures[v])), (u, v)
    class_of.cache_clear()


def test_equals_and_divides_leave_the_cached_class_packed():
    """equals_oracle and divides_left_oracle answer from the packed ints,
    so the cached class decodes its members only when they are read."""
    class_of.cache_clear()
    assert equals_oracle(P_A3, (1, 2, 1, 3), (2, 1, 2, 3))
    assert not equals_oracle(P_A3, (1, 2, 1, 3), (2, 1, 3, 2))
    assert divides_left_oracle(P_A3, (2, 1), (1, 2, 1, 3))
    assert not divides_left_oracle(P_A3, (3,), (1, 2, 1, 3))
    cls = class_of(P_A3, (1, 2, 1, 3))
    assert class_of.cache_info().misses == 1 and "members" not in vars(cls)
    assert cls.members == {(1, 2, 1, 3), (2, 1, 2, 3), (1, 2, 3, 1)}
    assert "members" in vars(cls)
    class_of.cache_clear()


@pytest.mark.parametrize("mat", [A3, MIXED], ids=["A3", "MIXED"])
def test_class_cap_boundary_on_every_short_word(mat):
    """A class_cap equal to the class size answers, and one less raises at
    the first member over it.  A one-member class answers any cap, 0
    included: the word itself is never counted against the cap."""
    pres = presentation_from_matrix(mat)
    for n in range(8):
        for w in itertools.product(mat.generators, repeat=n):
            size = len(class_of(pres, w).members)
            assert class_of(pres, w, size).members == class_of(pres, w).members
            if size == 1:
                assert class_of(pres, w, 0).members == {w}
                continue
            with pytest.raises(BudgetExceededError,
                               match=f"^class size exceeds the cap {size - 1}$"):
                class_of(pres, w, size - 1)
    class_of.cache_clear()


# ---------------------------------------------------------------------------
# The oracle's own Delta_I: nothing of the monoid's reversing or extraction


def test_oracle_answers_without_the_monoid(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached the fast path")

    for name in ("delta", "right_lcm", "_extract"):
        monkeypatch.setattr(monoid, name, refuse)
    oracle._greedy_delta.cache_clear()
    d3 = artin_deltas(A3)
    assert len(d3[(1, 2, 3)]) == 6 and d3[(1, 3)] == (1, 3)
    dm = artin_deltas(MIXED)
    assert set(dm) == {(), (1,), (2,), (3,), (1, 2), (2, 3)}
    assert dm[(2, 3)] == (2, 3, 2, 3)
    P_M = presentation_from_matrix(MIXED)
    assert all_pal_decompositions(P_A3, (1, 1), d3) == (((1,), ()),)
    assert ((), (2, 3)) in all_pal_decompositions(P_M, (3, 2, 3, 2), dm)
    assert equals_oracle(P_A3, (1, 2, 1), (2, 1, 2))
    assert equals_oracle(P_M, (2, 3, 2, 3), (3, 2, 3, 2))
    assert divides_left_oracle(P_A3, (2,), (1, 2, 1))
    assert not divides_left_oracle(P_M, (3,), (1, 3))


def test_oracle_imports_no_fast_path():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                modules.add(node.module)
            if node.level and not node.module:  # from . import x
                modules.update(a.name for a in node.names)
    names = {m.removeprefix("artinpal.").split(".")[0] for m in modules}
    assert not names & {"monoid", "group", "palindromes", "orderings", "weyl"}
    assert {"coxeter", "errors"} <= names


def test_artin_deltas_length_bound():
    # without max_len the bound is the oracle's own length cap
    a5 = coxeter.builtin("A", 5)
    d5 = artin_deltas(a5)
    assert len(d5[(1, 2, 3, 4)]) == 10 and (1, 2, 3, 4, 5) not in d5  # 15 letters
    a4 = coxeter.builtin("A", 4)
    assert (1, 2, 3, 4) in artin_deltas(a4, max_len=10)
    assert (1, 2, 3, 4) not in artin_deltas(a4, max_len=9)


def test_artin_deltas_checks_its_bound_first():
    # a bound that cannot be a cache key is a budget error, not a TypeError
    for bad in ([], None, -1, 1.5, "x"):
        with pytest.raises(InvalidBudgetError, match="^max_len must be an int >= 0"):
            artin_deltas(A3, bad)


# ---------------------------------------------------------------------------
# Handle reduction, the referee of the Dehornoy sign

signed_a3 = st.lists(
    st.integers(-3, 3).filter(lambda x: x != 0), max_size=8
).map(tuple)


def test_reduce_handles_basic():
    w, steps = reduce_handles((1, -1))
    assert w == () and steps == 1
    w, steps = reduce_handles((1, 2, -1))
    assert steps >= 1
    # output is handle-free: reducing again is a no-op
    assert reduce_handles(w) == (w, 0)


@given(signed_a3)
def test_reduce_handles_preserves_element(word):
    reduced, _ = reduce_handles(word)
    assert group.eq(group.from_word(A3, word), group.from_word(A3, reduced))
    assert reduce_handles(reduced)[1] == 0


def test_handle_reduction_overflow():
    with pytest.raises(HandleReductionOverflow) as exc:
        reduce_handles((1, -1), cap=0)
    assert exc.value.word == (1, -1)
    assert exc.value.steps == 1


def test_handle_reduction_overflow_reports_cap():
    word = (1, 2, -1, 2, 1, -2, -1, -2)
    with pytest.raises(HandleReductionOverflow) as exc:
        reduce_handles(word, cap=2)
    assert exc.value.cap == 2
    assert exc.value.steps == 3
    assert "3 steps against a cap of 2" in str(exc.value)
    _, steps = reduce_handles(word)
    assert reduce_handles(word, cap=steps)[1] == steps
