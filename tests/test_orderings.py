import hashlib
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artinpal import coxeter, group, orderings
from artinpal.errors import InvalidWordError, PreconditionError
from artinpal.oracle import reduce_handles
from artinpal.orderings import (
    Comparison,
    SeriesTrunc,
    Sign,
    SppcReport,
    dehornoy_compare,
    dehornoy_order,
    dehornoy_sign,
    dynnikov_action,
    exponent_sums,
    free_reduce,
    magnus_image,
    magnus_order,
    magnus_sign,
    order_for_matrix,
    sppc_check,
    typeB_embed,
    typeB_order,
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


# ---------------------------------------------------------------------------
# Dehornoy order


def test_dehornoy_sign_examples():
    assert dehornoy_sign((1, -2), 3) == Sign.POSITIVE
    assert dehornoy_sign((-1, 2), 3) == Sign.NEGATIVE
    assert dehornoy_sign((), 3) == Sign.ZERO
    # full braid relation cancels to the identity
    assert dehornoy_sign((1, 2, 1, -2, -1, -2), 3) == Sign.ZERO
    # s1 s2 < s1 s1: the difference word is sigma-positive
    assert dehornoy_sign((-2, -1, 1, 1), 3) == Sign.POSITIVE
    with pytest.raises(InvalidWordError):
        dehornoy_sign((3,), 3)
    with pytest.raises(InvalidWordError):
        dehornoy_sign((0,), 3)


@pytest.mark.parametrize("n", [None, 0, -2, 3.0, "3"])
def test_dehornoy_sign_checks_the_strand_count(n):
    with pytest.raises(InvalidWordError):
        dehornoy_sign((1,), n)


def test_dehornoy_trichotomy_exhaustive():
    """All signed words of length <= 5 on 3 strands: the sign is ZERO
    exactly on group-trivial words, and inversion flips it."""
    e = group.identity(A2)
    for L in range(6):
        for w in itertools.product((1, -1, 2, -2), repeat=L):
            s = dehornoy_sign(w, 3)
            trivial = group.eq(group.from_word(A2, w), e)
            assert (s == Sign.ZERO) == trivial
            winv = tuple(-x for x in reversed(w))
            assert dehornoy_sign(winv, 3) == Sign(-s)


def test_dehornoy_compare():
    x = group.from_word(A3, (3, 2))
    y = group.from_word(A3, (1, 2))
    assert dehornoy_compare(x, y) == Comparison.LESS
    assert dehornoy_compare(y, x) == Comparison.GREATER
    braid = group.from_word(A2, (1, 2, 1))
    braid2 = group.from_word(A2, (2, 1, 2))
    assert dehornoy_compare(braid, braid2) == Comparison.EQUAL
    with pytest.raises(PreconditionError):
        dehornoy_order(B2)
    with pytest.raises(PreconditionError):
        dehornoy_compare(group.identity(A2), group.identity(A3))


def test_dehornoy_order_handle():
    order = dehornoy_order(A2)
    assert order.name == "dehornoy"
    assert order.sign(group.from_word(A2, (1,))) == Sign.POSITIVE
    assert order.compare(group.identity(A2), group.from_word(A2, (1,))) == Comparison.LESS
    with pytest.raises(PreconditionError):
        order.sign(group.identity(A3))


def test_dehornoy_sign_is_rev_invariant_sampled():
    order = dehornoy_order(A3)
    rng = random.Random(SEED)
    samples = [
        group.from_word(A3, random_signed_word(rng, 3, 8)) for _ in range(300)
    ]
    report = sppc_check(order, group.rev, samples)
    assert report.total == 300
    assert report.violations == 0 and report.ok


def _braid_delta(strands):
    return tuple(j for i in range(1, strands) for j in range(i, 0, -1))


def _pinned_dehornoy_words():
    """Delta^-2k p on 6 and 8 strands (two of them trivial, Delta^-2 times
    the reversed word of Delta^2) and random signed words of length
    100-200 on 4 to 8 strands."""
    rng = random.Random(20261018)
    cases = []
    for strands in (6, 8):
        inv_delta = tuple(-x for x in reversed(_braid_delta(strands)))
        for k in (1, 2):
            for _ in range(3):
                p = tuple(rng.randint(1, strands - 1) for _ in range(
                    rng.randint(2 * k * len(inv_delta), 4 * k * len(inv_delta))))
                cases.append((strands, inv_delta * (2 * k) + p))
        cases.append((strands, inv_delta * 2 + _braid_delta(strands)[::-1] * 2))
    for _ in range(12):
        strands = rng.randint(4, 8)
        cases.append((strands, tuple(
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(100, 200)))))
    return cases


def test_dehornoy_signs_pinned():
    """Signs recorded by handle reduction with the earlier handle
    selection (smallest index among permitted handles, full rescan per
    step); the sign does not depend on which handle-free form the
    reduction reaches, nor on how it is computed."""
    P, N, Z = "POSITIVE", "NEGATIVE", "ZERO"
    expected = [
        N, N, P, N, P, N, Z,
        P, N, P, N, N, N, Z,
        N, P, P, N, N, P, P, N, P, N, N, N,
    ]
    cases = _pinned_dehornoy_words()
    assert [dehornoy_sign(w, strands).name for strands, w in cases] == expected
    for strands, w in cases:
        reduced, _ = reduce_handles(w)
        assert reduce_handles(reduced)[1] == 0


def test_typeB_compare_pinned():
    """Type-B comparisons through the embedding, recorded with the earlier
    handle selection."""
    rng = random.Random(20261019)
    got = []
    for n in (3, 3, 3, 4, 4, 4):
        mat = coxeter.builtin("B", n)
        wx, wy = (tuple(rng.choice((1, -1)) * rng.randint(1, n)
                        for _ in range(rng.randint(20, 30))) for _ in range(2))
        got.append(typeB_order(n).compare(group.from_word(mat, wx),
                                          group.from_word(mat, wy)).name)
    assert got == ["LESS", "GREATER", "LESS", "GREATER", "GREATER", "LESS"]


@pytest.mark.parametrize("name", ["A3", "A4", "B3", "B4"])
def test_dehornoy_orders_read_delta_inf_without_a_cancelling_pair(name):
    """The Dehornoy and type-B orders read Delta^inf a_1 ... a_r: the same
    element and sign as `to_signed_word`'s Delta^-2k p, without the
    Delta^-1 Delta pair that spelling has when inf is odd and negative."""
    mat = coxeter.named_matrix(name)
    n = mat.rank
    d = len(group.to_signed_word(group.delta_element(mat)))
    order = orderings.order_for_matrix(mat)
    rng = random.Random(SEED)
    odd_negative = 0
    for _ in range(60):
        x = group.from_word(mat, tuple(rng.choice((1, -1)) * rng.randint(1, n)
                                       for _ in range(rng.randint(0, 12))))
        old, new = group.to_signed_word(x), group.garside_word(x)
        assert group.from_word(mat, new) == x
        if x.inf < 0 and x.inf % 2:
            odd_negative += 1
            assert len(new) == len(old) - 2 * d
        else:
            assert new == old
        if name[0] == "A":
            want = dehornoy_sign(old, n + 1)
        else:
            want = dehornoy_sign(typeB_embed(old, n), n + 1)
        assert order.sign(x) == want
    assert odd_negative


def _dynnikov_cases():
    """Fixed-seed (word, coords) pairs on 2-8 strands, words up to 400
    letters, on the trivial braid's coordinates and on drawn ones."""
    rng = random.Random("dynnikov digest")
    for k in range(240):
        n = rng.randint(2, 8)
        length = (0, 1, 2, 400)[k] if k < 4 else rng.randint(0, 400)
        word = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
        coords = ((0, 1) * n if k % 3 == 0
                  else tuple(rng.randint(-40, 40) for _ in range(2 * n)))
        yield word, coords


# recorded before the kernel was rewritten on flat a- and b-lists
DYNNIKOV_DIGEST = "16707b286366822919291478c6c8085fed5c9116236abb86d1cdda5f5a41091b"


def test_dynnikov_action_is_pinned():
    """The coordinates themselves, not only the signs, are bit-identical."""
    digest = hashlib.sha256()
    for word, coords in _dynnikov_cases():
        digest.update(repr(dynnikov_action(word, coords)).encode())
    assert digest.hexdigest() == DYNNIKOV_DIGEST


def _flip_a(coords):
    return tuple(-v if k % 2 == 0 else v for k, v in enumerate(coords))


def test_dynnikov_inverse_letters_mirror_positive_ones():
    """sigma_i^-1 acts as sigma_i between two sign changes of every a_j, so
    a word with every letter negated acts as the word conjugated by them."""
    rng = random.Random("dynnikov mirror")
    for _ in range(20_000):
        n = rng.randint(2, 8)
        i = rng.randint(1, n - 1)
        coords = tuple(rng.randint(-30, 30) for _ in range(2 * n))
        assert dynnikov_action((-i,), coords) == _flip_a(
            dynnikov_action((i,), _flip_a(coords))), (i, coords)
    for _ in range(200):
        n = rng.randint(2, 8)
        word = random_signed_word(rng, n - 1, 60)
        coords = tuple(rng.randint(-30, 30) for _ in range(2 * n))
        assert dynnikov_action(tuple(-x for x in word), coords) == _flip_a(
            dynnikov_action(word, _flip_a(coords))), (word, coords)


# ---------------------------------------------------------------------------
# Magnus order


def test_free_reduce():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, 1, -1, -1)) == ()
    assert free_reduce((1, 2, -1)) == (1, 2, -1)
    assert free_reduce(()) == ()


def test_exponent_sums():
    assert exponent_sums((1, -2, 1, 2, -3)) == {1: 2, 2: 0, 3: -1}
    assert exponent_sums(()) == {}


def test_series_trunc():
    one = SeriesTrunc.one(2)
    g = SeriesTrunc.generator(1, 1, 2)
    ginv = SeriesTrunc.generator(1, -1, 2)
    assert g.coeffs == {(): 1, (1,): 1}
    assert ginv.coeffs == {(): 1, (1,): -1, (1, 1): 1}
    # inverse up to the truncation degree
    assert g * ginv == one
    assert ginv * g == one
    lead = magnus_image((2, 1), 2).first_nonconstant()
    assert lead == ((1,), 1)  # graded-lex scans X_1 before X_2
    assert one.first_nonconstant() is None
    with pytest.raises(InvalidWordError):
        SeriesTrunc.one(2) * SeriesTrunc.one(3)


@given(
    st.lists(st.integers(-2, 2).filter(lambda x: x != 0), max_size=4),
    st.lists(st.integers(-2, 2).filter(lambda x: x != 0), max_size=4),
)
def test_magnus_image_multiplicative(u, v):
    d = 4
    assert magnus_image(tuple(u) + tuple(v), d) == magnus_image(u, d) * magnus_image(v, d)


def test_magnus_image_is_the_product_of_the_generators():
    """The in-place expansion equals the `SeriesTrunc` product of the
    letters' generators, zero coefficients dropped, at degrees 0-5."""
    rng = random.Random("magnus product")
    for _ in range(3_000):
        degree = rng.randint(0, 5)
        word = random_signed_word(rng, 3, 9)
        want = SeriesTrunc.one(degree)
        for x in word:
            want = want * SeriesTrunc.generator(abs(x), 1 if x > 0 else -1, degree)
        got = magnus_image(word, degree)
        assert got == want and 0 not in got.coeffs.values(), (word, degree)


def test_magnus_sign_examples():
    assert magnus_sign(()) == Sign.ZERO
    assert magnus_sign((1, -1)) == Sign.ZERO
    assert magnus_sign((1,)) == Sign.POSITIVE
    assert magnus_sign((-1,)) == Sign.NEGATIVE
    assert magnus_sign((2, -1)) == Sign.NEGATIVE  # X_1 coefficient wins
    # the commutator [x1, x2] leads with +X1X2 in degree two
    assert magnus_sign((1, 2, -1, -2)) == Sign.POSITIVE
    assert magnus_sign((2, 1, -2, -1)) == Sign.NEGATIVE  # its inverse
    with pytest.raises(InvalidWordError):
        magnus_sign((3,), 2)


@pytest.mark.parametrize("word", [(0,), (1, 0), (1.5,), ("a",)])
def test_magnus_sign_checks_letters_without_n(word):
    """Letters are nonzero ints even when no rank bounds them."""
    with pytest.raises(InvalidWordError):
        magnus_sign(word)
    with pytest.raises(InvalidWordError):
        magnus_order().sign(word)
    assert magnus_sign((7, -7, 9)) == Sign.POSITIVE


def test_magnus_reversal_flips_commutator_sign():
    """Reversal (not inversion) of the commutator x1 x2 x1^-1 x2^-1 flips
    its Magnus sign: both words are balanced, their degree-two parts are
    antisymmetric, and reversal transposes monomials, so the graded-lex
    leading coefficient changes sign.  Pinned here because it means no
    graded-lex first-coefficient order on a free group of rank >= 2 can be
    reversal-invariant on balanced words."""
    w = (1, 2, -1, -2)
    assert magnus_sign(w) == Sign.POSITIVE
    assert magnus_sign(tuple(reversed(w))) == Sign.NEGATIVE


@given(st.lists(st.integers(-3, 3).filter(lambda x: x != 0), max_size=6))
def test_magnus_fast_path_matches_series(word):
    w = free_reduce(word)
    sums = exponent_sums(w)
    nonzero = [j for j in sorted(sums) if sums[j]]
    if not nonzero:
        return
    lead = magnus_image(w, max(1, len(w))).first_nonconstant()
    assert lead is not None
    m, c = lead
    assert m == (nonzero[0],) and c == sums[nonzero[0]]
    expect = Sign.POSITIVE if c > 0 else Sign.NEGATIVE
    assert magnus_sign(w) == expect


def _balanced_free_word(rng, length):
    while True:
        half = [rng.randint(1, 3) for _ in range(length // 2)]
        w = half + [-g for g in half]
        rng.shuffle(w)
        if free_reduce(w) == tuple(w):
            return tuple(w)


def _series_sign(w):
    """The sign read off the series expanded at degree len(w)."""
    lead = magnus_image(w, len(w)).first_nonconstant()
    if lead is None:
        return Sign.ZERO
    return Sign.POSITIVE if lead[1] > 0 else Sign.NEGATIVE


def test_magnus_sign_matches_full_expansion_on_short_balanced_words():
    words = [
        w for length in range(1, 7)
        for w in itertools.product((1, -1, 2, -2, 3, -3), repeat=length)
        if free_reduce(w) == w and not any(exponent_sums(w).values())
    ]
    assert len(words) == 384
    for w in words:
        assert magnus_sign(w, 3) == _series_sign(w), w


def test_magnus_sign_matches_full_expansion_at_length_8():
    rng = random.Random(SEED)
    for _ in range(200):
        w = _balanced_free_word(rng, 8)
        assert magnus_sign(w, 3) == _series_sign(w), w


def test_magnus_sign_of_a_long_balanced_word():
    """Length 40: far past what a full expansion at degree len(w) can do."""
    w = _balanced_free_word(random.Random(40), 40)
    s = magnus_sign(w, 3)
    assert s is not Sign.ZERO
    assert magnus_sign(tuple(-x for x in reversed(w)), 3) == Sign(-s)


@given(
    st.lists(st.integers(-3, 3).filter(lambda x: x != 0), max_size=5),
    st.lists(st.integers(-3, 3).filter(lambda x: x != 0), max_size=5),
    st.lists(st.integers(-3, 3).filter(lambda x: x != 0), max_size=5),
)
def test_magnus_order_left_invariant(z, x, y):
    order = magnus_order(3)
    assert order.compare(tuple(x), tuple(y)) == order.compare(
        tuple(z) + tuple(x), tuple(z) + tuple(y)
    )


def test_magnus_rev_sppc():
    """Reversal must preserve every sign for the order to transfer through
    palindromization; the Magnus graded-lex order fails this on balanced
    words (see the pinned commutator flip above), so this check is
    expected to fail until the order itself is replaced."""
    order = magnus_order(3)
    rng = random.Random(SEED)
    samples = [random_signed_word(rng, 3, 10) for _ in range(1000)]
    report = sppc_check(order, lambda w: tuple(reversed(w)), samples)
    assert report.total == 1000
    assert report.violations == 0, (
        f"{report.violations} reversal violations, e.g. {report.examples[:2]}"
    )


# ---------------------------------------------------------------------------
# Type B embedding order


def test_typeB_embed():
    assert typeB_embed((1, -2, 2), 2) == (1, -2, -2, 2, 2)
    assert typeB_embed((3, 1), 3) == (3, 3, 1)
    assert typeB_embed((), 2) == ()
    with pytest.raises(InvalidWordError):
        typeB_embed((3,), 2)
    with pytest.raises(InvalidWordError):
        typeB_embed((0,), 2)


@pytest.mark.parametrize("letter", ["a", None, 1.0])
def test_typeB_embed_rejects_a_non_integer_letter(letter):
    # the type is checked before abs() could raise a bare TypeError
    with pytest.raises(InvalidWordError):
        typeB_embed((letter,), 3)
    with pytest.raises(InvalidWordError):
        dehornoy_sign((letter,), 3)


def test_typeB_order_respects_relations():
    order2 = typeB_order(2)
    # the label-4 relation
    assert order2.compare(
        group.from_word(B2, (1, 2, 1, 2)), group.from_word(B2, (2, 1, 2, 1))
    ) == Comparison.EQUAL
    b3 = coxeter.builtin("B", 3)
    order3 = typeB_order(3)
    # a label-3 relation
    assert order3.compare(
        group.from_word(b3, (1, 2, 1)), group.from_word(b3, (2, 1, 2))
    ) == Comparison.EQUAL
    for s in (1, 2):
        assert order2.sign(group.from_word(B2, (s,))) == Sign.POSITIVE
        assert order2.sign(group.from_word(B2, (-s,))) == Sign.NEGATIVE
    with pytest.raises(PreconditionError):
        typeB_order(1)
    with pytest.raises(PreconditionError):
        order2.sign(group.identity(A2))


def test_typeB_sign_is_representative_independent_sampled():
    order = typeB_order(2)
    rng = random.Random(SEED)
    for _ in range(60):
        w = random_signed_word(rng, 2, 6)
        x = group.from_word(B2, w)
        # multiplying by a trivial word changes the representative only
        y = group.mult(group.mult(x, group.from_word(B2, (1, -1))), group.identity(B2))
        assert order.sign(x) == order.sign(y)
        assert (order.sign(x) == Sign.ZERO) == group.eq(x, group.identity(B2))


def test_typeB_rev_sppc():
    order = typeB_order(2)
    rng = random.Random(SEED)
    samples = [
        group.from_word(B2, random_signed_word(rng, 2, 6)) for _ in range(300)
    ]
    report = sppc_check(order, group.rev, samples)
    assert report.violations == 0 and report.ok


# ---------------------------------------------------------------------------
# Dispatch and reports


def test_order_for_matrix():
    assert order_for_matrix(A3).name == "dehornoy"
    assert order_for_matrix(B2).name == "typeB-embedding"


FLIP = {Comparison.LESS: Comparison.GREATER, Comparison.EQUAL: Comparison.EQUAL,
        Comparison.GREATER: Comparison.LESS}


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5",
                                  "B2", "B3", "B4", "B5"])
def test_order_laws(name):
    """The order the matrix picks is an order on its group: x and x^-1 get
    opposite signs, the sign is ZERO exactly on the identity, and
    compare(x, y) is opposite to compare(y, x).  The words are seeded
    random ones, the empty word, and relators spliced into a word, which
    spell the same element."""
    mat = coxeter.named_matrix(name)
    order = order_for_matrix(mat)
    e = group.identity(mat)
    relators = [(s, -s) for s in mat.generators] + [
        u + tuple(-a for a in reversed(v)) for u, v in mat.relations()]
    rng = random.Random(SEED + mat.rank)
    words = [()] + [random_signed_word(rng, mat.rank, 10) for _ in range(200)]
    for w in words:
        x = group.from_word(mat, w)
        s = order.sign(x)
        assert order.sign(group.inv(x)) == -s, w
        assert (s == Sign.ZERO) == group.eq(x, e), w
        i = rng.randint(0, len(w))
        padded = group.from_word(mat, w[:i] + rng.choice(relators) + w[i:])
        assert order.compare(x, padded) == order.compare(padded, x) == Comparison.EQUAL
        y = group.from_word(mat, rng.choice(words))
        assert order.compare(y, x) == FLIP[order.compare(x, y)], (w, y)


@pytest.mark.parametrize("matrix", [
    coxeter.named_matrix("H3"), coxeter.named_matrix("D4"),
    coxeter.named_matrix("F4"), coxeter.named_matrix("I2(5)"),
    coxeter.parse_matrix("rank 3\nm 1 3 3\nm 3 2 3\n"),  # the chain 1 - 3 - 2
], ids=["H3", "D4", "F4", "I2(5)", "renumbered-A3"])
def test_order_for_matrix_refuses_other_types(matrix):
    with pytest.raises(PreconditionError, match="type A or type B"):
        order_for_matrix(matrix)


@pytest.mark.parametrize("make", [
    lambda: dehornoy_order(A3),
    lambda: typeB_order(3),
], ids=["dehornoy", "typeB"])
def test_element_orders_refuse_a_foreign_element(make):
    with pytest.raises(PreconditionError):
        make().sign(group.from_word(B2, (1, 2)))


def test_sppc_check_reports_violations():
    order = dehornoy_order(A2)
    samples = [group.from_word(A2, (1,)), group.identity(A2),
               group.from_word(A2, (2, 1))]
    # inversion flips the sign of every nontrivial element
    report = sppc_check(order, group.inv, samples, keep=1)
    assert report.total == 3
    assert report.violations == 2
    assert not report.ok
    assert len(report.examples) == 1  # keep honored
    ok_report = sppc_check(order, lambda x: x, samples)
    assert ok_report.ok and ok_report.examples == ()
    assert isinstance(report, SppcReport)
