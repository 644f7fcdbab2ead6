import pytest
from hypothesis import given
from hypothesis import strategies as st

from artinpal import coxeter, group, monoid, weyl
from artinpal.errors import InfiniteTypeError, InvalidWordError
from artinpal.group import (
    GroupElement,
    delta_element,
    eq,
    from_positive,
    from_word,
    identity,
    inv,
    is_palindrome,
    is_pure,
    make,
    mult,
    rev,
    tau,
    to_signed_word,
    w_image,
)

A2 = coxeter.builtin("A", 2)
A3 = coxeter.builtin("A", 3)
B2 = coxeter.builtin("B", 2)

a3_elements = st.lists(
    st.integers(-3, 3).filter(lambda x: x != 0), max_size=6
).map(lambda w: from_word(A3, w))


def test_construction_and_normalization():
    e = identity(A3)
    assert e.k == 0 and e.p == ()
    d = delta_element(A3)
    assert d.k == 0 and len(d.p) == 6
    # a numerator holding Delta^2 gets it cancelled against the denominator
    x = make(A3, 1, d.p + d.p + (1,))
    assert x.k == 0 and eq(x, from_word(A3, (1,)))
    with pytest.raises(InvalidWordError):
        make(A3, -1, ())
    with pytest.raises(InfiniteTypeError):
        identity(coxeter.parse_matrix("rank 3\nm 1 2 3\nm 2 3 4\nm 1 3 inf\n"))


def test_from_word_inverse_letters():
    x = from_word(A2, (1, -1))
    assert eq(x, identity(A2))
    y = from_word(A2, (-2, 2))
    assert eq(y, identity(A2))
    z = from_word(A2, (-1,))
    assert eq(mult(z, from_word(A2, (1,))), identity(A2))


@given(a3_elements)
def test_group_laws(x):
    e = identity(A3)
    assert eq(mult(x, e), x)
    assert eq(mult(e, x), x)
    assert eq(mult(x, inv(x)), e)
    assert eq(mult(inv(x), x), e)
    assert eq(inv(inv(x)), x)


@given(a3_elements, a3_elements)
def test_eq_matches_cross_multiplication(x, y):
    assert eq(x, y) == eq(mult(inv(y), x), identity(A3))


@given(a3_elements, a3_elements)
def test_rev_is_anti_automorphism(x, y):
    assert eq(rev(mult(x, y)), mult(rev(y), rev(x)))
    assert eq(rev(rev(x)), x)


def test_rev_fixes_delta():
    for mat in (A2, A3, B2):
        d = delta_element(mat)
        assert eq(rev(d), d)
        assert is_palindrome(d)


def test_tau():
    d = delta_element(A3)
    for w in [(1,), (2, 3), (1, -2, 3), (-1, -1)]:
        x = from_word(A3, w)
        # tau is conjugation by Delta
        assert eq(tau(x), mult(mult(inv(d), x), d))
        assert eq(tau(tau(x)), x)
    # B2 has central Delta, so tau is trivial
    y = from_word(B2, (1, 2, -1))
    assert eq(tau(y), y)


def test_delta_squared_central():
    d2 = mult(delta_element(A3), delta_element(A3))
    for w in [(1,), (3, -2), (-1, 2, 2)]:
        x = from_word(A3, w)
        assert eq(mult(x, d2), mult(d2, x))


def test_is_pure():
    assert is_pure(identity(A3))
    assert is_pure(from_word(A3, (1, 1)))
    assert is_pure(from_word(A3, (1, -1)))
    assert not is_pure(from_word(A3, (1,)))
    assert not is_pure(delta_element(A3))
    d2 = mult(delta_element(A3), delta_element(A3))
    assert is_pure(d2)
    assert is_pure(inv(d2))


def test_is_palindrome():
    assert is_palindrome(identity(A2))
    assert is_palindrome(from_word(A2, (1, 2, 1)))
    assert is_palindrome(from_word(A2, (2, 1, 2)))  # equal to 1 2 1
    assert not is_palindrome(from_word(A2, (1, 2)))
    assert is_palindrome(from_word(A2, (-1, 2, -1)))


@given(a3_elements)
def test_to_signed_word_round_trip(x):
    assert eq(from_word(A3, to_signed_word(x)), x)


def test_w_image():
    rep = weyl.build_root_system(A3)
    x = from_word(A3, (1, -2, 3))
    assert w_image(x) == weyl.image(rep, (1, 2, 3))
    d2 = mult(delta_element(A3), delta_element(A3))
    assert weyl.is_identity(w_image(d2))


def test_hash_and_dict_use():
    x = from_word(A2, (1, 2, 1))
    y = from_word(A2, (2, 1, 2))
    assert x == y and hash(x) == hash(y)
    seen = {x: "first"}
    assert seen[y] == "first"
    assert from_word(A2, (1, 2)) != from_word(A2, (2, 1))
    assert x != "not an element" or True  # NotImplemented path must not raise


def test_mixed_matrix_rejected():
    with pytest.raises(InvalidWordError):
        mult(identity(A2), identity(A3))
    with pytest.raises(InvalidWordError):
        eq(identity(A2), identity(A3))


def test_normalization_invariant():
    # every constructor output is Delta^2-free on the left when k > 0
    for w in [(-1,), (-1, -2), (1, -2, -3, 1), (-3, -3, -3)]:
        x = from_word(A3, w)
        if x.k > 0:
            d2 = monoid.PositiveWord(A3, delta_element(A3).p * 2)
            assert monoid.divides_left(d2, monoid.PositiveWord(A3, x.p)) is None


NF_TYPES = ["A3", "B3", "D4", "F4", "H3", "I2(5)", "I2(7)"]


def _seeded_pairs(mat, rng, count, max_len):
    """Signed word pairs: half equal by construction (an inserted g g^-1
    and an inserted defining relator), half drawn independently."""
    pairs = []
    for i in range(count):
        w1 = [rng.choice((1, -1)) * rng.randint(1, mat.rank)
              for _ in range(rng.randint(0, max_len))]
        if i % 2:
            w2 = [rng.choice((1, -1)) * rng.randint(1, mat.rank)
                  for _ in range(rng.randint(0, max_len))]
        else:
            w2 = list(w1)
            g = rng.randint(1, mat.rank) * rng.choice((1, -1))
            pos = rng.randint(0, len(w2))
            w2[pos:pos] = [g, -g]
            lhs, rhs = rng.choice(mat.relations())
            pos = rng.randint(0, len(w2))
            w2[pos:pos] = list(lhs) + [-x for x in reversed(rhs)]
        pairs.append((tuple(w1), tuple(w2)))
    return pairs


@pytest.mark.parametrize("name", NF_TYPES)
def test_normal_form_eq_matches_extraction(name, rng):
    mat = coxeter.named_matrix(name)
    d = monoid.ambient_delta(mat).letters
    for w1, w2 in _seeded_pairs(mat, rng, 40, 8):
        x, y = from_word(mat, w1), from_word(mat, w2)
        # Delta^(-2k) p = Delta^(-2k') p'  <=>  Delta^(2k') p = Delta^(2k) p'
        referee = monoid.equals(monoid.PositiveWord(mat, d * (2 * y.k) + x.p),
                                monoid.PositiveWord(mat, d * (2 * x.k) + y.p))
        assert eq(x, y) == referee, (w1, w2)


@pytest.mark.parametrize("name", NF_TYPES)
def test_normal_form_invariant_all_types(name, rng):
    mat = coxeter.named_matrix(name)
    d2 = monoid.PositiveWord(mat, monoid.ambient_delta(mat).letters * 2)
    for w, _ in _seeded_pairs(mat, rng, 30, 10):
        for x in (from_word(mat, w), inv(from_word(mat, w))):
            assert x.k >= 0
            if x.k > 0:
                assert monoid.divides_left(d2, monoid.PositiveWord(mat, x.p)) is None
            assert eq(make(mat, x.k, x.p), x)


@pytest.mark.parametrize("name", ["E8", "H4"])
def test_long_words_invert(name, rng):
    mat = coxeter.named_matrix(name)
    e = identity(mat)
    for _ in range(3):
        letters = [rng.randint(1, mat.rank) for _ in range(50)]
        for i in rng.sample(range(50), 25):
            letters[i] = -letters[i]
        x = from_word(mat, letters)
        assert eq(mult(x, inv(x)), e)
        assert eq(mult(inv(x), x), e)
        assert eq(inv(inv(x)), x)
