import hashlib
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artinpal import coxeter, group, monoid, weyl
from artinpal.errors import (ArtinError, BudgetExceededError, InfiniteTypeError,
                             InvalidWordError, PreconditionError)
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


@pytest.mark.parametrize("name, max_len", [("A3", 6), ("A4", 5)])
def test_monoid_normal_form_matches_the_group(name, max_len):
    """`monoid.normal_form` and the Garside normal form tell the same
    positive words apart, on every word to max_len letters."""
    mat = coxeter.named_matrix(name)
    nf_of, key_of = {}, {}
    for n in range(max_len + 1):
        for letters in itertools.product(mat.generators, repeat=n):
            key = make(mat, 0, letters).key()
            nf = monoid.normal_form(monoid.word(mat, letters))
            assert nf_of.setdefault(key, nf) == nf, letters
            assert key_of.setdefault(nf, key) == key, letters


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


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "H3", "F4", "I2(7)"])
def test_starting_set_and_length_match_the_word(name, rng):
    mat = coxeter.named_matrix(name)
    d = monoid.ambient_delta(mat).letters
    for i in range(40):
        w = tuple(rng.randint(1, mat.rank) for _ in range(rng.randint(0, 12)))
        if i % 4 == 0:  # Delta^j w, with w empty every so often
            w = d * rng.randint(1, 2) + w[:i % 8]
        x = make(mat, 0, w)
        assert group.starting_set(x) == monoid.starting_set(monoid.word(mat, w)), w
        assert group.length(x) == len(w), w
    # not positive: no generator left-divides; the length is the exponent sum
    x = from_word(mat, (-1, 2, 2))
    assert group.starting_set(x) == () and group.length(x) == 1
    assert group.starting_set(identity(mat)) == () and group.length(identity(mat)) == 0


# 240, 242, 256, 258 and 272 roots: the two sides of the 256-root boundary
# at which permutations switch from `bytes` to tuples.  tau is trivial in
# B_n and in I2(m) for even m, and tau(x) is then x itself.
@pytest.mark.parametrize("name, trivial_tau", [
    ("A15", False), ("B11", True), ("I2(128)", True), ("I2(129)", False),
    ("A16", False)])
def test_both_permutation_representations(name, trivial_tau, rng):
    mat = coxeter.named_matrix(name)
    rep = weyl.build_root_system(mat)
    e = identity(mat)
    for _ in range(4):
        word = [rng.choice((-1, 1)) * rng.randint(1, mat.rank) for _ in range(30)]
        x = from_word(mat, word)
        assert eq(mult(x, inv(x)), e)
        assert eq(inv(inv(x)), x)
        assert eq(rev(rev(x)), x)
        assert w_image(x).perm == weyl.image(rep, word).perm
        assert (tau(x) is x) == trivial_tau
    for _ in range(4):
        u = [rng.randint(1, mat.rank) for _ in range(30)]
        s, t = rng.sample(mat.generators, 2)
        m = mat.m(s, t)
        cut = rng.randint(0, 30)
        same = (u[:cut] + list(coxeter.w_word(s, t, m)) + u[cut:],
                u[:cut] + list(coxeter.w_word(t, s, m)) + u[cut:])
        other = (u, [rng.randint(1, mat.rank) for _ in range(30)])
        for v, w in (same, other, (u, u[:-1] + [u[-1] % mat.rank + 1])):
            v, w = monoid.word(mat, v), monoid.word(mat, w)
            assert eq(from_positive(v), from_positive(w)) == monoid.equals(v, w)
        assert eq(*(from_positive(monoid.word(mat, v)) for v in same))


def _check_delta_element(mat, subset):
    d = monoid.delta(mat, subset)
    x = delta_element(mat, subset)
    assert eq(x, from_positive(d)), subset
    # the exact length: the reversing that spells Delta_I ran to the end
    assert len(d) == group.length(x), subset


@pytest.mark.parametrize("name", [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "D5", "E6", "F4",
    "H3", "H4", "I2(5)", "I2(7)"])
def test_delta_element_is_the_lcm_of_its_subset(name):
    """delta_element(m, I), the lift of w0(I), is the element that
    `monoid.delta` spells by word reversing, on every subset I."""
    mat = coxeter.named_matrix(name)
    for k in range(mat.rank + 1):
        for subset in itertools.combinations(mat.generators, k):
            _check_delta_element(mat, subset)
    assert eq(delta_element(mat, ()), identity(mat))
    assert eq(delta_element(mat, mat.generators), delta_element(mat))


# E7 and E8 by sample; A16 and B12 (272 and 288 roots) hold tuples
@pytest.mark.parametrize("name", ["E7", "E8", "A16", "B12"])
def test_delta_element_is_the_lcm_on_sampled_subsets(name, rng):
    mat = coxeter.named_matrix(name)
    _check_delta_element(mat, mat.generators)
    for _ in range(12):
        _check_delta_element(mat, rng.sample(mat.generators, rng.randint(1, mat.rank)))


# sha256 of the normal forms below, recorded with a `_weight` that slid one
# generator per pass: the left-weighted pair is unique, so a sliding rule
# may change how a pair is reached but never the result.  A4 to A15 hold
# `bytes` permutations; A16 and B12 hold tuples.
PINNED_NORMAL_FORMS = {
    "A4":
        "b1ddb975754259277a4eebf02ca9c1d6bc5f4eda5a31f00f54e36b043d3580d7",
    "D5":
        "aa86f9bed38b091eba88f5646616226cd3ef1e2099d6cf0f4789b718ddb7091b",
    "E6":
        "4662337e77c64ae44192485ef20f7af88d64367806479966f5cd246d6e41d871",
    "F4":
        "efef5fd7b80dbe912c7b01ad1d8ad36b7054433ce28582e26d225d442d98257d",
    "H4":
        "218691a0c1ee212b9913810781187e692f5804d603b1df84e19a080f25563352",
    "I2(7)":
        "172bec81e5304eb233dfc24d6ffb927639619f71ed0ffe758cc281d862e07ed4",
    "E8":
        "c34a0a0e8b272072994307c951c940fe036c20cb5683cb29daed874ffed03c51",
    "A15":
        "a776a96ca0a5a1b2f4038c27a84cb8941b2828bc1c7215f025469df666bfd750",
    "A16":
        "49bdbbfa6e7f1562fc9fcf7ddc8f9d1ef42d4fa93bfbe276833a0d0f8dae4ca4",
    "B12":
        "e5d5af40515d513d6a951939e915b8d87e3ab449efc452a55e8190fe126d5f61",
}


def _normal_form_digest(name):
    mat = coxeter.named_matrix(name)
    rng = random.Random(f"pinned normal forms {name}")
    xs = [from_word(mat, [rng.choice((1, -1)) * rng.randint(1, mat.rank)
                          for _ in range(n)])
          for n in range(0, 121, 10)]
    ys = xs + [mult(x, y) for x, y in zip(xs, xs[1:])]
    ys += [inv(x) for x in xs] + [rev(x) for x in xs]
    h = hashlib.sha256()
    for y in ys:
        h.update(repr((y.key(), y.p)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(PINNED_NORMAL_FORMS))
def test_normal_forms_are_pinned(name):
    """key() and p of seeded signed words of lengths 0-120, and of their
    products, inverses and reverses, hash to the recorded digest."""
    assert _normal_form_digest(name) == PINNED_NORMAL_FORMS[name]


@pytest.mark.parametrize("name", ["A4", "E6", "H4", "E8"])
def test_delta_leaves_in_one_step(name, monkeypatch):
    """x * x^-1 creates one Delta per factor of x, and each leaves for the
    front through tau at once: at most one `_weight` call per factor, where
    walking each Delta to the front took r(r+1)/2."""
    mat = coxeter.named_matrix(name)
    rng = random.Random(1)
    x = from_word(mat, [rng.choice((1, -1)) * rng.randint(1, mat.rank)
                        for _ in range(400)])
    y = inv(x)
    calls = []
    weight = group._weight
    monkeypatch.setattr(group, "_weight", lambda *a: calls.append(1) or weight(*a))
    assert eq(mult(x, y), identity(mat))
    assert 0 < len(calls) <= len(x.factors)


@pytest.mark.parametrize("name", ["A4", "E6"])
def test_mult_inv_rev_tau_frame(name, monkeypatch):
    """mult, inv and rev keep their factors in a tau-frame, so x * x^-1 and
    rev(x) make at most two `_tau` calls per factor of x, where twisting
    every factor before each Delta that leaves took r(r-1)/2."""
    mat = coxeter.named_matrix(name)
    rng = random.Random(1)
    x = from_word(mat, [rng.choice((1, -1)) * rng.randint(1, mat.rank)
                        for _ in range(400)])
    calls = []
    twist = group._tau
    monkeypatch.setattr(group, "_tau", lambda *a: calls.append(1) or twist(*a))
    assert eq(mult(x, inv(x)), identity(mat))
    assert len(calls) <= 2 * len(x.factors)
    calls.clear()
    y = rev(x)
    assert len(calls) <= 2 * len(x.factors)
    assert eq(rev(y), x)


# A16 holds tuples
@pytest.mark.parametrize("name", ["A4", "D5", "E6", "H3", "I2(5)", "A16"])
def test_generator_complements_match_the_formula(name):
    """`_complement` reads a generator's complements off the table: on both
    sides each equals the general formula in perm, inverse, both descent
    sets and length, with images w0 s on the left and s w0 on the right."""
    mat = coxeter.named_matrix(name)
    t = group._tables(mat)
    w0, c = t.delta.perm, t.compose
    for g in t.gens:
        for right, perm, inverse in ((0, c(w0, g.inv), c(g.perm, w0)),
                                     (1, c(g.inv, w0), c(w0, g.perm))):
            want = group._Simple(perm, inverse, t.mask(perm), t.mask(inverse),
                                 t.top - 1)
            assert group._complement(t, g, right) == want, (g.left, right)


def _simples(mat):
    """Every simple element, 1 and Delta included."""
    t = group._tables(mat)
    rep = weyl.build_root_system(mat)
    out = []
    for w in weyl.enumerate_group(rep, 10 ** 4):
        x = make(mat, 0, w.word)
        out.append(x.factors[0] if x.factors else t.delta if x.inf else
                   group._Simple(t.ident, t.ident, 0, 0, 0))
    return out


def _sampled_simples(mat, rng, words):
    """The simples in the normal forms of seeded positive words, and their
    complements, which are long."""
    t = group._tables(mat)
    out = {}
    for _ in range(words):
        x = make(mat, 0, [rng.randint(1, mat.rank) for _ in range(rng.randint(1, 60))])
        for f in x.factors:
            for e in (f, group._complement(t, f)):
                out[e.perm] = e
    return list(out.values())


def _check_weighted(mat, pairs):
    """`_weight` of each pair gives a left-weighted pair of simples with the
    same lengths and the same product, as extraction finds."""
    t = group._tables(mat)
    rep = weyl.build_root_system(mat)
    _clear_memos(mat)
    for a, b in pairs:
        c, d = group._weight(t, a, b)
        assert not d.left & ~c.right, (a, b)
        assert c.length + d.length == a.length + b.length, (a, b)
        for f in (c, d):
            w = group._reduced_word(t, f)
            assert len(w) == f.length
            assert tuple(weyl.image(rep, w).perm) == tuple(f.perm[:t.degree])
        words = [monoid.word(mat, group._reduced_word(t, e) + group._reduced_word(t, f))
                 for e, f in ((c, d), (a, b))]
        assert monoid.equals(*words), (a, b)


@pytest.mark.parametrize("name", ["A3", "B3", "I2(7)"])
def test_weight_on_every_pair_of_simples(name):
    """The slide, refereed on every pair of simples: the pair it returns is
    left-weighted, the lengths add, each factor's reduced word has its
    permutation, and extraction, which shares no code with the core, finds
    the products equal."""
    mat = coxeter.named_matrix(name)
    simples = _simples(mat)
    _check_weighted(mat, itertools.product(simples, repeat=2))


# A16 holds tuples
@pytest.mark.parametrize("name", ["H3", "E8", "A16"])
def test_weight_on_sampled_pairs_of_simples(name):
    """The same referee on 2,000 seeded pairs of simples."""
    mat = coxeter.named_matrix(name)
    rng = random.Random(f"weight referee {name}")
    simples = _sampled_simples(mat, rng, 100)
    _check_weighted(mat, [(rng.choice(simples), rng.choice(simples))
                          for _ in range(2000)])


# tau is not the identity on any of these; A16 and I2(129) hold tuples
@pytest.mark.parametrize("name", ["A4", "D5", "E6", "I2(5)", "I2(129)", "A16"])
def test_from_word_tau_frame(name):
    """from_word, which reads inverse letters in a tau-frame, equals the
    left-to-right product of one-letter elements, which twists eagerly; the
    words include ones whose non-cancelling inverse letters are odd in
    number, so that the frame is still flipped at the end."""
    mat = coxeter.named_matrix(name)
    rng = random.Random(f"tau frame {name}")
    gens = {s: make(mat, 0, (s,)) for s in mat.generators}
    letters = {**gens, **{-s: inv(g) for s, g in gens.items()}}
    words = [(-1,), (-1, -2), (2, -1)] + [
        [rng.choice((1, -1, -1)) * rng.randint(1, mat.rank)
         for _ in range(rng.randint(0, 40))] for _ in range(20)]
    flipped = 0
    for w in words:
        y, odd = identity(mat), 0
        for x in w:
            # -s cancels when s right-divides the last factor of the prefix
            if x < 0 and not (y.factors and y.factors[-1].right >> (-x - 1) & 1):
                odd ^= 1
            y = mult(y, letters[x])
        assert eq(from_word(mat, w), y), w
        flipped += odd
    assert 0 < flipped < len(words)


def _clear_weight_memo(mat):
    t = group._tables(mat)
    if t.memo is not None:
        t.memo.clear()
        t.simples.clear()


# I2(129) holds tuples, where `_weight` keeps no memo
@pytest.mark.parametrize("name", ["A4", "D5", "E6", "H4", "E8", "I2(5)", "I2(129)"])
def test_weight_memo_is_exact(name):
    """from_word, inv, mult and rev give the same normal forms with
    `_weight`'s memo cleared before each call as with it warm, and again
    once every pair is a hit."""
    mat = coxeter.named_matrix(name)
    rng = random.Random(f"weight memo {name}")
    words = [[rng.choice((1, -1)) * rng.randint(1, mat.rank)
              for _ in range(rng.randint(0, 60))] for _ in range(12)]

    def keys(cold):
        out = []

        def call(op, *args):
            if cold:
                _clear_weight_memo(mat)
            y = op(*args)
            out.append(y.key())
            return y

        xs = [call(from_word, mat, w) for w in words]
        for x, y in zip(xs, xs[1:]):
            call(mult, x, y)
            call(inv, x)
            call(rev, x)
        return out

    cold = keys(True)
    assert keys(False) == cold
    assert keys(False) == cold
    memo = group._tables(mat).memo
    assert memo is None if name == "I2(129)" else len(memo) > 0


def test_weight_memo_stays_within_its_bound():
    """Three times the bound of distinct pairs through one table: the memo
    never holds more than the bound, and the simples it shares are cleared
    with it, so there are never more than four per entry."""
    mat = coxeter.named_matrix("E6")
    t = group._tables(mat)
    bound = group._MEMO_BOUND
    rng = random.Random("weight memo bound")
    simples = {}
    for _ in range(60):
        x = make(mat, 0, [rng.randint(1, mat.rank) for _ in range(30)])
        simples.update((f.perm, f) for f in x.factors)
    assert len(simples) ** 2 >= 3 * bound
    _clear_weight_memo(mat)
    sizes = []
    for a in simples.values():
        for b in simples.values():
            group._weight(t, a, b)
            assert len(t.simples) <= 4 * len(t.memo)
            sizes.append(len(t.memo))
    assert max(sizes) == bound
    # filled to the bound and cleared at least twice
    assert sum(m < n for n, m in zip(sizes, sizes[1:])) >= 2


def test_descent_table_fills_on_first_sight(monkeypatch):
    """The descent sets are filled in as they are seen, not built for all
    2^15 subsets of A15's generators up front, and the table is cleared at
    the bound without changing a normal form."""
    mat = coxeter.named_matrix("A15")
    assert len(group._Tables(mat).bits) < 2 ** 8
    t = group._tables(mat)
    rng = random.Random("descent table")
    word = [rng.choice((1, -1)) * rng.randint(1, mat.rank) for _ in range(200)]
    x = from_word(mat, word)
    monkeypatch.setattr(group, "_MEMO_BOUND", 64)
    t.bits.clear()
    _clear_memos(mat)
    assert from_word(mat, word).key() == x.key()
    assert 0 < len(t.bits) <= 64


def test_weight_memo_bounds_its_simples(monkeypatch):
    """The interned simples count against the same bound: pairs that each
    bring new simples clear the memo once the intern map is full, long
    before the memo itself is."""
    monkeypatch.setattr(group, "_MEMO_BOUND", 64)
    mat = coxeter.named_matrix("E8")
    t = group._tables(mat)
    rng = random.Random("weight memo simples")
    simples = {}
    for _ in range(40):
        x = make(mat, 0, [rng.randint(1, mat.rank) for _ in range(40)])
        simples.update((f.perm, f) for f in x.factors)
    simples = list(simples.values())
    assert len(simples) >= 4 * 64
    _clear_weight_memo(mat)
    entries, interned = [], []
    for a, b in zip(simples, simples[1:]):
        group._weight(t, a, b)
        entries.append(len(t.memo))
        interned.append(len(t.simples))
    # a miss adds at most four simples after the check
    assert max(interned) < 64 + 4 and max(entries) < 64
    assert sum(m < n for n, m in zip(entries, entries[1:])) >= 2
    _clear_weight_memo(mat)


PEEL_TYPES = ["A3", "A4", "B3", "D4", "D5", "E6", "F4", "H3", "H4", "E8", "I2(5)"]


def _peel_cores(mat, rng, count, max_len):
    """Positive palindromes Delta^(2N) pal(x): x random signed words, and
    products of tau-fixed Delta_{s, tau(s)} blocks and their inverses, whose
    cores are tau-fixed as well."""
    perm = monoid.compute_tau_perm(mat)
    blocks = [monoid.delta(mat, {s, perm[s - 1]}).letters for s in mat.generators]
    blocks += [tuple(-x for x in reversed(b)) for b in blocks]
    shift = make(mat, 2, ())  # Delta^-4, central
    plain, fixed = [], []
    for _ in range(count):
        n = rng.randint(0, max_len)
        w: list[int] = []
        while len(w) < n:
            w += rng.choice(blocks)
        for out, letters in ((plain, [rng.choice((1, -1)) * rng.randint(1, mat.rank)
                                      for _ in range(n)]), (fixed, w)):
            x = from_word(mat, letters)
            z = mult(x, rev(x))
            while z.inf < 0:
                z = mult(z, inv(shift))
            out.append(z)
    return plain, fixed, perm


@pytest.mark.parametrize("name", PEEL_TYPES)
def test_peel_matches_the_word_peel(name):
    """`peel` on the normal form gives `monoid.peel`'s answer on a word for
    the same palindrome: seeded pal(x) cores untwisted, and tau-fixed
    cores twisted and untwisted."""
    mat = coxeter.named_matrix(name)
    rng = random.Random(f"group peel {name}")
    plain, fixed, _ = _peel_cores(mat, rng, 6, 24)
    runs = [(z, False) for z in plain + fixed] + [(z, True) for z in fixed]
    for z, twisted in runs:
        y, subset = group.peel(z, twisted)
        letters, want = monoid.peel(monoid.word(mat, z.p), twisted)
        assert subset == want and eq(y, make(mat, 0, letters)), (z, twisted)
        assert eq(mult(mult(y, delta_element(mat, subset)), rev(y)), z)
        if twisted:
            assert eq(tau(y), y)


@pytest.mark.parametrize("name", ["A5", "D5", "E6"])
def test_twisted_peel_matches_the_word_peel_on_cores_with_a_middle(name):
    """Twisted, `peel` gives `monoid.peel`'s answer on cores y Delta_I
    rev(y) (times the central Delta^4 until positive), y a product of
    Delta_{s, tau(s)} blocks and their inverses and I a nonempty union of
    tau-orbits.  Such a core is not pure, so no factor round runs: the
    letter rounds, where J = {s, sigma(s)} is cut, do all the peeling."""
    mat = coxeter.named_matrix(name)
    perm = monoid.compute_tau_perm(mat)
    orbits = sorted({tuple(sorted({s, perm[s - 1]})) for s in mat.generators})
    assert any(len(o) == 2 for o in orbits)
    blocks = [monoid.delta(mat, set(o)).letters for o in orbits]
    blocks += [tuple(-x for x in reversed(b)) for b in blocks]
    shift = make(mat, 2, ())  # Delta^-4, central
    rng = random.Random(f"twisted letter rounds {name}")
    for _ in range(12):
        letters: list[int] = []
        for _ in range(rng.randint(0, 8)):
            letters += rng.choice(blocks)
        subset = ()
        while not subset:
            subset = tuple(sorted(s for o in orbits if rng.random() < 0.5 for s in o))
        y = from_word(mat, letters)
        z = mult(mult(y, delta_element(mat, subset)), rev(y))
        while z.inf < 0:
            z = mult(z, inv(shift))
        assert not is_pure(z) and eq(tau(z), z)
        got_y, got = group.peel(z, twisted=True)
        word_y, want = monoid.peel(monoid.word(mat, z.p), twisted=True)
        assert got == want and eq(got_y, make(mat, 0, word_y)), (letters, subset)
        assert eq(mult(mult(got_y, delta_element(mat, got)), rev(got_y)), z)
        assert eq(tau(got_y), got_y)


@pytest.mark.parametrize("name", ["A3", "A4"])
def test_peel_on_every_short_word(name):
    """Every positive word to length 6 that is no palindrome makes `peel`
    raise an ArtinError; every palindrome gets `monoid.peel`'s answer,
    untwisted, and twisted too when it is tau-fixed."""
    mat = coxeter.named_matrix(name)
    raised = answered = 0
    for n in range(7):
        for letters in itertools.product(mat.generators, repeat=n):
            z = make(mat, 0, letters)
            if is_palindrome(z):
                fixed = eq(tau(z), z)
                for twisted in (False, True) if fixed else (False,):
                    y, subset = group.peel(z, twisted)
                    word_y, want = monoid.peel(monoid.word(mat, letters), twisted)
                    assert subset == want and eq(y, make(mat, 0, word_y)), letters
                answered += 1
                continue
            with pytest.raises(ArtinError):
                group.peel(z)
            raised += 1
    assert raised > 800 and answered > 100


def test_peel_errors():
    """As in `monoid.peel`'s test_peel_errors: Delta_J = Delta_{1, 3} does
    not start 1 1, so the left division leaves a negative quotient.  The
    other two are pure palindromes that tau does not fix: the factor rounds
    hand them to the letter rounds, which raise as they do without them.
    The twist is a flag: a permutation of the generators, sigma among them,
    is refused."""
    with pytest.raises(PreconditionError):
        group.peel(from_word(A3, (1, 1)), twisted=True)
    for letters in ((1, 3, 1, 1, 3, 1), (2, 1, 1, 2)):
        z = from_word(A3, letters)
        assert group.is_pure(z) and is_palindrome(z) and not eq(tau(z), z)
        with pytest.raises(PreconditionError):
            group.peel(z, twisted=True)
    for perm in (monoid.compute_tau_perm(A3), (1, 2, 3), 1):
        with pytest.raises(PreconditionError):
            group.peel(from_word(A3, (2,)), perm)


def test_peel_of_delta_squared_c_is_not_delta_times_the_peel_of_tau_c():
    """Delta^(2m) c = Delta^m tau^m(c) Delta^m, but the peel's answer on a
    core that is not pure does not factor through that: on A2 the peel of
    Delta^2 s1 is (s1 s2, {1, 2}), while Delta times the peel of tau(s1) =
    s2 gives (Delta, {2}).  Both spell the element; only the first is the
    peel's deterministic answer, so Delta pairs may not leave a non-pure
    core in one step."""
    d = delta_element(A2)
    s1 = from_word(A2, (1,))
    z = mult(mult(d, d), s1)
    y, subset = group.peel(z)
    assert (to_signed_word(y), subset) == ((1, 2), (1, 2))
    y_tau, subset_tau = group.peel(tau(s1))
    assert (to_signed_word(mult(d, y_tau)), subset_tau) == ((1, 2, 1), (2,))
    for u, i in ((y, subset), (mult(d, y_tau), subset_tau)):
        assert eq(mult(mult(u, delta_element(A2, i)), rev(u)), z)


# recorded when the peel had letter rounds only
PURE_PEEL_DIGEST = "163d3e8aaa946196af9a13c75a61f3657ef6d0849544649cfa2b63aed35d7c38"


def test_peel_on_pure_words_is_pinned():
    """Every pure positive word to length 6 on A3 and A4, with and without
    tau: the answer, or the class of the error, is what it was before the
    factor rounds, also for the non-palindromes and broken tau promises
    that the factor rounds hand to the letter rounds part way."""
    digest = hashlib.sha256()
    for name in ("A3", "A4"):
        mat = coxeter.named_matrix(name)
        perm = monoid.compute_tau_perm(mat)
        for n in range(7):
            for letters in itertools.product(mat.generators, repeat=n):
                z = make(mat, 0, letters)
                if not group.is_pure(z):
                    continue
                for tau_perm in (None, perm):
                    try:
                        y, subset = group.peel(z, tau_perm is not None)
                        out = (y.key(), subset)
                    except ArtinError as e:
                        out = type(e).__name__
                    digest.update(repr((letters, tau_perm, out)).encode())
    assert digest.hexdigest() == PURE_PEEL_DIGEST


# recorded when the peels took the twist as the permutation sigma
TWISTED_PEEL_DIGEST = "59c2d9c4c91736f99545e623f0f1964abe5b111955e17631ca6709ba93d6465d"


def test_twisted_peel_beyond_type_a_is_pinned():
    """Every positive word to length 5 on D5 and E6 and to length 8 on
    I2(5), where tau moves generators, peeled twisted: the answer, or the
    class of the error, is what it was when the twist was passed as sigma;
    on D5 the word peel's answer too."""
    digest = hashlib.sha256()
    for name, max_len in (("D5", 5), ("E6", 5), ("I2(5)", 8)):
        mat = coxeter.named_matrix(name)
        for n in range(max_len + 1):
            for letters in itertools.product(mat.generators, repeat=n):
                try:
                    y, subset = group.peel(make(mat, 0, letters), True)
                    out = (y.key(), subset)
                except ArtinError as e:
                    out = type(e).__name__
                digest.update(repr((name, "group", letters, out)).encode())
                if name == "D5":
                    try:
                        out = monoid.peel(monoid.word(mat, letters), True)
                    except ArtinError as e:
                        out = type(e).__name__
                    digest.update(repr((name, "word", letters, out)).encode())
    assert digest.hexdigest() == TWISTED_PEEL_DIGEST


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "A3", "I2(5)"])
def test_decompositions_let_delta_leave_the_front(name):
    """s y' in the search's combine pass can be Delta-divisible, and
    `_front` then returns the Delta that leaves (A2: 1 times 2 1 is Delta).
    On Delta^k every y that `decompositions` lists is a normal form, equal
    to the one read from a word for it, and spells Delta^k."""
    mat = coxeter.named_matrix(name)
    shifted = 0
    for k in range(1, 5):
        z = GroupElement(mat, k, ())
        found = group.decompositions(z, 10_000)
        assert found
        for y, subset in found:
            assert y.key() == from_word(mat, to_signed_word(y)).key(), (k, y)
            assert eq(mult(mult(y, delta_element(mat, subset)), rev(y)), z)
            shifted += y.inf > 0
    assert shifted


def test_decompositions_count_cores_against_the_budget():
    """The budget caps the distinct cores: Delta^3 of A2 has 12 (the pinned
    budget of its search), so 12 finish and 11 raise."""
    z = GroupElement(A2, 3, ())
    assert len(group.decompositions(z, 12)) == 3
    with pytest.raises(BudgetExceededError):
        group.decompositions(z, 11)


def _clear_memos(mat):
    t = group._tables(mat)
    if t.memo is not None:
        for memo in (t.memo, t.taus, t.simples):
            memo.clear()


# tau is not the identity on any of these; I2(129) holds tuples
@pytest.mark.parametrize("name", ["A4", "D5", "E6", "I2(5)", "I2(129)"])
def test_tau_memo_is_exact(name):
    """tau, inv, mult, rev, from_word and peel give the same keys with the
    memos cleared before each call as with them warm."""
    mat = coxeter.named_matrix(name)
    rng = random.Random(f"tau memo {name}")
    words = [[rng.choice((1, -1, -1)) * rng.randint(1, mat.rank)
              for _ in range(rng.randint(0, 40))] for _ in range(10)]

    def keys(cold):
        out = []

        def call(op, *args):
            if cold:
                _clear_memos(mat)
            y = op(*args)
            out.append(y[0].key() + (y[1],) if isinstance(y, tuple) else y.key())
            return y

        xs = [call(from_word, mat, w) for w in words]
        for x, y in zip(xs, xs[1:]):
            call(tau, x)
            call(mult, call(inv, x), y)
            p = call(mult, x, call(rev, x))
            if p.inf >= 0:
                call(group.peel, p)
        return out

    cold = keys(True)
    assert keys(False) == cold
    taus = group._tables(mat).taus
    assert taus is None if name == "I2(129)" else len(taus) > 0


def test_tau_memo_stays_within_its_bound(monkeypatch):
    """Many more distinct simples than the bound through `_tau`: its memo
    never holds more than the bound, nor the intern map more than the bound
    plus the two simples a miss adds, and both are cleared again and
    again."""
    monkeypatch.setattr(group, "_MEMO_BOUND", 32)
    mat = coxeter.named_matrix("E6")
    t = group._tables(mat)
    rng = random.Random("tau memo bound")
    simples = {}
    for _ in range(30):
        x = make(mat, 0, [rng.randint(1, mat.rank) for _ in range(30)])
        simples.update((f.perm, f) for f in x.factors)
    assert len(simples) >= 4 * 32
    _clear_memos(mat)
    sizes = []
    for a in simples.values():
        assert group._tau(t, group._tau(t, a)) == a
        assert len(t.taus) <= 32 and len(t.simples) <= 32 + 2
        sizes.append(len(t.taus))
    assert sum(m < n for n, m in zip(sizes, sizes[1:])) >= 2
    _clear_memos(mat)
