"""The palindrome contract that `decompose` and `unpal` rest on: without
tau, `group.peel` rejects every positive non-palindrome with exactly
NotPalindromeError, so neither needs a palindrome test of its own.  And
the contract of `decompose_rev_tau`, read off its peel's answer: it gives
the outcome of its specification, the palindrome check, then the tau
check, then the peel."""

import collections
import itertools
import random

import pytest

from artinpal import coxeter, group, monoid, palindromes
from artinpal.errors import ArtinError, NotPalindromeError, NotTauInvariantError


@pytest.mark.parametrize("name", ["A3", "A4", "B3"])
def test_peel_rejects_every_short_non_palindrome(name):
    mat = coxeter.named_matrix(name)
    rejected = 0
    for n in range(7):
        for letters in itertools.product(mat.generators, repeat=n):
            z = group.make(mat, 0, letters)
            if group.is_palindrome(z):
                continue
            with pytest.raises(NotPalindromeError) as info:
                group.peel(z)
            assert info.type is NotPalindromeError, letters
            rejected += 1
    assert rejected > 800


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "H3"])
def test_decompose_and_unpal_reject_signed_non_palindromes(name):
    mat = coxeter.named_matrix(name)
    rng = random.Random(25)
    rejected = 0
    while rejected < 40:
        word = tuple(rng.choice((1, -1)) * rng.randint(1, mat.rank)
                     for _ in range(rng.randint(1, 8)))
        x = group.from_word(mat, word)
        if group.is_palindrome(x):
            continue
        for call in (palindromes.decompose, palindromes.unpal):
            with pytest.raises(NotPalindromeError) as info:
                call(x)
            assert info.type is NotPalindromeError, (call.__name__, word)
        rejected += 1


def _rev_tau_spec(x):
    """`decompose_rev_tau` as specified: both checks in front of the peel."""
    if not group.is_palindrome(x):
        raise NotPalindromeError("decompose_rev_tau needs rev(x) = x")
    if not group.eq(group.tau(x), x):
        raise NotTauInvariantError("decompose_rev_tau needs tau(x) = x")
    return palindromes._peel(x, twisted=True)


def _outcome(call, x):
    try:
        d = call(x)
    except ArtinError as e:
        return type(e), str(e)
    return d.y.key(), d.I


def _signed_inputs(mat, rng):
    """Signed words, their palindromizations, y Delta_I rev(y) for any I
    (a palindrome that tau need not fix), and criterion 6's tau-fixed
    shape, y a product of Delta_{s,tau(s)} blocks and I a union of orbits."""
    perm = monoid.compute_tau_perm(mat)
    orbits = sorted({tuple(sorted({s, perm[s - 1]})) for s in mat.generators})
    blocks = [group.to_signed_word(group.delta_element(mat, o)) for o in orbits]
    blocks += [tuple(-a for a in reversed(b)) for b in blocks]
    for _ in range(60):
        x = group.from_word(mat, tuple(rng.choice((1, -1)) * rng.randint(1, mat.rank)
                                       for _ in range(rng.randint(0, 8))))
        yield x
        yield palindromes.pal(x)
        any_i = tuple(s for s in mat.generators if rng.random() < 0.5)
        yield palindromes.reconstruct(palindromes.PalDecomposition(y=x, I=any_i))
        yw = tuple(a for _ in range(rng.randint(0, 4)) for a in rng.choice(blocks))
        stable = tuple(sorted(s for o in orbits if rng.random() < 0.5 for s in o))
        yield palindromes.reconstruct(palindromes.PalDecomposition(
            y=group.from_word(mat, yw), I=stable))


@pytest.mark.parametrize("name", ["A3", "A4", "B3"])
def test_decompose_rev_tau_keeps_the_outcome_of_its_specification(name):
    """Every positive word to length 6 and seeded signed inputs: the same
    answer, or the same error class and message, as the specification.
    Among them are palindromes that tau moves and that the peel answers,
    with tau(I) != I (none on B3, where tau is trivial), so an answer
    returned without the tau(I) = I test would show."""
    mat = coxeter.named_matrix(name)
    inputs = [group.make(mat, 0, letters) for n in range(7)
              for letters in itertools.product(mat.generators, repeat=n)]
    inputs += _signed_inputs(mat, random.Random(f"rev-tau contract {name}"))
    if name == "A3":
        inputs.append(group.from_word(mat, (1, 3, 1, 1, 3, 1)))
    perm = monoid.compute_tau_perm(mat)
    seen = collections.Counter()
    for x in inputs:
        want = _outcome(_rev_tau_spec, x)
        assert _outcome(palindromes.decompose_rev_tau, x) == want, x
        seen[want[0] if isinstance(want[0], type) else "answer"] += 1
        if want[0] is NotTauInvariantError:
            try:
                d = palindromes._peel(x, twisted=True)
            except ArtinError:
                continue
            assert sorted(perm[i - 1] for i in d.I) != list(d.I)
            seen["answered, tau moves I"] += 1
    assert seen["answer"] > 100 and seen[NotPalindromeError] > 500
    if name == "B3":
        assert seen[NotTauInvariantError] == 0
    else:
        assert seen[NotTauInvariantError] > 100 and seen["answered, tau moves I"] > 20
