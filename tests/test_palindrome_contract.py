"""The palindrome contract that `decompose` and `unpal` rest on: without
tau, `group.peel` rejects every positive non-palindrome with exactly
NotPalindromeError, so neither needs a palindrome test of its own."""

import itertools
import random

import pytest

from artinpal import coxeter, group, palindromes
from artinpal.errors import NotPalindromeError


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
