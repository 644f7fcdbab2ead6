"""Bad arguments to public entry points raise an ArtinError subclass: never
a bare TypeError, and never an answer built from them."""

import pytest

from artinpal import coxeter, group, monoid, orderings, palindromes
from artinpal.errors import ArtinError

A3 = coxeter.builtin("A", 3)

CALLS = {
    "make-str-exponent": lambda: group.make(A3, "1", ()),
    "make-float-exponent": lambda: group.make(A3, 1.5, ()),
    "lcm-str-budget": lambda: monoid.right_lcm(
        monoid.word(A3, (1,)), monoid.word(A3, (2,)), budget="x"),
    "typeB-str-rank": lambda: orderings.typeB_order("3"),
    "builtin-str-rank": lambda: coxeter.builtin("A", "3"),
    "builtin-int-family": lambda: coxeter.builtin(3, 3),
    "named-int-name": lambda: coxeter.named_matrix(3),
    "core-search-str-budget": lambda: palindromes.core_decompositions(
        group.identity(A3), budget="x"),
    "lift-int-target": lambda: palindromes.involution_lift(A3, 5),
    "delta-int-subset": lambda: group.delta_element(A3, 5),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=list(CALLS))
def test_bad_arguments_raise_artin_errors(call):
    with pytest.raises(ArtinError):
        call()
