"""Bad arguments to public entry points raise an ArtinError subclass: never
a bare TypeError, and never an answer built from them."""

import ast
import inspect
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinpal import coxeter, group, monoid, oracle, orderings, palindromes, weyl
from artinpal.errors import ArtinError

A3 = coxeter.builtin("A", 3)
X = group.from_word(A3, (1, -2))
P = oracle.presentation_from_matrix(A3)

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
    "mult-int-operand": lambda: group.mult(X, 3),
    "eq-none-operand": lambda: group.eq(X, None),
    "inv-int": lambda: group.inv(3),
    "rev-str": lambda: group.rev("a"),
    "tau-none": lambda: group.tau(None),
    "starting-set-int": lambda: group.starting_set(5),
    "length-int": lambda: group.length(5),
    "w-image-int": lambda: group.w_image(5),
    "is-pure-int": lambda: group.is_pure(5),
    "is-palindrome-int": lambda: group.is_palindrome(5),
    "garside-word-int": lambda: group.garside_word(5),
    "signed-word-int": lambda: group.to_signed_word(5),
    "from-positive-tuple": lambda: group.from_positive((1,)),
    "from-word-none-matrix": lambda: group.from_word(None, (1,)),
    "identity-none-matrix": lambda: group.identity(None),
    "handles-float-letter": lambda: oracle.reduce_handles((1.5,)),
    "handles-zero-letter": lambda: oracle.reduce_handles((0,)),
    "handles-str-letter": lambda: oracle.reduce_handles(("a",)),
    "handles-str-cap": lambda: oracle.reduce_handles((1, -1), cap="x"),
    "class-str-cap": lambda: oracle.class_of(P, (1, 2), class_cap="x"),
    "magnus-str-rank": lambda: orderings.magnus_sign((1,), "3"),
    "magnus-order-str-rank": lambda: orderings.magnus_order("x"),
    "dynnikov-str-coords": lambda: orderings.dynnikov_action((1,), "0101"),
    "peel-list": lambda: monoid.peel([1, 1]),
    "group-peel-none": lambda: group.peel(None),
    "group-peel-int": lambda: group.peel(5),
    "group-peel-negative": lambda: group.peel(group.from_word(A3, (-1,))),
    "group-peel-bad-tau": lambda: group.peel(group.from_word(A3, (2,)), (1, 1, 3)),
    "group-decompositions-none": lambda: group.decompositions(None, 10),
    "group-decompositions-str-budget": lambda: group.decompositions(
        group.from_word(A3, (2,)), "x"),
    "group-decompositions-negative": lambda: group.decompositions(
        group.from_word(A3, (-2,)), 10),
    "group-decompositions-non-palindrome": lambda: group.decompositions(
        group.from_word(A3, (1, 2)), 10),
    "word-none-letters": lambda: monoid.word(A3, None),
    "word-none-matrix": lambda: monoid.word(None, (1,)),
    "monoid-rev-int": lambda: monoid.rev(5),
    "left-extract-none": lambda: monoid.left_extract(None, 1),
    "monoid-starting-set-int": lambda: monoid.starting_set(5),
    "finishing-set-int": lambda: monoid.finishing_set(5),
    "normal-form-str": lambda: monoid.normal_form("ab"),
    "divides-left-none": lambda: monoid.divides_left(None, None),
    "equals-none": lambda: monoid.equals(None, None),
    "right-lcm-none": lambda: monoid.right_lcm(None, None),
    "monoid-delta-none-matrix": lambda: monoid.delta(None, (1,)),
    "ambient-delta-none": lambda: monoid.ambient_delta(None),
    "tau-perm-none": lambda: monoid.compute_tau_perm(None),
    "tau-perm-list": lambda: monoid.compute_tau_perm([1]),
    "root-system-none": lambda: weyl.build_root_system(None),
    "root-system-list": lambda: weyl.build_root_system([1]),
    "image-none-rep": lambda: weyl.image(None, (1,)),
    "enumerate-str-cap": lambda: weyl.enumerate_group(weyl.build_root_system(A3), "x"),
    "enumerate-none-rep": lambda: weyl.enumerate_group(None, 10),
    "parse-matrix-none": lambda: coxeter.parse_matrix(None),
    "order-for-none-matrix": lambda: orderings.order_for_matrix(None),
    "dehornoy-order-none-matrix": lambda: orderings.dehornoy_order(None),
    "typeB-embed-str-rank": lambda: orderings.typeB_embed((1,), "3"),
    "reconstruct-int": lambda: palindromes.reconstruct(5),
    "check-singleton-int": lambda: palindromes.check_singleton(5),
    "tau-symmetrize-int": lambda: palindromes.tau_symmetrize(5),
    "lift-none-matrix": lambda: palindromes.involution_lift(None, ()),
    "canonical-none-order": lambda: palindromes.canonical_decompose(
        group.from_word(A3, (2,)), None),
    "delta-associated-none": lambda: palindromes.delta_associated(None),
    "parse-word-none": lambda: coxeter.parse_word(None),
    "is-finite-type-none": lambda: coxeter.is_finite_type(None),
    "classify-none": lambda: coxeter.classify(None),
    "serialize-matrix-none": lambda: coxeter.serialize_matrix(None),
    "format-word-none": lambda: coxeter.format_word(None),
    "letters-none": lambda: coxeter.letters(None),
    "format-word-str": lambda: coxeter.format_word("ab"),
    "w-word-none": lambda: coxeter.w_word(None, None, None),
    "is-identity-none": lambda: weyl.is_identity(None),
    "is-involution-none": lambda: weyl.is_involution(None),
    "dehornoy-sign-none-word": lambda: orderings.dehornoy_sign(None, 5),
    "magnus-sign-none-word": lambda: orderings.magnus_sign(None),
    "free-reduce-none": lambda: orderings.free_reduce(None),
    "typeB-embed-none-word": lambda: orderings.typeB_embed(None, 5),
    "dehornoy-compare-none": lambda: orderings.dehornoy_compare(None, None),
    "sppc-check-none": lambda: orderings.sppc_check(None, None, None),
    "sppc-check-none-sampler": lambda: orderings.sppc_check(
        orderings.magnus_order(), lambda w: w, None),
    "presentation-none-matrix": lambda: oracle.presentation_from_matrix(None),
    "class-of-none": lambda: oracle.class_of(None, (1,)),
    "class-of-list-bad-letter": lambda: oracle.class_of(P, [1, 0]),
    "handles-none-word": lambda: oracle.reduce_handles(None),
    "parse-presentation-none": lambda: oracle.parse_presentation(None),
    "enumerate-classes-none": lambda: oracle.enumerate_classes(None, 5),
    "artin-deltas-none": lambda: oracle.artin_deltas(None),
    "coxeter-order-none": lambda: oracle.coxeter_order_oracle(None),
    "equals-oracle-none": lambda: oracle.equals_oracle(None, (1,), (1,)),
    "divides-oracle-none": lambda: oracle.divides_left_oracle(None, (1,), (1,)),
    "square-free-none": lambda: oracle.square_free_oracle(None, (1,)),
    "pal-decompositions-none": lambda: oracle.all_pal_decompositions(None, (1,), {}),
    "decompose-int": lambda: palindromes.decompose(5),
    "decompose-rev-tau-int": lambda: palindromes.decompose_rev_tau(5),
    "pal-int": lambda: palindromes.pal(5),
    "unpal-int": lambda: palindromes.unpal(5),
    "exponent-sums-none": lambda: orderings.exponent_sums(None),
    "exponent-sums-float-letter": lambda: orderings.exponent_sums((1.5,)),
    "free-reduce-str": lambda: orderings.free_reduce("ab"),
    "free-reduce-float-letter": lambda: orderings.free_reduce((1.5,)),
    "magnus-image-none-degree": lambda: orderings.magnus_image((1, 2), None),
    "magnus-image-negative-degree": lambda: orderings.magnus_image((1, 2), -1),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=list(CALLS))
def test_bad_arguments_raise_artin_errors(call):
    with pytest.raises(ArtinError):
        call()


# the checker itself, and the unchecked composition the group core calls
# once per product, as their docstrings say
UNCHECKED = {("coxeter", "check_kind"), ("weyl", "compose")}


def _public_functions():
    """The public functions of the library modules but UNCHECKED."""
    return [f for mod in (coxeter, group, monoid, oracle, orderings, palindromes, weyl)
            for name, f in vars(mod).items()
            if inspect.isfunction(f) and f.__module__ == mod.__name__
            and not name.startswith("_")
            and (mod.__name__.rsplit(".", 1)[1], name) not in UNCHECKED]


def test_calls_cover_every_public_function():
    """Each public function of the library modules is the outermost call of
    some entry of CALLS, read off this file's source."""
    tree = ast.parse(pathlib.Path(__file__).read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "CALLS")
    listed = {(v.body.func.value.id, v.body.func.attr) for v in table.values}
    missing = [(f.__module__, f.__name__) for f in _public_functions()
               if (f.__module__.rsplit(".", 1)[1], f.__name__) not in listed]
    assert not missing


# arguments of the right kind somewhere, kept small so that no call that
# gets through its checks runs long
GOOD = [A3, X, group.from_word(A3, (1, 2, 1)), (1, -2), (1, 2), 2, "1 2", P,
        monoid.word(A3, (1, 2)), weyl.build_root_system(A3),
        palindromes.PalDecomposition(y=X, I=(1,)), orderings.dehornoy_order(A3)]
BAD = st.one_of(
    st.none(), st.floats(), st.complex_numbers(), st.text(max_size=4),
    st.binary(max_size=4), st.just(object()), st.just({}),
    st.lists(st.one_of(st.none(), st.floats(), st.text(max_size=2),
                       st.integers(-300, 300)), max_size=3),
    st.lists(st.one_of(st.none(), st.floats(), st.integers(-300, 300)),
             max_size=3).map(tuple))


@pytest.mark.parametrize("f", _public_functions(),
                         ids=lambda f: f"{f.__module__.rsplit('.', 1)[1]}.{f.__name__}")
@settings(max_examples=25, derandomize=True)
@given(data=st.data())
def test_drawn_bad_arguments_raise_artin_errors_or_answer(f, data):
    """Every public function, called with drawn arguments at least one of
    which is ill-typed, raises an ArtinError or answers."""
    params = list(inspect.signature(f).parameters.values())
    required = sum(p.default is inspect.Parameter.empty for p in params)
    count = data.draw(st.integers(max(required, 1), len(params)), label="count")
    bad = data.draw(st.integers(0, count - 1), label="bad")
    args = [data.draw(BAD if i == bad else st.one_of(st.sampled_from(GOOD), BAD),
                      label=params[i].name) for i in range(count)]
    try:
        f(*args)
    except ArtinError:
        pass
