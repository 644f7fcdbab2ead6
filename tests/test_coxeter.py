import itertools
import math

import pytest

from artinpal.coxeter import (
    INF,
    CoxeterMatrix,
    builtin,
    classify,
    format_word,
    is_finite_type,
    named_matrix,
    parse_matrix,
    parse_word,
    serialize_matrix,
    w_word,
)
from artinpal.errors import InvalidMatrixError, InvalidWordError


def test_w_word():
    assert w_word(1, 2, 3) == (1, 2, 1)
    assert w_word(2, 1, 4) == (2, 1, 2, 1)
    # defined for every k >= 0
    assert w_word(1, 2, 0) == ()
    assert w_word(1, 2, 1) == (1,)


def test_builtin_node_conventions():
    b4 = builtin("B", 4)
    assert b4.m(3, 4) == 4 and b4.m(1, 2) == 3 and b4.m(2, 3) == 3
    f4 = builtin("F4")
    assert f4.m(2, 3) == 4 and f4.m(1, 2) == 3 and f4.m(3, 4) == 3
    h3 = builtin("H3")
    assert h3.m(1, 2) == 5 and h3.m(2, 3) == 3
    d5 = builtin("D", 5)
    # fork at n-2: both 4 and 5 attach to 3, and 4, 5 commute
    assert d5.m(3, 4) == 3 and d5.m(3, 5) == 3 and d5.m(4, 5) == 2
    e6 = builtin("E6")
    assert e6.m(1, 3) == 3 and e6.m(2, 4) == 3 and e6.m(3, 4) == 3
    assert e6.m(1, 2) == 2
    i27 = builtin("I2", 7)
    assert i27.m(1, 2) == 7


def test_builtin_rejects():
    with pytest.raises(InvalidMatrixError):
        builtin("A", 0)
    with pytest.raises(InvalidMatrixError):
        builtin("B", 1)
    with pytest.raises(InvalidMatrixError):
        builtin("D", 3)
    with pytest.raises(InvalidMatrixError):
        builtin("I2", 4)
    with pytest.raises(InvalidMatrixError):
        builtin("Q", 3)
    with pytest.raises(InvalidMatrixError):  # names are strings
        builtin(3, 3)
    with pytest.raises(InvalidMatrixError):
        named_matrix(3)


def test_classify_builtins():
    for name, fam, param in [
        ("A1", "A", 1), ("A5", "A", 5), ("B2", "B", 2), ("B6", "B", 6),
        ("D4", "D", 4), ("E6", "E6", None), ("E7", "E7", None),
        ("E8", "E8", None), ("F4", "F4", None), ("H3", "H3", None),
        ("H4", "H4", None), ("I2(5)", "I2", 5),
    ]:
        assert classify(builtin(fam, param)) == [name]


def test_classify_subsets_and_infinite():
    b4 = builtin("B", 4)
    assert classify(b4, (1, 2)) == ["A2"]
    assert classify(b4, (3, 4)) == ["B2"]
    assert classify(b4, (2, 3, 4)) == ["B3"]
    assert classify(b4, (1, 3)) == ["A1", "A1"]
    assert classify(b4, ()) == []
    # affine triangle: all labels 3, not finite
    tri = CoxeterMatrix(3, ((1, 3, 3), (3, 1, 3), (3, 3, 1)))
    assert classify(tri) is None
    assert not is_finite_type(tri)
    inf_m = CoxeterMatrix(2, ((1, INF), (INF, 1)))
    assert classify(inf_m) is None


def test_is_finite_parabolic():
    x = parse_matrix("rank 3\nm 1 2 3\nm 2 3 4\nm 1 3 inf\n")
    assert not is_finite_type(x)
    assert is_finite_type(x, (1, 2))
    assert is_finite_type(x, (2, 3))
    assert not is_finite_type(x, (1, 3))
    assert is_finite_type(x, ())


def test_named_matrix_forms():
    assert named_matrix("A3") == builtin("A", 3)
    assert named_matrix("b2") == builtin("B", 2)
    assert named_matrix("I2(9)") == builtin("I2", 9)
    assert named_matrix("I2.9") == builtin("I2", 9)
    assert named_matrix(" F4 ") == builtin("F4")
    for bad in ("A", "I2", "Z3", "A3(2)", ""):
        with pytest.raises(InvalidMatrixError):
            named_matrix(bad)


def test_named_forms_are_one_shared_object():
    """Each named form is one object, whichever way it is named, so the
    per-matrix caches of every layer find it by identity."""
    a3 = named_matrix("A3")
    assert named_matrix(" a3") is a3 and builtin("A", 3) is a3
    assert builtin(" a ", 3) is a3
    assert named_matrix("I2(7)") is named_matrix("I2:7") is builtin("I2", 7)
    assert builtin("E6", 6) is builtin("E6") is named_matrix("E6")
    assert builtin("F4", 4) is named_matrix("f4")
    assert named_matrix("A4") is not a3 and named_matrix("A4") != a3


def test_equal_matrices_made_apart_hash_and_compare_alike():
    a3 = named_matrix("A3")
    parsed = parse_matrix("rank 3\nm 1 2 3\nm 2 3 3\n")
    assert parsed is not a3 and parsed == a3 and hash(parsed) == hash(a3)
    assert parsed.name is None and a3.name == "A3"
    assert {a3: 1}[parsed] == 1
    built = CoxeterMatrix(3, a3.entries, "mine")
    assert built == a3 and hash(built) == hash(a3) and built.name == "mine"
    assert parse_matrix("rank 3\nm 1 2 4\nm 2 3 3\n") != a3


@pytest.mark.parametrize("args", [
    (3, 3), (None,), (b"A", 3), ("A", "3"), ("A", 3.0), ("A", [3]),
    ("A", 0), ("A", None), ("B", 1), ("D", 3), ("E6", 7), ("F4", 3), ("H3", 4),
    ("I2", 4), ("I2", None), ("Q", 3), ("E9", None), ("A3", None),
    ("A", True), ("A", False)])
def test_builtin_still_rejects_bad_arguments_behind_its_cache(args):
    # twice: an error is never cached as an answer
    for _ in range(2):
        with pytest.raises(InvalidMatrixError):
            builtin(*args)


@pytest.mark.parametrize("name", [3, None, ["A3"], "Z3", "A0", "B1", "D3",
                                  "I2(4)", "E9", "E6(6)", "I3(5)", "A3x"])
def test_named_matrix_still_rejects_bad_names(name):
    for _ in range(2):
        with pytest.raises(InvalidMatrixError):
            named_matrix(name)


def test_parse_serialize_round_trip():
    for mat in (builtin("A", 4), builtin("B", 3), builtin("H3"),
                parse_matrix("rank 3\nm 1 2 3\nm 2 3 4\nm 1 3 inf\n")):
        assert parse_matrix(serialize_matrix(mat)) == mat


def test_parse_matrix_errors():
    with pytest.raises(InvalidMatrixError):
        parse_matrix("m 1 2 3\n")  # rank line must come first
    with pytest.raises(InvalidMatrixError):
        parse_matrix("rank 2\nm 1 2 3\nm 2 1 3\n")  # duplicate pair
    with pytest.raises(InvalidMatrixError):
        parse_matrix("rank 2\nm 1 2 1\n")
    with pytest.raises(InvalidMatrixError):
        parse_matrix("rank 3\nm 1 2 3\n")  # node 3 disconnected
    # an inf entry still counts as an edge for connectivity
    parse_matrix("rank 2\nm 1 2 inf\n")
    parse_matrix("rank 2\n# comment\n\nm 1 2 5\n")


def test_matrix_validation():
    with pytest.raises(InvalidMatrixError):
        CoxeterMatrix(2, ((1, 2), (3, 1)))  # asymmetric
    with pytest.raises(InvalidMatrixError):
        CoxeterMatrix(2, ((2, 3), (3, 1)))  # bad diagonal
    with pytest.raises(InvalidMatrixError):
        CoxeterMatrix(1, ((1, 1),))


def test_check_word():
    a2 = builtin("A", 2)
    assert a2.check_word((1, -2, 1)) == (1, -2, 1)
    with pytest.raises(InvalidWordError):
        a2.check_word((3,))
    with pytest.raises(InvalidWordError):
        a2.check_word((0,))
    with pytest.raises(InvalidWordError):
        a2.check_word((-1,), positive=True)


def test_parse_format_word():
    assert parse_word("e") == ()
    assert parse_word("1 -2  3") == (1, -2, 3)
    assert format_word(()) == "e"
    assert format_word((1, -2)) == "1 -2"
    assert parse_word(format_word((4, -4, 1))) == (4, -4, 1)
    with pytest.raises(InvalidWordError):
        parse_word("0")
    with pytest.raises(InvalidWordError):
        parse_word("1 x")


def test_relations():
    rels = builtin("B", 2).relations()
    assert rels == [((1, 2, 1, 2), (2, 1, 2, 1))]
    x = parse_matrix("rank 3\nm 1 2 3\nm 2 3 4\nm 1 3 inf\n")
    assert len(x.relations()) == 2  # the inf pair contributes none


def _positive_definite(rows) -> bool:
    """Float Cholesky: every pivot above 1e-9."""
    n = len(rows)
    low = [[0.0] * n for _ in range(n)]
    for k in range(n):
        pivot = rows[k][k] - sum(x * x for x in low[k][:k])
        if pivot <= 1e-9:
            return False
        low[k][k] = math.sqrt(pivot)
        for i in range(k + 1, n):
            dot = sum(a * b for a, b in zip(low[i][:k], low[k][:k]))
            low[i][k] = (rows[i][k] - dot) / low[k][k]
    return True


def _cosine_form_definite(mat) -> bool:
    # the diagonal's m = 1 gives -cos(pi) = 1
    return _positive_definite([[-math.cos(math.pi / m) if m != INF else -1.0
                                for m in row] for row in mat.entries])


def test_finite_type_is_a_positive_definite_cosine_form():
    """W is finite iff the form with entries -cos(pi / m_ij) is positive
    definite (Humphreys 1990, section 6.4); checked on every Coxeter
    matrix of rank <= 4 with labels in {2, 3, 4, 5, 6, inf}."""
    labels = (2, 3, 4, 5, 6, INF)
    checked = 0
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for values in itertools.product(labels, repeat=len(pairs)):
            rows = [[1] * n for _ in range(n)]
            for (i, j), m in zip(pairs, values):
                rows[i][j] = rows[j][i] = m
            mat = CoxeterMatrix(n, tuple(map(tuple, rows)))
            assert is_finite_type(mat) == _cosine_form_definite(mat), rows
            checked += 1
    assert checked == 46_879


# Past rank 4, the shapes that rank <= 4 cannot reach: a degree-4 node
# (D~4), a fork with arms other than D and E (E~6, E~7, E~8), an inner
# label 4 (F~4) and a label 5 on a chain longer than H4, beside finite
# neighbours.
LARGER = {
    "D~4": "rank 5\nm 1 3 3\nm 2 3 3\nm 3 4 3\nm 3 5 3\n",
    "E~6": "rank 7\nm 1 2 3\nm 2 3 3\nm 1 4 3\nm 4 5 3\nm 1 6 3\nm 6 7 3\n",
    "E~7": "rank 8\n" + "".join(f"m {i} {i + 1} 3\n" for i in range(1, 7)) + "m 4 8 3\n",
    "E~8": "rank 9\n" + "".join(f"m {i} {i + 1} 3\n" for i in range(1, 8)) + "m 3 9 3\n",
    "F~4": "rank 5\nm 1 2 3\nm 2 3 4\nm 3 4 3\nm 4 5 3\n",
    "5333": "rank 5\nm 1 2 5\nm 2 3 3\nm 3 4 3\nm 4 5 3\n",
    "D5": "rank 5\nm 1 2 3\nm 2 3 3\nm 3 4 3\nm 3 5 3\n",
    "B5": "rank 5\nm 1 2 3\nm 2 3 3\nm 3 4 3\nm 4 5 4\n",
}


@pytest.mark.parametrize("name", [*LARGER, "E6", "E7", "E8", "F4", "H4"])
def test_finite_type_past_rank_4(name):
    mat = parse_matrix(LARGER[name]) if name in LARGER else named_matrix(name)
    assert is_finite_type(mat) == _cosine_form_definite(mat)
    assert is_finite_type(mat) == (name in ("D5", "B5", "E6", "E7", "E8", "F4", "H4"))
