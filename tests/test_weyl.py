import hashlib
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artinpal import coxeter, group, oracle, weyl
from artinpal.errors import ArtinError, BudgetExceededError, InfiniteTypeError
from artinpal.weyl import (
    WElement,
    ZPhi,
    build_root_system,
    compose,
    enumerate_group,
    image,
    is_identity,
    is_involution,
)

A3 = coxeter.builtin("A", 3)


def test_zphi_arithmetic():
    phi = ZPhi(0, 1)
    assert phi * phi == ZPhi(1, 1)  # phi^2 = phi + 1
    assert ZPhi(2, -1) + ZPhi(1, 3) == ZPhi(3, 2)
    assert ZPhi(1, 1) - 1 == ZPhi(0, 1)
    assert 2 - ZPhi(1, 1) == ZPhi(1, -1)
    assert 3 * phi == ZPhi(0, 3)
    assert -ZPhi(1, -2) == ZPhi(-1, 2)
    assert (phi * phi) * phi == phi * (phi * phi)


@pytest.mark.parametrize(
    "name,order",
    [
        ("A2", 6), ("A3", 24), ("B2", 8), ("B3", 48),
        ("H3", 120), ("I2(5)", 10), ("I2(7)", 14), ("D4", 192), ("F4", 1152),
    ],
)
def test_group_orders(name, order):
    rep = build_root_system(coxeter.named_matrix(name))
    assert len(enumerate_group(rep, 5000)) == order


def test_enumerate_cap():
    rep = build_root_system(A3)
    with pytest.raises(BudgetExceededError):
        enumerate_group(rep, 10)


def test_infinite_type_rejected():
    mixed = coxeter.parse_matrix("rank 3\nm 1 2 3\nm 2 3 4\nm 1 3 inf\n")
    with pytest.raises(InfiniteTypeError):
        build_root_system(mixed)


@pytest.mark.parametrize("name,degree", [("A32", 1056), ("B23", 1058), ("D23", 1012)])
def test_root_systems_past_a_thousand_roots(name, degree):
    assert build_root_system(coxeter.named_matrix(name)).degree == degree


# sha256(repr((roots, simple_reflections, negative)))[:16], recorded from
# the two-pass breadth-first build, whose signs summed the coefficients
@pytest.mark.parametrize("name,digest", [
    ("B4", "9ddc5f5dd31d5a32"), ("D5", "4df850e29c7d5ed0"),
    ("E6", "91503b20df679644"), ("E7", "cb373587a54201d4"),
    ("E8", "3ba95599c3a46af4"), ("F4", "1dbdc9a370571744"),
    ("H3", "ee783c3c86d3d008"), ("H4", "6b42d5736dbb79a3"),
    ("I2(5)", "c724388c932ad4cd"), ("I2(7)", "4b8ebf6ecf0e27fe"),
    ("A16", "722fb51d419ac43f"),
])
def test_root_tables_pinned(name, digest):
    rep = build_root_system(coxeter.named_matrix(name))
    text = repr((rep.roots, rep.simple_reflections, rep.negative))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def _has_negative_coefficient(rep, k) -> bool:
    if rep.roots:
        phi = (1 + 5 ** 0.5) / 2
        return any((c.a + c.b * phi if isinstance(c, ZPhi) else c) < 0
                   for c in rep.roots[k])
    # I2(m) without coordinates: root k lies at the angle
    # _dihedral_angles(m)[k] * pi/m, alpha_1 at 0 and alpha_2 at (m-1)pi/m
    m = rep.degree // 2
    a, b = weyl._dihedral_angles(m)[k] * math.pi / m, (m - 1) * math.pi / m
    c2 = math.sin(a) / math.sin(b)
    return min(math.cos(a) - c2 * math.cos(b), c2) < -1e-9


@pytest.mark.parametrize("name", [
    *(f"A{n}" for n in range(1, 9)), *(f"B{n}" for n in range(2, 9)),
    *(f"D{n}" for n in range(4, 9)), "E6", "E7", "E8", "F4", "H3", "H4",
    "I2(5)", "I2(7)", "I2(12)",
])
def test_root_signs_exact(name):
    rep = build_root_system(coxeter.named_matrix(name))
    assert [_has_negative_coefficient(rep, k) for k in range(rep.degree)] == list(rep.negative)
    assert sum(rep.negative) * 2 == rep.degree
    for i, r in enumerate(rep.simple_reflections):
        assert not rep.negative[i] and rep.negative[r[i]]  # s_i(alpha_i) = -alpha_i


def test_group_over_a32():
    a32 = coxeter.named_matrix("A32")
    assert not group.eq(group.from_word(a32, (1, 2)), group.from_word(a32, (2, 1)))
    assert group.eq(group.from_word(a32, (31, 32, 31)), group.from_word(a32, (32, 31, 32)))


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(7)"])
def test_image_respects_relations(name):
    mat = coxeter.named_matrix(name)
    rep = build_root_system(mat)
    for lhs, rhs in mat.relations():
        assert image(rep, lhs) == image(rep, rhs)
    for s in mat.generators:
        assert is_identity(image(rep, (s, s)))
        assert is_identity(image(rep, (s, -s)))


def test_image_drops_signs():
    rep = build_root_system(A3)
    assert image(rep, (1, -2, 3)) == image(rep, (-1, 2, -3))


@pytest.mark.parametrize("bad", [1.5, 0, 4, -4, "1"])
def test_image_checks_letters(bad):
    with pytest.raises(ArtinError):
        image(build_root_system(A3), (1, bad))


def test_g2_label_6():
    """I2(6) = G2 takes the Cartan label-6 coefficients: 12 roots, |W| = 12
    as the oracle counts it, and group elements that round-trip."""
    mat = coxeter.named_matrix("I2(6)")
    rep = build_root_system(mat)
    assert rep.degree == 12 and sum(rep.negative) == 6
    assert len(enumerate_group(rep, 100)) == 12 == oracle.coxeter_order_oracle(mat)
    rng = random.Random(6)
    e = group.identity(mat)
    for _ in range(20):
        word = [rng.choice((-1, 1)) * rng.randint(1, 2) for _ in range(rng.randint(0, 20))]
        x = group.from_word(mat, word)
        assert group.eq(group.from_word(mat, group.to_signed_word(x)), x)
        assert group.eq(group.mult(x, group.inv(x)), e)
        assert group.eq(group.rev(group.rev(x)), x)
        assert group.w_image(x).perm == image(rep, word).perm


def test_predicates():
    rep = build_root_system(A3)
    e = rep.identity()
    assert is_identity(e) and not is_involution(e)
    s1 = image(rep, (1,))
    assert is_involution(s1) and not is_identity(s1)
    s12 = image(rep, (1, 2))  # order 3
    assert not is_involution(s12) and not is_identity(s12)


def test_witness_words():
    rep = build_root_system(coxeter.builtin("B", 2))
    elts = enumerate_group(rep, 100)
    for g in elts:
        assert image(rep, g.word).perm == g.perm
    # longest element of B2 has length 4
    assert max(len(g.word) for g in elts) == 4
    # words are shortest: BFS layers are length-graded
    lengths = sorted(len(g.word) for g in elts)
    assert lengths == [0, 1, 1, 2, 2, 3, 3, 4]


def test_welement_equality_ignores_word():
    a = WElement((1, 0, 2), word=(1,))
    b = WElement((1, 0, 2), word=(2, 1, 2))
    assert a == b


@given(st.lists(st.integers(1, 3), max_size=8), st.lists(st.integers(1, 3), max_size=8))
def test_image_is_homomorphism(u, v):
    rep = build_root_system(A3)
    assert image(rep, tuple(u) + tuple(v)).perm == compose(
        image(rep, u).perm, image(rep, v).perm
    )
