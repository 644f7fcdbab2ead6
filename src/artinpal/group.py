"""Artin group elements for finite type, on the left-greedy Garside normal form.

Every element is uniquely Delta^inf * a_1 ... a_r, where the a_i are simple
elements other than 1 and Delta and each pair (a_i, a_(i+1)) is
left-weighted: every generator that left-divides a_(i+1) already
right-divides a_i (Thurston's normal form, Epstein et al., *Word Processing
in Groups*, ch. 9; Charney, Math. Ann. 292 (1992) for every finite type).

A simple element is the positive lift of a Coxeter-group element, stored as
the permutation by which that element moves the roots, so its descent sets
are read off root signs: D_R(a) = {s : a(alpha_s) < 0} and
D_L(a) = {s : a^-1(alpha_s) < 0}.  Multiplying on the right appends a
factor and restores left-weightedness in one right-to-left pass, sliding
each generator of D_L(b) \\ D_R(a) across the boundary of a pair (a, b).
Delta^-1 moves to the front by tau, a -> w0 a w0, and an inverse letter is
s^-1 = Delta^-1 * (w0 s).  Equality compares (inf, factors).

The attributes k and p give the same element as a fraction: x =
Delta^(-2k) * p with k = 0 or Delta^2 not left-dividing p.  k is the least
exponent with 2k + inf >= 0, and p spells Delta^(2k + inf) followed by the
lexicographically first reduced word of each factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import getitem, itemgetter
from typing import NamedTuple

from . import monoid, weyl
from .coxeter import CoxeterMatrix, is_finite_type
from .errors import InfiniteTypeError, InvalidWordError
from .monoid import PositiveWord
from .weyl import compose


class _Simple(NamedTuple):
    """A simple element: root permutation and its inverse, the descent sets
    D_R and D_L as bitmasks (bit s-1 for generator s), and its length."""

    perm: tuple[int, ...]
    inv: tuple[int, ...]
    right: int
    left: int
    length: int


def _mask(signs, perm) -> int:
    """Bitmask of the generators s with perm(alpha_s) < 0."""
    return sum(map(getitem, signs, perm))


def _simple(t: _Tables, perm, inv, length: int) -> _Simple:
    return _Simple(perm, inv, _mask(t.signs, perm), _mask(t.signs, inv), length)


class _Tables:
    """Per-matrix tables of the normal form."""

    __slots__ = ("signs", "refl", "times", "top", "delta", "twist", "gens", "co")

    def __init__(self, matrix: CoxeterMatrix):
        rep = weyl.build_root_system(matrix)
        n = matrix.rank
        negative = weyl._negative_roots(rep)
        # signs[s][j] is bit s if root j is negative
        self.signs = tuple(tuple(1 << s if x else 0 for x in negative)
                           for s in range(n))
        self.refl = rep.simple_reflections
        # times[s](f) = f o s_(s+1)
        self.times = tuple(itemgetter(*r) for r in self.refl)
        # w0 is the element whose right descent set is everything
        full = (1 << n) - 1
        w0 = rep.identity().perm
        while (m := _mask(self.signs, w0)) != full:
            w0 = self.times[((m + 1) & ~m).bit_length() - 1](w0)
        self.top = rep.degree // 2  # the length of Delta
        self.delta = _Simple(w0, w0, full, full, self.top)
        # tau is the identity exactly when w0 is central
        self.twist = any(compose(w0, compose(r, w0)) != r for r in self.refl)
        self.gens = tuple(_Simple(r, r, 1 << s, 1 << s, 1)
                          for s, r in enumerate(self.refl))
        # co[s] = Delta * s_(s+1)^-1, with image w0 s
        self.co = tuple(_simple(self, compose(w0, r), compose(r, w0), self.top - 1)
                        for r in self.refl)


@lru_cache(maxsize=None)
def _tables(matrix: CoxeterMatrix) -> _Tables:
    if not is_finite_type(matrix):
        raise InfiniteTypeError("group elements require a finite-type matrix")
    return _Tables(matrix)


def _tau(t: _Tables, a: _Simple) -> _Simple:
    """Delta^-1 a Delta, image w0 a w0."""
    w0 = t.delta.perm
    return _simple(t, compose(w0, compose(a.perm, w0)),
                   compose(w0, compose(a.inv, w0)), a.length)


def _complement(t: _Tables, a: _Simple) -> _Simple:
    """The simple element with a^-1 = Delta^-1 * it, image w0 a^-1."""
    w0 = t.delta.perm
    return _simple(t, compose(w0, a.inv), compose(a.perm, w0), t.top - a.length)


def _weight(t: _Tables, a: _Simple, b: _Simple) -> tuple[_Simple, _Simple]:
    """Left-weight the pair (a, b): while some generator left-divides b but
    does not right-divide a, slide it across the boundary."""
    times, signs = t.times, t.signs
    perm, binv = a.perm, b.inv
    moved = []
    move = b.left & ~a.right
    while move:
        s = (move & -move).bit_length() - 1
        perm, binv = times[s](perm), times[s](binv)
        moved.append(s)
        move = _mask(signs, binv) & ~_mask(signs, perm)
    # the slid word u = s_1 ... s_m; u^-1 = s_m ... s_1 updates the rest
    u_inv = t.refl[moved[-1]]
    for s in reversed(moved[:-1]):
        u_inv = times[s](u_inv)
    m = len(moved)
    return (_simple(t, perm, compose(u_inv, a.inv), a.length + m),
            _simple(t, compose(u_inv, b.perm), binv, b.length - m))


def _push(t: _Tables, factors: list, b: _Simple) -> int:
    """Multiply the left-weighted factors by the simple b on the right, in
    place, and return how many Delta factors left the front.

    By the domino rule one right-to-left pass suffices, and it stops at the
    first pair that is already left-weighted.  Afterwards factors equal to
    Delta can only lead and factors equal to 1 can only trail.
    """
    factors.append(b)
    i = len(factors) - 1
    while i and factors[i].left & ~factors[i - 1].right:
        factors[i - 1], factors[i] = _weight(t, factors[i - 1], factors[i])
        i -= 1
    while factors and not factors[-1].length:
        factors.pop()
    lead = 0
    while lead < len(factors) and factors[lead].length == t.top:
        lead += 1
    del factors[:lead]
    return lead


def _reduced_word(t: _Tables, a: _Simple) -> tuple[int, ...]:
    """The lexicographically first reduced word: peel the least left
    descent each time."""
    inv, left = a.inv, a.left
    out = []
    while left:
        s = (left & -left).bit_length() - 1
        out.append(s + 1)
        inv = t.times[s](inv)
        left = _mask(t.signs, inv)
    return tuple(out)


@dataclass(frozen=True)
class GroupElement:
    """Delta^inf * factors in normal form; build through make/from_word, not
    directly."""

    matrix: CoxeterMatrix
    inf: int
    factors: tuple[_Simple, ...]

    @property
    def k(self) -> int:
        """Least exponent with x = Delta^(-2k) * (a positive word)."""
        return max(0, (1 - self.inf) // 2)

    @property
    def p(self) -> tuple[int, ...]:
        """The positive word with x = Delta^(-2k) * p, read off the normal
        form and cached."""
        cached = getattr(self, "_p", None)
        if cached is None:
            t = _tables(self.matrix)
            d = monoid.ambient_delta(self.matrix).letters
            cached = d * (2 * self.k + self.inf) + tuple(
                x for a in self.factors for x in _reduced_word(t, a))
            object.__setattr__(self, "_p", cached)
        return cached

    def key(self):
        """Hashable complete invariant: inf and the factors, each given by
        the images of the simple roots."""
        cached = getattr(self, "_key", None)
        if cached is None:
            n = self.matrix.rank
            cached = (self.inf, tuple(a.perm[:n] for a in self.factors))
            object.__setattr__(self, "_key", cached)
        return cached

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return eq(self, other)

    def __hash__(self):
        return hash(self.key())

    def __mul__(self, other):
        return mult(self, other)

    def __repr__(self):
        w = to_signed_word(self)
        body = " ".join(str(x) for x in w) if w else "e"
        return f"[{body}]"


def make(matrix: CoxeterMatrix, k: int, p) -> GroupElement:
    """The element Delta^(-2k) * p for a positive word p, normalized."""
    t = _tables(matrix)
    if k < 0:
        raise InvalidWordError("denominator exponent must be >= 0")
    factors: list[_Simple] = []
    inf = -2 * k
    for s in matrix.check_word(p, positive=True):
        inf += _push(t, factors, t.gens[s - 1])
    return GroupElement(matrix, inf, tuple(factors))


def identity(matrix: CoxeterMatrix) -> GroupElement:
    return make(matrix, 0, ())


def from_positive(w: PositiveWord) -> GroupElement:
    return make(w.matrix, 0, w.letters)


def from_word(matrix: CoxeterMatrix, word) -> GroupElement:
    """Signed word to group element, one letter at a time.

    An inverse letter s^-1 whose s right-divides the last factor removes it
    there, which keeps the factors left-weighted.  Otherwise it becomes
    Delta^-1 * (w0 s), and the Delta^-1 moves to the front through tau.
    """
    t = _tables(matrix)
    factors: list[_Simple] = []
    inf = 0
    for x in matrix.check_word(word):
        s = abs(x) - 1
        if x > 0:
            inf += _push(t, factors, t.gens[s])
        elif factors and factors[-1].right >> s & 1:
            a = factors.pop()
            if a.length > 1:
                factors.append(_simple(t, t.times[s](a.perm),
                                       compose(t.refl[s], a.inv), a.length - 1))
        else:
            inf -= 1
            if t.twist:
                factors = [_tau(t, a) for a in factors]
            inf += _push(t, factors, t.co[s])
    return GroupElement(matrix, inf, tuple(factors))


def delta_element(matrix: CoxeterMatrix) -> GroupElement:
    _tables(matrix)  # rejects infinite type
    return GroupElement(matrix, 1, ())


def _check_same(a: GroupElement, b: GroupElement):
    if a.matrix != b.matrix:
        raise InvalidWordError("operands live over different matrices")


def eq(a: GroupElement, b: GroupElement) -> bool:
    """Equality of normal forms, which are unique."""
    _check_same(a, b)
    return a.key() == b.key()


def mult(a: GroupElement, b: GroupElement) -> GroupElement:
    """Delta^p x * Delta^q y = Delta^(p+q) tau^q(x) y: shift a's factors
    past Delta^q, then append b's."""
    _check_same(a, b)
    t = _tables(a.matrix)
    factors = list(a.factors)
    if b.inf % 2 and t.twist:
        factors = [_tau(t, f) for f in factors]
    inf = a.inf + b.inf
    for f in b.factors:
        inf += _push(t, factors, f)
    return GroupElement(a.matrix, inf, tuple(factors))


def inv(a: GroupElement) -> GroupElement:
    """x^-1 = a_r^-1 ... a_1^-1 Delta^-p with a^-1 = Delta^-1 (w0 a^-1); the
    complement of a_j passes the j - 1 + p powers of Delta to its right."""
    t = _tables(a.matrix)
    r = len(a.factors)
    factors: list[_Simple] = []
    inf = -a.inf - r
    for j in range(r, 0, -1):
        c = _complement(t, a.factors[j - 1])
        if t.twist and (j - 1 + a.inf) % 2:
            c = _tau(t, c)
        inf += _push(t, factors, c)
    return GroupElement(a.matrix, inf, tuple(factors))


def rev(a: GroupElement) -> GroupElement:
    """Anti-automorphism: rev(Delta^p a_1 ... a_r) = Delta^p tau^p(rev(a_r)
    ... rev(a_1)), where rev of a simple element has the inverse image."""
    t = _tables(a.matrix)
    factors: list[_Simple] = []
    inf = a.inf
    for f in reversed(a.factors):
        g = _Simple(f.inv, f.perm, f.left, f.right, f.length)
        if t.twist and a.inf % 2:
            g = _tau(t, g)
        inf += _push(t, factors, g)
    return GroupElement(a.matrix, inf, tuple(factors))


def tau(a: GroupElement) -> GroupElement:
    """Conjugation by Delta, factor by factor."""
    t = _tables(a.matrix)
    if not t.twist:
        return a
    return GroupElement(a.matrix, a.inf, tuple(_tau(t, f) for f in a.factors))


def is_pure(a: GroupElement) -> bool:
    """True iff the image in the Coxeter group is trivial."""
    return weyl.is_identity(w_image(a))


def is_palindrome(a: GroupElement) -> bool:
    return eq(a, rev(a))


def to_signed_word(a: GroupElement) -> tuple[int, ...]:
    """One signed word representing the element: 2k copies of Delta^-1,
    then p."""
    d = monoid.ambient_delta(a.matrix).letters
    dinv = tuple(-x for x in reversed(d))
    return dinv * (2 * a.k) + a.p


def w_image(a: GroupElement) -> weyl.WElement:
    """Image of the element in the Coxeter group: w0^inf times the factors."""
    t = _tables(a.matrix)
    acc = t.delta.perm if a.inf % 2 else tuple(range(len(t.delta.perm)))
    for f in a.factors:
        acc = compose(acc, f.perm)
    return weyl.WElement(acc, ())
