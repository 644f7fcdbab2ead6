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
factor and restores left-weightedness in one right-to-left pass.  A pair
(a, b) is left-weighted by sliding Delta_M, M = D_L(b) \\ D_R(a), across
its boundary in one step, until M is empty (see `_slide`).  The blocks
compose into one running permutation u, one composition each; the descent
sets of (a u, u^-1 b) are read at u's n simple-root images through a,
b^-1 and a 0/1 sign table of the roots, and the pair and u^-1 are formed
once at the end.  A Delta that a push creates leaves for the front in one
step through tau, a -> w0 a w0: f Delta g = Delta tau(f tau(g)).  Each
caller of `_push` keeps its factors in a tau-frame, Delta^inf
tau^flip(factors), so that Delta twists only the factors behind it and
flips the frame, and the true factors are twisted once at the end
(`_unframe`).
`from_word` reads an inverse letter as the exact right division by a
generator (`_right`), which flips the frame when it makes a Delta^-1.
`rev` pushes the reversed factors and makes no Delta, and `inv` writes the
normal form directly, each complement taken on the side that needs no
twist; a generator's complements are read off a table.  An element holds
only its normal form, and equality compares (inf, factors).

With at most 256 roots a permutation is a 256-byte `bytes`, padded with the
identity past the last root, and f o g is g.translate(f): one C loop per
composition, whatever the rank, and f^-1 is bytes.maketrans(f, identity).
A descent set is the n bytes of 0/1 signs at the simple-root images, one
more translate, looked up in a table of bitmasks filled on first sight
(`_Bits`).  Larger root systems (A16, B12, D12 and I2(129) upwards) keep
tuples composed by `weyl.compose`, and run the same slide on them.

The left-weighted pair depends only on the pair, and operations meet the
same pairs again and again, so `_weight` memoises it per matrix on the
byte path, keyed by the two permutations; `_tau` memoises the tau-image of
a simple the same way, keyed by its permutation.  The memos' simples are
shared through an intern map keyed the same way, and the three are
cleared together when any reaches _MEMO_BOUND, near 8 MB per matrix.
Normal forms do not change, since a hit returns the unique answer a miss
computes.

`peel` finds a witness z = y Delta_I rev(y) for a positive palindrome z by
the deterministic loop of `monoid.peel`, on the normal form instead of on
a word: each round reads S and a finishing set off first factors and
cuts Delta_J off both ends of z by an exact right and left division, which
change only the factors near that end.  A pure z first loses whole
factors, a off the left and rev(a) off the right, one pair per round: it
has one root, so this gives the same answer in a round per factor instead
of one per letter.  The answer spells z because every step is an
equality, so it needs no check afterwards.  `decompositions`
lists every witness with the same two divisions, once per palindrome that
peeling reaches from z.

The attributes k and p give the same element as a fraction: x =
Delta^(-2k) * p with k = 0 or Delta^2 not left-dividing p.  k is the least
exponent with 2k + inf >= 0, and p spells Delta^(2k + inf) followed by the
lexicographically first reduced word of each factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from . import monoid, weyl
from .coxeter import CoxeterMatrix, check_kind, is_finite_type
from .errors import (BudgetExceededError, InfiniteTypeError, InvalidBudgetError,
                     InvalidWordError, NotPalindromeError, PreconditionError)
from .monoid import PositiveWord
from .weyl import compose


class _Simple(NamedTuple):
    """A simple element: root permutation and its inverse (256-byte `bytes`,
    or tuples above 256 roots), the descent sets D_R and D_L as bitmasks
    (bit s-1 for generator s), and its length."""

    perm: bytes | tuple[int, ...]
    inv: bytes | tuple[int, ...]
    right: int
    left: int
    length: int


# entries of `_weight`'s and `_tau`'s memos, and simples they share, per
# matrix; also the bound of the descent-set table of `_Bits`
_MEMO_BOUND = 8192


_DIGITS = bytes.maketrans(b"\0\1", b"01")


class _Bits(dict):
    """Descent sets as bitmasks, keyed by the n bytes of 0/1 signs of the
    simple roots' images: filled on first sight, so it holds only the sets
    that occur (at most 2^n), and cleared at _MEMO_BOUND.  A miss reads the
    signs as binary digits, generator 1 last."""

    __slots__ = ()

    def __missing__(self, key: bytes) -> int:
        if len(self) >= _MEMO_BOUND:
            self.clear()
        self[key] = mask = int(key.translate(_DIGITS)[::-1], 2)
        return mask


def _simple(t: _Tables, perm, inv, length: int) -> _Simple:
    return _Simple(perm, inv, t.mask(perm), t.mask(inv), length)


class _Tables:
    """Per-matrix tables of the normal form."""

    __slots__ = ("degree", "bits", "compose", "inverse", "mask", "masks",
                 "refl", "times", "ident", "top", "delta", "sigma", "twist",
                 "gens", "co", "memo", "taus", "simples")

    def __init__(self, matrix: CoxeterMatrix):
        rep = weyl.build_root_system(matrix)
        n = matrix.rank
        self.degree = rep.degree
        # compose(f, g) = f o g, times[s](f) = f o s_(s+1), inverse(f) =
        # f^-1, mask(f) = D_R(f), the s with f(alpha_s) < 0, and masks(f, g,
        # u) = (D_R(f o u), D_R(g o u)), read at u's simple-root images: neg
        # is the 0/1 sign table of the roots, and bits the descent sets
        self.bits = bits = _Bits()
        if rep.degree <= 256:
            # translate needs 256-byte tables; an identity tail keeps two
            # permutations equal exactly when they move the roots alike,
            # which sigma, eq and the memos' keys compare
            pad = bytes(range(rep.degree, 256))
            self.refl = tuple(bytes(r) + pad for r in rep.simple_reflections)
            self.ident = ident = bytes(range(256))
            neg = bytes(rep.negative) + bytes(len(pad))
            self.compose = lambda f, g: g.translate(f)
            self.inverse = lambda f: bytes.maketrans(f, ident)
            self.mask = lambda f: bits[f[:n].translate(neg)]

            def masks(f, g, u):
                h = u[:n]
                return (bits[h.translate(f).translate(neg)],
                        bits[h.translate(g).translate(neg)])
            self.times = tuple(r.translate for r in self.refl)
            # `_weight`'s and `_tau`'s memos and the simples they share,
            # by perm
            self.memo, self.taus, self.simples = {}, {}, {}
        else:
            self.refl = rep.simple_reflections
            self.ident = rep.identity().perm
            sign = bytes(rep.negative).__getitem__
            self.compose = compose
            self.inverse = lambda f: tuple(sorted(range(len(f)), key=f.__getitem__))
            self.mask = lambda f: bits[bytes(map(sign, f[:n]))]

            def masks(f, g, u):
                h = u[:n]
                return (bits[bytes(map(sign, map(f.__getitem__, h)))],
                        bits[bytes(map(sign, map(g.__getitem__, h)))])
            self.times = tuple(itemgetter(*r) for r in self.refl)
            self.memo = self.taus = self.simples = None
        self.masks = masks
        self.delta = _longest(self, (1 << n) - 1)
        self.top, w0 = self.delta.length, self.delta.perm
        # sigma is tau on the generators, w0 s w0 = s_sigma[s]; tau is the
        # identity exactly when w0 is central
        c = self.compose
        self.sigma = tuple(self.refl.index(c(w0, c(r, w0))) for r in self.refl)
        self.twist = self.sigma != tuple(range(n))
        self.gens = tuple(_Simple(r, r, 1 << s, 1 << s, 1)
                          for s, r in enumerate(self.refl))
        # co[s] = Delta * s_(s+1)^-1, with image w0 s
        self.co = tuple(_simple(self, c(w0, r), c(r, w0), self.top - 1)
                        for r in self.refl)


@lru_cache(maxsize=4096)
def _longest(t: _Tables, mask: int) -> _Simple:
    """Delta_I, the lift of the longest element w0(I), for the generators I
    in mask: append the least s in I that is not yet a right descent until
    all of I are.  w0(I) is an involution with descent sets I on both sides.
    `_slide` asks for the same few subsets again and again, so the answers
    are memoised, at most 4096 of them (least recently used go first)."""
    w, steps = t.ident, 0
    while free := mask & ~t.mask(w):
        w = t.times[(free & -free).bit_length() - 1](w)
        steps += 1
    return _Simple(w, w, mask, mask, steps)


@lru_cache(maxsize=None)
def _tables(matrix: CoxeterMatrix) -> _Tables:
    if not is_finite_type(matrix):
        raise InfiniteTypeError("group elements require a finite-type matrix")
    return _Tables(matrix)


def _room(t: _Tables) -> None:
    """Clear the memos and the simples they share once any reaches
    _MEMO_BOUND; a miss calls this before it adds to them."""
    if max(len(t.memo), len(t.taus), len(t.simples)) >= _MEMO_BOUND:
        t.memo.clear()
        t.taus.clear()
        t.simples.clear()


def _tau(t: _Tables, a: _Simple) -> _Simple:
    """Delta^-1 a Delta, image w0 a w0, memoised per matrix by perm like
    `_weight`'s pairs, with key and value interned."""
    taus = t.taus
    b = None if taus is None else taus.get(a.perm)
    if b is None:
        w0, c = t.delta.perm, t.compose
        b = _simple(t, c(w0, c(a.perm, w0)), c(w0, c(a.inv, w0)), a.length)
        if taus is not None:
            _room(t)
            intern = t.simples.setdefault
            b = intern(b.perm, b)
            taus[intern(a.perm, a).perm] = b
    return b


def _unframe(t: _Tables, factors, flip: int) -> tuple[_Simple, ...]:
    """The factors tau^flip(factors) of a tau-frame, as a tuple."""
    if flip & 1 and t.twist:
        return tuple(_tau(t, f) for f in factors)
    return tuple(factors)


def _complement(t: _Tables, a: _Simple, right: int = 0) -> _Simple:
    """The simple element with a^-1 = Delta^-1 * it, image w0 a^-1; with
    right, the one with a^-1 = it * Delta^-1, image a^-1 w0, which is the
    tau-image of the first.  For a generator s both are read off the
    table: co[s] on the left, co[sigma(s)] on the right, as s w0 =
    w0 sigma(s)."""
    if a.length == 1:
        s = a.left.bit_length() - 1
        return t.co[t.sigma[s] if right else s]
    w0, c = t.delta.perm, t.compose
    if right:
        return _simple(t, c(a.inv, w0), c(w0, a.perm), t.top - a.length)
    return _simple(t, c(w0, a.inv), c(a.perm, w0), t.top - a.length)


def _weight(t: _Tables, a: _Simple, b: _Simple) -> tuple[_Simple, _Simple]:
    """The left-weighted pair with the product ab, memoised per matrix.

    The memo maps (a.perm, b.perm) to the pair that `_slide` computes; a
    miss slides Delta_M blocks on one running permutation, one composition
    per block, with the descent sets read through the sign table.  It
    is exact: the perm determines the simple element, and the left-weighted
    pair is unique, so a hit returns what a miss would compute.  The key's
    perms and the pair are taken from the table's intern map, so a simple
    that recurs is stored once.  An interned simple costs about 0.7 kB (two
    256-byte permutations), an entry about 0.15 kB more.  When this memo,
    `_tau`'s or the map reaches _MEMO_BOUND, all three are cleared
    together (`_room`), which caps them near 8 MB per matrix.  Above 256
    roots there is no memo: a tuple's hash is not cached, so every lookup
    would hash two permutations, and a simple is eight times larger.
    """
    memo = t.memo
    if memo is None:
        return _slide(t, a, b)
    pair = memo.get((a.perm, b.perm))
    if pair is None:
        _room(t)
        intern = t.simples.setdefault
        c, d = _slide(t, a, b)
        pair = intern(c.perm, c), intern(d.perm, d)
        memo[intern(a.perm, a).perm, intern(b.perm, b).perm] = pair
    return pair


def _slide(t: _Tables, a: _Simple, b: _Simple) -> tuple[_Simple, _Simple]:
    """Left-weight the pair (a, b): while M = D_L(b) \\ D_R(a) is not empty,
    slide Delta_M across the boundary, a <- a Delta_M and b <- Delta_M \\ b.

    Both stay simple and the product stays the same (Bjorner and Brenti,
    *Combinatorics of Coxeter Groups*, 2.4): M in D_L(b) makes w0(M) the
    W_M-part of b, so b = w0(M) b' with lengths adding; M disjoint from
    D_R(a) makes a the shortest element of a W_M, so a w0(M) is reduced.
    The loop ends with D_L(b) in D_R(a), and a left-weighted pair is
    unique: its first factor is the left gcd of Delta and ab.

    The blocks run on one permutation, u = Delta_M1 ... Delta_Mk, one
    composition each.  The pair after them is (a u, u^-1 b), and its
    descent sets D_R(a u) and D_L(u^-1 b) = D_R(b^-1 u) are read at u's
    simple-root images, through a and b^-1 and then the sign table
    (`_Tables.masks`): n entries each, where forming a u and b^-1 u would
    cost a whole permutation each.  a u, u^-1 b, their inverses and u^-1
    are formed once, after the last block.
    """
    c, masks = t.compose, t.masks
    u = u_inv = None
    m, right, left = 0, a.right, b.left
    while move := left & ~right:
        d = _longest(t, move)
        # each w0(M) is an involution: its perm is its own inverse, and
        # so is u after one block
        u, u_inv = (d.perm, d.perm) if u is None else (c(u, d.perm), None)
        m += d.length
        right, left = masks(a.perm, b.inv, u)
    if u is None:
        return a, b
    u_inv = u_inv or t.inverse(u)
    a_inv, b_perm = c(u_inv, a.inv), c(u_inv, b.perm)
    return (_Simple(c(a.perm, u), a_inv, right, t.mask(a_inv), a.length + m),
            _Simple(b_perm, c(b.inv, u), t.mask(b_perm), left, b.length - m))


def _push(t: _Tables, factors: list, b: _Simple) -> int:
    """Multiply the left-weighted factors by the simple b on the right, in
    place, and return how many Delta factors left the front (0 or 1); the
    product is then Delta^lead times tau^lead of the factors, for a caller
    that keeps them in a tau-frame.

    By the domino rule one right-to-left pass suffices, and it stops at the
    first pair that is already left-weighted.  A pass that makes a factor
    Delta stops there too, and the Delta leaves for the front at once:
    f Delta g = Delta tau(f) g = Delta tau(f tau(g)), so the factors behind
    it, the short side of the list, become their tau-images.  The pair
    (tau(f), b') that the Delta leaves is already left-weighted, tau keeps
    pairs left-weighted, and one simple factor makes at most one Delta.
    Afterwards factors equal to 1 can only trail, and they go before any
    factor is twisted.
    """
    i = len(factors)
    factors.append(b)
    a = b
    while a.length < t.top and i and factors[i].left & ~factors[i - 1].right:
        a, factors[i] = _weight(t, factors[i - 1], factors[i])
        i -= 1
        factors[i] = a
    lead = int(a.length == t.top)
    if lead:
        del factors[i]
    while factors and not factors[-1].length:
        factors.pop()
    if lead:
        factors[i:] = _unframe(t, factors[i:], 1)
    return lead


def _front(t: _Tables, factors: list, a: _Simple) -> int:
    """Multiply the left-weighted factors by the simple a on the left, in
    place, and return how many Delta factors left the front (0 or 1); the
    product is then Delta^lead times the factors.

    One left-to-right pass: (a, f_1) becomes the left-weighted (c_1, d_1),
    then (d_1, f_2) becomes (c_2, d_2), and so on.  c_1, the left gcd of
    Delta and a f_1, is that of Delta and a x for x = f_1 ... f_r: a simple
    e that left-divides Delta and a x has a simple right lcm a u with a, u
    left-divides x and so f_1, the left gcd of Delta and x, and e left-
    divides a f_1.  So each c_i heads what is left.  Only c_1 can be Delta,
    as a x has at most one more Delta than x, which has none; it leaves
    from the front, where it twists nothing.  The pass stops at a d_i equal
    to 1, or at the first pair (d_i, f_(i+1)) that is already
    left-weighted, behind which nothing changes.
    """
    if not a.length:
        return 0
    factors.insert(0, a)
    i = 0
    while i + 1 < len(factors) and factors[i + 1].left & ~factors[i].right:
        factors[i], factors[i + 1] = _weight(t, factors[i], factors[i + 1])
        i += 1
        if not factors[i].length:
            del factors[i]
            break
    lead = int(factors[0].length == t.top)
    if lead:
        del factors[0]
    return lead


def _twist(t: _Tables, a: _Simple, odd: int) -> _Simple:
    """tau^odd(a)."""
    return _tau(t, a) if odd & 1 and t.twist else a


def _heads(t: _Tables, inf: int, factors, flip: int) -> int:
    """S(Delta^inf tau^flip(factors)) as a bitmask, the s with s^-1 times it
    positive: every generator when inf > 0, none when inf < 0, else the
    left descents of the first factor; D_L(tau(a)) is sigma(D_L(a))."""
    if inf or not factors:
        return t.delta.left if inf > 0 else 0
    return _twist(t, factors[0], flip).left


def _right(t: _Tables, factors: list, d: _Simple, inf: int,
           flip: int) -> tuple[int, int]:
    """The exact quotient z d^-1 of z = Delta^inf tau^flip(factors) by a
    Delta_J, in place, as (inf, flip) of the quotient's tau-frame.

    When Delta_J right-divides the last factor, that factor shrinks, and the
    pair before it stays left-weighted, as its second factor only lost
    right descents.  Otherwise `_divide`.  The quotient is positive when
    inf stays >= 0.
    """
    e, c = _twist(t, d, flip), t.compose
    if factors and not e.left & ~factors[-1].right:
        a = factors.pop()
        if a.length > e.length:
            factors.append(_simple(t, c(a.perm, e.inv), c(e.perm, a.inv),
                                   a.length - e.length))
        return inf, flip
    return _divide(t, factors, d, inf, flip)


def _divide(t: _Tables, factors: list, d: _Simple, inf: int,
            flip: int) -> tuple[int, int]:
    """The exact quotient z d^-1 of z = Delta^inf tau^flip(factors) by any
    simple d, in place, as (inf, flip) of the quotient's tau-frame:
    z d^-1 = z (d^-1 Delta) Delta^-1, with d^-1 Delta = tau(Delta d^-1), so
    one `_push` of the complement, then a step back by Delta that flips the
    frame.  The quotient is positive when inf stays >= 0."""
    lead = _push(t, factors, _complement(t, d, flip ^ 1))
    return inf + lead - 1, flip ^ 1 ^ lead


def _left(t: _Tables, factors: list, d: _Simple, inf: int, flip: int) -> int:
    """The exact quotient d^-1 z of z = Delta^inf tau^flip(factors) by a
    Delta_J, in place, as the quotient's inf; the frame keeps its flip.

    d^-1 Delta^inf = Delta^inf tau^inf(d)^-1, read on the stored factors as
    e^-1 for e = tau^(inf + flip)(d).  When e left-divides the first factor,
    that factor shrinks, and `_front` left-weights the pairs behind it.
    Otherwise e^-1 = Delta^-1 (Delta e^-1), and `_front` puts the complement
    in front.  The quotient is positive when inf stays >= 0.
    """
    e, c = _twist(t, d, inf + flip), t.compose
    if factors and not e.left & ~factors[0].left:
        a = factors.pop(0)
        return inf + _front(t, factors, _simple(t, c(e.inv, a.perm),
                                                c(a.inv, e.perm),
                                                a.length - e.length))
    return inf - 1 + _front(t, factors, _complement(t, d, (inf + flip) & 1))


def _reduced_word(t: _Tables, a: _Simple) -> tuple[int, ...]:
    """The lexicographically first reduced word: peel the least left
    descent each time."""
    inv, left = a.inv, a.left
    out = []
    while left:
        s = (left & -left).bit_length() - 1
        out.append(s + 1)
        inv = t.times[s](inv)
        left = t.mask(inv)
    return tuple(out)


def _factors_word(t: _Tables, factors) -> tuple[int, ...]:
    """The factors' reduced words, concatenated."""
    return tuple(x for a in factors for x in _reduced_word(t, a))


@dataclass(frozen=True)
class GroupElement:
    """Delta^inf * factors in normal form; build through make/from_word, not
    directly, except Delta^m x, which is GroupElement(x.matrix, x.inf + m,
    x.factors)."""

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
        form."""
        t = _tables(self.matrix)
        d = monoid.ambient_delta(self.matrix).letters
        return d * (2 * self.k + self.inf) + _factors_word(t, self.factors)

    def key(self):
        """Hashable complete invariant: inf and the factors, each given by
        the images of the simple roots."""
        n = self.matrix.rank
        return self.inf, tuple(a.perm[:n] for a in self.factors)

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
    """The element Delta^(-2k) * p for a positive word p, normalized: p read
    by `from_word`, and Delta^(-2k), which is central, put in front."""
    check_kind(CoxeterMatrix, matrix)
    _tables(matrix)
    if not isinstance(k, int) or k < 0:
        raise InvalidWordError(f"denominator exponent must be an int >= 0, got {k!r}")
    x = from_word(matrix, matrix.check_word(p, positive=True))
    return GroupElement(matrix, x.inf - 2 * k, x.factors)


def identity(matrix: CoxeterMatrix) -> GroupElement:
    return make(matrix, 0, ())


def from_positive(w: PositiveWord) -> GroupElement:
    check_kind(PositiveWord, w)
    return make(w.matrix, 0, w.letters)


def from_word(matrix: CoxeterMatrix, word) -> GroupElement:
    """Signed word to group element, one letter at a time, with the factors
    in a tau-frame: the stored factors are tau^flip of the true ones.  tau
    is an automorphism that keeps normal forms, so a positive letter s is
    pushed as sigma^flip(s); a Delta that the push makes leaves by twisting
    the factors behind it and flips the frame (`_push`).  An inverse letter
    is the exact right division by s (`_right`): it shrinks the last factor
    when s right-divides it, and otherwise pushes the complement of s and
    flips the frame for the Delta^-1.  The true factors are tau^flip of the
    stored ones at the end.
    """
    check_kind(CoxeterMatrix, matrix)
    t = _tables(matrix)
    sigma, gens = t.sigma, t.gens
    factors: list[_Simple] = []
    inf = flip = 0
    for x in matrix.check_word(word):
        if x < 0:
            inf, flip = _right(t, factors, gens[-x - 1], inf, flip)
        else:
            lead = _push(t, factors, gens[sigma[x - 1] if flip else x - 1])
            inf, flip = inf + lead, flip ^ lead
    return GroupElement(matrix, inf, _unframe(t, factors, flip))


def delta_element(matrix: CoxeterMatrix, subset=None) -> GroupElement:
    """Delta_I for the generators I in subset, Delta when subset is None;
    the empty subset gives the identity."""
    check_kind(CoxeterMatrix, matrix)
    t = _tables(matrix)
    if subset is None:
        return GroupElement(matrix, 1, ())
    mask = sum({1 << (s - 1) for s in matrix.check_word(subset, positive=True)})
    factors: list[_Simple] = []
    inf = _push(t, factors, _longest(t, mask))
    return GroupElement(matrix, inf, tuple(factors))


def _check_same(a: GroupElement, b: GroupElement):
    check_kind(GroupElement, a, b)
    if a.matrix is not b.matrix and a.matrix != b.matrix:
        raise InvalidWordError("operands live over different matrices")


def eq(a: GroupElement, b: GroupElement) -> bool:
    """Equality of normal forms, which are unique."""
    _check_same(a, b)
    return (a.inf, a.factors) == (b.inf, b.factors)


def mult(a: GroupElement, b: GroupElement) -> GroupElement:
    """Delta^p x * Delta^q y = Delta^(p+q) tau^q(x) y.

    The factors live in a tau-frame, as in `from_word`: they start as x,
    with the frame flipped by q, and each factor of y is pushed as its
    image in the frame.  A Delta that a push makes leaves by twisting the
    factors behind it and flips the frame (`_push`), so x is twisted at
    most once, at the end, and not at every Delta.
    """
    _check_same(a, b)
    t = _tables(a.matrix)
    factors = list(a.factors)
    inf, flip, rest = a.inf + b.inf, b.inf & 1, ()
    for j, f in enumerate(b.factors):
        g = _twist(t, f, flip)
        if not (factors and g.left & ~factors[-1].right):
            # the rest of y is left-weighted and holds no 1 and no Delta:
            # it goes after the frame is left
            rest = b.factors[j:]
            break
        lead = _push(t, factors, g)
        inf, flip = inf + lead, flip ^ lead
    return GroupElement(a.matrix, inf, _unframe(t, factors, flip) + rest)


def inv(a: GroupElement) -> GroupElement:
    """x^-1 = a_r^-1 ... a_1^-1 Delta^-p with a^-1 = Delta^-1 (w0 a^-1); the
    complement of a_j passes the j - 1 + p powers of Delta to its right,
    which twist it when odd.  tau(w0 a^-1) = a^-1 w0, the complement on the
    right, so that one is taken instead and no factor is twisted.

    The normal form is Delta^(-p-r) and the complements as they come:
    D_R(w0 b^-1) is the complement of D_L(b), and D_L(w0 a^-1) is sigma of
    the complement of D_R(a), so with the twists of neighbours one apart
    the complements of (a_(j+1), a_j) are left-weighted because (a_j,
    a_(j+1)) is; and no a_j is 1 or Delta, so no complement is either."""
    check_kind(GroupElement, a)
    t, r = _tables(a.matrix), len(a.factors)
    return GroupElement(a.matrix, -a.inf - r, tuple(
        _complement(t, a.factors[j], (j + a.inf) & 1) for j in range(r - 1, -1, -1)))


def rev(a: GroupElement) -> GroupElement:
    """Anti-automorphism: rev(Delta^p a_1 ... a_r) = Delta^p tau^p(rev(a_r)
    ... rev(a_1)), where rev of a simple element has the inverse image.
    The factors live in a tau-frame, as in `mult`: each rev(a_j) is pushed
    (`_push`, which stops at once at a pair that is already left-weighted)
    and the result is twisted by tau^p once at the end.  No push makes a
    Delta, as Delta^k left-divides rev(x) exactly when Delta^k right-divides
    x, and Delta right-divides a_1 ... a_r only if it left-divides it."""
    check_kind(GroupElement, a)
    t = _tables(a.matrix)
    factors: list[_Simple] = []
    for f in reversed(a.factors):
        _push(t, factors, _Simple(f.inv, f.perm, f.left, f.right, f.length))
    return GroupElement(a.matrix, a.inf, _unframe(t, factors, a.inf))


def tau(a: GroupElement) -> GroupElement:
    """Conjugation by Delta, factor by factor."""
    check_kind(GroupElement, a)
    t = _tables(a.matrix)
    if not t.twist:
        return a
    return GroupElement(a.matrix, a.inf, _unframe(t, a.factors, 1))


def is_pure(a: GroupElement) -> bool:
    """True iff the image in the Coxeter group is trivial."""
    return weyl.is_identity(w_image(a))


def is_palindrome(a: GroupElement) -> bool:
    return eq(a, rev(a))


def peel(z: GroupElement, twisted: bool = False
         ) -> tuple[GroupElement, tuple[int, ...]]:
    """(y, I) with z = y Delta_I rev(y), for a positive palindrome z;
    deterministic: the answer of `monoid.peel` on any word for z, with the
    same twisted.

    A pure z (trivial Coxeter image) first goes through factor rounds
    (`_strip`), which cut a whole normal-form factor off each end at a
    time; the letter rounds below finish from the core they leave.

    Letter rounds are the loop of `monoid.peel`, on the normal form.
    S = S(z) is every generator when inf > 0, else the left descents of
    the first factor.  While length(z) > |Delta_S|, take the least s in S
    that finishes the tail Delta_S^-1 z, and cut Delta_J, J = {s}, or
    {s, sigma(s)} when twisted, off both ends of z by one exact right
    division and one exact left division (`_left`), which change only the
    factors near that end.  sigma is the Delta-twist tau on the generators,
    read off the tables; twisted promises tau(z) = z.  s finishes the tail
    exactly when Delta_S left-divides z s^-1, as (Delta_S^-1 z) s^-1 =
    Delta_S^-1 (z s^-1): the test of `monoid.peel`.  So each s in S, in
    ascending order, divides a copy of the factors (`_right`), and the
    first whose quotient starts with all of S is taken; when J = {s} that
    quotient is the right cut, and when |J| = 2 a fresh right division by
    Delta_J is.

    Factor rounds give the letter rounds' answer.  y Delta_I rev(y) has
    Coxeter image w(y) w0(I) w(y)^-1, so a pure palindrome is answered
    with I empty, as pal(y), and palindromization is injective (see
    `palindromes.unpal`): y is its one root.  A factor round writes the
    core c exactly as Delta^m c' Delta^m or as a c' rev(a), a the first
    factor of c, and is kept only when c' is positive; c' is then pure,
    and a palindrome when c is one, by two-sided cancellation.  So
    z = y c rev(y) for the cuts y made so far, and the root of z is y
    times the root of c.  The letter rounds answer every positive
    palindrome (tau-fixed, when twisted), a pure one with its root, so
    they give the same y from z as from c, and so does `monoid.peel`.
    Twisted, the rounds cut only tau-fixed factors (Delta^m is one), so c
    is tau-fixed when z is.  A round hands over to the letter rounds when
    inf = 1, when c' would not be positive, or when tau moves a.

    The factors live in a tau-frame, as in `from_word`: z = Delta^inf
    tau^flip(factors).  The Delta^-1 of a right division flips the frame,
    and a Delta that its push makes leaves by twisting the few factors
    behind it, so a round twists only the factors it changes.  Descent
    sets of the true first and last factors are read off their
    tau-images, as D_L(tau(a)) is sigma(D_L(a)).  y, the product of the
    cuts, is kept in a tau-frame as well and twisted once at the end.

    Every step is an exact quotient, so an answer always spells z; as
    y Delta_I rev(y) is a palindrome, an input that is not one gets none,
    and factor rounds never empty its core.  A round with no s raises
    NotPalindromeError, and a quotient that is not positive
    PreconditionError, as do a z that is not a positive element and a
    twisted that is not a bool.  Untwisted, a letter round on any positive
    core fails only for want of an s; twisted, on a pure palindrome that
    is not tau-fixed, only by a quotient that is not positive; so the
    factor rounds change no error there either.
    """
    check_kind(GroupElement, z)
    check_kind(bool, twisted)
    if z.inf < 0:
        raise PreconditionError("peel needs a positive element")
    mat, t = z.matrix, _tables(z.matrix)
    twisted = twisted and t.twist
    inf, flip, factors, size = z.inf, 0, list(z.factors), length(z)
    # the product of the cuts is Delta^y_inf tau^y_inf(y): a tau-frame
    # whose flip is y_inf's parity, as every push onto it is positive
    y: list[_Simple] = []
    y_inf = 0
    if is_pure(z):
        inf, flip, size, y_inf = _strip(t, factors, inf, flip, size, y, twisted)
    while True:
        s_set = _heads(t, inf, factors, flip)
        d = _longest(t, s_set)
        if d.length == size:
            return (GroupElement(mat, y_inf, _unframe(t, y, y_inf)),
                    _subset(mat, s_set))
        # the least s in S whose quotient z s^-1 Delta_S left-divides
        todo = s_set
        while todo:
            bit = todo & -todo
            rest = factors.copy()
            rest_inf, rest_flip = _right(t, rest, _longest(t, bit), inf, flip)
            if not s_set & ~_heads(t, rest_inf, rest, rest_flip):
                break
            todo ^= bit
        else:
            raise NotPalindromeError("peel needs a palindrome")
        j = bit | 1 << t.sigma[bit.bit_length() - 1] if twisted else bit
        dj = _longest(t, j)
        if j == bit:
            factors, inf, flip = rest, rest_inf, rest_flip
        else:
            inf, flip = _right(t, factors, dj, inf, flip)
        inf = _left(t, factors, dj, inf, flip)
        if inf < 0:
            raise PreconditionError(
                "peel needs a palindrome that Delta_J starts and finishes")
        size -= 2 * dj.length
        y_inf += _push(t, y, _twist(t, dj, y_inf))


def _strip(t: _Tables, factors: list, inf: int, flip: int, size: int,
           y: list, twisted: bool) -> tuple[int, int, int, int]:
    """The factor rounds of `peel` on a pure core Delta^inf
    tau^flip(factors) of the given length: cut the core down in place, push
    the cuts onto y, and return the core's (inf, flip, length) and y's inf.

    Delta^(2m) c = Delta^m tau^m(c) Delta^m, so an inf >= 2 goes in one
    step: y gains Delta^m, which only moves y's frame, and the core's
    frame flips by m.  Then, while inf = 0, the true first factor a leaves
    from the left, which leaves the other factors a normal form, and rev(a)
    from the right by one exact division (`_divide`); the round is kept
    when that quotient is positive.  When twisted, a round stops at an a
    that tau moves, so that every cut is tau-fixed.
    """
    y_inf = 0
    if inf >= 2:
        m = inf // 2
        inf, flip, size, y_inf = inf - 2 * m, flip ^ m & 1, size - 2 * m * t.top, m
    while not inf and factors:
        a = _twist(t, factors[0], flip)
        if twisted and _tau(t, a).perm != a.perm:
            break
        rest = factors[1:]
        r_inf, flip_r = _divide(t, rest, _Simple(a.inv, a.perm, a.left,
                                                 a.right, a.length), 0, flip)
        if r_inf < 0:
            break
        factors[:], flip = rest, flip_r
        size -= 2 * a.length
        y_inf += _push(t, y, _twist(t, a, y_inf))
    return inf, flip, size, y_inf


def _subset(mat: CoxeterMatrix, mask: int) -> tuple[int, ...]:
    """The generators in a bitmask, sorted."""
    return tuple(s + 1 for s in range(mat.rank) if mask >> s & 1)


def decompositions(z: GroupElement, budget: int
                   ) -> tuple[tuple[GroupElement, tuple[int, ...]], ...]:
    """Every (y, I) with z = y Delta_I rev(y) and y positive, for a positive
    palindrome z, each once, in a deterministic order.

    The search runs in two passes over the cores, the positive palindromes
    that peeling reaches from z.  A core's S = S(z) is also its finishing
    set, and each s in S peels it to s^-1 z s^-1 when that is positive.
    - Collect records each distinct core once, keyed by inf and the
      simple-root images of its factors, with its length, S and the cores
      it peels to.  z s^-1 is an exact right division (`_right`) and is
      positive, as s finishes z.  s^-1 z s^-1 is positive exactly when s
      is in S(z s^-1) (`_heads`).  Then it is one exact left division
      (`_left`).
      More than budget cores raise BudgetExceededError.
    - Combine visits the cores shortest first, so that the cores a core
      peels to, two letters shorter, are done before it.  A core lists
      (e, S) when it is Delta_S, which left-divides it, so that equal
      lengths decide; then (s y', I) for each s in order and each (y', I)
      of the core it peels to, each pair once.  The y are kept as (inf,
      factors), compared as such, and s y' = Delta^inf tau^inf(s) y'' is
      one `_front`.  A core's list is dropped once every core that peels
      to it has used it.

    A z that is not a positive palindrome raises PreconditionError or
    NotPalindromeError, and a budget that is not a nonnegative int
    InvalidBudgetError.
    """
    check_kind(GroupElement, z)
    if not isinstance(budget, int) or budget < 0:
        raise InvalidBudgetError(f"budget must be a nonnegative int, got {budget!r}")
    if z.inf < 0:
        raise PreconditionError("decomposition search needs a positive element")
    if not is_palindrome(z):
        raise NotPalindromeError("decomposition search needs a palindrome")
    mat, t = z.matrix, _tables(z.matrix)
    n, gens = mat.rank, t.gens

    # a core's key runs the n simple-root images of its factors together
    join = b"".join if isinstance(t.ident, bytes) else (
        lambda parts: tuple(chain.from_iterable(parts)))
    ids: dict = {}  # core key -> index of its record
    records: list = []  # (length, S, [(s, index of s^-1 z s^-1)])
    todo: list = []

    def visit(inf: int, factors: tuple, size: int) -> int:
        k = inf, join([f.perm[:n] for f in factors])
        i = ids.get(k)
        if i is None:
            if len(ids) >= budget:
                raise BudgetExceededError(
                    f"decomposition search budget exhausted: more than "
                    f"{budget} cores")
            i = ids[k] = len(records)
            records.append(None)
            todo.append((i, inf, factors, size))
        return i

    visit(z.inf, z.factors, length(z))
    while todo:
        i, inf, factors, size = todo.pop()
        s_set, peels = _heads(t, inf, factors, 0), []
        for s in range(n):
            if not s_set >> s & 1:
                continue
            rest = list(factors)
            r_inf, flip = _right(t, rest, gens[s], inf, 0)
            if not _heads(t, r_inf, rest, flip) >> s & 1:
                continue
            r_inf = _left(t, rest, gens[s], r_inf, flip)
            peels.append((s, visit(r_inf, _unframe(t, rest, flip), size - 2)))
        records[i] = size, s_set, peels
    del ids, todo

    uses = [0] * len(records)
    for _, _, peels in records:
        for _, j in peels:
            uses[j] += 1
    lists: dict = {}  # core index -> [(y inf, y factors, I)]
    for i in sorted(range(len(records)), key=lambda i: records[i][0]):
        size, s_set, peels = records[i]
        records[i] = None
        out = [(0, (), s_set)] if size == _longest(t, s_set).length else []
        for s, j in peels:
            for y_inf, y, subset in lists[j]:
                y = list(y)
                y_inf += _front(t, y, _twist(t, gens[s], y_inf))
                out.append((y_inf, tuple(y), subset))
            uses[j] -= 1
            if not uses[j]:
                del lists[j]
        # s y' = t y'' can hold only for s != t; the normal forms are unique,
        # so equal entries are equal pairs, and the dict keeps the first
        lists[i] = list(dict.fromkeys(out)) if len(peels) > 1 else out
    return tuple((GroupElement(mat, y_inf, y), _subset(mat, subset))
                 for y_inf, y, subset in lists[0])


def starting_set(a: GroupElement) -> tuple[int, ...]:
    """The generators s with s^-1 * a positive, sorted: all if Delta divides
    a, none if a is not positive, else the first factor's left descents."""
    check_kind(GroupElement, a)
    return _subset(a.matrix, _heads(_tables(a.matrix), a.inf, a.factors, 0))


def length(a: GroupElement) -> int:
    """The exponent sum, inf * |Delta| plus the factor lengths; for a
    positive element, the length of every positive word for it."""
    check_kind(GroupElement, a)
    return a.inf * _tables(a.matrix).top + sum(f.length for f in a.factors)


def to_signed_word(a: GroupElement) -> tuple[int, ...]:
    """One signed word representing the element: 2k copies of Delta^-1,
    then p."""
    check_kind(GroupElement, a)
    d = monoid.ambient_delta(a.matrix).letters
    dinv = tuple(-x for x in reversed(d))
    return dinv * (2 * a.k) + a.p


def garside_word(a: GroupElement) -> tuple[int, ...]:
    """Delta^inf a_1 ... a_r as a signed word, written from the normal form
    (|inf| copies of Delta or Delta^-1, then each factor's reduced word):
    unlike `to_signed_word`'s Delta^-2k p, no cancelling Delta^-1 Delta
    pair when inf is odd and negative."""
    check_kind(GroupElement, a)
    t = _tables(a.matrix)
    d = monoid.ambient_delta(a.matrix).letters
    head = d if a.inf >= 0 else tuple(-x for x in reversed(d))
    return head * abs(a.inf) + _factors_word(t, a.factors)


def w_image(a: GroupElement) -> weyl.WElement:
    """Image of the element in the Coxeter group: w0^inf times the factors."""
    check_kind(GroupElement, a)
    t = _tables(a.matrix)
    acc = t.delta.perm if a.inf % 2 else t.ident
    for f in a.factors:
        acc = t.compose(acc, f.perm)
    return weyl.WElement(tuple(acc[:t.degree]), ())
