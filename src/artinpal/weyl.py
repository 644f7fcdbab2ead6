"""The finite Coxeter group as permutations of its root system.

Equality of group elements reduces to equality of permutations, which
makes the quotient map from the Artin group exact: no rewriting, no
floating point.  Crystallographic types use integer Cartan coefficients;
types with a label 5 use the quadratic ring Z[phi]; dihedral types with
any other label skip root coordinates and act on the 2m roots labelled by
their angles.  The roots are found in one pass that reflects each root
once by each generator and reads its sign off the simple reflection that
produced it, since s_i permutes the positive roots other than alpha_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter

from .coxeter import CoxeterMatrix, check_kind, is_finite_type
from .errors import BudgetExceededError, InfiniteTypeError, InvalidBudgetError


@dataclass(frozen=True)
class ZPhi:
    """a + b*phi with phi*phi = phi + 1, exact integer arithmetic."""

    a: int
    b: int

    def _coerce(self, other):
        if isinstance(other, ZPhi):
            return other
        if isinstance(other, int):
            return ZPhi(other, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return ZPhi(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return ZPhi(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return ZPhi(self.a * o.a + self.b * o.b,
                    self.a * o.b + self.b * o.a + self.b * o.b)

    __rmul__ = __mul__

    def __neg__(self):
        return ZPhi(-self.a, -self.b)

    def __repr__(self):
        return f"({self.a}+{self.b}phi)"


# Cartan coefficients by label, (c_ij for i < j, c_ij for i > j) as
# a + b phi; label 1 is the diagonal
_CARTAN = {1: ((2, 0),) * 2, 2: ((0, 0),) * 2, 3: ((-1, 0),) * 2,
           4: ((-1, 0), (-2, 0)), 5: ((0, -1),) * 2, 6: ((-1, 0), (-3, 0))}


def _cartan(matrix: CoxeterMatrix, use_phi: bool):
    """c[i][j] with s_i(alpha_j) = alpha_j - c[i][j] * alpha_i, for labels
    1 to 6; `_root_system` sends any other label to the dihedral model.

    Off-diagonal products c_ij * c_ji equal 4cos^2(pi/m): 0, 1, 2, 3 for
    labels 2, 3, 4, 6 (the asymmetric -1/-2 and -1/-3 splits put -1 on the
    lower index; either split generates the same group) and phi + 1 for
    label 5, whose coefficient -phi needs use_phi.
    """
    num = ZPhi if use_phi else lambda a, b: a
    gens = matrix.generators
    return [[num(*_CARTAN[matrix.m(i, j)][i > j]) for j in gens] for i in gens]


@dataclass(frozen=True)
class WElement:
    """A Coxeter group element as a permutation of root (or point) indices.

    word is one witnessing generator word; it never enters equality.
    """

    perm: tuple[int, ...]
    word: tuple[int, ...] = field(default=(), compare=False)

    def __len__(self):
        return len(self.perm)


def compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """(f o g)(x) = f(g(x)) on indices.

    Every permutation here has degree at least 2 (A1 has two roots), so
    itemgetter always returns a tuple.  Unchecked: the group core composes
    through it once per product above 256 roots, and the public calls of
    this module check their arguments before they compose.
    """
    return itemgetter(*g)(f)


@dataclass(frozen=True)
class RootSystemRep:
    """Permutation model of W: roots, one permutation per generator, and
    per root index (the simple roots first) whether the root is negative."""

    matrix: CoxeterMatrix
    roots: tuple[tuple, ...]
    simple_reflections: tuple[tuple[int, ...], ...]
    negative: tuple[bool, ...]

    @property
    def degree(self) -> int:
        return len(self.simple_reflections[0])

    def identity(self) -> WElement:
        return WElement(tuple(range(self.degree)), ())


def _dihedral_angles(m: int) -> list[int]:
    """Angles, in units of pi/m, of the roots of I2(m) by index: alpha_1 at
    0 and alpha_2 at m - 1 come first, the positive roots fill indices
    0..m-1, and index i + m holds the negative of index i."""
    positive = [0, m - 1, *range(1, m - 1)]
    return positive + [a + m for a in positive]


def _dihedral_rep(matrix: CoxeterMatrix, m: int) -> RootSystemRep:
    # s1 reflects the angle j to m - j, s2 to m - 2 - j; s1 s2 rotates by 2
    angles = _dihedral_angles(m)
    at = {a: i for i, a in enumerate(angles)}
    s1 = tuple(at[(m - a) % (2 * m)] for a in angles)
    s2 = tuple(at[(m - 2 - a) % (2 * m)] for a in angles)
    return RootSystemRep(matrix, (), (s1, s2), tuple(i >= m for i in angles))


def build_root_system(matrix: CoxeterMatrix) -> RootSystemRep:
    """Closure of the simple roots under the simple reflections, in one pass.

    Requires finite type, which is also what makes the closure stop.  The
    root list grows while it is walked: root k reflected by s_i changes
    only coordinate i, through the nonzero entries of Cartan row i, and
    the image's index goes into the table of s_i at once, so roots come
    out in breadth-first discovery order.  s_i sends alpha_i to -alpha_i
    and permutes the other positive roots (Humphreys, Reflection Groups
    and Coxeter Groups, 1990, sections 1.4 and 5.4), so a new root
    s_i(root k) is negative exactly when root k is negative or is alpha_i.
    Memoized per matrix.
    """
    check_kind(CoxeterMatrix, matrix)
    return _root_system(matrix)


@lru_cache(maxsize=None)
def _root_system(matrix: CoxeterMatrix) -> RootSystemRep:
    if not is_finite_type(matrix):
        raise InfiniteTypeError("root systems exist only for finite type")
    labels = {
        matrix.m(i, j)
        for i in range(1, matrix.rank + 1)
        for j in range(i + 1, matrix.rank + 1)
    }
    exotic = {m for m in labels if m not in (2, 3, 4, 5, 6)}
    if exotic:
        # finite type forces rank 2 here
        return _dihedral_rep(matrix, int(max(labels)))
    use_phi = 5 in labels
    n = matrix.rank
    zero, one = (ZPhi(0, 0), ZPhi(1, 0)) if use_phi else (0, 1)
    rows = [[(j, c) for j, c in enumerate(row) if c != zero]
            for row in _cartan(matrix, use_phi)]
    # the coordinates are all ints or all ZPhi, so vectors are their own keys
    roots = [(zero,) * i + (one,) + (zero,) * (n - 1 - i) for i in range(n)]
    index = {v: k for k, v in enumerate(roots)}
    negative = [False] * n
    refl = [[] for _ in range(n)]
    for k, v in enumerate(roots):
        for i, row in enumerate(rows):
            w = v[:i] + (v[i] - sum(c * v[j] for j, c in row),) + v[i + 1:]
            j = index.setdefault(w, len(roots))
            if j == len(roots):
                roots.append(w)
                negative.append(negative[k] != (k == i))
            refl[i].append(j)
    return RootSystemRep(matrix, tuple(roots), tuple(map(tuple, refl)),
                         tuple(negative))


def image(rep: RootSystemRep, word) -> WElement:
    """Quotient map: signed word to its Coxeter-group permutation.

    Inverse letters map to the same reflection (reflections are
    involutions), so signs are simply dropped.
    """
    check_kind(RootSystemRep, rep)
    acc = tuple(range(rep.degree))
    for x in rep.matrix.check_word(word):
        acc = compose(acc, rep.simple_reflections[abs(x) - 1])
    return WElement(acc, ())


def is_identity(e: WElement) -> bool:
    check_kind(WElement, e)
    return e.perm == tuple(range(len(e.perm)))


def is_involution(e: WElement) -> bool:
    """Order exactly 2."""
    check_kind(WElement, e)
    return not is_identity(e) and compose(e.perm, e.perm) == tuple(range(len(e.perm)))


def enumerate_group(rep: RootSystemRep, cap: int) -> list[WElement]:
    """All of W by breadth-first closure; each element carries one
    shortest witnessing word.  Raises BudgetExceededError past cap, and
    InvalidBudgetError for a cap that is not an int >= 0."""
    check_kind(RootSystemRep, rep)
    if not isinstance(cap, int) or cap < 0:
        raise InvalidBudgetError(f"cap must be an int >= 0, got {cap!r}")
    ident = rep.identity()
    seen = {ident.perm}
    out = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for i in range(1, rep.matrix.rank + 1):
                p = compose(e.perm, rep.simple_reflections[i - 1])
                if p not in seen:
                    seen.add(p)
                    if len(out) >= cap:
                        raise BudgetExceededError(
                            f"group has more than {cap} elements"
                        )
                    el = WElement(p, e.word + (i,))
                    out.append(el)
                    nxt.append(el)
        frontier = nxt
    return out
