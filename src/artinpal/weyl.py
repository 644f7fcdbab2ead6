"""The finite Coxeter group as permutations of its root system.

Equality of group elements reduces to equality of permutations, which
makes the quotient map from the Artin group exact: no rewriting, no
floating point.  Crystallographic types use integer Cartan coefficients;
types with a label 5 use the quadratic ring Z[phi]; dihedral types with
any other label skip root coordinates and act on the 2m roots labelled by
their angles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter

from .coxeter import INF, CoxeterMatrix, is_finite_type
from .errors import BudgetExceededError, InfiniteTypeError, InvalidWordError


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


def _cartan(matrix: CoxeterMatrix, use_phi: bool):
    """c[i][j] with s_i(alpha_j) = alpha_j - c[i][j] * alpha_i.

    Off-diagonal products c_ij * c_ji equal 4cos^2(pi/m): 0, 1, 2, 3 for
    labels 2, 3, 4, 6 (the asymmetric -1/-2 and -1/-3 splits put -1 on the
    lower index; either split generates the same group) and phi + 1 for
    label 5.
    """
    n = matrix.rank
    zero, two = (ZPhi(0, 0), ZPhi(2, 0)) if use_phi else (0, 2)
    c = [[zero] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = two
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            m = matrix.m(i, j)
            if m == 2:
                val = zero
            elif m == 3:
                val = ZPhi(-1, 0) if use_phi else -1
            elif m == 4:
                v = -1 if i < j else -2
                val = ZPhi(v, 0) if use_phi else v
            elif m == 6:
                v = -1 if i < j else -3
                val = ZPhi(v, 0) if use_phi else v
            elif m == 5:
                val = ZPhi(0, -1)  # -phi
            else:
                raise InvalidWordError(f"no Cartan coefficient for label {m}")
            c[i - 1][j - 1] = val
    return c


def _vec_key(vec) -> tuple:
    return tuple((x.a, x.b) if isinstance(x, ZPhi) else (x, 0) for x in vec)


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
    itemgetter always returns a tuple.
    """
    return itemgetter(*g)(f)


@dataclass(frozen=True)
class RootSystemRep:
    """Permutation model of W: roots plus one permutation per generator."""

    matrix: CoxeterMatrix
    roots: tuple[tuple, ...]
    simple_reflections: tuple[tuple[int, ...], ...]

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
    return RootSystemRep(matrix, (), (s1, s2))


@lru_cache(maxsize=None)
def build_root_system(matrix: CoxeterMatrix) -> RootSystemRep:
    """Closure of the simple roots under the simple reflections.

    Requires finite type.  The root list is in breadth-first discovery
    order, which is deterministic; reflections come back as index
    permutations of that list.
    """
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
    cartan = _cartan(matrix, use_phi)
    one, zero = (ZPhi(1, 0), ZPhi(0, 0)) if use_phi else (1, 0)

    def reflect(i: int, vec):
        s = zero
        for j in range(n):
            if vec[j] != zero:
                s = s + cartan[i][j] * vec[j]
        out = list(vec)
        out[i] = vec[i] - s
        return tuple(out)

    basis = []
    for i in range(n):
        v = [zero] * n
        v[i] = one
        basis.append(tuple(v))
    index = {}
    roots = []
    queue = []
    for v in basis:
        index[_vec_key(v)] = len(roots)
        roots.append(v)
        queue.append(v)
    while queue:
        v = queue.pop(0)
        for i in range(n):
            w = reflect(i, v)
            k = _vec_key(w)
            if k not in index:
                if len(roots) >= 1000:
                    raise InfiniteTypeError("root closure did not stop; not finite type")
                index[k] = len(roots)
                roots.append(w)
                queue.append(w)
    refl = []
    for i in range(n):
        refl.append(tuple(index[_vec_key(reflect(i, v))] for v in roots))
    return RootSystemRep(matrix, tuple(roots), tuple(refl))


def _negative_roots(rep: RootSystemRep) -> tuple[bool, ...]:
    """Per root index, whether the root is negative; simple roots have the
    indices 0..rank-1.  The coefficients of a root share one sign, so their
    sum decides it.  For Z[phi] the sum a + b*phi is taken as a float: a
    and b are small integers, so it stays far from 0 next to rounding."""
    if not rep.roots:
        return tuple(i >= rep.degree // 2 for i in range(rep.degree))
    phi = (1 + 5 ** 0.5) / 2
    return tuple(
        sum(c.a + c.b * phi if isinstance(c, ZPhi) else c for c in root) < 0
        for root in rep.roots
    )


def image(rep: RootSystemRep, word) -> WElement:
    """Quotient map: signed word to its Coxeter-group permutation.

    Inverse letters map to the same reflection (reflections are
    involutions), so signs are simply dropped.
    """
    acc = tuple(range(rep.degree))
    for x in word:
        g = abs(x)
        if not 1 <= g <= rep.matrix.rank:
            raise InvalidWordError(f"letter {x} out of range")
        acc = compose(acc, rep.simple_reflections[g - 1])
    return WElement(acc, ())


def is_identity(e: WElement) -> bool:
    return e.perm == tuple(range(len(e.perm)))


def is_involution(e: WElement) -> bool:
    """Order exactly 2."""
    return not is_identity(e) and compose(e.perm, e.perm) == tuple(range(len(e.perm)))


def enumerate_group(rep: RootSystemRep, cap: int) -> list[WElement]:
    """All of W by breadth-first closure; each element carries one
    shortest witnessing word.  Raises BudgetExceededError past cap."""
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
