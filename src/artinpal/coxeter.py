"""Coxeter matrices, named finite-type forms, and type classification.

A Coxeter matrix over generators 1..n is symmetric with 1 on the diagonal
and off-diagonal entries in {2, 3, ...} or infinity.  Generators are
1-indexed everywhere in this package; words are tuples of nonzero ints
where -i denotes the inverse of generator i.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import InvalidMatrixError, InvalidWordError, PreconditionError

INF = float("inf")


def w_word(a: int, b: int, k: int) -> tuple[int, ...]:
    """The alternating word w_k(a, b) = a b a b ... of length k, for any
    k >= 0; the two sides of an Artin relation are w_m(a, b) and w_m(b, a).
    """
    if not (isinstance(a, int) and isinstance(b, int) and isinstance(k, int)):
        raise InvalidWordError(f"w_word needs int letters and length, got {(a, b, k)!r}")
    return tuple(a if t % 2 == 0 else b for t in range(k))


def letters(word) -> tuple:
    """The word as a tuple, or InvalidWordError if it is not iterable."""
    try:
        return tuple(word)
    except TypeError:
        raise InvalidWordError(f"{word!r} is not a sequence of letters") from None


@dataclass(frozen=True)
class CoxeterMatrix:
    """Immutable Coxeter matrix with 1-indexed accessors.

    entries[i][j] is m(i+1, j+1); valid entries are 1 on the diagonal and
    ints >= 2 or INF off it.  name is a display label only and does not
    participate in equality.  Connectivity of the diagram is NOT enforced
    here (parabolic restrictions are legitimately disconnected); the file
    parser rejects disconnected input.

    Every layer keys a per-matrix cache on the matrix, so its hash, that of
    (rank, entries), is computed once, when the matrix is built.  Equal
    matrices hash alike whichever way they were made; `builtin` hands out
    one shared object per named form, which a cache lookup then matches by
    identity, without comparing entries.
    """

    rank: int
    entries: tuple[tuple[int | float, ...], ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.rank < 1:
            raise InvalidMatrixError("rank must be at least 1")
        if len(self.entries) != self.rank:
            raise InvalidMatrixError("entry rows do not match rank")
        for i, row in enumerate(self.entries):
            if len(row) != self.rank:
                raise InvalidMatrixError("entry row of wrong length")
            for j, v in enumerate(row):
                if i == j:
                    if v != 1:
                        raise InvalidMatrixError("diagonal entries must be 1")
                elif v != INF and (not isinstance(v, int) or v < 2):
                    raise InvalidMatrixError(
                        f"m({i + 1},{j + 1}) = {v!r}: need an int >= 2 or inf"
                    )
                elif v != self.entries[j][i]:
                    raise InvalidMatrixError("matrix must be symmetric")
        object.__setattr__(self, "_hash", hash((self.rank, self.entries)))

    def __hash__(self):
        return self._hash

    def m(self, i: int, j: int) -> int | float:
        """Coxeter exponent m(i, j), generators 1-indexed."""
        return self.entries[i - 1][j - 1]

    @property
    def generators(self) -> tuple[int, ...]:
        return tuple(range(1, self.rank + 1))

    def check_word(self, word, positive: bool = False) -> tuple[int, ...]:
        """Validate letters and return the word as a tuple of ints."""
        w = letters(word)
        for x in w:
            if not isinstance(x, int) or x == 0 or abs(x) > self.rank:
                raise InvalidWordError(
                    f"letter {x!r} out of range for rank {self.rank}"
                )
            if positive and x < 0:
                raise InvalidWordError(f"negative letter {x} in a positive word")
        return w

    def relations(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Defining Artin relations: one pair per finite off-diagonal entry."""
        rels = []
        for i in range(1, self.rank + 1):
            for j in range(i + 1, self.rank + 1):
                m = self.m(i, j)
                if m != INF:
                    rels.append((w_word(i, j, m), w_word(j, i, m)))
        return rels

    def __repr__(self):
        label = self.name if self.name else f"rank {self.rank}"
        return f"CoxeterMatrix({label})"


def parse_word(text: str) -> tuple[int, ...]:
    """Shared word syntax: whitespace-separated signed integers, or the
    single token `e` for the empty word.  No matrix check here; callers
    validate letters against their rank."""
    if not isinstance(text, str):
        raise InvalidWordError(f"word text must be a str, got {text!r}")
    tokens = text.split()
    if tokens == ["e"]:
        return ()
    out = []
    for t in tokens:
        try:
            x = int(t)
        except ValueError:
            raise InvalidWordError(f"token {t!r} is not a letter") from None
        if x == 0:
            raise InvalidWordError("0 is not a letter")
        out.append(x)
    return tuple(out)


def format_word(word) -> str:
    """Inverse of parse_word; the empty word prints as `e`.  Every letter
    must be a nonzero int, so that parse_word reads the text back."""
    word = letters(word)
    for x in word:
        if not isinstance(x, int) or x == 0:
            raise InvalidWordError(f"letter {x!r} is not a nonzero int")
    if not word:
        return "e"
    return " ".join(str(x) for x in word)


def _matrix_from_edges(rank: int, edges: dict[tuple[int, int], int | float],
                       name: str | None = None) -> CoxeterMatrix:
    rows = [[2] * rank for _ in range(rank)]
    for i in range(rank):
        rows[i][i] = 1
    for (i, j), v in edges.items():
        rows[i - 1][j - 1] = v
        rows[j - 1][i - 1] = v
    return CoxeterMatrix(rank, tuple(tuple(r) for r in rows), name)


def builtin(family: str, param: int | None = None) -> CoxeterMatrix:
    """Standard Coxeter matrix of a named finite-type diagram: one shared
    immutable object per form, so builtin("A", 3) is named_matrix("A3").

    family is one of A, B, D, E6, E7, E8, F4, H3, H4, I2; param is the rank
    for A/B/D and the dihedral label m for I2 (m >= 5).  Node numbering:
    chains run 1..n left to right; the heavy edge of B_n joins n-1 and n;
    F4's joins 2 and 3; H3/H4 put the 5-edge between 1 and 2; D_n forks at
    n-2 (both n-1 and n join it); E-types follow the Bourbaki numbering
    (chain 1,3,4,...,n with node 2 hanging off node 4).

    The forms are kept in a cache of _FORMS_BOUND entries, least recently
    used out first, keyed by the family and parameter once their types are
    checked; a bad family or parameter, a bool among them, raises
    InvalidMatrixError on every call, as errors are not cached.  A form
    evicted and built again is equal to, and hashes like, the object it
    replaces.
    """
    if not isinstance(family, str):
        raise InvalidMatrixError(f"a family is named by a string, got {family!r}")
    if param is not None and (not isinstance(param, int) or isinstance(param, bool)):
        raise InvalidMatrixError(f"{family!r} needs an int parameter, got {param!r}")
    fam = family.strip().upper()
    if fam not in _FAMILIES:
        raise InvalidMatrixError(f"unrecognized family {family!r}")
    return _builtin(fam, param)


_FAMILIES = ("A", "B", "D", "E6", "E7", "E8", "F4", "H3", "H4", "I2")
_FORMS_BOUND = 64


@lru_cache(maxsize=_FORMS_BOUND)
def _builtin(fam: str, param: int | None) -> CoxeterMatrix:
    """`builtin` behind its cache, on a family of _FAMILIES.  A fixed-rank
    family given its own rank answers with the form named without it."""
    if fam in ("E6", "E7", "E8", "F4", "H3", "H4") and param is not None:
        if param != int(fam[1]):
            raise InvalidMatrixError(f"{fam} takes no separate rank parameter")
        return _builtin(fam, None)
    if fam == "A":
        if param is None or param < 1:
            raise InvalidMatrixError("A_n needs a rank n >= 1")
        edges = {(i, i + 1): 3 for i in range(1, param)}
        return _matrix_from_edges(param, edges, f"A{param}")
    if fam == "B":
        if param is None or param < 2:
            raise InvalidMatrixError("B_n needs a rank n >= 2")
        edges = {(i, i + 1): 3 for i in range(1, param - 1)}
        edges[(param - 1, param)] = 4
        return _matrix_from_edges(param, edges, f"B{param}")
    if fam == "D":
        if param is None or param < 4:
            raise InvalidMatrixError("D_n needs a rank n >= 4")
        edges = {(i, i + 1): 3 for i in range(1, param - 2)}
        edges[(param - 2, param - 1)] = 3
        edges[(param - 2, param)] = 3
        return _matrix_from_edges(param, edges, f"D{param}")
    if fam in ("E6", "E7", "E8"):
        n = int(fam[1])
        edges = {(1, 3): 3, (2, 4): 3}
        edges.update({(i, i + 1): 3 for i in range(3, n)})
        return _matrix_from_edges(n, edges, fam)
    if fam == "F4":
        return _matrix_from_edges(4, {(1, 2): 3, (2, 3): 4, (3, 4): 3}, "F4")
    if fam in ("H3", "H4"):
        n = int(fam[1])
        edges = {(1, 2): 5}
        edges.update({(i, i + 1): 3 for i in range(2, n)})
        return _matrix_from_edges(n, edges, fam)
    if param is None or param < 5:
        raise InvalidMatrixError("I2(m) needs a finite m >= 5 (use A2/B2 below)")
    return _matrix_from_edges(2, {(1, 2): param}, f"I2({param})")


_NAME_RE = re.compile(r"^([A-Za-z])\s*(\d+)(?:\s*[(.:]\s*(\d+)\s*\)?)?$")


def named_matrix(name: str) -> CoxeterMatrix:
    """Parse a form name like 'A3', 'F4', 'I2(7)' (also I2.7 / I2:7).  The
    answer is `builtin`'s one shared immutable object for the form, so
    named_matrix(" a3") is named_matrix("A3")."""
    if not isinstance(name, str):
        raise InvalidMatrixError(f"a form name is a string, got {name!r}")
    m = _NAME_RE.match(name.strip())
    if not m:
        raise InvalidMatrixError(f"unrecognized form name {name!r}")
    letter, num, param = m.group(1).upper(), int(m.group(2)), m.group(3)
    if letter == "I":
        if num != 2 or param is None:
            raise InvalidMatrixError(f"dihedral forms are written I2(m), got {name!r}")
        return builtin("I2", int(param))
    if param is not None:
        raise InvalidMatrixError(f"unexpected parameter in {name!r}")
    if letter in ("A", "B", "D"):
        return builtin(letter, num)
    if letter in ("E", "F", "H"):
        return builtin(f"{letter}{num}")
    raise InvalidMatrixError(f"unrecognized form name {name!r}")


def _components(matrix: CoxeterMatrix, nodes) -> list[list[int]]:
    """Connected components of the diagram induced on nodes (m >= 3 is an edge)."""
    nodes = sorted(nodes)
    seen: set[int] = set()
    out = []
    for start in nodes:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in nodes:
                if j not in seen and matrix.m(i, j) >= 3:
                    seen.add(j)
                    comp.append(j)
                    stack.append(j)
        out.append(sorted(comp))
    return out


def _classify_component(matrix: CoxeterMatrix, comp: list[int]) -> str | None:
    """Type name of one connected diagram component, or None if not finite.

    Equivalent to matching against the catalogue of finite-type diagrams,
    done structurally: those diagrams are exactly the trees with at most
    one branch point and tightly constrained heavy edges, so a handful of
    shape checks decides membership.
    """
    n = len(comp)
    if n == 1:
        return "A1"
    deg = {i: 0 for i in comp}
    heavy = []  # edges with label >= 4
    nedges = 0
    for a in range(n):
        for b in range(a + 1, n):
            i, j = comp[a], comp[b]
            mij = matrix.m(i, j)
            if mij >= 3:
                if mij == INF:
                    return None
                nedges += 1
                deg[i] += 1
                deg[j] += 1
                if mij >= 4:
                    heavy.append((i, j, mij))
    if n == 2:
        mij = heavy[0][2] if heavy else 3
        if mij == 3:
            return "A2"
        if mij == 4:
            return "B2"
        return f"I2({mij})"
    if nedges != n - 1:
        return None  # the component is connected, so this means a cycle
    if any(d > 3 for d in deg.values()):
        return None
    branch = [i for i in comp if deg[i] == 3]
    if len(branch) > 1 or len(heavy) > 1 or (branch and heavy):
        return None

    if branch:
        # all labels are 3; classify by sorted arm lengths from the fork
        b = branch[0]
        arms = []
        for first in (j for j in comp if matrix.m(b, j) >= 3):
            length = 1
            prev, cur = b, first
            while True:
                nxt = [j for j in comp if j != prev and matrix.m(cur, j) >= 3]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                length += 1
            arms.append(length)
        arms.sort()
        if arms[0] == arms[1] == 1:
            return f"D{n}"
        if arms == [1, 2, 2]:
            return "E6"
        if arms == [1, 2, 3]:
            return "E7"
        if arms == [1, 2, 4]:
            return "E8"
        return None

    # a path; order its nodes end to end
    ends = [i for i in comp if deg[i] == 1]
    path = [ends[0]]
    while len(path) < n:
        last = path[-1]
        nxt = [j for j in comp if matrix.m(last, j) >= 3 and j not in path]
        path.append(nxt[0])
    if not heavy:
        return f"A{n}"
    hi, hj, hm = heavy[0]
    pos = sorted((path.index(hi), path.index(hj)))
    at_end = pos[0] == 0 or pos[1] == n - 1
    if hm == 4:
        if at_end:
            return f"B{n}"
        if n == 4 and pos == [1, 2]:
            return "F4"
        return None
    if hm == 5 and at_end and n in (3, 4):
        return f"H{n}"
    return None


def classify(matrix: CoxeterMatrix, subset=None) -> list[str] | None:
    """Component type names if the (sub)system is finite, else None.

    subset restricts to a parabolic; default is all generators.  Names come
    back sorted, one per connected component, e.g. ['A1', 'A2', 'B3'].  A
    subset member that is not a generator raises InvalidWordError.
    """
    check_kind(CoxeterMatrix, matrix)
    nodes = (matrix.generators if subset is None
             else sorted(set(matrix.check_word(subset, positive=True))))
    if not nodes:
        return []
    names = []
    for comp in _components(matrix, nodes):
        t = _classify_component(matrix, comp)
        if t is None:
            return None
        names.append(t)
    return sorted(names)


def is_finite_type(matrix: CoxeterMatrix, subset=None) -> bool:
    """Whether the (parabolic sub)group W_I is finite; the one test of
    finite type that every module uses.  `classify` checks the matrix."""
    return classify(matrix, subset) is not None


def check_kind(kind: type, *values) -> None:
    """Raise an ArtinError unless every value is an instance of kind: a
    wrong matrix raises InvalidMatrixError, a wrong value of any other kind
    PreconditionError.  Every module checks its public arguments here."""
    for v in values:
        if not isinstance(v, kind):
            error = InvalidMatrixError if kind is CoxeterMatrix else PreconditionError
            raise error(f"expected a {kind.__name__}, got {v!r}")


def parse_matrix(text: str) -> CoxeterMatrix:
    """Parse the plain-text matrix format.

    Line 1 (after comments/blanks): 'rank N'.  Then zero or more lines
    'm i j v' with v an int >= 2 or 'inf'; unlisted pairs default to 2.
    '#' starts a comment.  Listing the same unordered pair twice is an
    error even if the values agree, since it usually means a typo.
    The diagram must be connected (an inf entry counts as an edge).
    """
    if not isinstance(text, str):
        raise InvalidMatrixError(f"matrix text must be a str, got {text!r}")
    rank = None
    seen: dict[tuple[int, int], int | float] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if rank is None:
            if len(parts) != 2 or parts[0] != "rank":
                raise InvalidMatrixError(f"line {lineno}: expected 'rank N' first")
            try:
                rank = int(parts[1])
            except ValueError:
                raise InvalidMatrixError(f"line {lineno}: bad rank {parts[1]!r}")
            if rank < 1:
                raise InvalidMatrixError(f"line {lineno}: rank must be >= 1")
            continue
        if len(parts) != 4 or parts[0] != "m":
            raise InvalidMatrixError(f"line {lineno}: expected 'm i j v'")
        try:
            i, j = int(parts[1]), int(parts[2])
        except ValueError:
            raise InvalidMatrixError(f"line {lineno}: bad indices")
        if not (1 <= i <= rank and 1 <= j <= rank) or i == j:
            raise InvalidMatrixError(
                f"line {lineno}: indices must be distinct, in 1..{rank}"
            )
        if parts[3] == "inf":
            v: int | float = INF
        else:
            try:
                v = int(parts[3])
            except ValueError:
                raise InvalidMatrixError(f"line {lineno}: bad entry {parts[3]!r}")
            if v < 2:
                raise InvalidMatrixError(f"line {lineno}: entries must be >= 2")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise InvalidMatrixError(f"line {lineno}: pair {key} listed twice")
        seen[key] = v
    if rank is None:
        raise InvalidMatrixError("missing 'rank N' line")
    matrix = _matrix_from_edges(rank, seen)
    if len(_components(matrix, matrix.generators)) != 1:
        raise InvalidMatrixError("diagram is disconnected")
    return matrix


def serialize_matrix(matrix: CoxeterMatrix) -> str:
    """Canonical text form: rank line, then sorted 'm i j v' lines for v != 2."""
    check_kind(CoxeterMatrix, matrix)
    lines = [f"rank {matrix.rank}"]
    for i in range(1, matrix.rank + 1):
        for j in range(i + 1, matrix.rank + 1):
            v = matrix.m(i, j)
            if v != 2:
                lines.append(f"m {i} {j} {'inf' if v == INF else v}")
    return "\n".join(lines) + "\n"
