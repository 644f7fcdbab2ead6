"""Brute-force referee for everything the fast paths compute.

Ground truth by breadth-first closure of the rewriting graph: a relation
u = v of equal length may be applied at any position in either direction,
so the set of words reachable from w is finite and enumerable.  Slow on
purpose; every answer is exact or a budget error, never a guess.  Braid
words are refereed apart from the closures, by handle reduction.

The closure runs on words packed into ints, `P.ngens.bit_length()` bits
per letter with the first letter highest: a window is read with a shift
and a mask and rewritten with one XOR, and a closed class is cached as a
set of ints, decoded to tuples only when its members are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .coxeter import CoxeterMatrix, check_kind, is_finite_type, letters, parse_word
from .errors import (BudgetExceededError, HandleReductionOverflow, InvalidBudgetError,
                     InvalidWordError, PreconditionError)

DEFAULT_CLASS_CAP = 1_000_000
DEFAULT_LEN_CAP = 12
DEFAULT_HANDLE_CAP = 1_000_000
# the longest reduced word `coxeter_order_oracle` classes
_ORDER_LEN_CAP = 64


@dataclass(frozen=True)
class Presentation:
    """A homogeneous monoid presentation: both sides of every relation are
    positive words of equal length, so rewriting preserves length."""

    ngens: int
    relations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __post_init__(self):
        if not isinstance(self.ngens, int) or self.ngens < 1:
            raise PreconditionError(
                f"presentation needs an int ngens >= 1, got {self.ngens!r}")
        for lhs, rhs in self.relations:
            if len(lhs) != len(rhs):
                raise PreconditionError(
                    "inhomogeneous relation: sides of different length"
                )
            for w in (lhs, rhs):
                for x in w:
                    if not isinstance(x, int) or not 1 <= x <= self.ngens:
                        raise PreconditionError(
                            f"relation letter {x!r} out of range"
                        )

    def check_word(self, w) -> tuple[int, ...]:
        """w as a tuple: InvalidWordError if it is not iterable, and
        PreconditionError for a letter out of range."""
        w = letters(w)
        for x in w:
            if not isinstance(x, int) or not 1 <= x <= self.ngens:
                raise PreconditionError(f"letter {x!r} out of range")
        return w


def presentation_from_matrix(matrix: CoxeterMatrix) -> Presentation:
    """The Artin presentation: one alternating-word relation per finite
    off-diagonal label."""
    check_kind(CoxeterMatrix, matrix)
    return Presentation(matrix.rank, tuple(matrix.relations()))


def _pack(w: tuple[int, ...], bits: int) -> int:
    """w as one int, `bits` bits a letter, the first letter highest; for
    words of one length the int order is the lexicographic order."""
    u = 0
    for x in w:
        u = u << bits | x
    return u


@dataclass(frozen=True)
class RewriteClass:
    """A full rewriting-equivalence class and its lexicographically least
    member, the canonical representative.

    The class is kept packed: `packed` holds each member as one int,
    `bits` bits a letter with the first letter highest, and every member
    has `length` letters.  `canonical` is decoded from the least int, and
    `members`, the frozenset of tuples, is decoded on first read."""

    packed: frozenset
    bits: int
    length: int

    def _decoder(self):
        """packed int -> the member it spells: letter i is the `bits` bits
        at (length - 1 - i) * bits from the right."""
        mask = (1 << self.bits) - 1
        shifts = range((self.length - 1) * self.bits, -1, -self.bits)
        return lambda m: tuple([m >> shift & mask for shift in shifts])

    @cached_property
    def canonical(self) -> tuple[int, ...]:
        return self._decoder()(min(self.packed))

    @cached_property
    def members(self) -> frozenset:
        return frozenset(map(self._decoder(), self.packed))


def _check_cap(name: str, cap) -> None:
    """Every cap is an int >= 0: a cap of another type bounds nothing."""
    if not isinstance(cap, int) or cap < 0:
        raise InvalidBudgetError(f"{name} must be an int >= 0, got {cap!r}")


def _check_class_cap(class_cap) -> None:
    """`_check_cap` of a class cap; the default, which most calls pass on,
    is known good and passes on an identity test."""
    if class_cap is not DEFAULT_CLASS_CAP:
        _check_cap("class_cap", class_cap)


@lru_cache(maxsize=None)
def _rewrite_table(P: Presentation):
    """(bits, ((k, mask, {packed side: XOR flips to its partners}), ...)):
    the bits per letter, the fewest that hold letter P.ngens, and per side
    length k the mask of a k-letter window and, for each packed side of
    that length, side ^ partner for each of its partner sides."""
    bits = P.ngens.bit_length()
    table: dict[int, dict[int, list[int]]] = {}
    for lhs, rhs in P.relations:
        for a, b in ((lhs, rhs), (rhs, lhs)):
            side = _pack(a, bits)
            table.setdefault(len(a), {}).setdefault(side, []).append(
                side ^ _pack(b, bits))
    return bits, tuple((k, (1 << k * bits) - 1, flips)
                       for k, flips in table.items())


def class_of(P: Presentation, w, class_cap: int = DEFAULT_CLASS_CAP) -> RewriteClass:
    """BFS closure of w under single-relation rewrites; deterministic.  A
    closure costs |class| * len(w) * (distinct side lengths) lookups, each
    a shift, a mask and a dict probe on the packed word.  A word longer
    than `DEFAULT_LEN_CAP` letters raises BudgetExceededError, and so does
    a class of more than class_cap members, unless w is its only member.

    Every rewrite keeps the length: `Presentation.__post_init__` rejects a
    relation whose sides differ in length, and `_rewrite_table` pairs a
    side only with the other sides of its own relations, so a side of
    length k is replaced by one of length k.

    The closure is cached under the arguments, which are checked on a
    miss, so a repeated call costs one lookup.  Arguments that cannot be a
    cache key (a list for the word, say) are checked first and the word is
    read through `P.check_word`, so any iterable word is accepted.
    `class_of.cache_info()` and `class_of.cache_clear()` are the cache's."""
    try:
        return _class_of(P, w, class_cap, DEFAULT_LEN_CAP)
    except TypeError:  # an argument that cannot be a cache key
        pass
    check_kind(Presentation, P)
    _check_class_cap(class_cap)
    return _class_of(P, P.check_word(w), class_cap, DEFAULT_LEN_CAP)


@lru_cache(maxsize=None)
def _class_of(P: Presentation, w, class_cap: int, len_cap: int) -> RewriteClass:
    """`class_of` behind its cache, for words of at most len_cap letters:
    the closure on packed words.  A window of k letters at `shift` bits
    from the right is `u >> shift & mask`, and rewriting it to a partner
    side is `u ^ flip << shift`.  len_cap is not checked: its callers pass
    `DEFAULT_LEN_CAP`, `_ORDER_LEN_CAP` or `artin_deltas`' checked max_len,
    all four arguments positionally, so that a call with the default caps
    shares `class_of`'s cache key."""
    check_kind(Presentation, P)
    _check_class_cap(class_cap)
    w = P.check_word(w)
    n = len(w)
    if n > len_cap:
        raise BudgetExceededError(
            f"word length {n} exceeds the cap {len_cap}"
        )
    bits, table = _rewrite_table(P)
    windows = [(mask, sides, range(0, (n - k) * bits + 1, bits))
               for k, mask, sides in table if k <= n]
    start = _pack(w, bits)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for mask, sides, shifts in windows:
                for shift in shifts:
                    flips = sides.get(u >> shift & mask)
                    if flips is None:
                        continue
                    for flip in flips:
                        v = u ^ flip << shift
                        if v not in seen:
                            if len(seen) >= class_cap:
                                raise BudgetExceededError(
                                    f"class size exceeds the cap {class_cap}"
                                )
                            seen.add(v)
                            nxt.append(v)
        frontier = nxt
    return RewriteClass(frozenset(seen), bits, n)


class_of.cache_info = _class_of.cache_info
class_of.cache_clear = _class_of.cache_clear


def _class_lookup(P: Presentation, class_cap: int):
    """w -> class_of(P, w), closing each class once: a closed class is filed
    under every one of its members, so any member finds it.  `class_of`
    caches per word, and a class has many members."""
    by_member: dict[tuple[int, ...], RewriteClass] = {}

    def lookup(w: tuple[int, ...]) -> RewriteClass:
        cls = by_member.get(w)
        if cls is None:
            cls = class_of(P, w, class_cap)
            by_member.update(dict.fromkeys(cls.members, cls))
        return cls

    return lookup


def equals_oracle(P: Presentation, u, v, class_cap: int = DEFAULT_CLASS_CAP) -> bool:
    check_kind(Presentation, P)
    _check_class_cap(class_cap)
    u = P.check_word(u)
    v = P.check_word(v)
    if len(u) != len(v):
        return False
    cls = class_of(P, u, class_cap)
    return _pack(v, cls.bits) in cls.packed


def divides_left_oracle(P: Presentation, u, v,
                        class_cap: int = DEFAULT_CLASS_CAP) -> bool:
    """True iff u * w rewrites to v for some positive w: equivalently, some
    member of v's class starts with the letters of u.

    If u * w rewrites to v, the word u * w is a member of v's class and its
    len(u)-prefix is u.  Conversely, a member m with m[:len(u)] = u gives
    v = u * m[len(u):].  So only v's class is closed; u's never is."""
    check_kind(Presentation, P)
    _check_class_cap(class_cap)
    u = P.check_word(u)
    v = P.check_word(v)
    if len(u) > len(v):
        return False
    cls = class_of(P, v, class_cap)
    prefix = _pack(u, cls.bits)
    shift = (len(v) - len(u)) * cls.bits
    for m in cls.packed:  # about twice as fast as any()
        if m >> shift == prefix:
            return True
    return False


def _square_free(cls: RewriteClass) -> bool:
    """True iff no member of cls contains an adjacent repeated letter."""
    return not any(any(m[i] == m[i + 1] for i in range(len(m) - 1))
                   for m in cls.members)


def square_free_oracle(P: Presentation, w, class_cap: int = DEFAULT_CLASS_CAP) -> bool:
    """True iff no member of w's class contains an adjacent repeated
    letter."""
    check_kind(Presentation, P)
    return _square_free(class_of(P, P.check_word(w), class_cap))


@lru_cache(maxsize=None)
def _greedy_delta(matrix: CoxeterMatrix, subset: tuple[int, ...],
                  max_len: int) -> tuple[int, ...] | None:
    """Delta_I of a finite-type I, or None if longer than max_len: append the
    least s in I that is not a right descent of w, i.e. ends no member of w's
    class (by Tits' word theorem and the exchange condition, as in
    `coxeter_order_oracle`), until every s in I is one; w then spells w0(I)."""
    P = presentation_from_matrix(matrix)
    w: tuple[int, ...] = ()
    while True:
        ends = {m[-1] for m in _class_of(P, w, DEFAULT_CLASS_CAP, max_len).members if m}
        s = next((s for s in subset if s not in ends), None)
        if s is None:
            return w
        if len(w) == max_len:
            return None
        w += (s,)


def artin_deltas(matrix: CoxeterMatrix,
                 max_len: int = DEFAULT_LEN_CAP) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Subset of generators -> one word for its fundamental element, for
    every finite-type subset whose Delta_I has at most max_len letters (by
    default the longest word the oracle classes).  The words come from the
    oracle's own `_greedy_delta`, memoized, never from the monoid."""
    check_kind(CoxeterMatrix, matrix)
    _check_cap("max_len", max_len)
    out: dict[tuple[int, ...], tuple[int, ...]] = {(): ()}
    subsets: list[tuple[int, ...]] = [()]
    for g in matrix.generators:
        subsets.extend(prev + (g,) for prev in list(subsets))
    for subset in subsets[1:]:
        if is_finite_type(matrix, subset):
            d = _greedy_delta(matrix, subset, max_len)
            if d is not None:
                out[subset] = d
    return out


def all_pal_decompositions(P: Presentation, p, deltas,
                           class_cap: int = DEFAULT_CLASS_CAP):
    """All (y, I) with p = y * Delta_I * rev(y) in the monoid.

    deltas maps each admissible I (sorted tuple) to a word for Delta_I.
    Two-sided peel: a pair enters either because p's class contains a
    Delta_I word outright, or as s*(y', I) for a class member that starts
    and ends with s.  Results are deduplicated by the canonical form of y
    and sorted; every y is reported as one concrete word.

    Each class the search reaches, whether of p, of a middle word or of a
    y, is closed once per call: `_class_lookup` files a closed class under
    all of its members, so another member finds it without a closure.
    """
    check_kind(Presentation, P)
    check_kind(dict, deltas)
    p = P.check_word(p)
    delta_by_len: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
    for subset, word in deltas.items():
        word = P.check_word(word)
        delta_by_len.setdefault(len(word), []).append((P.check_word(subset), word))

    class_for = _class_lookup(P, class_cap)
    memo: dict[tuple[int, ...], tuple] = {}

    def search(w: tuple[int, ...]):
        cls = class_for(w)
        hit = memo.get(cls.canonical)
        if hit is not None:
            return hit
        found = []
        seen = set()
        for subset, dword in delta_by_len.get(len(w), ()):
            if dword in cls.members:
                mark = ((), subset)
                if mark not in seen:
                    seen.add(mark)
                    found.append(((), subset))
        if len(w) >= 2:
            middles: dict[int, set] = {}
            for m in cls.members:
                if m[0] == m[-1]:
                    middles.setdefault(m[0], set()).add(class_for(m[1:-1]).canonical)
            for s in sorted(middles):
                for mid in sorted(middles[s]):
                    for ys, subset in search(mid):
                        entry = ((s,) + ys, subset)
                        mark = (class_for(entry[0]).canonical, subset)
                        if mark not in seen:
                            seen.add(mark)
                            found.append(entry)
        memo[cls.canonical] = tuple(sorted(found))
        return memo[cls.canonical]

    return search(p)


def enumerate_classes(P: Presentation, length: int):
    """Partition of all length-L words into rewriting classes, as a sorted
    tuple of sorted member tuples.  A length over `DEFAULT_LEN_CAP`, or more
    than `DEFAULT_CLASS_CAP` words of that length, raises
    BudgetExceededError before any class is closed."""
    check_kind(Presentation, P)
    if not isinstance(length, int) or length < 0:
        raise PreconditionError(f"length must be an int >= 0, got {length!r}")
    if length > DEFAULT_LEN_CAP:
        raise BudgetExceededError(
            f"length {length} exceeds the cap {DEFAULT_LEN_CAP}"
        )
    if P.ngens ** length > DEFAULT_CLASS_CAP:
        raise BudgetExceededError(
            f"{P.ngens}^{length} words exceed the cap {DEFAULT_CLASS_CAP}"
        )
    words: list[tuple[int, ...]] = [()]
    for _ in range(length):
        words = [w + (x,) for w in words for x in range(1, P.ngens + 1)]
    class_for = _class_lookup(P, DEFAULT_CLASS_CAP)
    classes = {cls.canonical: cls for cls in map(class_for, words)}
    return tuple(tuple(sorted(classes[c].members)) for c in sorted(classes))


def coxeter_order_oracle(matrix: CoxeterMatrix) -> int:
    """Order of the Coxeter group, counted without ever multiplying
    matrices: breadth-first over reduced words, one canonical
    representative per element.

    Rests on the classical facts that two reduced words represent the same
    element iff they are connected by braid relations alone, and that a
    word is reduced iff its braid class contains no square s*s.  The
    quotient relation s^2 = e never has to be written down.

    Each candidate word, a representative times one generator, has its
    class closed once, with words of up to 64 letters, and that class
    gives both its square-freeness and its canonical representative.  An
    order over `DEFAULT_CLASS_CAP` raises BudgetExceededError.
    """
    check_kind(CoxeterMatrix, matrix)
    if not is_finite_type(matrix):
        raise PreconditionError("order counting needs a finite-type matrix")
    P = presentation_from_matrix(matrix)
    total = 0
    level = {()}  # the canonical words of one length
    while level:
        total += len(level)
        if total > DEFAULT_CLASS_CAP:
            raise BudgetExceededError(f"group order exceeds the cap {DEFAULT_CLASS_CAP}")
        nxt = set()
        for rep in level:
            for s in range(1, matrix.rank + 1):
                cls = _class_of(P, rep + (s,), DEFAULT_CLASS_CAP, _ORDER_LEN_CAP)
                if _square_free(cls):
                    nxt.add(cls.canonical)
        level = nxt
    return total


# ---------------------------------------------------------------------------
# Handle reduction: the referee of the Dehornoy sign


def reduce_handles(word, cap: int = DEFAULT_HANDLE_CAP) -> tuple[tuple[int, ...], int]:
    """Reduce a braid word to a handle-free word; returns (word, reduction
    step count).

    The reduced word is empty exactly when the braid is trivial; otherwise
    its lowest index occurs with one sign only, and that is the braid's
    Dehornoy sign, which `orderings.dehornoy_sign` computes another way.

    A handle is a subword g^e ... g^-e whose interior letters all have
    index > g.  A left-to-right scan keeps a stack of open positions (each
    position's nearest earlier letter of index <= its own) and stops at the
    first letter that closes a handle.  No other handle closes inside that
    one, so it is permitted, and reducing permitted handles terminates.

    One step removes the two ends and conjugates the interior: letters of
    index g+1 and sign d become the triple (g+1)^-e, g^d, (g+1)^e where e
    is the sign of the opening letter; letters of index >= g+2 commute past
    and are kept as they are.  Nothing closes before the opening position
    i, so the next scan resumes, with an empty stack, at the last index-1
    letter before i: no letter pops it, so no earlier position could ever
    be on top of the stack again.
    """
    _check_cap("cap", cap)
    w = list(letters(word))
    for x in w:
        if not isinstance(x, int) or x == 0:
            raise InvalidWordError(f"letter {x!r} is not a braid generator")
    steps = 0
    start = 0
    while True:
        opened: list[int] = []
        for j in range(start, len(w)):
            x = w[j]
            g = abs(x)
            while opened and abs(w[opened[-1]]) > g:
                opened.pop()
            if opened and w[opened[-1]] == -x:
                break
            opened.append(j)
        else:
            return tuple(w), steps
        steps += 1
        if steps > cap:
            raise HandleReductionOverflow(word, steps, cap)
        i = opened[-1]
        e = 1 if w[i] > 0 else -1
        mid: list[int] = []
        for x in w[i + 1:j]:
            if abs(x) >= g + 2:
                mid.append(x)
            else:
                d = 1 if x > 0 else -1
                mid.extend((-e * (g + 1), d * g, e * (g + 1)))
        w[i:j + 1] = mid
        start = max(i - 1, 0)
        while start > 0 and abs(w[start]) > 1:
            start -= 1


# ---------------------------------------------------------------------------
# Presentation file format


def parse_presentation(text: str) -> Presentation:
    """`gens N` on the first significant line, then `rel w = w` lines in
    the shared word syntax, positive letters only."""
    if not isinstance(text, str):
        raise PreconditionError(f"presentation text must be a str, got {text!r}")
    ngens = None
    relations = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "gens":
            if ngens is not None:
                raise PreconditionError(f"line {lineno}: duplicate gens line")
            if len(parts) != 2 or not parts[1].isdigit():
                raise PreconditionError(f"line {lineno}: expected `gens N`")
            ngens = int(parts[1])
        elif parts[0] == "rel":
            if ngens is None:
                raise PreconditionError(f"line {lineno}: gens line must come first")
            body = line[len("rel"):]
            if body.count("=") != 1:
                raise PreconditionError(f"line {lineno}: expected `rel w = w`")
            lhs_s, rhs_s = body.split("=")
            try:
                lhs = parse_word(lhs_s)
                rhs = parse_word(rhs_s)
            except Exception as exc:
                raise PreconditionError(f"line {lineno}: {exc}") from exc
            if any(x < 0 for x in lhs + rhs):
                raise PreconditionError(
                    f"line {lineno}: relations must be positive words"
                )
            relations.append((lhs, rhs))
        else:
            raise PreconditionError(f"line {lineno}: unrecognized line {line!r}")
    if ngens is None:
        raise PreconditionError("missing gens line")
    return Presentation(ngens, tuple(relations))
