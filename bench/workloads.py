"""The four seeded workloads of the artinpal benchmark.

Each workload is a closed loop with one client in one process: the harness
hands one generated operation to `run`, waits for the answer, and checks it
with `check` outside the timed span before it sends the next.  Inputs come
only from the seed; the program receives nothing but the generated words
(and the name of the matrix they live over).

`check` returns None for a correct answer and a short reason otherwise.
Ground truth comes from the construction where it can (equal pairs are
built with trivial relators inserted, unequal ones are certified by their
Coxeter images), and from the brute-force oracle on the referee workload.

Sizes marked "design" below are the input distributions of the workload
definition; where a comment says otherwise, the design size made single
operations so slow or so variable that a 25 s run could not be steady.
`stratified` draws sizes so that every seed gets the same size mix, with
the exact sizes and all letters still drawn from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from artinpal import coxeter, group, monoid, oracle, orderings, palindromes, weyl
from artinpal.orderings import Comparison, Sign

MIXED = coxeter.parse_matrix("rank 3\nm 1 2 3\nm 2 3 4\nm 1 3 inf\n")


def matrix(name: str) -> coxeter.CoxeterMatrix:
    return MIXED if name == "MIXED" else coxeter.named_matrix(name)


@dataclass(frozen=True)
class Op:
    """One operation: its stratum label, the generated inputs, and the
    answer known from the construction (None where the check derives it)."""

    kind: str
    args: tuple
    expect: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    forms: tuple[str, ...]  # matrices whose per-type tables set-up builds
    generate: Callable[[random.Random, int], list[Op]]
    run: Callable[[Op], object]
    check: Callable[[Op, object], str | None]
    ops_per_second: float  # operations per second of --seconds at this commit


# ---------------------------------------------------------------------------
# shared generator helpers


def stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count integers in lo..hi, one uniform draw from each of count equal
    slices of the range, in random order."""
    span = hi - lo + 1
    vals = [lo + int(span * (j + rng.random()) / count) for j in range(count)]
    rng.shuffle(vals)
    return vals


def draw_sizes(rng: random.Random, strata: list, ranges: dict) -> list[int]:
    """One size per operation; operations of one stratum share a
    stratified draw over that stratum's range."""
    pools = {
        key: stratified(rng, *ranges[key], strata.count(key))
        for key in dict.fromkeys(strata)
    }
    return [pools[key].pop() for key in strata]


def signed_word(rng: random.Random, rank: int, length: int,
                positive: bool = False) -> tuple[int, ...]:
    """Uniform letters; unless positive, half of them (rounded down), at
    random places, inverted.  The count of inverse letters drives the cost
    of the group layer, so it is fixed rather than drawn."""
    out = [rng.randint(1, rank) for _ in range(length)]
    if not positive:
        for i in rng.sample(range(length), length // 2):
            out[i] = -out[i]
    return tuple(out)


def inverse(word) -> tuple[int, ...]:
    return tuple(-x for x in reversed(word))


def alternating(a: int, b: int, m: int) -> tuple[int, ...]:
    return tuple(a if t % 2 == 0 else b for t in range(m))


def insert_relators(rng: random.Random, mat, word) -> tuple[int, ...]:
    """The same element, longer: g g^-1 and r r'^-1 for a defining
    relation r = r' inserted at random positions."""
    g = rng.randint(1, mat.rank) * rng.choice((1, -1))
    w = list(word)
    pos = rng.randint(0, len(w))
    w[pos:pos] = [g, -g]
    s, t = rng.sample(range(1, mat.rank + 1), 2)
    m = mat.m(s, t)
    relator = alternating(s, t, m) + inverse(alternating(t, s, m))
    pos = rng.randint(0, len(w))
    w[pos:pos] = relator
    return tuple(w)


def swap_noncommuting(rng: random.Random, mat, word) -> tuple[int, ...] | None:
    """Swap one adjacent pair of distinct letters with label >= 3; this
    changes the Coxeter image, so the result is a different element."""
    spots = [i for i in range(len(word) - 1)
             if abs(word[i]) != abs(word[i + 1])
             and mat.m(abs(word[i]), abs(word[i + 1])) >= 3]
    if not spots:
        return None
    i = rng.choice(spots)
    w = list(word)
    w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def coxeter_image(mat, word) -> tuple[int, ...]:
    return weyl.image(weyl.build_root_system(mat), word).perm


def is_identity_perm(perm) -> bool:
    return perm == tuple(range(len(perm)))


def equal_pair(rng, mat, word, equal: bool):
    """(word, partner): equal by construction, or certified unequal by a
    differing Coxeter image.  None when word has no swappable pair."""
    if equal:
        return word, insert_relators(rng, mat, word)
    other = swap_noncommuting(rng, mat, word)
    if other is None or coxeter_image(mat, word) == coxeter_image(mat, other):
        return None
    return word, other


# ---------------------------------------------------------------------------
# word_problem

# Word lengths per form.  The design ranges were A4 40-80, D5 30-60, E6
# 20-50 and H4, E8 15-30.  There one signed E8 pair took 1-10 s and one H4
# pair up to 2.4 s, so a 20-25 s run held too few operations for steady
# percentiles.  These ranges keep the order of cost (signed E8 and H4 words
# are still the tail) at about a quarter of the cost per operation.
WP_RANGES = {
    "A4": (30, 60), "D5": (20, 40), "E6": (12, 30), "H4": (6, 12), "E8": (6, 12),
}
WP_FORMS = tuple(WP_RANGES)


def wp_generate(rng: random.Random, n: int) -> list[Op]:
    # strata cycle with period 30: form, positive-only (1 in 3), equal (1 in 2)
    strata = [(WP_FORMS[i % 5], (i // 5) % 3 == 0) for i in range(n)]
    sizes = draw_sizes(rng, strata, {k: WP_RANGES[k[0]] for k in set(strata)})
    ops = []
    for i, ((name, positive), length) in enumerate(zip(strata, sizes)):
        mat = matrix(name)
        equal = (i // 15) % 2 == 0
        pair = None
        while pair is None:
            pair = equal_pair(rng, mat, signed_word(rng, mat.rank, length, positive),
                              equal)
        kind = f"{name}/{'pos' if positive else 'signed'}/{'eq' if equal else 'ne'}"
        ops.append(Op(kind, (name, *pair), equal))
    return ops


def wp_run(op: Op):
    name, w1, w2 = op.args
    mat = matrix(name)
    x = group.from_word(mat, w1)
    y = group.from_word(mat, w2)
    same = group.eq(x, y)
    kx, ky = x.key(), y.key()
    xi = group.inv(x)
    e = group.mult(x, xi)
    return same, kx, ky, xi, e


def wp_check(op: Op, out) -> str | None:
    same, kx, ky, xi, e = out
    name, w1, _ = op.args
    if same != op.expect:
        return "eq disagrees with the construction"
    if (kx == ky) != op.expect:
        return "key() disagrees with the construction"
    if e.k != 0 or e.p:
        return "x * inv(x) is not the identity"
    # Delta^2 maps to the identity, so x^-1 = Delta^(-2k) p has image [p]
    if not is_identity_perm(coxeter_image(matrix(name), w1 + xi.p)):
        return "inv(x) has the wrong Coxeter image"
    return None


WORD_PROBLEM = Workload(
    name="word_problem",
    why=("The library's core service and its largest blow-up: from_word, eq, "
         "key, inv and mult on signed words over A4, D5, E6, H4 and E8; the "
         "share of inverse letters drives the Delta^2-stripping loop."),
    forms=WP_FORMS,
    generate=wp_generate,
    run=wp_run,
    check=wp_check,
    ops_per_second=11.0,
)


# ---------------------------------------------------------------------------
# palindromes

PAL_ROUND_TRIP = {"A4": (8, 16), "D5": (8, 16), "E6": (8, 16)}  # design lengths of x
PAL_CANONICAL = ("A3", "A4", "B3")  # Dehornoy on A, the type-B order on B
# Signed y only on A3: on A4 any inverse letter pads the core with a power
# of Delta and one search takes seconds (6.5 s for 4 letters), and on B3 a
# y with three inverse letters took 17 s; one such operation would decide
# a run's throughput.
PAL_CANONICAL_SIGNED = ("A3",)
# One rev_tau operation decomposes PAL_REV_TAU_BATCH inputs, alternating
# over the forms.  Single inputs cost 0.1-14 ms: A3 ones stay below 3 ms,
# while an A5 one costs about 4 ms when y has inverse blocks and 0.2 ms
# otherwise.  Batches are a group of operations that p50 falls inside; with
# eight inputs their cost still followed the binomial count of costly A5
# inputs, and a bootstrap of ten-run sets from pooled operations gave p50 a
# spread of 0.13 of its median, with sixteen 0.05.
PAL_REV_TAU = ("A3", "A5")
PAL_REV_TAU_BATCH = 16
# D5 twice: its lifts (about 0.4 s) then make up 1 op in 8, so p90 falls
# inside them rather than on the edge between them and the next group.
PAL_LIFT = ("H3", "D5", "F4", "D5")
PAL_Y_MAX = 6  # design: y has at most 6 letters


def _subsets(gens) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    for g in gens:
        out.extend(prev + (g,) for prev in list(out))
    return sorted(out, key=lambda s: (len(s), s))


def _tau_orbits(mat) -> list[tuple[int, ...]]:
    perm = monoid.compute_tau_perm(mat)
    return sorted({tuple(sorted({s, perm[s - 1]})) for s in mat.generators})


def _orbit_delta(mat, orbit) -> tuple[int, ...]:
    """Delta_{s,tau(s)} written out by the benchmark, so that the per-subset
    Delta cache stays cold until the timed operations fill it."""
    if len(orbit) == 1:
        return orbit
    s, t = orbit
    return alternating(s, t, mat.m(s, t))


def _involution_words(name: str) -> list[tuple[int, ...]]:
    """Witness words of the involutions of W, ordered by how many roots
    they negate (a conjugacy invariant that tracks the lift's search cost),
    then by length, so that a stratified draw over the list gives every
    run the same mix of classes."""
    rep = weyl.build_root_system(matrix(name))
    index = {root: i for i, root in enumerate(rep.roots)}
    negative = [index[tuple(-c for c in root)] for root in rep.roots]
    found = []
    for g in weyl.enumerate_group(rep, 100_000):
        if weyl.is_involution(g):
            negated = sum(g.perm[i] == negative[i] for i in range(len(negative)))
            found.append((negated, len(g.word), g.word))
    return [word for _, _, word in sorted(found)]


def _rev_tau_input(rng: random.Random, name: str):
    """Criterion 6's shape: y a product of 0-4 Delta_{s,tau(s)} blocks and
    their inverses, I a union of tau-orbits."""
    mat = matrix(name)
    orbits = _tau_orbits(mat)
    blocks = [_orbit_delta(mat, o) for o in orbits]
    blocks += [inverse(b) for b in blocks]
    yw = tuple(a for _ in range(rng.randint(0, 4)) for a in rng.choice(blocks))
    chosen = [o for o in orbits if rng.random() < 0.5]
    return name, yw, tuple(sorted(s for o in chosen for s in o))


def pal_generate(rng: random.Random, n: int) -> list[Op]:
    kinds = ("round_trip", "canonical", "rev_tau", "lift")
    forms = {"round_trip": tuple(PAL_ROUND_TRIP), "canonical": PAL_CANONICAL,
             "rev_tau": ("+".join(PAL_REV_TAU),), "lift": PAL_LIFT}
    strata = []
    for i in range(n):
        kind = kinds[i % 4]
        strata.append((kind, forms[kind][(i // 4) % len(forms[kind])]))
    trips = [k for k in strata if k[0] == "round_trip"]
    sizes = iter(draw_sizes(rng, trips, {k: PAL_ROUND_TRIP[k[1]] for k in set(trips)}))
    involutions = {name: _involution_words(name) for name in set(PAL_LIFT)}
    lifts = [k for k in strata if k[0] == "lift"]
    picks = iter(draw_sizes(rng, lifts, {k: (0, len(involutions[k[1]]) - 1)
                                         for k in set(lifts)}))
    ops = []
    for i, (kind, name) in enumerate(strata):
        if kind == "round_trip":
            args = (name, signed_word(rng, matrix(name).rank, next(sizes)))
        elif kind == "canonical":
            positive = (i // 12) % 2 == 0 or name not in PAL_CANONICAL_SIGNED
            yw = signed_word(rng, matrix(name).rank, rng.randint(0, PAL_Y_MAX), positive)
            args = (name, yw, rng.choice(_subsets(matrix(name).generators)))
        elif kind == "rev_tau":
            args = tuple(_rev_tau_input(rng, PAL_REV_TAU[j % len(PAL_REV_TAU)])
                         for j in range(PAL_REV_TAU_BATCH))
        else:
            args = (name, involutions[name][next(picks)])
        ops.append(Op(f"{kind}/{name}", args))
    return ops


def _order(mat):
    if mat.name.startswith("B"):
        return orderings.typeB_order(mat.rank)
    return orderings.dehornoy_order(mat)


def _pal_input(name, yw, subset):
    mat = matrix(name)
    return palindromes.reconstruct(
        palindromes.PalDecomposition(y=group.from_word(mat, yw), I=subset))


def pal_run(op: Op):
    kind = op.kind.split("/")[0]
    if kind == "rev_tau":
        out = []
        for args in op.args:
            x = _pal_input(*args)
            out.append((x, palindromes.decompose_rev_tau(x)))
        return out
    name = op.args[0]
    mat = matrix(name)
    if kind == "round_trip":
        x = group.from_word(mat, op.args[1])
        p = palindromes.pal(x)
        return x, p, palindromes.unpal(p), palindromes.decompose(p)
    if kind == "canonical":
        x = _pal_input(*op.args)
        return x, palindromes.canonical_decompose(x, _order(mat))
    target = weyl.image(weyl.build_root_system(mat), op.args[1])
    return target, palindromes.involution_lift(mat, target)


def _check_rev_tau(name, x, d) -> str | None:
    if not group.eq(palindromes.reconstruct(d), x):
        return "rev_tau decomposition does not reconstruct"
    perm = monoid.compute_tau_perm(matrix(name))
    if not group.eq(group.tau(d.y), d.y):
        return "tau(y) != y"
    if d.I != tuple(sorted(set(d.I))) or tuple(sorted(perm[i - 1] for i in d.I)) != d.I:
        return "tau(I) != I"
    return None


def pal_check(op: Op, out) -> str | None:
    kind = op.kind.split("/")[0]
    if kind == "rev_tau":
        for (name, _, _), (x, d) in zip(op.args, out):
            error = _check_rev_tau(name, x, d)
            if error:
                return error
        return None
    if kind == "round_trip":
        x, p, root, d = out
        if not group.eq(root, x):
            return "unpal(pal(x)) != x"
        if d.I:
            return "a pure palindrome decomposed with I nonempty"
        if not group.eq(palindromes.reconstruct(d), p):
            return "decompose(pal(x)) does not reconstruct"
        return None
    if kind == "canonical":
        x, d = out
        if not group.eq(palindromes.reconstruct(d), x):
            return "canonical decomposition does not reconstruct"
        if d.I != tuple(sorted(set(d.I))):
            return "I is not a sorted subset"
        return None
    mat = matrix(op.args[0])
    target, d = out
    y = d.y.p  # Delta^2 maps to the identity; only p matters for the image
    dw = monoid.delta(mat, d.I).letters
    if coxeter_image(mat, y + dw + y[::-1]) != target.perm:
        return "lift image differs from its target"
    return None


PALINDROMES = Workload(
    name="palindromes",
    why=("The peel loops, starting and finishing sets and the enumeration in "
         "weyl: pal round trips, canonical and rev-tau decompositions and "
         "involution lifts; lifts and signed canonical searches are the tail."),
    forms=tuple(dict.fromkeys((*PAL_ROUND_TRIP, *PAL_CANONICAL, *PAL_REV_TAU,
                               *PAL_LIFT))),
    generate=pal_generate,
    run=pal_run,
    check=pal_check,
    ops_per_second=11.5,
)


# ---------------------------------------------------------------------------
# orderings

ORD_RANDOM = {6: (100, 300), 7: (100, 300), 8: (100, 300)}  # strands -> design length
ORD_DELTA = {"A5": (80, 120), "A7": (80, 120)}  # length of p: 200-1000 handle steps
ORD_COMPARE = {"A4": (20, 30), "B3": (20, 30), "B4": (20, 30)}  # design lengths
# Design lengths 10-16.  One magnus_sign took about 0.03 s at length 10,
# 0.1 s at 12, 0.7 s at 14 and 3.6 s (up to 18 s) at 16, and an operation
# makes two, so the exponential tail stops at 12.  Every Magnus word has
# length 12: the run's peak memory is the largest single expansion, a
# maximum over the run's Magnus words whose per-word footprint is heavy-
# tailed (median 4 MB, top 1% 19-21 MB, rarely 31 MB).  With half the words
# at length 10 the peak spread by 0.23 of its median over ten seeds; with
# all at 12, twice as many draws from the tail, by 0.12.
ORD_MAGNUS = (12,)  # even lengths of balanced F3 words
ORD_SIZES = {"random": ORD_RANDOM, "delta": ORD_DELTA, "compare": ORD_COMPARE,
             "magnus": {n: (n, n) for n in ORD_MAGNUS}}


def braid_delta(rank: int) -> tuple[int, ...]:
    """Delta of the braid group on rank+1 strands as a positive word."""
    return tuple(j for i in range(1, rank + 1) for j in range(i, 0, -1))


def balanced_free_word(rng: random.Random, length: int) -> tuple[int, ...]:
    """Freely reduced word over F3 in which every exponent sum is 0."""
    while True:
        half = [rng.randint(1, 3) for _ in range(length // 2)]
        w = half + [-g for g in half]
        rng.shuffle(w)
        if all(w[i] != -w[i + 1] for i in range(len(w) - 1)):
            return tuple(w)


def ord_generate(rng: random.Random, n: int) -> list[Op]:
    kinds = tuple(ORD_SIZES)
    strata = []
    for i in range(n):
        forms = tuple(ORD_SIZES[kinds[i % 4]])
        strata.append((kinds[i % 4], forms[(i // 4) % len(forms)]))
    sizes = draw_sizes(rng, strata, {k: ORD_SIZES[k[0]][k[1]] for k in set(strata)})
    ops = []
    for i, ((kind, form), length) in enumerate(zip(strata, sizes)):
        if kind == "random":
            ops.append(Op(f"random/{form}", (form, signed_word(rng, form - 1, length))))
        elif kind == "delta":
            rank = matrix(form).rank
            k = 1 + (i // 8) % 2  # Delta^-2 and Delta^-4 on both forms
            word = inverse(braid_delta(rank)) * (2 * k) + signed_word(
                rng, rank, length, positive=True)
            ops.append(Op(f"delta/{form}", (rank + 1, word)))
        elif kind == "compare":
            mat = matrix(form)
            equal = (i // 12) % 4 == 0
            wx = signed_word(rng, mat.rank, length)
            wy = (insert_relators(rng, mat, wx) if equal
                  else signed_word(rng, mat.rank, length))
            ops.append(Op(f"compare/{form}", (form, wx, wy), equal or None))
        else:
            ops.append(Op(f"magnus/F3/{length}", (balanced_free_word(rng, length),)))
    return ops


def ord_run(op: Op):
    kind = op.kind.split("/")[0]
    if kind in ("random", "delta"):
        strands, word = op.args
        return (orderings.dehornoy_sign(word, strands),
                orderings.dehornoy_sign(inverse(word), strands))
    if kind == "compare":
        name, wx, wy = op.args
        mat = matrix(name)
        x = group.from_word(mat, wx)
        y = group.from_word(mat, wy)
        order = _order(mat)
        return x, y, order.compare(x, y), order.compare(y, x)
    (word,) = op.args
    return orderings.magnus_sign(word, 3), orderings.magnus_sign(inverse(word), 3)


_OPPOSITE = {Comparison.LESS: Comparison.GREATER, Comparison.EQUAL: Comparison.EQUAL,
             Comparison.GREATER: Comparison.LESS}


def ord_check(op: Op, out) -> str | None:
    kind = op.kind.split("/")[0]
    if kind == "compare":
        x, y, c1, c2 = out
        if c2 is not _OPPOSITE[c1]:
            return "compare(x, y) and compare(y, x) are not opposite"
        if op.expect and c1 is not Comparison.EQUAL:
            return "equal-by-construction pair compares unequal"
        if (c1 is Comparison.EQUAL) != group.eq(x, y):
            return "EQUAL disagrees with group.eq"
        return None
    s1, s2 = out
    if s2 != -s1:
        return "sign(w^-1) != -sign(w)"
    if kind == "magnus" and s1 is Sign.ZERO:
        return "nontrivial reduced word has sign ZERO"
    return None


ORDERINGS = Workload(
    name="orderings",
    why=("Handle reduction and series expansion: Dehornoy signs of random "
         "and Delta^-2k-shaped braid words, order comparisons on A4, B3, B4, "
         "and Magnus signs of balanced F3 words, the exponential tail."),
    forms=tuple(ORD_COMPARE),
    generate=ord_generate,
    run=ord_run,
    check=ord_check,
    ops_per_second=12.5,
)


# ---------------------------------------------------------------------------
# referee

# Design length of v is 8-12.  Class sizes grow exponentially with it and
# their tail is heavy: at length 12 a D4 class reached 27720 members (mean
# 1486) and an A4 one 9405 (mean 1049) in 150 draws each, so a few words
# decided a run's throughput and memory.  A4 stops at 11 and D4 at 10.
REF_LENGTHS = {"A3": (8, 12), "A4": (8, 11), "B3": (8, 12), "D4": (8, 10),
               "MIXED": (8, 12)}
REF_FORMS = tuple(REF_LENGTHS)
REF_PAL_MAX = 10  # design: A3 palindromes of length at most 10
REF_PAL_EVERY = 10


def rewrite_walk(rng: random.Random, mat, word, steps: int) -> tuple[int, ...]:
    """A member of word's rewriting class: random single-relation rewrites,
    done by the benchmark itself so the oracle's cache stays cold."""
    w = tuple(word)
    rels = [(a, b) for lhs, rhs in mat.relations() for a, b in ((lhs, rhs), (rhs, lhs))]
    for _ in range(steps):
        spots = [(i, b) for a, b in rels for i in range(len(w) - len(a) + 1)
                 if w[i:i + len(a)] == a]
        if not spots:
            break
        i, b = rng.choice(spots)
        w = w[:i] + b + w[i + len(b):]
    return w


# On MIXED, m(1,2) = 3 gives 121 = 212, which moves letters between 1 and
# 2, and m(2,3) = 4 gives 2323 = 3232; neither changes how often 3 occurs
# (m(1,3) = inf gives no relation), so that count is a class invariant.
MIXED_INVARIANT_LETTER = 3


def certified_nonmember(rng: random.Random, mat, word) -> tuple[int, ...]:
    """A same-length word outside word's class: a differing Coxeter image
    in finite type; on MIXED, a differing count of the letter whose count
    every relation preserves."""
    while True:
        other = signed_word(rng, mat.rank, len(word), positive=True)
        if mat is MIXED:
            g = MIXED_INVARIANT_LETTER
            if other.count(g) != word.count(g):
                return other
        elif coxeter_image(mat, other) != coxeter_image(mat, word):
            return other


A3_DELTAS = {  # Delta_I of A3 for every subset, written out by hand
    (): (), (1,): (1,), (2,): (2,), (3,): (3,), (1, 2): (1, 2, 1),
    (1, 3): (1, 3), (2, 3): (2, 3, 2), (1, 2, 3): (1, 2, 1, 3, 2, 1),
}


def ref_generate(rng: random.Random, n: int) -> list[Op]:
    pal_ops = {i for i in range(n) if i % REF_PAL_EVERY == REF_PAL_EVERY - 1}
    strata = [REF_FORMS[j % len(REF_FORMS)] for j in range(n - len(pal_ops))]
    sizes = iter(draw_sizes(rng, strata, REF_LENGTHS))
    forms = iter(strata)
    ops = []
    for i in range(n):
        if i in pal_ops:
            subset = rng.choice(sorted(A3_DELTAS))
            room = (REF_PAL_MAX - len(A3_DELTAS[subset])) // 2
            u = signed_word(rng, 3, rng.randint(0, room), positive=True)
            ops.append(Op("pal/A3", (u + A3_DELTAS[subset] + u[::-1],)))
            continue
        name = next(forms)
        mat = matrix(name)
        v = signed_word(rng, mat.rank, next(sizes), positive=True)
        members = [rewrite_walk(rng, mat, v, 2 * len(v)) for _ in range(2)]
        member_prefixes = [w[:rng.randint(1, len(w))] for w in members]
        random_prefixes = [signed_word(rng, mat.rank, rng.randint(1, len(v)), True)
                           for _ in range(2)]
        ops.append(Op(f"classes/{name}", (
            name, v, members[0], certified_nonmember(rng, mat, v),
            tuple(member_prefixes + random_prefixes))))
    return ops


def ref_run(op: Op):
    if op.kind.startswith("pal/"):
        (p,) = op.args
        mat = matrix("A3")
        x = group.from_positive(monoid.word(mat, p))
        pres = oracle.presentation_from_matrix(mat)
        return (palindromes.core_decompositions(x),
                oracle.all_pal_decompositions(pres, p, oracle.artin_deltas(mat)))
    name, v, member, other, prefixes = op.args
    mat = matrix(name)
    pres = oracle.presentation_from_matrix(mat)
    pv = monoid.word(mat, v)
    pm, po = monoid.word(mat, member), monoid.word(mat, other)
    fast = (
        monoid.equals(pv, pm),
        monoid.equals(pv, po),
        tuple(monoid.divides_left(monoid.word(mat, u), pv) is not None
              for u in prefixes),
        monoid.starting_set(pv),
        monoid.normal_form(pv) == monoid.normal_form(pm),
        monoid.normal_form(pv) == monoid.normal_form(po),
    )
    eq_member = oracle.equals_oracle(pres, v, member)
    eq_other = oracle.equals_oracle(pres, v, other)
    slow = (
        eq_member,
        eq_other,
        tuple(oracle.divides_left_oracle(pres, u, v) for u in prefixes),
        tuple(s for s in mat.generators if oracle.divides_left_oracle(pres, (s,), v)),
        eq_member,
        eq_other,
    )
    return fast, slow


_REF_PARTS = ("equals(member)", "equals(non-member)", "divides_left",
              "starting_set", "normal_form(member)", "normal_form(non-member)")


def ref_check(op: Op, out) -> str | None:
    if op.kind.startswith("pal/"):
        fast, slow = out
        nf = monoid.normal_form
        mat = matrix("A3")
        if any(d.y.k for d in fast):
            return "core decomposition y is not positive"
        got = sorted((nf(monoid.word(mat, d.y.p)), d.I) for d in fast)
        want = sorted((nf(monoid.word(mat, y)), subset) for y, subset in slow)
        return None if got == want else "core_decompositions disagrees with the oracle"
    fast, slow = out
    if not slow[0]:
        return "oracle rejects a member built by rewriting"
    if slow[1]:
        return "oracle accepts a certified non-member"
    for part, a, b in zip(_REF_PARTS, fast, slow):
        if a != b:
            return f"{part} disagrees with the oracle"
    return None


REFEREE = Workload(
    name="referee",
    why=("The brute-force oracle refereeing the fast path on many short "
         "positive words, including the infinite-type (3,4,inf) matrix; "
         "class_of's unbounded cache makes memory meaningful."),
    forms=("A3", "A4", "B3", "D4"),
    generate=ref_generate,
    run=ref_run,
    check=ref_check,
    ops_per_second=135.0,
)


WORKLOADS = {w.name: w for w in (WORD_PROBLEM, PALINDROMES, ORDERINGS, REFEREE)}


def setup_tables(forms) -> None:
    """Per-type tables through public calls: root system, Delta, tau and
    the group's Delta^2 tables."""
    for name in forms:
        mat = matrix(name)
        weyl.build_root_system(mat)
        monoid.ambient_delta(mat)
        monoid.compute_tau_perm(mat)
        group.identity(mat)
