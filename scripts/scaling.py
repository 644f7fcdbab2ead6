"""Growth of the library's kernels with input size, one JSON row per line.

    python3 scripts/scaling.py

Each kernel runs on fixed-seed inputs at a ladder of sizes.  A row gives
the kernel, the size, the number of inputs, their CPU time
(`time.process_time`), a work count that does not depend on the machine,
and, from the second size on, the growth factor of each per doubling of
the size: (this / previous) ** (1 / log2(size / previous size)).  A
factor of 2 is linear growth, 4 quadratic.  Work is counted on a second,
untimed pass, so the counting costs the timing nothing, and by the
counters of bench/tracer.py (`HOOKS`, `Count`), so a count here means
what the benchmark's trace means by it.

KERNELS is the table of rows; a layer adds its own with a `Kernel` entry.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from artinpal import coxeter, group, monoid, oracle, orderings, palindromes  # noqa: E402
from tracer import HOOKS, Count  # noqa: E402


@dataclass(frozen=True)
class Kernel:
    """One kernel: its sizes, its inputs at a size, one run on an input,
    and the work of that run in `unit`s."""

    name: str
    unit: str
    sizes: tuple[int, ...]
    inputs: Callable[[random.Random, int], list]
    run: Callable[[object], object]
    work: Callable[[object], int]


def signed_word(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    return tuple(rng.choice((1, -1)) * rng.randint(1, rank) for _ in range(length))


def balanced_free_word(rng: random.Random, length: int) -> tuple[int, ...]:
    """Freely reduced word over F3 in which every exponent sum is 0."""
    while True:
        half = [rng.randint(1, 3) for _ in range(length // 2)]
        w = half + [-g for g in half]
        rng.shuffle(w)
        if all(w[i] != -w[i + 1] for i in range(len(w) - 1)):
            return tuple(w)


def counted(module, name: str, hook, key: str, call: Callable[[], object]) -> int:
    """Run call() with module.<name> wrapped so that `hook`, a tracer
    counter, sees each of its calls, and return the count taken under key."""
    real = getattr(module, name)
    layer = module.__name__.rpartition(".")[2]
    sink = SimpleNamespace(counts=defaultdict(int), originals={f"{layer}.{name}": real})

    def wrapper(*args):
        before = hook.before(sink, args)
        result = real(*args)
        hook.after(sink, args, result, before, None)
        return result

    setattr(module, name, wrapper)
    try:
        call()
    finally:
        setattr(module, name, real)
    return sink.counts[key]


# -- dynnikov_action: 8 strands, letters read

STRANDS = 8


def dynnikov_inputs(rng, length):
    return [signed_word(rng, STRANDS - 1, length) for _ in range(20)]


# -- magnus_sign: balanced F3 words, series terms of the expansions it makes

def magnus_inputs(rng, length):
    return [balanced_free_word(rng, length) for _ in range(50)]


def magnus_work(word) -> int:
    return counted(orderings, "magnus_image", HOOKS["orderings.magnus_image"],
                   "orderings.magnus_terms", lambda: orderings.magnus_sign(word, 3))


# -- order.compare: elements from signed words, letters signed

LETTERS_SIGNED = Count("orderings.letters_signed", lambda args, result: len(args[0]))


def compare_kernel(name: str) -> Kernel:
    mat = coxeter.named_matrix(name)
    order = orderings.order_for_matrix(mat)

    def inputs(rng, length):
        return [(group.from_word(mat, signed_word(rng, mat.rank, length)),
                 group.from_word(mat, signed_word(rng, mat.rank, length)))
                for _ in range(10)]

    def work(pair) -> int:
        return counted(orderings, "dehornoy_sign", LETTERS_SIGNED, LETTERS_SIGNED.key,
                       lambda: order.compare(*pair))

    return Kernel(f"order.compare/{name}", "letters signed", (25, 50, 100, 200, 400),
                  inputs, lambda pair: order.compare(*pair), work)


# -- palindromes.decompose: pal(x), letters of the positive core peeled

def core_letters(mat) -> Callable[[object], int]:
    """The length of the core Delta^(2N) p that the peel runs on, N the
    least even exponent >= p.k."""
    top = group.length(group.delta_element(mat))
    return lambda p: group.length(p) + 4 * ((p.k + 1) // 2) * top


def decompose_kernel(name: str) -> Kernel:
    mat = coxeter.named_matrix(name)

    def inputs(rng, length):
        return [palindromes.pal(group.from_word(mat, signed_word(rng, mat.rank, length)))
                for _ in range(5)]

    return Kernel(f"palindromes.decompose/{name}", "core letters",
                  (25, 50, 100, 200, 400), inputs, palindromes.decompose,
                  core_letters(mat))


# -- palindromes.decompose_rev_tau: y Delta_I rev(y) with y a product of
# Delta_{s,tau(s)} blocks and their inverses and I a union of tau-orbits
# (the palindromes workload's shape), letters of the positive core peeled

def rev_tau_kernel(name: str) -> Kernel:
    mat = coxeter.named_matrix(name)
    perm = monoid.compute_tau_perm(mat)
    orbits = sorted({tuple(sorted({s, perm[s - 1]})) for s in mat.generators})
    blocks = [group.delta_element(mat, o) for o in orbits]
    blocks += [group.inv(b) for b in blocks]

    def inputs(rng, length):
        out = []
        for _ in range(5):
            y = group.identity(mat)
            for _ in range(length):
                y = group.mult(y, rng.choice(blocks))
            subset = tuple(sorted(s for o in orbits if rng.random() < 0.5 for s in o))
            out.append(palindromes.reconstruct(palindromes.PalDecomposition(y, subset)))
        return out

    return Kernel(f"palindromes.decompose_rev_tau/{name}", "core letters",
                  (25, 50, 100, 200, 400), inputs, palindromes.decompose_rev_tau,
                  core_letters(mat))


# -- oracle.class_of: positive D4 words, each closed from a cleared cache,
# members closed

def class_of_kernel(name: str) -> Kernel:
    pres = oracle.presentation_from_matrix(coxeter.named_matrix(name))

    def inputs(rng, length):
        return [tuple(rng.randint(1, pres.ngens) for _ in range(length))
                for _ in range(20)]

    def run(w):
        oracle.class_of.cache_clear()
        return oracle.class_of(pres, w)

    def work(w) -> int:
        oracle.class_of.cache_clear()
        return counted(oracle, "class_of", HOOKS["oracle.class_of"],
                       "oracle.class_members", lambda: oracle.class_of(pres, w))

    return Kernel(f"oracle.class_of/{name}", "members closed", (4, 6, 8, 10, 12),
                  inputs, run, work)


KERNELS = (
    Kernel("orderings.dynnikov_action", "letters read",
           tuple(100 * 2 ** k for k in range(7)), dynnikov_inputs,
           lambda w: orderings.dynnikov_action(w, (0, 1) * STRANDS), len),
    Kernel("orderings.magnus_sign", "series terms", (10, 12, 14, 16),
           magnus_inputs, lambda w: orderings.magnus_sign(w, 3), magnus_work),
    compare_kernel("A4"),
    compare_kernel("B4"),
    decompose_kernel("A4"),
    decompose_kernel("E8"),
    rev_tau_kernel("A5"),
    class_of_kernel("D4"),
)


def growth(now: float, before: float, size: int, before_size: int) -> float | None:
    if before <= 0 or now <= 0:
        return None
    return round((now / before) ** (1 / math.log2(size / before_size)), 3)


def rows(kernel: Kernel, sizes: int):
    previous = None
    for size in kernel.sizes[:sizes]:
        items = kernel.inputs(random.Random(f"scaling {kernel.name} {size}"), size)
        start = time.process_time()
        for item in items:
            kernel.run(item)
        cpu = time.process_time() - start
        work = sum(kernel.work(item) for item in items)
        row = {"kernel": kernel.name, "size": size, "inputs": len(items),
               "cpu_s": round(cpu, 6), "work": work, "work_unit": kernel.unit,
               "cpu_growth_per_doubling": None, "work_growth_per_doubling": None}
        if previous is not None:
            row["cpu_growth_per_doubling"] = growth(cpu, previous["cpu_s"],
                                                    size, previous["size"])
            row["work_growth_per_doubling"] = growth(work, previous["work"],
                                                     size, previous["size"])
        previous = row
        yield row


def main() -> None:
    for kernel in KERNELS:
        for row in rows(kernel, len(kernel.sizes)):
            print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
