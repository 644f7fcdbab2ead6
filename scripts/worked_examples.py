"""Library walkthrough: the main objects and operations on one page.

Run with `python3 scripts/worked_examples.py`.  Everything printed here is
recomputed on the spot; nothing is hard-coded.
"""

from artinpal import coxeter, group, monoid, orderings, palindromes
from artinpal.coxeter import format_word


def show(label, value):
    print(f"{label:<44} {value}")


def main():
    a3 = coxeter.builtin("A", 3)
    show("matrix", coxeter.serialize_matrix(a3).replace("\n", " / ").strip(" /"))
    show("classification", coxeter.classify(a3))

    # monoid arithmetic
    w = monoid.word(a3, (2, 1, 3, 2))
    show("starting set of 2 1 3 2", monoid.starting_set(w))
    show("normal form of 2 1 3 2", monoid.normal_form(w))
    d = monoid.ambient_delta(a3)
    show("Delta word", format_word(d.letters))
    show("tau permutation", monoid.compute_tau_perm(a3))

    # group elements and palindromization
    x = group.from_word(a3, (1, 2))
    px = palindromes.pal(x)
    show("pal(1 2)", format_word(group.to_signed_word(px)))
    show("unpal returns the root", group.eq(palindromes.unpal(px), x))

    # decompositions of the braid word 2 1 3 2
    elt = group.from_word(a3, (2, 1, 3, 2))
    dec = palindromes.decompose(elt)
    show("decompose(2 1 3 2):  y", format_word(group.to_signed_word(dec.y)))
    show("decompose(2 1 3 2):  I", set(dec.I))

    # all core decompositions of Delta, then the ordering-minimal one
    delta_elt = group.delta_element(a3)
    cands = palindromes.core_decompositions(delta_elt)
    show("Delta has decompositions", len(cands))
    order = orderings.dehornoy_order(a3)
    best = palindromes.canonical_decompose(delta_elt, order)
    show("canonical:  y", format_word(group.to_signed_word(best.y)))
    show("canonical:  I", set(best.I))
    opp = palindromes.canonical_decompose(delta_elt, order, opp=True)
    show("canonical (opp):  I", set(opp.I))

    # orderings
    show("dehornoy sign of 1 -2",
         orderings.dehornoy_sign((1, -2), 4).name)
    lt = order.compare(group.from_word(a3, (3, 2)), group.from_word(a3, (1, 2)))
    show("3 2 versus 1 2", lt.value)

    # tau-invariant rewriting of a decomposition
    start = palindromes.PalDecomposition(y=group.identity(a3), I=(1,))
    sym = palindromes.tau_symmetrize(start)
    show("symmetrized I for {1}", set(sym.I))
    show("element unchanged",
         group.eq(palindromes.reconstruct(sym), palindromes.reconstruct(start)))

    # the order follows the matrix: on type B it is the embedding order
    b2 = coxeter.builtin("B", 2)
    ob = orderings.order_for_matrix(b2)
    show("type B generator sign", ob.sign(group.from_word(b2, (2,))).name)


if __name__ == "__main__":
    main()
