"""Command-line surface: every library operation behind one `artinpal`
program with shared text formats.  `_COMMANDS` is the one list of
subcommands, with their positional arguments and help lines; the parser
and the `--json` record's `inputs.args` both read it.

Exit protocol: 0 for success / a true predicate, 1 for a false predicate
(`_verdict`) or an absent value (extract, lcm: `_word_or_none`; an empty
oracle-decomps), 2 for usage errors (argparse), 3 for domain errors, 4 for
an unexpected internal failure (any other exception, such as a
RecursionError), each with a one-line reason on stderr.  Predicates never
exit 3 just because the answer is no.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import group, monoid, oracle, orderings, palindromes, weyl
from .coxeter import CoxeterMatrix, format_word, named_matrix, parse_matrix, parse_word
from .errors import ArtinError
from .monoid import PositiveWord

def _parse_set(text: str) -> tuple[int, ...]:
    """Generator subsets: `1 3`, `{1,3}`, or `{}` for the empty set."""
    cleaned = text.replace("{", " ").replace("}", " ").replace(",", " ")
    try:
        items = tuple(sorted({int(t) for t in cleaned.split()}))
    except ValueError:
        raise ArtinError(f"cannot parse generator set from {text!r}") from None
    return items


def _format_set(items) -> str:
    return "{" + ",".join(str(x) for x in sorted(items)) + "}"


def _budget(text: str) -> int:
    """--budget values: a count, so an integer >= 0."""
    try:
        if (n := int(text)) >= 0:
            return n
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"budget must be an integer >= 0, got {text!r}")


def _element(matrix: CoxeterMatrix, text: str) -> group.GroupElement:
    return group.from_word(matrix, parse_word(text))


def _positive(matrix: CoxeterMatrix, text: str) -> PositiveWord:
    return PositiveWord(matrix, matrix.check_word(parse_word(text), positive=True))


def _element_out(x: group.GroupElement) -> str:
    return format_word(group.to_signed_word(x))


# the global options' values when absent, pre-filled before parsing
_DEFAULTS = {"type_name": None, "matrix_file": None, "order": "dehornoy",
             "opp": False, "budget": None, "as_json": False, "presentation": None}


# every subcommand: its positional arguments and its help line, in --help order
_COMMANDS = {
    "eq": (("word1", "word2"), "group equality of two signed words"),
    "nf": (("word",), "canonical word for a positive word"),
    "extract": (("generator", "word"),
                "quotient after removing a leading generator, or none"),
    "lcm": (("word1", "word2"), "right lcm of two positive words, or none"),
    "delta": (("generators",), "fundamental element of a generator subset"),
    "sset": (("word",), "starting set of a positive word"),
    "fset": (("word",), "finishing set of a positive word"),
    "rev": (("word",), "reversal anti-automorphism"),
    "tau": (("word",), "conjugation by Delta"),
    "pal": (("word",), "palindromization x * rev(x)"),
    "unpal": (("word",), "inverse of palindromization on pure palindromes"),
    "is-pal": (("word",), "is the element a palindrome"),
    "is-pure": (("word",), "is the Coxeter image trivial"),
    "decompose": (("word",), "one decomposition y Delta_I rev(y)"),
    "decompose-canonical": (("word",),
                            "ordering-minimal decomposition y Delta_I rev(y)"),
    "decompose-tau": (("word",), "tau-invariant decomposition"),
    "symmetrize": (("y_word", "generators"),
                   "rewrite a commuting decomposition to a tau-stable one"),
    "delta-assoc": (("word",), "delta with x = Delta delta rev(delta)"),
    "sign": (("word",), "ordering sign against the identity"),
    "cmp": (("word1", "word2"), "ordering comparison, prints LESS/EQUAL/GREATER"),
    "oracle-eq": (("word1", "word2"), "rewriting-oracle equality"),
    "oracle-decomps": (("word",), "all decompositions by exhaustive search"),
    "oracle-squarefree": (("word",), "no class member contains s s"),
    "weyl-order": ((), "order of the Coxeter group"),
    "weyl-involutions": ((), "every involution of the Coxeter group with a "
                             "palindromic lift"),
}


def build_parser() -> argparse.ArgumentParser:
    # the global options, accepted before and after the subcommand alike; an
    # absent one is left alone (SUPPRESS), so a value given before survives
    g = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    g.add_argument("--type", dest="type_name", metavar="NAME",
                   help="built-in Coxeter matrix, e.g. A3, B2, H3, I2(5)")
    g.add_argument("--matrix", dest="matrix_file", metavar="FILE",
                   help="Coxeter matrix file")
    g.add_argument("--order", choices=("dehornoy", "magnus"),
                   help="ordering for sign/cmp/decompose-canonical "
                        "(dehornoy on a type B matrix means the embedding order)")
    g.add_argument("--opp", action="store_true",
                   help="flip the Delta_I comparison in decompose-canonical")
    g.add_argument("--budget", type=_budget, metavar="N",
                   help="search budget override, >= 0 (lcm, decompositions, oracle "
                        "caps, handle steps of sign/cmp, weyl group size)")
    g.add_argument("--json", action="store_true", dest="as_json",
                   help="emit one machine-readable record")
    g.add_argument("--presentation", metavar="FILE",
                   help="presentation file for oracle-eq / oracle-squarefree")
    ap = argparse.ArgumentParser(
        prog="artinpal", parents=[g],
        description="word arithmetic, orderings and palindrome decompositions "
                    "in finite-type Artin groups",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    for name, (positionals, text) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, parents=[g])
        for positional in positionals:
            p.add_argument(positional)
    return ap


def _resolve_matrix(ap: argparse.ArgumentParser, args) -> CoxeterMatrix:
    if (args.type_name is None) == (args.matrix_file is None):
        ap.error("exactly one of --type or --matrix is required")
    if args.type_name is not None:
        return named_matrix(args.type_name)
    with open(args.matrix_file, encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def _load_presentation(matrix: CoxeterMatrix, args) -> oracle.Presentation:
    if args.presentation is None:
        return oracle.presentation_from_matrix(matrix)
    with open(args.presentation, encoding="utf-8") as fh:
        return oracle.parse_presentation(fh.read())


def _oracle_caps(args) -> dict:
    if args.budget is None:
        return {}
    return {"class_cap": args.budget}


def _verdict(verdict: bool) -> tuple[str, int, bool]:
    """A predicate's answer: true exits 0, false exits 1."""
    return str(verdict).lower(), 0 if verdict else 1, verdict


def _word_or_none(word: PositiveWord | None) -> tuple[str, int, str | None]:
    """An optional word's answer: the word exits 0, an absent one prints
    none and exits 1."""
    if word is None:
        return "none", 1, None
    out = format_word(word.letters)
    return out, 0, out


def _run(matrix: CoxeterMatrix, args) -> tuple[str, int, object]:
    """Returns (text result, exit code, json result)."""
    cmd = args.command

    if cmd == "eq":
        return _verdict(group.eq(_element(matrix, args.word1),
                                 _element(matrix, args.word2)))

    if cmd == "nf":
        sets = monoid.normal_form(_positive(matrix, args.word))
        out = format_word(s for heads in sets for s in monoid.delta(matrix, heads))
        return out, 0, {"word": out, "sets": [sorted(s) for s in sets]}

    if cmd == "extract":
        try:
            s = int(args.generator)
        except ValueError:
            raise ArtinError(f"generator must be an integer, got {args.generator!r}")
        matrix.check_word((s,), positive=True)
        return _word_or_none(monoid.left_extract(_positive(matrix, args.word), s))

    if cmd == "lcm":
        return _word_or_none(monoid.right_lcm(_positive(matrix, args.word1),
                                              _positive(matrix, args.word2),
                                              budget=args.budget))

    if cmd == "delta":
        subset = _parse_set(args.generators)
        matrix.check_word(subset, positive=True)
        if (d := monoid.delta(matrix, subset)) is None:
            raise ArtinError(
                f"Delta is undefined for {_format_set(subset)}: "
                "the parabolic is not finite type"
            )
        return _word_or_none(d)

    if cmd in ("sset", "fset"):
        w = _positive(matrix, args.word)
        s = monoid.starting_set(w) if cmd == "sset" else monoid.finishing_set(w)
        return _format_set(s), 0, sorted(s)

    if cmd in ("rev", "tau", "pal", "unpal", "delta-assoc"):
        fn = {"rev": group.rev, "tau": group.tau, "pal": palindromes.pal,
              "unpal": palindromes.unpal,
              "delta-assoc": palindromes.delta_associated}[cmd]
        out = _element_out(fn(_element(matrix, args.word)))
        return out, 0, out

    if cmd in ("is-pal", "is-pure"):
        test = group.is_palindrome if cmd == "is-pal" else group.is_pure
        return _verdict(test(_element(matrix, args.word)))

    if cmd in ("decompose", "decompose-canonical", "decompose-tau", "symmetrize"):
        if cmd == "symmetrize":
            subset = _parse_set(args.generators)
            matrix.check_word(subset, positive=True)
            given = palindromes.PalDecomposition(y=_element(matrix, args.y_word),
                                                 I=subset)
            d = palindromes.tau_symmetrize(given)
            x = palindromes.reconstruct(given)
        elif cmd == "decompose-canonical":
            handle = orderings.order_for_matrix(matrix, args.order)
            x = _element(matrix, args.word)
            d = palindromes.canonical_decompose(x, handle, opp=args.opp,
                                                budget=args.budget)
        else:
            x = _element(matrix, args.word)
            d = (palindromes.decompose if cmd == "decompose"
                 else palindromes.decompose_rev_tau)(x)
        y_out = _element_out(d.y)
        recon = group.eq(palindromes.reconstruct(d), x)
        return f"y = {y_out}\nI = {_format_set(d.I)}", 0, {
            "y": y_out, "I": sorted(d.I), "reconstruction": recon}

    if cmd in ("sign", "cmp"):
        cap = orderings.DEFAULT_HANDLE_CAP if args.budget is None else args.budget
        handle = orderings.order_for_matrix(matrix, args.order, cap)
        if cmd == "sign":
            out = handle.sign(_element(matrix, args.word)).name
        else:
            out = handle.compare(_element(matrix, args.word1),
                                 _element(matrix, args.word2)).value
        return out, 0, out

    if cmd == "oracle-eq":
        P = _load_presentation(matrix, args)
        return _verdict(oracle.equals_oracle(P, parse_word(args.word1),
                                             parse_word(args.word2),
                                             **_oracle_caps(args)))

    if cmd == "oracle-squarefree":
        P = _load_presentation(matrix, args)
        return _verdict(oracle.square_free_oracle(P, parse_word(args.word),
                                                  **_oracle_caps(args)))

    if cmd == "oracle-decomps":
        if args.presentation is not None:
            raise ArtinError(
                "oracle-decomps always uses the Artin presentation of the matrix"
            )
        P = oracle.presentation_from_matrix(matrix)
        w = matrix.check_word(parse_word(args.word), positive=True)
        deltas = oracle.artin_deltas(matrix, max_len=len(w))
        res = oracle.all_pal_decompositions(P, w, deltas, **_oracle_caps(args))
        records = [{"y": format_word(y), "I": sorted(i)} for y, i in res]
        text = "\n".join(f"y = {r['y']} ; I = {_format_set(r['I'])}" for r in records)
        return text or "none", 0 if records else 1, records

    if cmd in ("weyl-order", "weyl-involutions"):
        rep = weyl.build_root_system(matrix)
        cap = 1_000_000 if args.budget is None else args.budget
        elements = weyl.enumerate_group(rep, cap)
        if cmd == "weyl-order":
            return str(len(elements)), 0, len(elements)
        todo = sorted((g for g in elements if weyl.is_involution(g)),
                      key=lambda g: (len(g.word), g.word))
        records = []
        for g in todo:
            d = palindromes.involution_lift(matrix, g)
            records.append({"w": format_word(g.word), "y": _element_out(d.y),
                            "I": sorted(d.I)})
        lines = [f"w = {r['w']} : y = {r['y']} ; I = {_format_set(r['I'])}"
                 for r in records]
        return "\n".join([f"involutions {len(todo)}", *lines]), 0, records

    raise ArtinError(f"internal: unhandled subcommand {cmd!r}")


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv, argparse.Namespace(**_DEFAULTS))
    try:
        matrix = _resolve_matrix(ap, args)
        text, code, result = _run(matrix, args)
    except (ArtinError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # the process boundary: never a traceback
        reason = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {reason}", file=sys.stderr)
        return 4
    if args.as_json:
        print(json.dumps({
            "command": args.command,
            "inputs": {
                "type": args.type_name or args.matrix_file,
                "args": [getattr(args, name) for name in _COMMANDS[args.command][0]],
                "order": args.order,
                "opp": args.opp,
            },
            "result": result,
        }, sort_keys=True))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
