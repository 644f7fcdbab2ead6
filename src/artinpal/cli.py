"""Command-line surface: every library operation behind one `artinpal`
program with shared text formats.

Exit protocol: 0 for success / a true predicate, 1 for a false predicate
or an absent value (extract, lcm), 2 for usage errors (argparse), 3 for
domain errors, 4 for an unexpected internal failure (any other exception,
such as a RecursionError), each with a one-line reason on stderr.
Predicates never exit 3 just because the answer is no.
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

    def add(name, *words, help=""):
        p = sub.add_parser(name, help=help, parents=[g])
        for w in words:
            p.add_argument(w)
        return p

    add("eq", "word1", "word2", help="group equality of two signed words")
    add("nf", "word", help="canonical word for a positive word")
    add("extract", "generator", "word",
        help="quotient after removing a leading generator, or none")
    add("lcm", "word1", "word2", help="right lcm of two positive words, or none")
    add("delta", "generators", help="fundamental element of a generator subset")
    add("sset", "word", help="starting set of a positive word")
    add("fset", "word", help="finishing set of a positive word")
    add("rev", "word", help="reversal anti-automorphism")
    add("tau", "word", help="conjugation by Delta")
    add("pal", "word", help="palindromization x * rev(x)")
    add("unpal", "word", help="inverse of palindromization on pure palindromes")
    add("is-pal", "word", help="is the element a palindrome")
    add("is-pure", "word", help="is the Coxeter image trivial")
    add("decompose", "word", help="one decomposition y Delta_I rev(y)")
    add("decompose-canonical", "word",
        help="ordering-minimal decomposition y Delta_I rev(y)")
    add("decompose-tau", "word", help="tau-invariant decomposition")
    add("symmetrize", "y_word", "generators",
        help="rewrite a commuting decomposition to a tau-stable one")
    add("delta-assoc", "word",
        help="delta with x = Delta delta rev(delta)")
    add("sign", "word", help="ordering sign against the identity")
    add("cmp", "word1", "word2", help="ordering comparison, prints LESS/EQUAL/GREATER")
    add("oracle-eq", "word1", "word2", help="rewriting-oracle equality")
    add("oracle-decomps", "word", help="all decompositions by exhaustive search")
    add("oracle-squarefree", "word", help="no class member contains s s")
    add("weyl-order", help="order of the Coxeter group")
    add("weyl-involutions",
        help="every involution of the Coxeter group with a palindromic lift")
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


def _run(matrix: CoxeterMatrix, args) -> tuple[object, int, dict]:
    """Returns (text result, exit code, json result fields)."""
    cmd = args.command

    if cmd == "eq":
        verdict = group.eq(_element(matrix, args.word1), _element(matrix, args.word2))
        return str(verdict).lower(), 0 if verdict else 1, {"result": verdict}

    if cmd == "nf":
        w = _positive(matrix, args.word)
        sets = monoid.normal_form(w)
        flat: list[int] = []
        for heads in sets:
            d = monoid.delta(matrix, heads)
            flat.extend(d.letters)
        out = format_word(flat)
        return out, 0, {"result": {"word": out,
                                   "sets": [sorted(s) for s in sets]}}

    if cmd == "extract":
        try:
            s = int(args.generator)
        except ValueError:
            raise ArtinError(f"generator must be an integer, got {args.generator!r}")
        matrix.check_word((s,), positive=True)
        q = monoid.left_extract(_positive(matrix, args.word), s)
        if q is None:
            return "none", 1, {"result": None}
        out = format_word(q.letters)
        return out, 0, {"result": out}

    if cmd == "lcm":
        q = monoid.right_lcm(_positive(matrix, args.word1),
                             _positive(matrix, args.word2),
                             budget=args.budget)
        if q is None:
            return "none", 1, {"result": None}
        out = format_word(q.letters)
        return out, 0, {"result": out}

    if cmd == "delta":
        subset = _parse_set(args.generators)
        matrix.check_word(subset, positive=True)
        d = monoid.delta(matrix, subset)
        if d is None:
            raise ArtinError(
                f"Delta is undefined for {_format_set(subset)}: "
                "the parabolic is not finite type"
            )
        out = format_word(d.letters)
        return out, 0, {"result": out}

    if cmd in ("sset", "fset"):
        w = _positive(matrix, args.word)
        s = monoid.starting_set(w) if cmd == "sset" else monoid.finishing_set(w)
        return _format_set(s), 0, {"result": sorted(s)}

    if cmd in ("rev", "tau", "pal", "unpal"):
        x = _element(matrix, args.word)
        fn = {"rev": group.rev, "tau": group.tau,
              "pal": palindromes.pal, "unpal": palindromes.unpal}[cmd]
        out = _element_out(fn(x))
        return out, 0, {"result": out}

    if cmd == "is-pal":
        verdict = group.is_palindrome(_element(matrix, args.word))
        return str(verdict).lower(), 0 if verdict else 1, {"result": verdict}

    if cmd == "is-pure":
        verdict = group.is_pure(_element(matrix, args.word))
        return str(verdict).lower(), 0 if verdict else 1, {"result": verdict}

    if cmd in ("decompose", "decompose-canonical", "decompose-tau", "symmetrize",
               "delta-assoc"):
        if cmd == "decompose":
            d = palindromes.decompose(_element(matrix, args.word))
        elif cmd == "decompose-canonical":
            handle = orderings.order_for_matrix(matrix, args.order)
            d = palindromes.canonical_decompose(
                _element(matrix, args.word), handle,
                opp=args.opp, budget=args.budget,
            )
        elif cmd == "decompose-tau":
            d = palindromes.decompose_rev_tau(_element(matrix, args.word))
        elif cmd == "symmetrize":
            subset = _parse_set(args.generators)
            matrix.check_word(subset, positive=True)
            d = palindromes.tau_symmetrize(palindromes.PalDecomposition(
                y=_element(matrix, args.y_word), I=subset))
        else:
            root = palindromes.delta_associated(_element(matrix, args.word))
            out = _element_out(root)
            return out, 0, {"result": out}
        y_out = _element_out(d.y)
        if cmd == "symmetrize":
            original = palindromes.PalDecomposition(
                y=_element(matrix, args.y_word),
                I=_parse_set(args.generators))
            recon = group.eq(palindromes.reconstruct(d),
                             palindromes.reconstruct(original))
        else:
            recon = group.eq(palindromes.reconstruct(d),
                             _element(matrix, args.word))
        text = f"y = {y_out}\nI = {_format_set(d.I)}"
        return text, 0, {"result": {"y": y_out, "I": sorted(d.I),
                                    "reconstruction": recon}}

    if cmd in ("sign", "cmp"):
        cap = orderings.DEFAULT_HANDLE_CAP if args.budget is None else args.budget
        handle = orderings.order_for_matrix(matrix, args.order, cap)
        if cmd == "sign":
            s = handle.sign(_element(matrix, args.word))
            return s.name, 0, {"result": s.name}
        c = handle.compare(_element(matrix, args.word1),
                           _element(matrix, args.word2))
        return c.value, 0, {"result": c.value}

    if cmd == "oracle-eq":
        P = _load_presentation(matrix, args)
        verdict = oracle.equals_oracle(P, parse_word(args.word1),
                                       parse_word(args.word2), **_oracle_caps(args))
        return str(verdict).lower(), 0 if verdict else 1, {"result": verdict}

    if cmd == "oracle-squarefree":
        P = _load_presentation(matrix, args)
        verdict = oracle.square_free_oracle(P, parse_word(args.word),
                                            **_oracle_caps(args))
        return str(verdict).lower(), 0 if verdict else 1, {"result": verdict}

    if cmd == "oracle-decomps":
        if args.presentation is not None:
            raise ArtinError(
                "oracle-decomps always uses the Artin presentation of the matrix"
            )
        P = oracle.presentation_from_matrix(matrix)
        w = matrix.check_word(parse_word(args.word), positive=True)
        deltas = oracle.artin_deltas(matrix, max_len=len(w))
        res = oracle.all_pal_decompositions(P, w, deltas, **_oracle_caps(args))
        lines = [f"y = {format_word(y)} ; I = {_format_set(i)}" for y, i in res]
        return "\n".join(lines) if lines else "none", 0 if lines else 1, {
            "result": [{"y": format_word(y), "I": sorted(i)} for y, i in res]
        }

    if cmd == "weyl-order":
        rep = weyl.build_root_system(matrix)
        cap = args.budget if args.budget is not None else 1_000_000
        n = len(weyl.enumerate_group(rep, cap))
        return str(n), 0, {"result": n}

    if cmd == "weyl-involutions":
        rep = weyl.build_root_system(matrix)
        cap = args.budget if args.budget is not None else 1_000_000
        todo = [g for g in weyl.enumerate_group(rep, cap) if weyl.is_involution(g)]
        todo.sort(key=lambda g: (len(g.word), g.word))
        lines = [f"involutions {len(todo)}"]
        records = []
        for g in todo:
            d = palindromes.involution_lift(matrix, g)
            y_out = _element_out(d.y)
            lines.append(
                f"w = {format_word(g.word)} : y = {y_out} ; I = {_format_set(d.I)}"
            )
            records.append({"w": format_word(g.word), "y": y_out,
                            "I": sorted(d.I)})
        return "\n".join(lines), 0, {"result": records}

    raise ArtinError(f"internal: unhandled subcommand {cmd!r}")


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv, argparse.Namespace(**_DEFAULTS))
    try:
        matrix = _resolve_matrix(ap, args)
        text, code, payload = _run(matrix, args)
    except ArtinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # the process boundary: never a traceback
        reason = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {reason}", file=sys.stderr)
        return 4
    if args.as_json:
        record = {
            "command": args.command,
            "inputs": {
                "type": args.type_name or args.matrix_file,
                "args": [a for a in (
                    getattr(args, "word", None),
                    getattr(args, "word1", None),
                    getattr(args, "word2", None),
                    getattr(args, "generator", None),
                    getattr(args, "generators", None),
                    getattr(args, "y_word", None),
                ) if a is not None],
                "order": args.order,
                "opp": args.opp,
            },
        }
        record.update(payload)
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
