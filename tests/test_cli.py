import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinpal import coxeter, group, monoid, oracle, weyl
from artinpal.cli import build_parser, main
from artinpal.coxeter import parse_word
from artinpal.palindromes import PalDecomposition, reconstruct

A3 = coxeter.builtin("A", 3)

MIXED_MATRIX = "rank 3\nm 1 2 3\nm 2 3 4\nm 1 3 inf\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eq(capsys):
    code, out, err = run(capsys, "--type", "A3", "eq", "1 2 1", "2 1 2")
    assert (code, out, err) == (0, "true\n", "")
    code, out, _ = run(capsys, "--type", "A3", "eq", "1 2", "2 1")
    assert (code, out) == (1, "false\n")
    code, out, _ = run(capsys, "--type", "A3", "eq", "1 -1", "e")
    assert (code, out) == (0, "true\n")


def test_globals_after_subcommand(capsys):
    code, out, _ = run(capsys, "--type", "A3", "decompose-canonical", "--opp",
                       "1 2 1 3 2 1")
    assert (code, out) == (0, "y = e\nI = {1,2,3}\n")
    # pre-subcommand placement must behave identically
    code2, out2, _ = run(capsys, "--opp", "--type", "A3", "decompose-canonical",
                         "1 2 1 3 2 1")
    assert (code2, out2) == (code, out)
    code, out, _ = run(capsys, "--type", "A2", "cmp", "--json", "1 2", "1 1")
    code2, out2, _ = run(capsys, "--json", "--type", "A2", "cmp", "1 2", "1 1")
    assert code == code2 == 0 and out == out2
    assert json.loads(out)["result"] == "LESS"


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eq", "e", "e"])  # no matrix selector
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--type", "A3", "--matrix", "x", "eq", "e", "e"])  # both selectors
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--type", "A3", "frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--type", "A3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_non_palindrome_message_names_no_variable(capsys):
    """decompose and unpal pass on the peel's message for a non-palindrome,
    which names no variable of the peel, so it reads right for both."""
    for command in ("decompose", "unpal"):
        code, out, err = run(capsys, "--type", "A3", command, "1 2")
        assert (code, out, err) == (3, "", "error: peel needs a palindrome\n")


def test_domain_errors_exit_3(capsys):
    code, _, err = run(capsys, "--type", "A3", "unpal", "1")
    assert code == 3 and err.startswith("error:")
    code, _, err = run(capsys, "--type", "Q9", "eq", "e", "e")
    assert code == 3 and err.startswith("error:")
    code, _, err = run(capsys, "--matrix", "/no/such/file", "eq", "e", "e")
    assert code == 3 and err.startswith("error:")
    code, _, err = run(capsys, "--type", "A3", "symmetrize", "e", "1 2")
    assert code == 3 and "commut" in err


def test_matrix_file(capsys, tmp_path):
    mfile = tmp_path / "mixed.txt"
    mfile.write_text(MIXED_MATRIX)
    # monoid-level commands work over an infinite-type matrix
    code, out, _ = run(capsys, "--matrix", str(mfile), "sset", "2 1")
    assert (code, out) == (0, "{2}\n")
    code, out, _ = run(capsys, "--matrix", str(mfile), "oracle-eq",
                       "1 2 1", "2 1 2")
    assert (code, out) == (0, "true\n")
    # group-level commands need finite type
    code, _, err = run(capsys, "--matrix", str(mfile), "eq", "1", "1")
    assert code == 3 and "finite" in err
    # Delta is undefined for the inf pair
    code, _, err = run(capsys, "--matrix", str(mfile), "delta", "1 3")
    assert code == 3 and "not finite type" in err
    # and the pair has no common multiple at all
    code, out, _ = run(capsys, "--matrix", str(mfile), "lcm", "1", "3")
    assert (code, out) == (1, "none\n")


def test_extract_and_lcm(capsys):
    code, out, _ = run(capsys, "--type", "A3", "extract", "1", "2 1 2")
    assert code == 0
    got = parse_word(out.strip())
    assert monoid.equals(
        monoid.word(A3, (1,) + got), monoid.word(A3, (2, 1, 2))
    )
    code, out, _ = run(capsys, "--type", "A3", "extract", "3", "1 2 1")
    assert (code, out) == (1, "none\n")
    code, out, _ = run(capsys, "--type", "A2", "lcm", "1", "2")
    assert (code, out) == (0, "1 2 1\n")
    code, _, err = run(capsys, "--type", "A2", "lcm", "--budget", "2", "1", "2")
    assert code == 3 and "budget" in err


def test_lcm_reversing_budget_exits_3(capsys, tmp_path):
    mfile = tmp_path / "affine.txt"
    mfile.write_text("rank 3\nm 1 2 3\nm 2 3 3\nm 1 3 3\n")
    code, out, err = run(capsys, "--matrix", str(mfile), "lcm", "1", "2 3")
    assert (code, out) == (3, "") and "budget" in err


def test_lcm_default_budget_grows_with_the_label(capsys):
    # lcm(1, 2) in I2(m) is the m-letter Delta, longer than 2 * rank * 2 = 8
    for m in (9, 12):
        want = " ".join("1" if i % 2 == 0 else "2" for i in range(m)) + "\n"
        assert run(capsys, "--type", f"I2({m})", "lcm", "1", "2") == (0, want, "")


def test_deeply_nested_extraction(capsys):
    w = " ".join(["1 1 2 2"] * 600)
    assert run(capsys, "--type", "A2", "sset", w) == (0, "{1}\n", "")
    assert run(capsys, "--type", "A2", "fset", w) == (0, "{2}\n", "")
    assert run(capsys, "--type", "A2", "extract", "2", w) == (1, "none\n", "")


def test_long_palindrome_canonical_search(capsys):
    code, out, err = run(capsys, "--type", "A2", "decompose-canonical",
                         " ".join(["1"] * 2400))
    assert (code, err) == (0, "")
    assert out.startswith("y = ")


def test_sign_and_cmp_are_not_budgeted(capsys):
    # the Dehornoy sign is one pass over the word, with nothing to cap
    assert run(capsys, "--type", "A3", "--budget", "0", "sign", "1 -2") == (
        0, "POSITIVE\n", "")
    assert run(capsys, "--type", "A3", "--budget", "1", "cmp", "1 2", "2 1") == (
        0, "LESS\n", "")


def test_order_follows_the_matrix(capsys):
    # an element and its inverse get opposite signs, and cmp reads x^-1 y
    assert run(capsys, "--type", "A2", "sign", "-1 2") == (0, "NEGATIVE\n", "")
    assert run(capsys, "--type", "A2", "sign", "-2 1") == (0, "POSITIVE\n", "")
    assert run(capsys, "--type", "A2", "cmp", "e", "-1 2") == (0, "GREATER\n", "")
    assert run(capsys, "--type", "A2", "cmp", "-1 2", "e") == (0, "LESS\n", "")
    assert run(capsys, "--type", "B3", "sign", "-3") == (0, "NEGATIVE\n", "")
    code, out, err = run(capsys, "--type", "H3", "sign", "1")
    assert (code, out) == (3, "")
    assert err.startswith("error:") and err.count("\n") == 1
    _, out, _ = run(capsys, "--type", "A2", "--json", "sign", "1")
    assert "order" not in json.loads(out)["inputs"]
    with pytest.raises(SystemExit) as exc:
        main(["--type", "A2", "cmp", "--order", "dehornoy", "1 2", "1 1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_budget_errors(capsys):
    # an lcm budget below the longer operand is a domain error, not a crash
    code, out, err = run(capsys, "--type", "A2", "--budget", "0", "lcm", "1 2", "1")
    assert (code, out) == (3, "")
    assert err.startswith("error:") and err.count("\n") == 1
    # a negative budget is a usage error, before the subcommand runs
    for argv in (["--budget", "-5", "--type", "A3", "weyl-order"],
                 ["--type", "A3", "decompose-canonical", "--budget", "-1", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "budget" in capsys.readouterr().err
    assert run(capsys, "--type", "A3", "--budget", "0", "is-pure", "e") == (
        0, "true\n", "")
    # any other spelling that int() reads as >= 0 stays valid
    for text in ("+5", "1_000"):
        assert run(capsys, "--type", "A2", "--budget", text, "lcm", "1 2", "2") == (
            0, "1 2 1\n", "")


def test_delta_is_not_budgeted(capsys):
    # finite type is decided by the classification, not by a search
    assert run(capsys, "--type", "A3", "--budget", "3", "delta", "1 2 3") == (
        0, "1 2 1 3 2 1\n", "")


def test_dihedral_delta_past_the_default_lcm_budget(capsys):
    # Delta of I2(m) has m letters, more than right_lcm's default budget
    # 2 * (1 + 1) * 2 = 8 for two letters, so delta must not rely on it
    assert run(capsys, "--type", "I2(9)", "delta", "1 2") == (
        0, "1 2 1 2 1 2 1 2 1\n", "")
    assert run(capsys, "--type", "I2(9)", "eq", "1 2", "2 1") == (1, "false\n", "")
    assert run(capsys, "--type", "I2(9)", "eq", "1 2 1 2 1 2 1 2 1",
               "2 1 2 1 2 1 2 1 2") == (0, "true\n", "")


def test_delta_set_syntax(capsys):
    code1, out1, _ = run(capsys, "--type", "A3", "delta", "1 3")
    code2, out2, _ = run(capsys, "--type", "A3", "delta", "{1,3}")
    assert (code1, out1) == (code2, out2) == (0, "1 3\n")


def test_sets_and_words(capsys):
    code, out, _ = run(capsys, "--type", "A3", "sset", "1 2 1 3")
    assert (code, out) == (0, "{1,2}\n")
    code, out, _ = run(capsys, "--type", "A3", "fset", "1 3")
    assert (code, out) == (0, "{1,3}\n")
    code, out, _ = run(capsys, "--type", "A3", "tau", "1")
    assert (code, out) == (0, "3\n")
    code, out, _ = run(capsys, "--type", "A3", "pal", "1 2")
    assert (code, out) == (0, "1 2 2 1\n")
    code, out, _ = run(capsys, "--type", "A3", "unpal", "1 2 2 1")
    assert (code, out) == (0, "1 2\n")


def test_nf_is_equivalent_word(capsys):
    code, out, _ = run(capsys, "--type", "A3", "nf", "2 1 3 2")
    assert code == 0
    w = parse_word(out.strip())
    assert monoid.equals(monoid.word(A3, w), monoid.word(A3, (2, 1, 3, 2)))
    # equal inputs print the same canonical word
    _, out2, _ = run(capsys, "--type", "A3", "nf", "2 3 1 2")
    assert out2 == out


def test_predicates_exit_codes(capsys):
    assert run(capsys, "--type", "A3", "is-pal", "2 1 3 2")[0] == 0
    assert run(capsys, "--type", "A3", "is-pal", "1 2")[0] == 1
    assert run(capsys, "--type", "A3", "is-pure", "1 -1")[0] == 0
    assert run(capsys, "--type", "A3", "is-pure", "1")[0] == 1


def test_decompose_text(capsys):
    code, out, _ = run(capsys, "--type", "A3", "decompose", "2 1 3 2")
    assert code == 0
    assert out == "y = 2\nI = {1,3}\n"
    code, out, _ = run(capsys, "--type", "A3", "decompose-canonical",
                       "1 2 1 3 2 1")
    assert code == 0 and out == "y = 3 2\nI = {1,3}\n"
    code, out, _ = run(capsys, "--type", "A3", "decompose-canonical", "--opp",
                       "1 2 1 3 2 1")
    assert code == 0 and out == "y = e\nI = {1,2,3}\n"


def test_json_records(capsys):
    code, out, _ = run(capsys, "--type", "A3", "--json", "eq", "1 2 1", "2 1 2")
    assert code == 0
    rec = json.loads(out)
    assert rec["command"] == "eq" and rec["result"] is True
    assert rec["inputs"]["type"] == "A3"
    assert rec["inputs"]["args"] == ["1 2 1", "2 1 2"]

    code, out, _ = run(capsys, "--type", "A3", "--json", "decompose", "2 1 3 2")
    rec = json.loads(out)
    assert rec["result"]["reconstruction"] is True
    d = PalDecomposition(
        y=group.from_word(A3, parse_word(rec["result"]["y"])),
        I=tuple(rec["result"]["I"]),
    )
    assert group.eq(reconstruct(d), group.from_word(A3, (2, 1, 3, 2)))

    code, out, _ = run(capsys, "--type", "A3", "--json", "nf", "2 1 3 2")
    rec = json.loads(out)
    assert rec["result"]["sets"] == [[2], [1, 3], [2]]
    assert monoid.equals(
        monoid.word(A3, parse_word(rec["result"]["word"])),
        monoid.word(A3, (2, 1, 3, 2)),
    )


def test_presentation_file(capsys, tmp_path):
    pfile = tmp_path / "xy.txt"
    pfile.write_text("gens 2\nrel 1 1 = 2 2\n")
    code, out, _ = run(capsys, "--type", "A2", "--presentation", str(pfile),
                       "oracle-eq", "1 1", "2 2")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "--type", "A2", "--presentation", str(pfile),
                       "oracle-eq", "1", "2")
    assert (code, out) == (1, "false\n")
    # oracle-decomps insists on the Artin presentation of the matrix
    code, _, err = run(capsys, "--type", "A2", "--presentation", str(pfile),
                       "oracle-decomps", "1 1")
    assert code == 3 and "presentation" in err


def test_presentation_needs_no_matrix(capsys, tmp_path):
    pfile = tmp_path / "xy.txt"
    pfile.write_text("gens 2\nrel 1 1 = 2 2\n")
    code, out, err = run(capsys, "--presentation", str(pfile),
                         "oracle-eq", "1 1", "2 2")
    assert (code, out, err) == (0, "true\n", "")
    code, out, _ = run(capsys, "--presentation", str(pfile),
                       "oracle-squarefree", "1 2 1")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "--presentation", str(pfile), "--json",
                       "oracle-eq", "1", "2")
    rec = json.loads(out)
    assert code == 1 and rec["inputs"]["type"] is None and rec["result"] is False
    # every other command still names a matrix
    for argv in (("oracle-decomps", "1 1"), ("eq", "1", "2")):
        with pytest.raises(SystemExit) as exc:
            main(["--presentation", str(pfile), *argv])
        assert exc.value.code == 2


def test_oracle_decomps(capsys):
    code, out, _ = run(capsys, "--type", "A3", "oracle-decomps", "1 2 1 3 2 1")
    assert code == 0
    assert out.splitlines() == [
        "y = e ; I = {1,2,3}",
        "y = 1 2 ; I = {1,3}",
        "y = 3 2 ; I = {1,3}",
    ]
    code, out, _ = run(capsys, "--type", "A2", "oracle-decomps", "1 2")
    assert (code, out) == (1, "none\n")


def test_oracle_decomps_builds_no_delta_past_the_length_cap(capsys, monkeypatch):
    """A word over the oracle's length cap exits 3 at the cap, having asked
    for no Delta_I longer than the cap."""
    asked = []
    real = oracle.artin_deltas

    def recorded(matrix, max_len):
        asked.append(max_len)
        return real(matrix, max_len)

    monkeypatch.setattr(oracle, "artin_deltas", recorded)
    word = " ".join(["1 2 1 3 2"] * 3)
    assert run(capsys, "--type", "A3", "oracle-decomps", word) == (
        3, "", "error: word length 15 exceeds the cap 12\n")
    assert run(capsys, "--type", "A3", "oracle-decomps", "1 2 1 3 2 1")[0] == 0
    assert asked == [12, 6]


def test_weyl_commands(capsys):
    assert run(capsys, "--type", "B2", "weyl-order") == (0, "8\n", "")
    assert run(capsys, "--type", "I2(5)", "weyl-order") == (0, "10\n", "")
    code, _, err = run(capsys, "--type", "A3", "weyl-order", "--budget", "10")
    assert code == 3 and "budget" in err.lower() or "more than" in err
    code, out, _ = run(capsys, "--type", "B2", "weyl-involutions")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "involutions 5" and len(lines) == 6


def test_weyl_involutions_d5_reconstruct(capsys):
    code, out, _ = run(capsys, "--type", "D5", "weyl-involutions")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 156 and lines[0] == "involutions 155"
    mat = coxeter.named_matrix("D5")
    rep = weyl.build_root_system(mat)
    for line in lines[1:]:
        w_text, rest = line.removeprefix("w = ").split(" : y = ")
        y_text, i_text = rest.split(" ; I = ")
        subset = tuple(int(t) for t in i_text.strip("{}").split(",") if t)
        d = PalDecomposition(y=group.from_word(mat, parse_word(y_text)), I=subset)
        assert group.w_image(reconstruct(d)).perm == weyl.image(
            rep, parse_word(w_text)).perm


def test_transcript_battery_runs():
    from scripts.cli_transcript import run_transcript

    text = run_transcript()
    assert "exit 0" in text and "$ artinpal" in text
    assert "error:" in text  # the battery includes failure cases on purpose


def test_transcript_matches_golden():
    """The transcript recorded in tests/data, byte for byte; after an
    intended output change, record it again with
    `python3 scripts/cli_transcript.py > tests/data/cli_transcript.txt`."""
    from scripts.cli_transcript import run_transcript

    golden = Path(__file__).parent / "data" / "cli_transcript.txt"
    assert run_transcript() == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("exc_type", [RuntimeError, RecursionError])
def test_internal_errors_exit_4(capsys, monkeypatch, exc_type):
    def broken(x):
        raise exc_type("deep\ntrouble")

    monkeypatch.setattr(group, "rev", broken)
    code, out, err = run(capsys, "--type", "A3", "rev", "1 2")
    assert (code, out) == (4, "")
    assert err == f"internal error: {exc_type.__name__}: deep trouble\n"


# every subcommand with the kinds of its positional arguments:
# w a word, g a generator, s a generator set
SUBCOMMAND_ARGS = {
    "eq": "ww", "nf": "w", "extract": "gw", "lcm": "ww", "delta": "s",
    "sset": "w", "fset": "w", "rev": "w", "tau": "w", "pal": "w",
    "unpal": "w", "is-pal": "w", "is-pure": "w", "decompose": "w",
    "decompose-canonical": "w", "decompose-tau": "w", "symmetrize": "ws",
    "delta-assoc": "w", "sign": "w", "cmp": "ww", "oracle-eq": "ww",
    "oracle-decomps": "w", "oracle-squarefree": "w", "weyl-order": "",
    "weyl-involutions": "",
}
# the subcommands that accept an infinite-type matrix
ANY_MATRIX = ("nf", "extract", "lcm", "delta", "sset", "fset", "oracle-eq",
              "oracle-decomps", "oracle-squarefree")
FUZZ_TYPES = {"A1": 1, "A2": 2, "A3": 3, "B2": 2, "B3": 3, "H3": 3, "I2(5)": 2}
MALFORMED = ("x", "0", "1.5", "{", "e e", "--", "-x", "99", "")


@pytest.fixture(scope="module")
def mixed_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "mixed.txt"
    path.write_text(MIXED_MATRIX)
    return str(path)


def test_fuzz_covers_every_subcommand():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(SUBCOMMAND_ARGS)


@st.composite
def invocations(draw, cmd, mixed_path):
    names = sorted(FUZZ_TYPES) + (["mixed"] if cmd in ANY_MATRIX else [])
    name = draw(st.sampled_from(names))
    if name == "mixed":
        argv, rank = ["--matrix", mixed_path], 3
    else:
        argv, rank = ["--type", name], FUZZ_TYPES[name]
    bad = st.sampled_from(MALFORMED)
    positive = st.integers(1, rank).map(str)
    signed = st.integers(-rank, rank).filter(bool).map(str)
    junk = st.one_of(signed, bad, st.sampled_from((str(-rank - 1), str(rank + 1))))
    # half the words are positive, so that both operands of the monoid
    # commands often get past parsing
    positive_word = st.lists(positive, max_size=6)
    kinds = {
        "w": st.one_of(positive_word, positive_word,
                       st.lists(signed, max_size=6),
                       st.lists(junk, min_size=1, max_size=6)).map(" ".join),
        "g": st.one_of(st.integers(-1, rank + 1).map(str), bad),
        "s": st.one_of(st.lists(st.integers(1, rank + 1), max_size=rank).map(
            lambda xs: "{" + ",".join(map(str, xs)) + "}"), bad),
    }
    argv += ["--budget", draw(st.sampled_from(("-1", "0", "1", "2", "100")))]
    argv += draw(st.sampled_from(([], ["--json"], ["--opp"])))
    return argv + [cmd] + [draw(kinds[k]) for k in SUBCOMMAND_ARGS[cmd]]


def _exit_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("cmd", sorted(SUBCOMMAND_ARGS))
@settings(max_examples=40)
@given(data=st.data())
def test_fuzz_subcommand(mixed_file, cmd, data):
    argv = data.draw(invocations(cmd, mixed_file), label="argv")
    code, err = _exit_and_stderr(argv)
    assert code in (0, 1, 2, 3), (argv, err)
    if code == 3:
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)


# valid A3 positionals for every subcommand, each answering with a record
VALID_ARGS = {
    "eq": ["1 2 1", "2 1 2"], "nf": ["2 1 3 2"], "extract": ["1", "1 2 1"],
    "lcm": ["1", "2"], "delta": ["1 3"], "sset": ["2 1 3 2"],
    "fset": ["2 1 3 2"], "rev": ["1 2 -3"], "tau": ["1"], "pal": ["1 2"],
    "unpal": ["1 2 2 1"], "is-pal": ["1 2"], "is-pure": ["1 -1"],
    "decompose": ["2 1 3 2"], "decompose-canonical": ["2 1 3 2"],
    "decompose-tau": ["2 1 3 2"], "symmetrize": ["2", "1"],
    "delta-assoc": ["1 2 1 3 2 1"], "sign": ["1 -2"], "cmp": ["1 2", "1 1"],
    "oracle-eq": ["1 2 1", "2 1 2"], "oracle-decomps": ["1 2 1 3 2 1"],
    "oracle-squarefree": ["1 2 1"], "weyl-order": [], "weyl-involutions": [],
}


@pytest.mark.parametrize("cmd", sorted(SUBCOMMAND_ARGS))
def test_json_inputs_args_in_command_line_order(capsys, cmd):
    code, out, err = run(capsys, "--type", "A3", "--json", cmd, *VALID_ARGS[cmd])
    assert code in (0, 1) and err == ""
    record = json.loads(out)
    assert record["command"] == cmd
    assert record["inputs"]["args"] == VALID_ARGS[cmd]


@pytest.mark.parametrize("flags", [(), ("--json",)])
@pytest.mark.parametrize("argv, expected", [
    (("--type", "H4", "weyl-involutions"), 0),
    (("--type", "A3", "eq", "1 2", "2 1"), 1),
])
def test_closed_stdout_ends_quietly(monkeypatch, capsys, flags, argv, expected):
    # stdout is a pipe whose reader has gone, as in `artinpal ... | head -1`:
    # no traceback, nothing on stderr, the command's own exit code
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main([*flags, *argv]) == expected
        closed.write("more")
        closed.flush()  # stdout now points at devnull
    assert capsys.readouterr().err == ""
