import json

import pytest

from artinpal import coxeter, group, monoid
from artinpal.cli import main
from artinpal.monoid import parse_word
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
    code, out, _ = run(capsys, "--type", "A2", "cmp", "--order", "dehornoy",
                       "1 2", "1 1")
    assert (code, out) == (0, "LESS\n")
    # pre-subcommand placement must behave identically
    code2, out2, _ = run(capsys, "--order", "dehornoy", "--type", "A2", "cmp",
                         "1 2", "1 1")
    assert (code2, out2) == (code, out)


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


def test_weyl_commands(capsys):
    assert run(capsys, "--type", "B2", "weyl-order") == (0, "8\n", "")
    assert run(capsys, "--type", "I2(5)", "weyl-order") == (0, "10\n", "")
    code, _, err = run(capsys, "--type", "A3", "weyl-order", "--budget", "10")
    assert code == 3 and "budget" in err.lower() or "more than" in err
    code, out, _ = run(capsys, "--type", "B2", "weyl-involutions")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "involutions 5" and len(lines) == 6


def test_transcript_battery_runs():
    from scripts.cli_transcript import run_transcript

    text = run_transcript()
    assert "exit 0" in text and "$ artinpal" in text
    assert "error:" in text  # the battery includes failure cases on purpose


@pytest.mark.parametrize("exc_type", [RuntimeError, RecursionError])
def test_internal_errors_exit_4(capsys, monkeypatch, exc_type):
    def broken(x):
        raise exc_type("deep\ntrouble")

    monkeypatch.setattr(group, "rev", broken)
    code, out, err = run(capsys, "--type", "A3", "rev", "1 2")
    assert (code, out) == (4, "")
    assert err == f"internal error: {exc_type.__name__}: deep trouble\n"
