"""Fixed battery of CLI invocations, run in-process.

Doubles as a demo (`python3 scripts/cli_transcript.py` prints the full
transcript) and as the determinism probe used by the test suite: the
battery must produce byte-identical output on every run.
"""

import contextlib
import io

from artinpal.cli import main

DELTA_A3 = "1 2 1 3 2 1"

BATTERY = [
    ["--type", "A3", "eq", "1 2 1", "2 1 2"],
    ["--type", "A3", "eq", "1 2", "2 1"],
    ["--type", "A3", "nf", "2 1 3 2"],
    ["--type", "A3", "extract", "1", "2 1 2"],
    ["--type", "A3", "extract", "3", "1 2 1"],
    ["--type", "A2", "lcm", "1", "2"],
    ["--type", "B2", "lcm", "1", "2"],
    ["--type", "A3", "delta", "1 3"],
    ["--type", "A3", "delta", "{1,2,3}"],
    ["--type", "A3", "sset", "2 1 3 2"],
    ["--type", "A3", "fset", "2 1 3 2"],
    ["--type", "A3", "rev", "1 2 -3"],
    ["--type", "A3", "tau", "1"],
    ["--type", "A3", "pal", "1 2"],
    ["--type", "A3", "unpal", "1 2 2 1"],
    ["--type", "A3", "unpal", "1"],
    ["--type", "A3", "is-pal", "2 1 3 2"],
    ["--type", "A3", "is-pal", "1 2"],
    ["--type", "A3", "is-pure", "1 -1"],
    ["--type", "A3", "is-pure", "1 2"],
    ["--type", "A3", "decompose", "2 1 3 2"],
    ["--type", "A3", "decompose-canonical", DELTA_A3],
    ["--type", "A3", "decompose-canonical", "--opp", DELTA_A3],
    ["--type", "A3", "decompose-tau", "2 1 3 2"],
    ["--type", "A3", "symmetrize", "e", "1"],
    ["--type", "A3", "delta-assoc", DELTA_A3],
    ["--type", "A3", "sign", "1 -2"],
    ["--type", "H3", "sign", "1"],
    ["--type", "A2", "cmp", "1 2", "1 1"],
    ["--type", "B2", "cmp", "1 2 1 2", "2 1 2 1"],
    ["--type", "A2", "oracle-eq", "1 2 1", "2 1 2"],
    ["--type", "A3", "oracle-decomps", DELTA_A3],
    ["--type", "A2", "oracle-squarefree", "1 2 1"],
    ["--type", "B2", "weyl-order"],
    ["--type", "I2(5)", "weyl-order"],
    ["--type", "B2", "weyl-involutions"],
    ["--type", "A3", "--json", "eq", "1 2 1", "2 1 2"],
    ["--type", "A3", "--json", "decompose", "2 1 3 2"],
    ["--type", "A3", "delta", "1 5"],
    ["--type", "XX", "eq", "e", "e"],
]


def _quote(arg: str) -> str:
    return f"'{arg}'" if (" " in arg or arg == "") else arg


def run_one(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = main(list(argv))
    shown = " ".join(_quote(a) for a in argv)
    return f"$ artinpal {shown}\n{buf.getvalue()}exit {code}\n"


def run_transcript(battery=None) -> str:
    rows = BATTERY if battery is None else battery
    return "\n".join(run_one(argv) for argv in rows)


if __name__ == "__main__":
    print(run_transcript(), end="")
