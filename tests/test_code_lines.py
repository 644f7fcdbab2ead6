"""scripts/code_lines.py on a hand-written sample and on src/."""

from pathlib import Path

from scripts.code_lines import code_lines, count, main

SAMPLE = '''"""Module docstring,
two lines."""

# a comment


def f(x):
    """Docstring."""
    y = (x +  # a trailing comment
         1)
    return y


class C:
    """Docstring."""

    z = "not a docstring"
'''


def test_sample_counts_code_lines_only():
    # def f, the two lines of the assignment, return, class C and z
    assert code_lines(SAMPLE) == 6


def test_total_is_the_sum_of_the_modules(capsys):
    assert main([]) == 0
    rows = dict(line.split() for line in capsys.readouterr().out.splitlines())
    total = int(rows.pop("total"))
    root = Path(__file__).resolve().parent.parent
    assert {name: int(n) for name, n in rows.items()} == count(root)
    assert total == sum(map(int, rows.values())) > 0
    assert {"group", "monoid", "oracle"} <= rows.keys()
