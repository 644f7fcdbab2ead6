"""The library walkthrough in scripts/ runs and prints its key results."""

from scripts import worked_examples


def test_worked_examples_run(capsys):
    worked_examples.main()
    # each line is a label padded to 44 characters, a space, then the value
    rows = {line[:44].rstrip(): line[45:]
            for line in capsys.readouterr().out.splitlines()}
    assert rows["canonical:  y"] == "3 2"
    assert rows["canonical:  I"] == "{1, 3}"
    assert rows["dehornoy sign of 1 -2"] == "POSITIVE"
    assert rows["type B generator sign"] == "POSITIVE"
