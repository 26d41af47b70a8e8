"""The README's library example runs as written and does what its comments
say, so renaming a public name it shows fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    names = {}
    exec(compile(block, str(README), "exec"), names)
    assert names["report"].overall is True
    assert "print(exact_mms([4, 3, 2, 1], 2))   # value 5, partition ((0, 3), (1, 2))" in block
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "MmsResult(value=Fraction(5, 1), partition=((0, 3), (1, 2)))"
