"""The README's library example runs, and each print call in it prints
what the comment on its line says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comments():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    expected = [line.split("# ", 1)[1] for line in block.splitlines() if "print(" in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_witness_convention_example():
    # the README's convention example: f = x0 against g = ~x1
    from npnmatch import TruthTable, match_npn

    f, g = TruthTable.from_minterms(2, [1, 3]), TruthTable.from_minterms(2, [0, 1])
    result = match_npn(f, g)
    assert (result.witness.perm, result.witness.input_pol) == ((1, 0), (0, 1))
    assert result.witness_text() == "T = {0->1-1, 1->0-0}; output=pos"
    text = README.read_text()
    assert "`perm=(1, 0)` and `input_pol=(0, 1)`" in text
    assert "`T = {0->1-1, 1->0-0}; output=pos`" in text
