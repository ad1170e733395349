"""The Python examples in README.md run as doctests and print what they show."""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# The closing fence is not part of the example, or doctest would read it
# as expected output.
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)), m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 4


# Named by order, so an edit above an example renames no test.
@pytest.mark.parametrize(
    "lineno,block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))]
)
def test_python_block(lineno, block):
    name = f"README.md:{lineno + 1}"
    test = doctest.DocTestParser().get_doctest(block, {}, name, str(README), lineno)
    report = []
    runner = doctest.DocTestRunner()
    runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)
