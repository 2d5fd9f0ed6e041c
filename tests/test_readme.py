"""Runs the `>>>` examples of every python block in README.md."""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
# (line of the block's first example, block text); the closing fence is
# not part of the text, so doctest does not read it as expected output
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT,
                               re.DOTALL | re.MULTILINE)]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, block", BLOCKS,
                         ids=[f"line {line}" for line, _ in BLOCKS])
def test_readme_example(line, block):
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md",
                                               str(README), line - 1)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
