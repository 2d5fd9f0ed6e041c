"""Runs the `>>>` examples of every python block in README.md, and checks
that its caps table names every cap the package defines."""

import ast
import doctest
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TEXT = README.read_text()
# (line of the block's first example, block text); the closing fence is
# not part of the text, so doctest does not read it as expected output
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT,
                               re.DOTALL | re.MULTILINE)]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, block", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example(line, block):
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md",
                                               str(README), line - 1)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0


def _caps_table():
    """The rows of README.md's table whose header starts `| cap |`."""
    lines = TEXT.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("| cap |"))
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(line)
    return "\n".join(rows)


def _defined_caps():
    """`logfan.<module>.MAX_*` for every MAX_* name assigned at the top
    level of a module in src/logfan."""
    caps = []
    for path in sorted((ROOT / "src" / "logfan").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            caps += [f"logfan.{path.stem}.{t.id}" for t in targets
                     if isinstance(t, ast.Name) and t.id.startswith("MAX_")]
    return caps


def test_caps_table_names_every_cap():
    caps = _defined_caps()
    assert "logfan.logproduct.MAX_CONES" in caps
    table = _caps_table()
    assert [c for c in caps if f"`{c}`" not in table] == []
