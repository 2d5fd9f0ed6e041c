"""Every public top-level function and class of the package is used by
package code outside its own definition: a name that only tests, scripts
or the benchmark read is library code with no library caller."""

import ast
from collections import Counter
from pathlib import Path

import logfan

SRC = Path(logfan.__file__).parent
# public names whose one caller is outside the package, with that caller
OUTSIDE_CALLERS = {
    "fans.check_support_preserved": "the fancheck workload of bench/",
}


def _uses(node):
    """How often each name appears under `node`, as a bare name or as the
    attribute of an expression."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_name_has_a_package_caller():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    total = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [f"{module}.{node.name}"
              for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and total[node.name] == _uses(node)[node.name]]
    assert unused == list(OUTSIDE_CALLERS)
