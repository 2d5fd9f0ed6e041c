"""Every public top-level function and class of the package, and every
public method of a public class, is used by package code outside its own
definition: a name that only tests or the benchmark read is library code
with no library caller."""

import ast
from collections import Counter
from pathlib import Path

import logfan

SRC = Path(logfan.__file__).parent


def _uses(node):
    """How often each name appears under `node`, as a bare name or as the
    attribute of an expression."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _public_defs(module, tree):
    """(dotted name, node) of each public top-level function and class of
    `tree`, and of each public method of such a class."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{module}.{node.name}.{item.name}", item)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def test_every_public_name_has_a_package_caller():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    total = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [name for module, tree in trees.items()
              for name, node in _public_defs(module, tree)
              if total[node.name] == _uses(node)[node.name]]
    assert unused == []
