"""Every public top-level function and class of the package, and every
public method of a public class, is used by package code outside its own
definition: a name that only tests or the benchmark read is library code
with no library caller.  And every defaulted parameter of those is passed
by some call in the package, its tests or the benchmark, and left out by
another: a default no call leaves out, or a parameter no call passes, is
an option with one value in use."""

import ast
from collections import Counter
from pathlib import Path

import logfan

SRC = Path(logfan.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


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


def _defaulted_params(tree):
    """(callable name, parameter, position) of each defaulted parameter of
    a public top-level function, of a public class's `__init__`, named by
    its class, and of a public method of a public class.  The position
    counts the arguments a call writes, so `self` and `cls` take none; a
    keyword-only parameter has position None."""
    for node in tree.body:
        if (isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")):
            yield from _params(node.name, node, 0)
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name)
                             and d.id == "staticmethod"
                             for d in item.decorator_list)
                if item.name == "__init__":
                    yield from _params(node.name, item, 1)
                elif not item.name.startswith("_"):
                    yield from _params(item.name, item, 0 if static else 1)


def _params(name, func, bound):
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield name, arg.arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield name, arg.arg, None


def _calls(trees):
    """{name: [call, ...]} over the calls of a bare name or an attribute
    that spell out their arguments, with no *args or **kwargs."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, (ast.Name, ast.Attribute))
                    and not any(isinstance(a, ast.Starred)
                                for a in node.args)
                    and all(k.arg is not None for k in node.keywords)):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else func.attr
                calls.setdefault(name, []).append(node)
    return calls


def test_every_default_is_both_passed_and_left_out():
    calls = _calls(ast.parse(path.read_text(), str(path))
                   for folder in ("src", "tests", "bench")
                   for path in sorted((ROOT / folder).rglob("*.py")))
    one_way = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, param, position in _defaulted_params(tree):
            passed = [(position is not None and len(call.args) > position)
                      or any(k.arg == param for k in call.keywords)
                      for call in calls.get(name, [])]
            if all(passed) or not any(passed):
                one_way.append(f"{path.stem}.{name}({param})")
    assert one_way == []
