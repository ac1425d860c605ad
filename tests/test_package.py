import ast
import math
from collections import Counter
from pathlib import Path

import eventstruct

PACKAGE = Path(eventstruct.__file__).parent


def _trees() -> dict:
    """Module name -> parsed source, for each module of the package."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _names(node: ast.AST) -> Counter:
    """How often node names each identifier: as a name, an attribute or an import."""
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
    return found


def _unreferenced() -> list[str]:
    """Module-level functions and classes of the package that are neither in
    eventstruct.__all__ nor named anywhere in it outside their own definition."""
    trees = _trees()
    everywhere = sum(map(_names, trees.values()), Counter())
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in eventstruct.__all__
        and everywhere[node.name] == _names(node)[node.name]
    ]


def test_every_module_level_name_is_public_or_used():
    assert _unreferenced() == []


def _called(func: ast.AST) -> str | None:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _passed(call: ast.Call) -> tuple[str | None, float, set]:
    """(name called, number of leading positions passed, keywords passed).

    A call through functools.partial is a call of its first argument
    with the rest.  A starred argument may pass every position, and a **
    argument (keyword None) every keyword.
    """
    func, args = call.func, call.args
    if _called(func) == "partial" and args:
        func, args = args[0], args[1:]
    positions = math.inf if any(isinstance(arg, ast.Starred) for arg in args) else len(args)
    return _called(func), positions, {kw.arg for kw in call.keywords}


def _unpassed_defaults() -> list[str]:
    """Parameters with a default, of the package's private module-level
    functions, that no call in the package passes."""
    trees = _trees()
    calls = [_passed(node) for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unpassed = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or not node.name.startswith("_"):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            defaulted = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            defaulted += [
                (math.inf, arg.arg) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
            ]
            for i, param in defaulted:
                if not any(
                    name == node.name and (i < positions or param in keywords or None in keywords)
                    for name, positions, keywords in calls
                ):
                    unpassed.append(f"{module}.{node.name}({param})")
    return unpassed


def test_every_private_default_is_passed_somewhere():
    # A default that no call in the package overrides is a configuration
    # only the tests use: drop the parameter, or build the variant in tests/.
    assert _unpassed_defaults() == []
