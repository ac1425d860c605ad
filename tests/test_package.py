import ast
from collections import Counter
from pathlib import Path

import eventstruct

PACKAGE = Path(eventstruct.__file__).parent


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
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
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
