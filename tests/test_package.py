import ast
import copy
import math
import os
import pickle
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

import eventstruct
from eventstruct import BoolMatrix, CountRow, CountTable, EventStructure, ExtensionPair, PivotResult

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


def _lazy_tables() -> list[str]:
    """The package's dict subclasses that define __missing__."""
    return [
        f"{module}.{node.name}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and "dict" in {_called(base) for base in node.bases}
        and any(
            isinstance(sub, ast.FunctionDef) and sub.name == "__missing__" for sub in node.body
        )
    ]


def test_one_lazily_filled_table_type():
    # Every table that makes an entry on its first lookup is relations.LazyTable.
    assert _lazy_tables() == ["relations.LazyTable"]


def test_import_loads_neither_dataclasses_nor_signal():
    # Each CLI start pays for what the package imports: dataclasses brings
    # inspect, ast, dis and tokenize along, and only a pool needs signal.
    # The environment is the suite's own, so PYTHONPATH is the same.
    code = (
        "import sys; bare = set(sys.modules); import eventstruct, eventstruct.cli; "
        "print(*sorted({'dataclasses', 'signal'} & (set(sys.modules) - bare)))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


def _top_level_imports() -> set[str]:
    """The modules that the package's modules import at their top level, its own excepted."""
    found = set()
    for tree in _trees().values():
        for node in tree.body:
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module)
    return found


def _loads_typing(code: str) -> bool:
    """Whether python -S, with the package on its path, has typing loaded after code."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; {code}; print('typing' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout == "True\n"


def test_cli_import_loads_no_typing():
    # -S keeps site's .pth files out: one that preloads typing would hide the import.
    if _loads_typing(f"import {', '.join(sorted(_top_level_imports() - {'typing'}))}"):
        pytest.skip("this Python loads typing with the other modules the package imports")
    assert not _loads_typing("import eventstruct.cli")


# record class -> (its fields, in order; a value for each)
RECORDS = {
    BoolMatrix: (("order", "rows"), (2, (1, 2))),
    EventStructure: (
        ("causality", "conflict"), (frozenset({(0, 0), (1, 1)}), frozenset({(0, 1), (1, 0)}))
    ),
    PivotResult: (("pivot", "reduced"), (0, frozenset({(1, 1)}))),
    ExtensionPair: (("alpha", "beta"), ((True, False), (False, False))),
    CountTable: (("rows",), ((CountRow(0, 1, 1, 1), CountRow(1, 1, 1, 1)),)),
}


def _refusal(action, *args) -> str | None:
    """The message of the AttributeError that action(*args) raises; None if it raises none."""
    try:
        action(*args)
    except AttributeError as error:
        return str(error)
    return None


def _assert_record_contract(cls: type, names: tuple, values: tuple) -> None:
    """The behaviour of a frozen dataclass, which the public records keep."""
    record = cls(*values)
    assert cls(**dict(zip(names, values))) == record
    assert tuple(getattr(record, name) for name in names) == values
    same = cls(*values)
    assert same == record and same is not record and hash(same) == hash(record)
    # Equal only to an instance of the very same class: never to a tuple or a subclass.
    assert record != values and values != record
    sub = type("Sub", (cls,), {"__slots__": ()})(*values)
    assert record != sub and sub != record
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({shown})"
    for name in (*names, "other"):
        assert _refusal(setattr, record, name, None) == f"cannot assign to field {name!r}"
        assert _refusal(delattr, record, name) == f"cannot delete field {name!r}"
    assert tuple(getattr(record, name) for name in names) == values
    for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(copied) is cls and copied == record
    assert weakref.ref(record)() is record
    assert cls.__match_args__ == names
    match record:
        case cls(first) if len(names) == 1:
            assert (first,) == values
        case cls(first, second):
            assert (first, second) == values
        case _:
            raise AssertionError(f"{record!r} does not match its class pattern")


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_keep_the_frozen_dataclass_contract(cls):
    _assert_record_contract(cls, *RECORDS[cls])
