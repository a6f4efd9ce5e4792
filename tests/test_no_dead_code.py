"""Every function of the package is reached from the package or exported.

A module-level function, or a method that is not a dunder, counts as
reached when some ``ast.Name`` or ``ast.Attribute`` in ``src/cliffex``
carries its name, or when the package exports it in ``__all__``.  The
oracles in ``reference.py`` are exempt: they exist to be called by the
checks and the tests, so each must be named in another module of the
package or in a test.  Any other function that only tests call is dead
weight in the library, so it fails here.
"""
import ast
from pathlib import Path

import cliffex

SRC = Path(cliffex.__file__).parent
TESTS = Path(__file__).parent
EXEMPT = {"reference.py"}


def _definitions(tree: ast.Module):
    """(name, line) of each module-level function and non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        yield f"{node.name}.{item.name}", item.lineno


def _references(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreached(src: Path, exported) -> list:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = set(exported)
    for tree in trees.values():
        used |= _references(tree)
    return [
        f"{name}:{line} {qual}"
        for name, tree in trees.items()
        if name not in EXEMPT
        for qual, line in _definitions(tree)
        if qual.rsplit(".", 1)[-1] not in used
    ]


def uncalled_oracles(src: Path, tests: Path) -> list:
    """The functions of ``src/reference.py`` that no other module of
    ``src`` and no test in ``tests`` names."""
    oracles = src / "reference.py"
    used = set()
    for path in [*src.glob("*.py"), *tests.glob("*.py")]:
        if path != oracles:
            used |= _references(ast.parse(path.read_text()))
    return [
        f"reference.py:{line} {qual}"
        for qual, line in _definitions(ast.parse(oracles.read_text()))
        if qual.rsplit(".", 1)[-1] not in used
    ]


def test_every_function_is_reached_from_the_package_or_exported():
    assert unreached(SRC, cliffex.__all__) == []


def test_every_oracle_is_called_by_the_checks_or_the_tests():
    assert uncalled_oracles(SRC, TESTS) == []


def test_the_audit_sees_an_unreached_function(tmp_path):
    (tmp_path / "lonely.py").write_text(
        "def helper():\n    return 1\n\nclass Box:\n    def unused(self):\n"
        "        return helper()\n\n    def __len__(self):\n        return 0\n"
    )
    assert unreached(tmp_path, []) == ["lonely.py:5 Box.unused"]
    assert unreached(tmp_path, ["unused"]) == []


def test_the_audit_sees_an_uncalled_oracle(tmp_path):
    src, tests = tmp_path / "src", tmp_path / "tests"
    src.mkdir(), tests.mkdir()
    (src / "reference.py").write_text("def used():\n    return 1\n\ndef idle():\n    return used()\n")
    (tests / "test_x.py").write_text("from reference import used\n\nassert used()\n")
    assert uncalled_oracles(src, tests) == ["reference.py:4 idle"]
