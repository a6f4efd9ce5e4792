"""The package's modules import only from the layers below them.

The layers run, bottom to top, from the errors through the field, the
blade kernel and the elimination engines up to the checks and the CLI.
A module-level relative import must name a module strictly lower in that
order; an import inside a function body is not a dependency of the module
and is not counted.  ``__init__.py`` is the package's facade and sits
above every layer.
"""
import ast
from pathlib import Path

import cliffex

SRC = Path(cliffex.__file__).parent
LAYERS = ("errors", "caps", "field", "core", "linalg", "reference", "operators",
          "structure", "classify", "quaternions", "checks", "cli")


def upward_imports(src: Path) -> list:
    """``"a -> b"`` for each module-level relative import in layer a of a
    module b that is not below it."""
    rank = {name: i for i, name in enumerate(LAYERS)}
    found = []
    for name in LAYERS:
        path = src / f"{name}.py"
        if not path.exists():
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
                found += [f"{name} -> {t}" for t in targets if rank.get(t, len(LAYERS)) >= rank[name]]
    return found


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__") == sorted(LAYERS)


def test_module_level_imports_point_down():
    assert upward_imports(SRC) == []


def test_the_audit_sees_an_upward_import(tmp_path):
    (tmp_path / "core.py").write_text(
        "from . import caps\nfrom .field import Fp\nfrom .linalg import _eliminate\n\n"
        "def late():\n    from .checks import run_checks\n"
    )
    (tmp_path / "linalg.py").write_text("from . import core, errors\n")
    assert upward_imports(tmp_path) == ["core -> linalg"]
