"""The names the benchmark in ``bench/`` reaches in ``cliffex`` still resolve.

``bench/`` changes only with the benchmark, so a rename in ``src/`` would
stop a benchmark run with nothing to say why.  This test reads
``bench/*.py`` (it never edits them) and resolves, against the importable
``cliffex``:

* every name the bench imports from ``cliffex`` and every attribute it reads
  on a ``cliffex`` module it imported;
* every function it reaches by a string through a helper that returns
  ``getattr(module, name)(...)``, such as ``_structure("center", ...)``;
* every keyword it passes to those functions, such as ``method=``;
* the hooks that ``bench/tracer.py`` patches: ``Multivector._make`` as a
  classmethod of ``(form, coeffs)``, ``Multivector.__init__``,
  ``vars(Fp)["inverse"]`` and ``core.anticommute_parity``.

``python tests/test_bench_contract.py`` prints each name that does not
resolve in the ``cliffex`` it imports (put a tree's ``src`` first on
``PYTHONPATH`` to check that tree) and exits 1 if there is one.
"""
import ast
import importlib.util
import inspect
import re
import shutil
import subprocess
import sys
from pathlib import Path

import cliffex

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Names the benchmark is known to reach; the scan must find at least these.
KNOWN = {
    "operators.inverse", "operators.is_zero_divisor", "operators.translation_determinants",
    "operators.pairing_uniqueness_report", "structure.killing_form", "structure.decompose",
    "structure.center", "structure.lie_center", "structure.definiteness_report",
    "classify.verify_classification", "cli.main", "reference.blade_word_product",
    "reference.mask_to_word", "core.anticommute_parity",
    "structure.killing_form(method=)", "structure.center(method=)",
    "structure.lie_center(method=)",
}


def _getattr_helpers(tree: ast.Module, modules: dict) -> dict:
    """Helper name -> module for each ``def h(name, ...): return getattr(mod, name)(...)``."""
    helpers = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.args.args:
            for ret in ast.walk(node):
                call = getattr(ret, "value", None) if isinstance(ret, ast.Return) else None
                inner = getattr(call, "func", None)
                if (isinstance(inner, ast.Call) and getattr(inner.func, "id", None) == "getattr"
                        and getattr(inner.args[0], "id", None) in modules
                        and getattr(inner.args[1], "id", None) == node.args.args[0].arg):
                    helpers[node.name] = modules[inner.args[0].id]
    return helpers


def reached() -> set:
    """``module.name`` and ``module.name(keyword=)`` for every use the bench makes."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> cliffex module name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cliffex"):
                prefix = node.module.removeprefix("cliffex").lstrip(".")
                for alias in node.names:
                    if prefix:
                        found.add(f"{prefix}.{alias.name}")
                    elif importlib.util.find_spec(f"cliffex.{alias.name}"):
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        found.add(f"__init__.{alias.name}")
        helpers = _getattr_helpers(tree, modules)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and getattr(node.value, "id", None) in modules):
                found.add(f"{modules[node.value.id]}.{node.attr}")
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if getattr(func, "id", None) in helpers and isinstance(node.args[0], ast.Constant):
                name = f"{helpers[func.id]}.{node.args[0].value}"
            elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in modules:
                name = f"{modules[func.value.id]}.{func.attr}"
            else:
                continue
            found.add(name)
            found.update(f"{name}({kw.arg}=)" for kw in node.keywords if kw.arg)
    return found


def unresolved(names: set) -> list:
    """The names of :func:`reached` and the tracer's hooks that do not resolve."""
    missing = []
    for name in sorted(names):
        qual, _, keyword = name.partition("(")
        module, _, attr = qual.partition(".")
        mod = importlib.import_module("cliffex" if module == "__init__" else f"cliffex.{module}")
        obj = getattr(mod, attr, None)
        if obj is None:
            missing.append(name)
        elif keyword and keyword[:-2] not in inspect.signature(obj).parameters:
            missing.append(name)
    from cliffex.core import Multivector
    from cliffex.field import Fp

    make = vars(Multivector).get("_make")
    if not (isinstance(make, classmethod)
            and list(inspect.signature(make.__func__).parameters) == ["cls", "form", "coeffs"]):
        missing.append("core.Multivector._make as a classmethod of (form, coeffs)")
    if "__init__" not in vars(Multivector):
        missing.append("core.Multivector.__init__")
    if not callable(vars(Fp).get("inverse")):
        missing.append('vars(field.Fp)["inverse"]')
    return missing


def test_the_scan_finds_what_the_bench_is_known_to_reach():
    assert KNOWN <= reached()


def test_every_name_the_bench_reaches_resolves():
    assert unresolved(reached()) == []


def test_a_renamed_function_in_a_copied_tree_fails_the_contract(tmp_path):
    # A rename made consistently across src/ leaves the package working and
    # only the bench broken: the contract names what the bench lost.
    src = Path(cliffex.__file__).parent
    copy = tmp_path / "cliffex"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    for path in copy.glob("*.py"):
        path.write_text(re.sub(r"\bdefiniteness_report\b", "definiteness_summary",
                               path.read_text()))
    run = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                         env={"PYTHONPATH": str(tmp_path)}, timeout=120)
    assert run.returncode == 1
    assert run.stdout.split() == ["structure.definiteness_report"]


if __name__ == "__main__":
    lost = unresolved(reached())
    print("\n".join(lost))
    sys.exit(1 if lost else 0)
