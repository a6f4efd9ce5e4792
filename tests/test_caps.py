"""The cap table: one module holds every rank cap, and every capped route
refuses before it starts work."""
import ast
from pathlib import Path

import pytest

from cliffex import (
    FieldSpec,
    QuadraticForm,
    caps,
    classify,
    killing_form,
    pairing_uniqueness_report,
    run_checks,
    structure,
    verify_classification,
)
from cliffex.errors import CapExceeded

SRC = Path(caps.__file__).parent
TABLE = {name: value for name, value in vars(caps).items() if name.isupper()}


def _fail_if_called(*args, **kwargs):
    pytest.fail("a capped route started work above its cap")


def _is_rank(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "n") or (
        isinstance(node, ast.Attribute) and node.attr == "n"
    )


def test_no_module_compares_a_rank_against_a_literal():
    """Caps live in the table: the modules that run capped routes compare a
    rank only with a table entry.  Ranks start at 1, so a bound of 0 or 1
    rejects what is not a rank at all and caps nothing."""
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    for module in ("checks.py", "structure.py", "operators.py", "classify.py"):
        tree = ast.parse((SRC / module).read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                pair = operands[i], operands[i + 1]
                if not isinstance(op, ordering) or not any(map(_is_rank, pair)):
                    continue
                for side in pair:
                    literal = isinstance(side, ast.Constant) and isinstance(side.value, int)
                    assert not (literal and side.value > 1), (
                        f"{module}:{node.lineno} compares a rank against {side.value}"
                    )


def test_every_table_entry_is_read_and_every_named_cap_exists():
    assert TABLE and all(isinstance(v, int) for v in TABLE.values())
    read = set()
    for path in SRC.glob("*.py"):
        if path.name == "caps.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "caps":
                    assert node.attr in TABLE or node.attr in ("over", "require"), node.attr
                    read.add(node.attr)
            elif isinstance(node, ast.Call):
                # A cap named to caps.over or caps.require, or declared by a
                # check as its cap="NAME".
                named = [k.value for k in node.keywords if k.arg == "cap"]
                if getattr(node.func, "attr", "") in ("over", "require"):
                    named.append(node.args[0])
                for arg in named:
                    if isinstance(arg, ast.Constant):
                        assert arg.value in TABLE, (path.name, node.lineno, arg.value)
                        read.add(arg.value)
    assert set(TABLE) <= read, set(TABLE) - read


def test_capped_routes_refuse_before_any_work(monkeypatch):
    monkeypatch.setattr(structure, "_centralizer_kernel", _fail_if_called)
    monkeypatch.setattr(structure, "ad_matrix", _fail_if_called)
    monkeypatch.setattr(structure, "_brackets", _fail_if_called)
    monkeypatch.setattr(classify, "matrix_algebra_of", _fail_if_called)
    monkeypatch.setattr(QuadraticForm, "blade_product", _fail_if_called)
    # A rank from the command line is refused before a form of that rank is built.
    monkeypatch.setattr(classify, "QuadraticForm", _fail_if_called)
    generators = f"^GENERATORS capped at n = {caps.GENERATORS}$"
    for n in (caps.GENERATORS + 1, 10**9):
        with pytest.raises(CapExceeded, match=generators):
            verify_classification(n)
    with pytest.raises(CapExceeded, match=f"^KILLING_TRACE capped at n = {caps.KILLING_TRACE}$"):
        killing_form(QuadraticForm([1] * (caps.KILLING_TRACE + 1)), method="trace")
    above = QuadraticForm([1] * (caps.UNIQUENESS_SOLVE + 1))
    for parity in (False, True):
        with pytest.raises(CapExceeded, match="^UNIQUENESS_SOLVE capped at n = "):
            pairing_uniqueness_report(above, require_parity_invariance=parity)


def test_a_lowered_cap_takes_effect_when_the_route_runs(monkeypatch):
    form = QuadraticForm([1, 1, 1])
    assert pairing_uniqueness_report(form).nullity == 1
    monkeypatch.setattr(caps, "UNIQUENESS_SOLVE", 2)
    with pytest.raises(CapExceeded, match="^UNIQUENESS_SOLVE capped at n = 2$"):
        pairing_uniqueness_report(form)
    assert [(r.skipped, r.detail) for r in run_checks(form) if r.name == "uniqueness"] == [
        (True, "UNIQUENESS_SOLVE capped at n = 2")
    ]
    monkeypatch.setattr(caps, "GENERATORS", 2)
    with pytest.raises(CapExceeded, match="supported generator counts are 1..2, got 3"):
        QuadraticForm([1, 1, 1])


# Each capped check's name and the table entry that skips it above its value.
SKIPPED_BY = {
    "invertibility": "TRANSLATION_MATRICES",
    "adjoint_matrices": "TRANSLATION_MATRICES",
    "equivalence": "MULTIPLICATIVITY",
    "uniqueness": "UNIQUENESS_SOLVE",
}


@pytest.mark.parametrize(
    "text, field",
    [("sig:11,0", "rational"), ("sig:12,0", "rational"), ("sig:12,0", "fp:7"), ("sig:15,0", "rational"),
     ("sig:16,0", "rational")],
)
def test_checks_pass_above_every_cap(text, field):
    """Every check passes, and exactly the checks whose cap is below the rank
    skip, naming the cap; ranks 15 and 16 are above every entry of
    SKIPPED_BY, and the centre and classification checks run at both.  The
    Killing check samples above its cap instead of skipping, and the Killing
    dichotomy has no cap."""
    form = QuadraticForm.from_text(text, FieldSpec.from_text(field))
    results = run_checks(form, seed=0)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    skipped = {r.name: r.detail for r in results if r.skipped}
    expected = {
        name: f"{cap} capped at n = {TABLE[cap]}"
        for name, cap in SKIPPED_BY.items()
        if TABLE[cap] < form.n
    }
    if form.n >= 15:
        assert set(expected) == set(SKIPPED_BY)
    if field != "rational":
        expected["definiteness"] = "needs an ordered field"
        expected["classification"] = "table verification runs over the rationals"
    assert skipped == expected
    killing = next(r for r in results if r.name == "killing")
    assert killing.detail == ("2 sampled diagonal entries agree with traces; "
                              f"KILLING_TRACE capped at n = {TABLE['KILLING_TRACE']}")
