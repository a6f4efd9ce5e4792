"""The oracles of ``reference.py`` stay independent of the fast paths they
check: every public function runs, and returns what it returns unpatched,
with the product kernel, the pairing, the involutions, the square table,
the split representation, the sign masks, the structure bracket and the
elimination engine patched to raise.  Only the samplers on ``ALLOWED``
reach one, and each of them does."""
import inspect
from random import Random

import pytest

from cliffex import QuadraticForm, core, linalg, reference, structure
from cliffex.core import Multivector, SplitAlgebra
from cliffex.field import FieldSpec

FAST_PATHS = (
    (Multivector, "__mul__"), (Multivector, "pair"), (Multivector, "_signed"),
    (QuadraticForm, "square_table"), (QuadraticForm, "unit_squares"), (QuadraticForm, "split"),
    (SplitAlgebra, "matrix"), (SplitAlgebra, "coefficients"),
    (core, "sign_mask"), (core, "reorder_parity"),
    (structure, "_brackets"), (linalg, "_forward"),
)
# Samplers that reach a fast path only to choose a sample, never to compute
# an answer that a check compares with.
ALLOWED = {
    "random_isometry": "multiplies its rotors and reads gram_diagonal for the unit blades",
    "random_invertible": "keeps the first draw that operators.is_invertible accepts",
}
FORMS = [("diag:1/2,-3,5", None), ("sig:2,1", FieldSpec.prime(7))]


class _Reached(Exception):
    """A patched fast path was called."""


def _reached(*args, **kwargs):
    raise _Reached


def _calls(form: QuadraticForm) -> dict:
    """Each public function of ``reference`` and arguments for it on ``form``,
    built afresh on each call, so that two calls draw alike."""
    f, rng = form.field, Random(5)
    x, y = reference.random_multivector(rng, form), reference.random_multivector(rng, form, 3)
    rows = [[reference.random_element(rng, f) for _ in range(3)] for _ in range(3)]
    return {
        "mask_to_word": (0b1011,),
        "blade_word_product": ((3, 1, 2), (2, 3), form),
        "cofactor_determinant": (rows, f),
        "product_pairing": (x, y),
        "anticommuting_lie_blades": (form, 0b011),
        "random_element": (Random(1), f),
        "random_nonzero_element": (Random(1), f),
        "random_multivector": (Random(1), form, 3),
        "random_vector": (Random(1), form),
        "plane_rotor": (form, 1, 3, 2),
        "random_isometry": (Random(1), form),
        "random_invertible": (Random(1), form, 3),
    }


def _audit(form: QuadraticForm, monkeypatch) -> set:
    """The functions of ``reference`` that reach a patched fast path on
    ``form``; every other one must return what it returns unpatched."""
    want = {name: getattr(reference, name)(*args) for name, args in _calls(form).items()}
    calls, got, reached = _calls(form), {}, set()
    with monkeypatch.context() as m:
        for owner, name in FAST_PATHS:
            m.setattr(owner, name, _reached)
        for name, args in calls.items():
            try:
                got[name] = getattr(reference, name)(*args)
            except _Reached:
                reached.add(name)
    assert got == {name: want[name] for name in got}
    return reached


def test_every_public_function_is_called_by_the_audit():
    public = {name for name, fn in inspect.getmembers(reference, inspect.isfunction)
              if fn.__module__ == reference.__name__ and not name.startswith("_")}
    assert public == set(_calls(QuadraticForm([1, 1, 1])))


@pytest.mark.parametrize("text, field", FORMS, ids=["Q", "F7"])
def test_no_oracle_reaches_a_fast_path(text, field, monkeypatch):
    form = QuadraticForm.from_text(text, field)
    assert _audit(form, monkeypatch) == set(ALLOWED)


def test_the_audit_catches_an_oracle_that_multiplies(monkeypatch):
    """A pairing oracle written as the scalar part of x * conjugate(y) agrees
    with the real one, and the audit names it."""
    form = QuadraticForm.from_text(*FORMS[0])
    monkeypatch.setattr(reference, "product_pairing", lambda x, y: (x * y.conjugate()).scalar_part())
    assert _audit(form, monkeypatch) == set(ALLOWED) | {"product_pairing"}
