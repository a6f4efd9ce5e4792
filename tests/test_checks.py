"""The self-check battery: every check passes on every supported form."""
import dataclasses
from fractions import Fraction
from random import Random

import pytest

from cliffex import QuadraticForm, caps, checks, linalg, operators, reference, run_checks, structure
from cliffex.checks import (
    CheckResult,
    check_centers,
    check_decomposition,
    check_gram,
    check_killing,
    check_killing_dichotomy,
    check_volume,
    volume_commutation_report,
)
from cliffex.core import BladeProduct, format_blade
from cliffex.errors import InternalInconsistency, OddDimension
from cliffex.field import RATIONAL, FieldSpec
from test_reference import _Reached, _reached

EXPECTED_NAMES = [
    "field_arithmetic",
    "blade_products",
    "product_ring",
    "involutions",
    "pairing",
    "gram",
    "volume",
    "centers",
    "lie_closure",
    "killing",
    "killing_dichotomy",
    "decomposition",
    "invertibility",
    "adjoint_matrices",
    "equivalence",
    "uniqueness",
    "isometries",
    "definiteness",
    "classification",
    "quaternion_conventions",
    "bridge",
]


def form_battery():
    f7 = FieldSpec.from_text("fp:7")
    f11 = FieldSpec.from_text("fp:11")
    return [
        QuadraticForm([1], RATIONAL),
        QuadraticForm([1, 1], RATIONAL),
        QuadraticForm([1, 1, 1], RATIONAL),
        QuadraticForm([1, 1, -1], RATIONAL),
        QuadraticForm([2, -3, 5, 1], RATIONAL),
        QuadraticForm([2, 3], f11),
        QuadraticForm([1, -1, 2, -3, 5], f7),
    ]


def test_every_check_passes_on_every_form():
    for form in form_battery():
        results = run_checks(form, seed=0)
        assert [r.name for r in results] == EXPECTED_NAMES
        failures = [r for r in results if not r.passed]
        assert not failures, f"{form.to_text()}: {failures}"


def test_checks_pass_under_different_seeds():
    form = QuadraticForm([1, 1, -1], RATIONAL)
    for seed in (1, 7, 1009):
        assert all(r.passed for r in run_checks(form, seed=seed))


def test_checks_are_deterministic_in_the_seed():
    form = QuadraticForm([2, 3], FieldSpec.from_text("fp:11"))
    first = run_checks(form, seed=42)
    second = run_checks(form, seed=42)
    assert first == second


def test_run_checks_calls_each_check_through_the_module(monkeypatch):
    """run_checks reads each check_* attribute of the module when it runs,
    so a substituted check (as a tracer that counts checks installs) runs."""
    sentinel = CheckResult("gram", False, "substituted")
    monkeypatch.setattr(checks, "check_gram", lambda form, rng=None: sentinel)
    results = run_checks(QuadraticForm([1, 1], RATIONAL), seed=0)
    assert [r.name for r in results] == EXPECTED_NAMES
    assert results[EXPECTED_NAMES.index("gram")] is sentinel


def test_skip_pattern_follows_the_form():
    def skipped(form):
        return [r.name for r in run_checks(form, seed=0) if r.skipped]

    # Small positive definite rational forms exercise everything.
    assert skipped(QuadraticForm([1, 1, 1], RATIONAL)) == []
    # Indefinite and prime-field forms have no real definiteness story.
    assert skipped(QuadraticForm([1, 1, -1], RATIONAL)) == [
        "definiteness",
        "classification",
    ]
    assert skipped(QuadraticForm([2, 3], FieldSpec.from_text("fp:11"))) == [
        "definiteness",
        "classification",
    ]
    # The uniqueness solve is capped by rank.
    assert "uniqueness" in skipped(QuadraticForm([1, 1, 1, 1], RATIONAL))


def test_skipped_results_still_count_as_passed():
    form = QuadraticForm([1, 1, -1], RATIONAL)
    for r in run_checks(form, seed=0):
        if r.skipped:
            assert r.passed
            assert r.detail


def test_volume_commutation_report():
    for n in (2, 4, 6):
        form = QuadraticForm([1] * n, RATIONAL)
        assert volume_commutation_report(form) == form.dim
    assert volume_commutation_report(QuadraticForm([2, -3], RATIONAL)) == 4
    with pytest.raises(OddDimension):
        volume_commutation_report(QuadraticForm([1, 1, 1], RATIONAL))


def test_gram_check_catches_one_altered_entry(monkeypatch):
    for form in (QuadraticForm([2, -3, 5], RATIONAL), QuadraticForm([3, -1], FieldSpec.prime(7))):
        assert check_gram(form).passed
        gram = form.gram_diagonal()
        for mask in range(form.dim):
            bad = gram[:mask] + (gram[mask] + gram[mask],) + gram[mask + 1 :]
            monkeypatch.setattr(QuadraticForm, "gram_diagonal", lambda self, bad=bad: bad)
            result = check_gram(form)
            assert not result.passed and result.detail == f"diagonal mismatch at mask {mask}"
            monkeypatch.undo()


def test_gram_check_catches_one_product_landing_on_the_scalar(monkeypatch):
    """The off-diagonal check reads e_a c(e_b) from the blade products: a
    product of two distinct blades reported on mask 0 is a nonzero
    off-diagonal pairing, whichever pair of the exhaustive sweep it is."""
    product = QuadraticForm.blade_product
    for form in (QuadraticForm([2, -3, 5, 1, -1], RATIONAL), QuadraticForm([3, -1, 1], FieldSpec.prime(7))):
        assert form.n <= caps.BLADE_PAIRS_EXHAUSTIVE
        for a, b in ((1, 2), (form.dim - 1, 0), (3, form.dim - 2)):
            def scalar(self, x, y, a=a, b=b):
                coef, out = product(self, x, y)
                return BladeProduct(coef, 0 if (x, y) == (a, b) else out)

            monkeypatch.setattr(QuadraticForm, "blade_product", scalar)
            result = check_gram(form)
            assert not result.passed and result.detail == f"nonzero off-diagonal at masks {a}, {b}"
            monkeypatch.undo()
        assert check_gram(form).passed


def test_volume_report_catches_one_flipped_blade_product(monkeypatch):
    product = QuadraticForm.blade_product
    f7 = FieldSpec.prime(7)
    for form in (QuadraticForm([2, -3], RATIONAL), QuadraticForm([1, 2, -1, 3], f7)):
        # At the top blade both sides are the one product w w: nothing to flip.
        for mask in range(form.full_mask):
            def flipped(self, a, b, mask=mask):
                coef, out = product(self, a, b)
                return BladeProduct(-coef if (a, b) == (mask, form.full_mask) else coef, out)

            monkeypatch.setattr(QuadraticForm, "blade_product", flipped)
            with pytest.raises(InternalInconsistency, match=f"fails at mask {mask}$"):
                volume_commutation_report(form)
            assert not check_volume(form).passed
            monkeypatch.undo()


def test_decomposition_check_rejects_altered_results(monkeypatch):
    for form in (QuadraticForm([1] * 5), QuadraticForm([1] * 4, FieldSpec.prime(3))):
        dec = structure.decompose(form)
        assert check_decomposition(form).passed
        for change in (
            {"bracket_closed": not dec.bracket_closed},
            {"killing_nondegenerate_on_ideal": not dec.killing_nondegenerate_on_ideal},
            {"ideal_masks": dec.ideal_masks[1:]},
        ):
            bad = dataclasses.replace(dec, **change)
            monkeypatch.setattr(structure, "decompose", lambda f, bad=bad: bad)
            assert not check_decomposition(form).passed, change
            monkeypatch.undo()


def test_centers_check_compares_the_solved_blades(monkeypatch):
    """A solved basis of the same dimension passes only when it is the
    closed-form blades, up to scale: a sum of them, another blade or a
    repeated blade fails."""
    center = structure.center
    for form in (QuadraticForm([1, -2, 3], RATIONAL), QuadraticForm([1, 2, -1, 3, 5], FieldSpec.prime(7))):
        one, top = form.one(), form.volume_element()
        assert check_centers(form).passed
        for basis, passes in (
            ((one * 2, top * 3), True),
            ((one + top, top), False),
            ((one, form.generator(1)), False),
            ((top, top), False),
        ):
            def solved(f, method="closed_form", basis=basis):
                desc = center(f, method)
                return dataclasses.replace(desc, basis=basis) if method == "solve" else desc

            monkeypatch.setattr(structure, "center", solved)
            assert check_centers(form).passed == passes, basis
            monkeypatch.undo()


def test_killing_check_runs_the_trace_route_up_to_the_oracle_cap(monkeypatch):
    for n in (6, caps.KILLING_TRACE):
        result = check_killing(QuadraticForm([1] * n, RATIONAL))
        assert result.passed and not result.skipped, result
        assert result.detail == f"{structure.lie_dimension(n)} diagonal entries agree with traces"
    above = check_killing(QuadraticForm([1] * (caps.KILLING_TRACE + 1), RATIONAL))
    assert above.passed and not above.skipped
    assert above.detail == ("2 sampled diagonal entries agree with traces; "
                            f"KILLING_TRACE capped at n = {caps.KILLING_TRACE}")
    # Doubling every bracket of the trace sum quadruples the traces: the routes disagree.
    monkeypatch.setattr(structure, "_brackets", _brackets_times(lambda b: 2))
    assert not check_killing(QuadraticForm([1, 1, -1], RATIONAL)).passed


def test_killing_dichotomy_reads_blade_products_below_and_above_the_pair_cap(monkeypatch):
    """The dichotomy check runs at every rank, on every Lie blade pair at
    rank 4 and on 200 sampled pairs at rank 16.  Doubling the products whose
    left blade has grade 2 and shares one index with the right one makes
    (ad e_a)^2 e_b neither 0 nor 4 e_a^2 on some pair, and both runs see it."""
    forms = (QuadraticForm.from_text("sig:3,1"), QuadraticForm.from_text("sig:16,0", FieldSpec.prime(7)))
    assert forms[0].n <= caps.BLADE_PAIRS_EXHAUSTIVE < forms[1].n
    for form in forms:
        assert check_killing_dichotomy(form, Random(0)) == CheckResult(
            "killing_dichotomy", True, "squared adjoint is 0 or 4 x^2 on each blade")
    product = QuadraticForm.blade_product

    def doubled(self, a, b):
        coef, out = product(self, a, b)
        return BladeProduct(2 * coef if a.bit_count() == 2 and (a & b).bit_count() == 1 else coef, out)

    monkeypatch.setattr(QuadraticForm, "blade_product", doubled)
    for form in forms:
        result = check_killing_dichotomy(form, Random(0))
        assert not result.passed and result.detail.startswith("unexpected (ad)^2 value at masks")


@pytest.mark.parametrize("text", ["sig:3,1", "diag:1/2,-1,3,-2/3,5"])
@pytest.mark.parametrize("field", [None, FieldSpec.prime(7)], ids=["Q", "F7"])
def test_killing_spot_check_sees_a_bracket_sent_to_a_wrong_blade(monkeypatch, text, field):
    """Below the cap the off-diagonal spot check reads the Z_2^n grading off
    the columns of ad e_a: an entry moved one row off e_(a xor b) fails it."""
    form = QuadraticForm.from_text(text, field)
    assert check_killing(form).passed

    def moved(xi, basis=None, ad_matrix=structure.ad_matrix):
        rows = ad_matrix(xi, basis)
        i, j = next((i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v)
        rows[(i + 1) % len(rows)][j], rows[i][j] = rows[i][j], form.field.zero
        return rows

    monkeypatch.setattr(structure, "ad_matrix", moved)
    result = check_killing(form)
    assert not result.passed and result.detail.startswith("ad e1 sends e")
    assert result.detail.endswith(" off its graded blade")


def _off_by_one_at(grade):
    """``_anticommuting_count`` one too high at ``grade``."""
    count = structure._anticommuting_count
    return lambda n, k: count(n, k) + (k == grade)


def _brackets_times(factor):
    """``_brackets`` with the bracket against each blade e_b scaled by factor(b)."""
    brackets = structure._brackets
    return lambda sq, a: lambda b, f=brackets(sq, a): factor(b) * f(b)


def _brackets_against_generators_vanish(sq, a, brackets=structure._brackets):
    return (lambda b: 0) if a.bit_count() == 1 else brackets(sq, a)


def _ad_matrix_differs_from_commutators(form):
    masks = structure.lie_blades(form)
    xi = form.multivector({m: i + 1 for i, m in enumerate(masks[:6])})
    want = [[xi.commutator(form.basis_blade(b)).coeff(a) for b in masks] for a in masks]
    return structure.ad_matrix(xi) != want


@pytest.mark.parametrize("fault, caught", [
    (_brackets_against_generators_vanish, lambda form: not check_centers(form).passed),
    (_brackets_times(lambda b: -1 if b.bit_count() == 2 else 1), _ad_matrix_differs_from_commutators),
], ids=["generators-zero-centers", "grade-2-sign-ad-matrix"])
@pytest.mark.parametrize("field", [None, FieldSpec.prime(7)], ids=["Q", "F7"])
def test_a_fault_in_the_shared_bracket_is_caught_by_a_second_route(monkeypatch, fault, caught, field):
    """``_brackets`` feeds the centre solve, ``ad_matrix`` and the Killing
    trace; check_centers (against the closed forms) and the dense commutators
    each see a fault in it."""
    form = QuadraticForm([Fraction(1, 2), -1, 3, Fraction(-2, 3)], field)
    assert not caught(form)
    monkeypatch.setattr(structure, "_brackets", fault)
    assert caught(form)


@pytest.mark.parametrize("text", ["sig:12,0", "sig:9,7"])
def test_the_sampled_killing_check_catches_a_fault_in_either_route(monkeypatch, text):
    """Above the cap the two sampled blades, of grade 1 and of the highest Lie
    grade, still see a fault in the trace sum or in the count at those grades."""
    form = QuadraticForm.from_text(text)
    assert form.n > caps.KILLING_TRACE
    top = max(k for k in range(1, form.n + 1) if k % 4 in (1, 2))
    low, high = (f"routes disagree at blade {format_blade(m, form.n)}" for m in (1, (1 << top) - 1))
    faults = [
        ("_brackets", _brackets_times(lambda b: 2), low),
        ("_brackets", _brackets_times(lambda b: -1 if b.bit_count() == 2 else 1), low),
        ("_anticommuting_count", _off_by_one_at(1), low),
        ("_anticommuting_count", _off_by_one_at(top), high),
    ]
    assert check_killing(form).passed
    for name, fault, detail in faults:
        monkeypatch.setattr(structure, name, fault)
        assert check_killing(form) == CheckResult("killing", False, detail)
        monkeypatch.undo()


def test_below_the_cap_the_killing_check_compares_every_blade(monkeypatch):
    """Below the cap every Lie blade is compared, not only the two the sampled
    check reads above it: a count one too high at grade 2 is seen at e12."""
    form = QuadraticForm.from_text("sig:4,0")
    monkeypatch.setattr(structure, "_anticommuting_count", _off_by_one_at(2))
    assert check_killing(form) == CheckResult("killing", False, "routes disagree at blade e12")


# -- the second routes of checks.py stay independent -----------------------


def _killing_traces(form, rng):
    masks = structure.lie_blades(form)
    return [structure._killing_trace(form, m, masks) for m in masks]


def _solved_centers(form, rng):
    return structure.center(form, method="solve"), structure.lie_center(form, method="solve")


def _right_determinants(form, rng):
    xs = [reference.random_multivector(rng, form, checks._sparse_terms(form)) for _ in range(3)]
    return [linalg.determinant(operators.right_matrix(x), form.field) for x in xs]


# Each second route, as its check calls it, and the code it cross-checks.
SECOND_ROUTES = {
    "check_killing": (_killing_traces, ((structure, "_anticommuting_count"),
                                        (structure, "killing_count"))),
    "check_centers": (_solved_centers, ((structure, "_lie_center_blades"),)),
    "check_invertibility": (_right_determinants, ((operators, "_unit_route"),
                                                  (QuadraticForm, "split"))),
}
# Code a second route still shares with the route it checks, by field, and why.
SHARED = {
    ("check_invertibility", "rational"): (
        ((operators, "_translation_matrix"), (linalg, "_forward")),
        "over Q det R_x reads the integer translation rows the unit route eliminates, "
        "with the same engine; a matrix-free determinant oracle would part them"),
    ("check_invertibility", "fp:7"): (
        ((linalg, "_forward"),),
        "det R_x and det phi(x) are eliminated by the one engine; its own tests and the "
        "cofactor oracle check it"),
}
AUDIT_FORMS = ["sig:3,1", "diag:1/2,-3,2/5", "sig:5,1"]


@pytest.mark.parametrize("text", AUDIT_FORMS)
@pytest.mark.parametrize("field", [None, FieldSpec.prime(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("check", sorted(SECOND_ROUTES))
def test_each_second_route_runs_without_the_code_it_checks(monkeypatch, check, field, text):
    """The route returns what it returns unpatched with the code it
    cross-checks patched to raise, and reaches only the shared code on
    ``SHARED``, each entry of which it does reach."""
    form = QuadraticForm.from_text(text, field)
    route, checked = SECOND_ROUTES[check]
    want = route(form, Random(3))
    with monkeypatch.context() as m:
        for owner, name in checked:
            m.setattr(owner, name, _reached)
        assert route(form, Random(3)) == want
    shared, _ = SHARED.get((check, form.field.to_text()), ((), ""))
    for owner, name in shared:
        with monkeypatch.context() as m:
            m.setattr(owner, name, _reached)
            with pytest.raises(_Reached):
                route(form, Random(3))
