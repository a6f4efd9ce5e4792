"""The self-check battery: every check passes on every supported form."""
import dataclasses

import pytest

from cliffex import QuadraticForm, run_checks, structure
from cliffex.checks import check_decomposition, check_killing, volume_commutation_report
from cliffex.errors import OddDimension
from cliffex.field import RATIONAL, FieldSpec

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


def test_killing_check_runs_the_trace_route_up_to_the_oracle_cap(monkeypatch):
    for n in (6, 8):
        result = check_killing(QuadraticForm([1] * n, RATIONAL))
        assert result.passed and not result.skipped, result
    above = check_killing(QuadraticForm([1] * 9, RATIONAL))
    assert above.skipped and str(structure.ORACLE_CAP) in above.detail
    # Doubling every adjoint matrix quadruples the traces: the routes disagree.
    ad = structure.ad_matrix
    monkeypatch.setattr(
        structure, "ad_matrix", lambda *a: [[v + v for v in row] for row in ad(*a)]
    )
    assert not check_killing(QuadraticForm([1, 1, -1], RATIONAL)).passed
