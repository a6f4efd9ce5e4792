"""Period-8 classification tables and their exact-engine verification."""
import pytest

from cliffex import (
    QuadraticForm,
    classify,
    expected_lie_center_dim,
    isometry_group_of,
    matrix_algebra_of,
    verify_classification,
)
from cliffex.classify import CheckPair
from cliffex.errors import CapExceeded, MixedFieldSpec
from cliffex.structure import lie_dimension

# Frozen expectations for the first ten ranks.
ALGEBRAS = {
    1: "M(1,C)",
    2: "M(1,H)",
    3: "M(1,H)+M(1,H)",
    4: "M(2,H)",
    5: "M(4,C)",
    6: "M(8,R)",
    7: "M(8,R)+M(8,R)",
    8: "M(16,R)",
    9: "M(16,C)",
    10: "M(16,H)",
}

GROUPS = {
    1: "U(1)",
    2: "Sp(1)",
    3: "Sp(1)xSp(1)",
    4: "Sp(2)",
    5: "U(4)",
    6: "O(8)",
    7: "O(8)xO(8)",
    8: "O(16)",
    9: "U(16)",
    10: "Sp(16)",
}


def test_algebra_table_first_ten_ranks():
    for n, name in ALGEBRAS.items():
        assert matrix_algebra_of(n).describe() == name


def test_group_table_first_ten_ranks():
    for n, name in GROUPS.items():
        assert isometry_group_of(n).describe() == name


def test_algebra_real_dimension_is_two_to_the_n():
    for n in range(1, 25):
        assert matrix_algebra_of(n).real_dimension() == 1 << n


def test_group_dimension_matches_lie_dimension_formula():
    for n in range(1, 25):
        assert isometry_group_of(n).dimension() == lie_dimension(n)


def test_tables_repeat_with_period_eight():
    for n in range(1, 17):
        a, a8 = matrix_algebra_of(n), matrix_algebra_of(n + 8)
        assert (a8.base, a8.double) == (a.base, a.double)
        assert a8.size == 16 * a.size
        g, g8 = isometry_group_of(n), isometry_group_of(n + 8)
        assert (g8.family, g8.double) == (g.family, g.double)
        assert g8.size == 16 * g.size


def test_doubling_happens_at_three_mod_four():
    for n in range(1, 20):
        assert matrix_algebra_of(n).double == (n % 4 == 3)
        assert isometry_group_of(n).double == (n % 4 == 3)


def test_lie_center_prediction_has_period_four():
    expected = {1: 1, 2: 0, 3: 0, 4: 0, 5: 1, 6: 0, 7: 0, 8: 0, 9: 1}
    for n, d in expected.items():
        assert expected_lie_center_dim(n) == d


def test_check_pair_semantics():
    assert CheckPair(3, 3).ok
    assert not CheckPair(3, 4).ok


def test_verification_passes_for_first_ten_ranks():
    for n in range(1, 11):
        report = verify_classification(n)
        assert report.passed
        assert report.n == n
        assert report.algebra.describe() == ALGEBRAS[n]
        assert report.group.describe() == GROUPS[n]
        assert report.lie_dim.expected == report.lie_dim.got == lie_dimension(n)
        assert report.center_dim.got == expected_lie_center_dim(n)
        assert report.algebra_dim.expected == 1 << n
        assert report.killing_definite


def test_rank_bounds_are_enforced():
    with pytest.raises(CapExceeded):
        matrix_algebra_of(0)
    with pytest.raises(CapExceeded):
        isometry_group_of(-1)
    with pytest.raises(CapExceeded, match="^GENERATORS capped at n = 16$"):
        verify_classification(17)
    with pytest.raises(CapExceeded):
        verify_classification(0)
    # The tables themselves answer at every rank, verified or not.
    assert matrix_algebra_of(11).describe() == "M(16,H)+M(16,H)"
    assert isometry_group_of(11).describe() == "Sp(16)xSp(16)"


@pytest.mark.parametrize("call, error", [
    (lambda: QuadraticForm([1, 1], "fp:7"), MixedFieldSpec),
    (lambda: matrix_algebra_of(1.5), CapExceeded),
    (lambda: isometry_group_of(1.5), CapExceeded),
    (lambda: verify_classification("3"), CapExceeded),
], ids=["form-field-text", "algebra-float", "group-float", "verify-text"])
def test_wrong_type_inputs_raise_the_documented_error(monkeypatch, call, error):
    """A field that is not a FieldSpec, or a rank that is not an int, is
    refused with a CliffexError, and before a form of that rank is built."""
    monkeypatch.setattr(classify, "QuadraticForm", lambda *a: pytest.fail("form built"))
    with pytest.raises(error):
        call()
    # A bool is the int it is.
    assert matrix_algebra_of(True) == matrix_algebra_of(1)
