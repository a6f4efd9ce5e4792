"""The isometry Lie algebra: membership, centers, Killing form, splitting."""
import dataclasses
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import Phase, given, settings, strategies as st

from cliffex import (
    FieldSpec,
    QuadraticForm,
    ad_matrix,
    caps,
    center,
    checks,
    decompose,
    definiteness_report,
    in_lie_algebra,
    is_isometry,
    is_lie_blade,
    isometry_evidence,
    killing_count,
    killing_entry,
    killing_form,
    lie_algebra_basis,
    lie_blades,
    lie_center,
    lie_dimension,
    linalg,
    structure,
    volume_commutation_report,
)
from cliffex.errors import (
    MismatchedForm,
    NotDefiniteForm,
    NotInLieAlgebra,
    NotInvariantSubspace,
    OddDimension,
    ParseError,
    UnorderedField,
    ZeroElement,
)
from cliffex.reference import (
    anticommuting_lie_blades,
    plane_rotor,
    random_isometry,
    random_multivector,
)
from test_linalg import _scaled_system

SEED = 31415
F7 = FieldSpec.prime(7)

# Dimension of the Lie algebra for n = 1..10, frozen from an
# independent count of blades of grade 1 or 2 mod 4.
LIE_DIMS = [1, 3, 6, 10, 16, 28, 56, 120, 256, 528]


def _lie_sample(rng, form, terms=4):
    """Random element supported on Lie-algebra blades."""
    blades = lie_blades(form)
    picks = rng.sample(blades, min(terms, len(blades)))
    data = {}
    for m in picks:
        data[m] = form.field.element(rng.randint(-5, 5))
    return form.multivector(data)


# -- membership ----------------------------------------------------------


def test_lie_blades_are_grades_one_and_two_mod_four():
    for n in range(1, 8):
        form = QuadraticForm([1] * n)
        masks = lie_blades(form)
        for mask in range(form.dim):
            k = bin(mask).count("1")
            want = k % 4 in (1, 2)
            assert (mask in masks) == want == is_lie_blade(mask)


def test_lie_dimension_table():
    for n, want in enumerate(LIE_DIMS, start=1):
        assert lie_dimension(n) == want
        form = QuadraticForm([1] * n)
        assert len(lie_blades(form)) == want
    assert len(lie_algebra_basis(QuadraticForm([1] * 5))) == LIE_DIMS[4]


def test_membership_is_the_negated_conjugation_eigenspace():
    rng = random.Random(SEED)
    form = QuadraticForm([1, -1, 2])
    for _ in range(40):
        x = random_multivector(rng, form, terms=5)
        assert in_lie_algebra(x) == (x.conjugate() == -x)
    assert in_lie_algebra(form.zero())
    assert not in_lie_algebra(form.one())


def test_bracket_closure_and_jacobi():
    rng = random.Random(SEED + 1)
    for field in (None, F7):
        form = QuadraticForm([1, 1, -1, 2], field)
        for _ in range(20):
            x = _lie_sample(rng, form)
            y = _lie_sample(rng, form)
            z = _lie_sample(rng, form)
            assert in_lie_algebra(x.commutator(y))
            jac = (
                x.commutator(y).commutator(z)
                + y.commutator(z).commutator(x)
                + z.commutator(x).commutator(y)
            )
            assert jac.is_zero()


# -- centers -------------------------------------------------------------


def test_algebra_center_closed_form():
    for n in range(1, 7):
        form = QuadraticForm([(-1) ** i * (i + 1) for i in range(n)])
        desc = center(form)
        if n % 2:
            assert desc.dimension == 2
            assert desc.contains_volume
        else:
            assert desc.dimension == 1
            assert not desc.contains_volume
        # The scalar blade is always there.
        assert any(b == form.one() for b in desc.basis)


def test_lie_center_closed_form():
    for n in range(1, 9):
        form = QuadraticForm([1] * n)
        desc = lie_center(form)
        if n % 4 == 1:
            assert desc.dimension == 1
            assert desc.basis[0] == form.volume_element()
        else:
            assert desc.dimension == 0


def test_solved_centers_agree_with_closed_form():
    for field in (None, F7):
        for n in range(1, 7):
            form = QuadraticForm([(-1) ** i * (i + 1) for i in range(n)], field)
            for fn in (center, lie_center):
                closed = fn(form, method="closed_form")
                solved = fn(form, method="solve")
                assert closed.dimension == solved.dimension
                # Same subspace, not just the same dimension: the closed-form
                # basis is unit blades, and the solved basis is the same
                # blades, each a single term.
                assert all(len(b.support()) == 1 for b in closed.basis)
                assert sorted(b.support() for b in solved.basis) == sorted(
                    b.support() for b in closed.basis
                )


def test_an_unknown_method_is_a_parse_error():
    form = QuadraticForm([1, 1, -1])
    for route, known in ((center, "solve"), (lie_center, "solve"), (killing_form, "trace")):
        assert route(form, method=known)
        with pytest.raises(ParseError, match="^unknown method 'exact'$"):
            route(form, method="exact")


# Diagonals with denominators, so the square table's scale d is not 1;
# every entry is a unit modulo 7 and 101.
RATIONAL_DIAGONALS = (
    [Fraction(1, 2), 3, Fraction(-2, 5)],
    [Fraction(-3, 4), 5, Fraction(2, 9), -1],
    [Fraction(1, 3), Fraction(-5, 2), 11, Fraction(4, 9), Fraction(-1, 6)],
)


def test_square_table_routes_on_rational_diagonals():
    """The centres solved from integer rows, the Killing entries and the
    table itself, on forms whose square table has a scale d other than 1."""
    for field in (None, F7, FieldSpec.prime(101)):
        for diag in RATIONAL_DIAGONALS:
            form = QuadraticForm(diag, field)
            d, squares = form.square_table()
            if field is None:
                assert d == prod(Fraction(q).denominator for q in diag) > 1
            for mask in range(form.dim):
                # square_factor reads the table, so both meet the product
                # of -q_i over the mask, taken straight from the diagonal.
                want = prod((-q for i, q in enumerate(form.diag) if mask >> i & 1), start=form.field.one)
                assert form.field.element(Fraction(squares[mask], d)) == want
                assert form.square_factor(mask) == want
            for fn in (center, lie_center):
                solved = fn(form, method="solve")
                assert solved == dataclasses.replace(fn(form), method="solve")
            for rec in killing_form(form):
                sq = form.blade_square(rec.mask)
                assert rec.square == sq
                assert rec.value == killing_entry(form, rec.mask, rec.mask)
                assert rec.value == form.field.element(4 * rec.anticommuting) * sq


def _literal_centralizer_kernel(form, masks):
    """The kernel of [x, e_g] = 0 for every generator e_g, x in the span of
    ``masks``: one single-entry row e_m e_g - e_g e_m per (g, m), read from
    ``blade_product``, solved by ``linalg.affine_space``."""
    f = form.field
    rows = []
    for k in range(form.n):
        g = 1 << k
        for col, m in enumerate(masks):
            rows.append({col: form.blade_product(m, g).coef - form.blade_product(g, m).coef})
    int_rows = _scaled_system(rows, None, len(masks), f)
    kernel = linalg.affine_space(int_rows, len(masks), f)[3]
    return [form.multivector({m: v for m, v in zip(masks, vec) if v}) for vec in kernel]


@st.composite
def _nondegenerate_forms(draw):
    field = draw(st.sampled_from((None, FieldSpec.prime(3), FieldSpec.prime(5), F7)))
    if field is None:
        entry = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)
    else:
        entry = st.integers(1, field.p - 1)
    n = draw(st.integers(1, 7))
    return QuadraticForm(draw(st.lists(entry, min_size=n, max_size=n)), field)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(_nondegenerate_forms())
def test_centralizer_kernel_is_the_kernel_of_the_literal_system(form):
    for masks in (range(form.dim), lie_blades(form)):
        assert structure._centralizer_kernel(form, masks) == _literal_centralizer_kernel(form, masks)


@pytest.mark.parametrize("field", [None, F7], ids=["Q", "F7"])
def test_centre_solve_reads_the_commutator_coefficient_in_the_field(monkeypatch, field):
    """With the square-table entry of the empty mask read as 0, which is an
    int and a residue, e_m e_g = e_g e_m for every g outside m: the odd
    blades look central, the solved centre grows and check_centers fails."""
    form = QuadraticForm([1, -1, 2, 3], field)
    square_table = QuadraticForm.square_table

    def broken(self):
        d, squares = square_table(self)
        return d, (0, *squares[1:])

    monkeypatch.setattr(QuadraticForm, "square_table", broken)
    assert center(form, method="solve").dimension > center(form).dimension
    assert lie_center(form, method="solve").dimension > lie_center(form).dimension
    assert not checks.check_centers(form).passed


def test_definiteness_on_a_rational_positive_diagonal():
    form = QuadraticForm([Fraction(1, 2), 3, Fraction(2, 5), Fraction(7, 3)])
    rep = definiteness_report(form)
    assert rep.killing_negative and rep.pairing_positive
    assert rep.killing_signs == (rep.ideal_dim, 0, 0) == (lie_dimension(4), 0, 0)


def test_central_elements_actually_commute():
    rng = random.Random(SEED + 2)
    form = QuadraticForm([1, 1, -1])  # odd rank, center includes the volume
    desc = center(form, method="solve")
    for b in desc.basis:
        for _ in range(10):
            x = random_multivector(rng, form)
            assert b * x == x * b


# -- Killing form --------------------------------------------------------


def test_ad_matrix_encodes_the_bracket():
    rng = random.Random(SEED + 3)
    form = QuadraticForm([1, 1, -1])
    basis = lie_algebra_basis(form)
    for _ in range(10):
        xi = _lie_sample(rng, form)
        m = ad_matrix(xi)
        for j, ej in enumerate(basis):
            want = xi.commutator(ej)
            got = {basis[i]: col for i, col in enumerate(r[j] for r in m)}
            acc = form.zero()
            for i, e in enumerate(basis):
                acc = acc + e * m[i][j]
            assert acc == want


def test_ad_matrix_matches_dense_commutators_column_by_column():
    """Integer diagonals, a fractional diagonal over Q, where the brackets are
    divided by d != 1, and F_3, F_7 and F_101."""
    rng = random.Random(SEED + 9)
    fractional = (Fraction(1, 2), Fraction(-2, 3), 3, Fraction(-5, 4), Fraction(7, 6))
    for field, entries in ((None, (1, -1, 2, -3)), (None, fractional), (FieldSpec.prime(3), (1, -1)),
                           (F7, (1, -1, 2, -3)), (FieldSpec.prime(101), (1, -1, 2, -3, 50))):
        for n in range(1, 7):
            form = QuadraticForm([rng.choice(entries) for _ in range(n)], field)
            blades = lie_blades(form)
            for _ in range(3):
                # Several terms with nonzero coefficients, so xi is not a blade
                # (except at n = 1, where the Lie algebra is one line).
                picks = rng.sample(blades, min(len(blades), rng.randint(2, 6)))
                xi = form.multivector(
                    {m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 4, 5)))
                     for m in picks}
                )
                m = ad_matrix(xi)
                assert len(m) == len(blades)
                for j, b in enumerate(blades):
                    want = xi.commutator(form.basis_blade(b))
                    assert set(want.support()) <= set(blades)
                    assert [row[j] for row in m] == [want.coeff(a) for a in blades]


def test_ad_matrix_names_the_lowest_blade_leaving_a_unit_sub_basis():
    form = QuadraticForm([1, 1, 1])
    # [e1 + e23, e3] = 2 e13 - 2 e2: the term order of xi meets e13 first,
    # but e2 is the lower mask that leaves span{e3}.
    xi = form.parse("e1 + e23")
    with pytest.raises(NotInvariantSubspace, match=r"at blade e2$"):
        ad_matrix(xi, [form.basis_blade(0b100)])
    # A closed unit sub-basis still gives the matrix: span{e1, e2, e12}.
    sub = [form.basis_blade(m) for m in (0b001, 0b010, 0b011)]
    assert ad_matrix(form.parse("e12"), sub) == [
        [0, -2, 0],
        [2, 0, 0],
        [0, 0, 0],
    ]


def test_ad_matrix_refuses_a_basis_element_that_is_not_a_unit_blade():
    for field in (None, F7):
        form = QuadraticForm([1, 1, -1], field)
        xi = form.parse("e12")
        e1, e2 = form.basis_blade(0b001), form.basis_blade(0b010)
        # Each of these spans a space that [xi, -] maps into itself.
        for bad in ([e1, e2 * 2, form.parse("e12")], [e1 + e2, e1 - e2, form.parse("e12")],
                    [e1, e2, form.zero()], [e1, e1, e2, form.parse("e12")]):
            with pytest.raises(NotInvariantSubspace, match="^ad_matrix needs a basis of unit blades$"):
                ad_matrix(xi, bad)
        assert len(ad_matrix(xi, [e1, e2, form.parse("e12")])) == 3


def test_ad_matrix_refuses_a_basis_over_another_form():
    form = QuadraticForm.from_text("sig:3,0")
    xi = form.parse("e12")
    other = QuadraticForm.from_text("diag:1,2,3")
    for basis in ([other.basis_blade(m) for m in lie_blades(other)],
                  [form.basis_blade(0b011), other.basis_blade(0b101)],
                  [QuadraticForm.from_text("sig:3,0", F7).basis_blade(0b011)]):
        with pytest.raises(MismatchedForm):
            ad_matrix(xi, basis)
    # An equal form built apart is the same form.
    same = QuadraticForm.from_text("sig:3,0")
    assert ad_matrix(xi, [same.basis_blade(m) for m in lie_blades(same)]) == ad_matrix(xi)


def test_ad_matrix_rejects_non_members():
    form = QuadraticForm([1, 1])
    with pytest.raises(NotInLieAlgebra):
        ad_matrix(form.one())
    # Membership read from the terms agrees with c(x) = -x, also on elements
    # mixing Lie and non-Lie blades.
    rng = random.Random(SEED + 10)
    for field in (None, F7):
        form = QuadraticForm([1, -1, 2, 3], field)
        seen = set()
        for _ in range(60):
            x = random_multivector(rng, form, terms=rng.randint(1, 5))
            member = x.conjugate() == -x
            seen.add(member)
            if member:
                assert len(ad_matrix(x)) == len(lie_blades(form))
            else:
                with pytest.raises(NotInLieAlgebra):
                    ad_matrix(x)
                with pytest.raises(NotInLieAlgebra):
                    ad_matrix(x, lie_algebra_basis(form))
        assert seen == {True, False}


def test_killing_diagonal_closed_form():
    """B(e_I, e_I) = 4 m_I e_I^2 with m_I the anticommuting blade count."""
    for field in (None, F7):
        for n in range(1, 7):
            form = QuadraticForm([(-1) ** i * (i + 1) for i in range(n)], field)
            for rec in killing_form(form, method="count"):
                m = killing_count(form, rec.mask)
                assert rec.anticommuting == m
                sq = form.blade_square(rec.mask)
                assert rec.square == sq
                assert rec.value == form.field.element(4 * m) * sq


def test_killing_count_matches_the_enumeration_at_every_mask():
    for n in range(1, 11):
        form = QuadraticForm([1] * n)
        for mask in range(form.dim):
            assert killing_count(form, mask) == len(anticommuting_lie_blades(form, mask))


def test_killing_form_and_decomposition_reach_rank_sixteen():
    form = QuadraticForm.from_signature(16, 0)
    records = killing_form(form)
    assert len(records) == lie_dimension(16) == 32640
    # One enumeration per grade: the count depends on the grade alone.
    counts = {
        k: len(anticommuting_lie_blades(form, (1 << k) - 1)) for k in (1, 2, 5, 6, 9, 10, 13, 14)
    }
    for rec in records:
        m = counts[rec.mask.bit_count()]
        assert rec.anticommuting == m
        assert rec.square == form.blade_square(rec.mask) == -1
        assert rec.value == 4 * m * rec.square
    dec = decompose(form)
    assert (dec.lie_dim, dec.codim, dec.center_basis) == (32640, 0, ())
    assert dec.ideal_masks == lie_blades(form)
    assert dec.bracket_closed and dec.killing_nondegenerate_on_ideal


def test_killing_trace_oracle_agrees_with_count():
    for field, top in ((None, 8), (F7, 6)):
        for n in range(1, top + 1):
            for diag in ([1] * n, [1, -1, 2, -3, 1, -1, 5, 1][:n]):
                form = QuadraticForm(diag, field)
                assert killing_form(form, method="trace") == killing_form(form, method="count")


@pytest.mark.parametrize("n", range(1, caps.KILLING_TRACE + 1))
@pytest.mark.parametrize("p", [None, 3, 7, 101], ids=["Q", "F3", "F7", "F101"])
@settings(deadline=None, derandomize=True, max_examples=3, phases=[Phase.explicit, Phase.generate])
@given(data=st.data())
def test_killing_trace_sum_is_the_count_on_every_blade(n, p, data):
    """Over fractional Q diagonals, F_3 (where whole grades of entries
    vanish), F_7 and F_101, at every rank the trace route runs.  No shrink
    phase: a broken trace fails on nearly every draw, and shrinking a
    rational diagonal at rank 10 took minutes before the failure showed."""
    if p is None:
        entry = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)
    else:
        entry = st.integers(1, p - 1)
    diag = data.draw(st.lists(entry, min_size=n, max_size=n))
    form = QuadraticForm(diag, p and FieldSpec.prime(p))
    traced = killing_form(form, method="trace")
    assert traced == killing_form(form, method="count")
    assert [r.mask for r in traced] == list(lie_blades(form))


def test_killing_off_diagonal_vanishes():
    for n in range(1, 6):
        form = QuadraticForm([(-1) ** i for i in range(n)])
        masks = lie_blades(form)
        for a in masks:
            for b in masks:
                if a != b:
                    assert killing_entry(form, a, b) == form.field.zero


def test_killing_entry_refuses_masks_outside_the_algebra():
    form = QuadraticForm.from_text("sig:3,0")
    for a, b in ((1 << 5, 1), (-1, 1), (1, 1 << 5), (1, -1), (1 << 3, 1 << 3), (-1, -1)):
        with pytest.raises(MismatchedForm):
            killing_entry(form, a, b)
    assert killing_entry(form, 0b011, 0b101) == form.field.zero


def test_first_known_killing_value():
    # Rank 2, unit diagonal: every generator blade has m = 2 and square -1.
    form = QuadraticForm([1, 1])
    assert killing_entry(form, 0b01, 0b01) == Fraction(-8)


def test_killing_vanishes_exactly_on_the_volume_when_rank_is_one_mod_four():
    for n in range(1, 9):
        form = QuadraticForm([1] * n)
        full = form.full_mask
        for rec in killing_form(form, method="count"):
            if n % 4 == 1 and rec.mask == full:
                assert rec.value == form.field.zero
            else:
                assert rec.value != form.field.zero


# -- decomposition -------------------------------------------------------


def test_decomposition_shape():
    for n in range(1, 8):
        form = QuadraticForm([1] * n)
        dec = decompose(form)
        assert dec.lie_dim == lie_dimension(n)
        want_codim = 1 if n % 4 == 1 else 0
        assert dec.codim == want_codim
        assert len(dec.center_basis) == want_codim
        assert len(dec.ideal_masks) == dec.lie_dim - want_codim
        assert dec.bracket_closed
        assert dec.killing_nondegenerate_on_ideal


def test_nondegeneracy_flag_reads_the_entries_in_the_field():
    # At rank 4 every ideal blade anticommutes with 6 Lie blades, so every
    # Killing entry 4 * 6 * s vanishes mod 3, but not mod 5 or over Q.
    for field, want in ((None, True), (FieldSpec.prime(5), True), (FieldSpec.prime(3), False)):
        form = QuadraticForm.from_signature(4, 0, field)
        dec = decompose(form)
        assert {killing_count(form, m) for m in dec.ideal_masks} == {6}
        assert dec.killing_nondegenerate_on_ideal is want
        assert all(killing_entry(form, m, m) for m in dec.ideal_masks) is want


def test_decomposition_splits_the_volume_out():
    form = QuadraticForm([1] * 5)
    dec = decompose(form)
    assert dec.center_basis[0] == form.volume_element()
    assert form.full_mask not in dec.ideal_masks


def test_ideal_is_a_bracket_ideal():
    rng = random.Random(SEED + 4)
    form = QuadraticForm([1] * 5)
    dec = decompose(form)
    ideal = set(dec.ideal_masks)
    for _ in range(20):
        x = _lie_sample(rng, form)
        h = form.basis_blade(rng.choice(dec.ideal_masks))
        br = x.commutator(h)
        assert set(br.support()) <= ideal


# -- definiteness over ordered scalars -----------------------------------


def test_definiteness_for_positive_forms():
    for n in range(1, 7):
        form = QuadraticForm([1] * n)
        rep = definiteness_report(form)
        assert rep.killing_negative
        assert rep.pairing_positive
        # Sign triples count (negative, zero, positive) entries.
        assert rep.killing_signs == (rep.ideal_dim, 0, 0)
        assert rep.pairing_signs == (0, 0, rep.ideal_dim)


def test_definiteness_needs_a_definite_ordered_form():
    with pytest.raises(NotDefiniteForm):
        definiteness_report(QuadraticForm([1, -1]))
    with pytest.raises(UnorderedField):
        definiteness_report(QuadraticForm([1, 1], F7))


# -- isometries ----------------------------------------------------------


def test_plane_rotors_are_isometries():
    form = QuadraticForm([1, 1, 1])
    for t in (Fraction(1, 2), Fraction(2), Fraction(-3, 7)):
        g = plane_rotor(form, 1, 2, t)
        assert g is not None
        assert is_isometry(g)
        ev = isometry_evidence(g)
        assert ev.isometry and ev.left_unit and ev.right_unit
        assert ev.left_gram_preserved and ev.right_gram_preserved
        assert ev.consistent


def test_isometry_means_unit_against_conjugation():
    rng = random.Random(SEED + 5)
    for field in (None, F7):
        form = QuadraticForm([1, 1, -1], field)
        one = form.one()
        for _ in range(10):
            g = random_isometry(rng, form)
            assert g * g.conjugate() == one
            assert g.conjugate() * g == one
            assert is_isometry(g)


def test_non_isometries_are_rejected():
    form = QuadraticForm([1, 1])
    assert not is_isometry(form.scalar(2))
    with pytest.raises(ZeroElement):
        is_isometry(form.zero())
    assert is_isometry(-form.one())


def test_isometries_preserve_the_pairing():
    rng = random.Random(SEED + 6)
    form = QuadraticForm([1, 1, 1])
    for _ in range(5):
        g = random_isometry(rng, form)
        for _ in range(5):
            x = random_multivector(rng, form, terms=4)
            y = random_multivector(rng, form, terms=4)
            assert (g * x).pair(g * y) == x.pair(y)
            assert (x * g).pair(y * g) == x.pair(y)


# -- volume twisted commutation ------------------------------------------


def test_volume_commutation_even_rank():
    for n in (2, 4):
        form = QuadraticForm([(-1) ** i for i in range(n)])
        assert volume_commutation_report(form) == form.dim
    with pytest.raises(OddDimension):
        volume_commutation_report(QuadraticForm([1, 1, 1]))
