"""Translation operators, invertibility, equivalence maps, pairing axioms."""
import dataclasses
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cliffex import (
    RATIONAL,
    FieldSpec,
    QuadraticForm,
    caps,
    equivalence_isomorphism,
    inverse,
    is_invertible,
    is_zero_divisor,
    left_matrix,
    linalg,
    pairing_adjoint,
    pairing_uniqueness_report,
    right_matrix,
    translation_determinants,
)
from cliffex.core import conjugate_sign, involute_sign
from cliffex.errors import (
    CapExceeded,
    MismatchedForm,
    NotEquivalent,
    NotInvertible,
    SingularTransformation,
    ZeroElement,
)
from cliffex.reference import (
    cofactor_determinant,
    random_invertible,
    random_multivector,
    random_nonzero_element,
    random_vector,
)

SEED = 77001
F7 = FieldSpec.prime(7)


def _mat_times_coeffs(m, x):
    return [sum((a * c for a, c in zip(row, x.coeffs)), x.form.field.zero) for row in m]


# -- translation matrices ------------------------------------------------


def test_translation_matrices_reproduce_products():
    rng = random.Random(SEED)
    for field in (None, F7):
        form = QuadraticForm([1, -1, 2], field)
        for _ in range(25):
            a = random_multivector(rng, form, terms=4)
            x = random_multivector(rng, form, terms=4)
            left = left_matrix(a)
            right = right_matrix(a)
            assert _mat_times_coeffs(left, x) == list((a * x).coeffs)
            assert _mat_times_coeffs(right, x) == list((x * a).coeffs)


@pytest.mark.parametrize("field", [RATIONAL, F7], ids=lambda f: f.to_text())
@pytest.mark.parametrize("n", range(1, 7))
def test_translation_matrices_reproduce_dense_products(field, n):
    rng = random.Random(SEED + 10 * n)
    form = QuadraticForm([1, -1, 2, -3, 1, 5][:n], field)
    for _ in range(3 if n == 6 else 6):
        a = random_multivector(rng, form)
        x = random_multivector(rng, form)
        assert _mat_times_coeffs(left_matrix(a), x) == list((a * x).coeffs)
        assert _mat_times_coeffs(right_matrix(a), x) == list((x * a).coeffs)


def test_translation_matrix_of_one_is_identity():
    form = QuadraticForm([1, 1])
    one = form.one()
    eye = [[int(i == j) for j in range(form.dim)] for i in range(form.dim)]
    assert left_matrix(one) == eye
    assert right_matrix(one) == eye


def test_translation_determinants_are_multiplicative():
    rng = random.Random(SEED + 1)
    form = QuadraticForm([1, 1, -1])
    for _ in range(15):
        a = random_multivector(rng, form, terms=4)
        b = random_multivector(rng, form, terms=4)
        da_l, da_r = translation_determinants(a)
        db_l, db_r = translation_determinants(b)
        dab_l, dab_r = translation_determinants(a * b)
        assert dab_l == da_l * db_l
        assert dab_r == da_r * db_r


def test_determinants_against_cofactor_oracle():
    rng = random.Random(SEED + 2)
    form = QuadraticForm([1, -1])
    for _ in range(10):
        a = random_multivector(rng, form)
        dl, dr = translation_determinants(a)
        assert dl == cofactor_determinant(left_matrix(a), form.field)
        assert dr == cofactor_determinant(right_matrix(a), form.field)


def test_anisotropic_vector_has_nonzero_determinant_square():
    """det L_v squared relation: L(v)^2 = L(v^2) is scalar and nonzero."""
    rng = random.Random(SEED + 3)
    for field in (None, F7):
        form = QuadraticForm([1, -1, 3], field)
        found = 0
        while found < 10:
            v = random_vector(rng, form)
            sq = (v * v).scalar_part()
            if not sq:
                continue  # isotropic or zero; skip
            found += 1
            dl, _ = translation_determinants(v)
            assert dl * dl == translation_determinants(v * v)[0]
            assert dl != form.field.zero


# -- zero divisors and inverses ------------------------------------------


def test_isotropic_sum_is_a_zero_divisor():
    # Over sig:2,1 the element e1 + e3 squares to zero.
    form = QuadraticForm.from_signature(2, 1)
    x = form.parse("e1 + e3")
    assert (x * x).is_zero()
    assert is_zero_divisor(x)
    assert not is_invertible(x)


def test_idempotent_is_a_zero_divisor():
    form = QuadraticForm([1, 1, -1])
    e3 = form.generator(3)
    half = form.scalar(Fraction(1, 2))
    p = half * (form.one() + e3)
    assert p * p == p
    assert is_zero_divisor(p)


def test_zero_divisor_and_invertible_partition_nonzero_elements():
    rng = random.Random(SEED + 4)
    for field in (None, F7):
        for diag in ([1, 1], [1, -1, 2]):
            form = QuadraticForm(diag, field)
            seen = 0
            while seen < 100:
                x = random_multivector(rng, form, terms=rng.randint(1, form.dim))
                if x.is_zero():
                    continue
                seen += 1
                assert is_zero_divisor(x) != is_invertible(x)


def test_left_and_right_determinants_vanish_together():
    """det L_a = 0 exactly when det R_a = 0, which lets one decide."""
    rng = random.Random(SEED + 8)
    for field in (None, F7):
        form = QuadraticForm([1, -1, 2], field)
        one = form.one()
        involutive = [m for m in range(1, form.dim) if form.blade_square(m) == form.field.one]
        for _ in range(8):
            unit = random_invertible(rng, form, terms=4)
            dl, dr = translation_determinants(unit)
            assert dl and dr
            assert not is_zero_divisor(unit)
            eb = form.basis_blade(rng.choice(involutive))
            r = random_invertible(rng, form, terms=4)
            # e_B^2 = 1, so 1 - e_B kills (1 + e_B) r on the left and
            # r (1 + e_B) on the right: one translation of each is singular.
            left_zd, right_zd = (one + eb) * r, r * (one + eb)
            assert ((one - eb) * left_zd).is_zero() and (right_zd * (one - eb)).is_zero()
            for z in (left_zd, right_zd):
                dl, dr = translation_determinants(z)
                assert not dl and not dr
                assert is_zero_divisor(z)


def test_inverse_is_two_sided():
    rng = random.Random(SEED + 5)
    for field in (None, F7):
        for diag in ([1], [1, 1], [1, 1, -1], [1, -1, 2, -3]):
            form = QuadraticForm(diag, field)
            one = form.one()
            for _ in range(12):
                a = random_invertible(rng, form, terms=4)
                b = inverse(a)
                assert a * b == one
                assert b * a == one


def test_inverse_of_zero_and_zero_divisor():
    form = QuadraticForm.from_signature(2, 1)
    with pytest.raises(ZeroElement):
        inverse(form.zero())
    with pytest.raises(NotInvertible) as info:
        inverse(form.parse("e1 + e3"))
    assert "zero divisor" in str(info.value)
    with pytest.raises(ZeroElement):
        is_zero_divisor(form.zero())


# -- the metric adjoint at the matrix level ------------------------------


def test_left_matrix_adjoint_is_conjugation():
    rng = random.Random(SEED + 6)
    for field in (None, F7):
        form = QuadraticForm([1, -1, 2], field)
        for _ in range(15):
            a = random_multivector(rng, form, terms=4)
            assert pairing_adjoint(left_matrix(a), form) == left_matrix(a.conjugate())
            assert pairing_adjoint(right_matrix(a), form) == right_matrix(a.conjugate())


def test_pairing_adjoint_is_involutive():
    rng = random.Random(SEED + 7)
    form = QuadraticForm([1, 1, -1])
    a = random_multivector(rng, form)
    m = left_matrix(a)
    assert pairing_adjoint(pairing_adjoint(m, form), form) == m


# -- equivalence isomorphisms --------------------------------------------


def test_identity_substitution_gives_identity_map():
    form = QuadraticForm([1, 1, -1])
    t = [[int(i == j) for j in range(3)] for i in range(3)]
    amap = equivalence_isomorphism(t, form, form)
    for mask in range(form.dim):
        e = form.basis_blade(mask)
        assert amap.apply(e) == e


def test_generator_rescaling_between_forms():
    # Substituting e_1 -> (1/2) e_1 carries squared length 4 down to 1.
    source = QuadraticForm([1])
    target = QuadraticForm([4])
    amap = equivalence_isomorphism([[Fraction(1, 2)]], source, target)
    assert amap.apply(source.generator(1)) == target.generator(1) * Fraction(1, 2)
    assert amap.verify_multiplicative()


def test_rational_rotation_is_an_automorphism():
    form = QuadraticForm([1, 1])
    t = [
        [Fraction(3, 5), Fraction(-4, 5)],
        [Fraction(4, 5), Fraction(3, 5)],
    ]
    amap = equivalence_isomorphism(t, form, form)
    assert amap.apply(form.one()) == form.one()
    assert amap.verify_multiplicative()
    inv = amap.inverse()
    for mask in range(form.dim):
        e = form.basis_blade(mask)
        assert inv.apply(amap.apply(e)) == e


@pytest.mark.parametrize("field", [None, F7], ids=["Q", "F7"])
def test_inverse_generator_matrix_is_a_two_sided_inverse(field):
    """The inverse map's generator matrix, read from the adjoint, times t
    is the identity on both sides: on the 3-4-5 rotation of one form, and
    on a squared scaling e_1 -> e_1 / 2, e_2 -> 3 e_2 from diag:1,45 to
    diag:4,5."""
    rotation = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
    scaling = [[Fraction(1, 2), 0], [0, 3]]
    for t, source, target in ((rotation, [1, 1], [1, 1]), (scaling, [1, 45], [4, 5])):
        source, target = QuadraticForm(source, field), QuadraticForm(target, field)
        amap = equivalence_isomorphism(t, source, target)
        f = source.field
        t, inv = amap.vector_matrix, amap.inverse().vector_matrix
        for left, right in ((inv, t), (t, inv)):
            prod = [[sum((x * y for x, y in zip(row, col)), f.zero) for col in zip(*right)]
                    for row in left]
            assert prod == [[f.one if i == j else f.zero for j in range(2)] for i in range(2)]


def test_map_respects_products_on_random_elements():
    rng = random.Random(SEED + 8)
    form = QuadraticForm([1, 1])
    t = [
        [Fraction(3, 5), Fraction(-4, 5)],
        [Fraction(4, 5), Fraction(3, 5)],
    ]
    amap = equivalence_isomorphism(t, form, form)
    for _ in range(25):
        x = random_multivector(rng, form)
        y = random_multivector(rng, form)
        assert amap.apply(x * y) == amap.apply(x) * amap.apply(y)


ROTATION = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]


def _maps_under_test(rng, field):
    """The squared-scaling map of ``check_equivalence`` on a rank-3 form,
    with one-term blade images, and the 3-4-5 rotation of sig:2,0, whose
    generator images have two terms."""
    target = QuadraticForm([1, -1, 2], field)
    f = target.field
    scales = [random_nonzero_element(rng, f) for _ in range(3)]
    source = QuadraticForm([s * s * q for s, q in zip(scales, target.diag)], f)
    t = [[scales[i] if i == j else f.zero for j in range(3)] for i in range(3)]
    plane = QuadraticForm.from_text("sig:2,0", field)
    return equivalence_isomorphism(t, source, target), equivalence_isomorphism(ROTATION, plane, plane)


@pytest.mark.parametrize("field", [None, F7, FieldSpec.prime(101)], ids=["Q", "F7", "F101"])
def test_algebra_map_apply_is_the_sum_of_scaled_blade_images(field):
    """apply(x) on zero, sparse and dense x equals the sum over the masks m
    of x_m times the image of e_m, added here slot by slot."""
    rng = random.Random(SEED + 11)
    scaling, rotation = _maps_under_test(rng, field)
    assert max(len(img.support()) for img in rotation.blade_images) == 2
    for amap in (scaling, rotation):
        f, dim = amap.target.field, amap.target.dim
        for terms in (0, 1, 2, None, None):
            x = random_multivector(rng, amap.source, terms)
            want = [f.zero] * dim
            for c, image in zip(x.coeffs, amap.blade_images):
                want = [w + c * v for w, v in zip(want, image.coeffs)]
            got = amap.apply(x)
            assert got.form is amap.target and list(got.coeffs) == want
            assert all(map(f.owns, got.coeffs))


@pytest.mark.parametrize("field", [None, F7], ids=["Q", "F7"])
def test_verify_multiplicative_sees_one_negated_blade_image(field):
    """Negating the image of any one blade at rank 2 or 3 breaks
    multiplicativity, so the construction's cross-check keeps its teeth."""
    for amap in _maps_under_test(random.Random(SEED + 12), field):
        assert amap.verify_multiplicative()
        for mask in range(amap.source.dim):
            images = list(amap.blade_images)
            images[mask] = -images[mask]
            assert not dataclasses.replace(amap, blade_images=images).verify_multiplicative()


def test_non_equivalent_substitution_is_refused():
    with pytest.raises(NotEquivalent):
        equivalence_isomorphism([[Fraction(1)]], QuadraticForm([1]), QuadraticForm([2]))
    with pytest.raises(SingularTransformation):
        equivalence_isomorphism(
            [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]],
            QuadraticForm([1, 1]),
            QuadraticForm([1, 1]),
        )
    with pytest.raises(MismatchedForm):
        equivalence_isomorphism([[1]], QuadraticForm([1]), QuadraticForm([1], F7))


# -- how far the pairing axioms reach ------------------------------------


def test_pairing_axioms_force_uniqueness_at_low_rank():
    for diag in ([1], [5], [1, 1], [2, -3]):
        rep = pairing_uniqueness_report(QuadraticForm(diag))
        assert rep.consistent and rep.unique
        assert rep.matches_canonical
        assert rep.nullity == 0 and rep.kernel == ()


def test_rank_three_leaves_the_volume_twist_free():
    """At rank 3 the axioms pin the pairing down only up to one direction.

    The volume blade is central and fixed by conjugation there, so
    B(x, omega y) satisfies every axiom while vanishing on scalars and on
    grade one; the solver must find exactly that line, with the canonical
    pairing still among the solutions.
    """
    for field in (None, F7):
        for diag in ([1, 1, 1], [1, 1, -1]):
            rep = pairing_uniqueness_report(QuadraticForm(diag, field))
            assert rep.consistent and not rep.unique
            assert rep.nullity == 1
            assert rep.matches_canonical
            assert rep.kernel_is_volume_twist


def test_parity_invariance_restores_uniqueness():
    for diag in ([1, 1, 1], [1, 1, -1]):
        rep = pairing_uniqueness_report(
            QuadraticForm(diag), require_parity_invariance=True
        )
        assert rep.unique and rep.matches_canonical


def test_uniqueness_solution_is_the_gram_diagonal():
    form = QuadraticForm([2, -3])
    rep = pairing_uniqueness_report(form)
    gram = form.gram_diagonal()
    for a in range(form.dim):
        for b in range(form.dim):
            want = gram[a] if a == b else form.field.zero
            assert rep.solution[a][b] == want


def test_uniqueness_on_rational_diagonals():
    """The axiom rows are written from the integer square table, scaled by
    its d, and the grade-one rows by the denominators of the diagonal."""
    diag = [Fraction(1, 2), 3, Fraction(-2, 5)]
    for field in (None, F7):
        for n in (1, 2, 3):
            form = QuadraticForm(diag[:n], field)
            rep = pairing_uniqueness_report(form)
            assert rep.consistent and rep.matches_canonical
            assert rep.nullity == (1 if n == 3 else 0)
            assert rep.kernel_is_volume_twist is (True if n == 3 else None)
            gram = form.gram_diagonal()
            assert rep.solution == tuple(
                tuple(gram[a] if a == b else form.field.zero for b in range(form.dim))
                for a in range(form.dim)
            )
            strict = pairing_uniqueness_report(form, require_parity_invariance=True)
            assert strict.unique and strict.solution == rep.solution


@st.composite
def _small_forms(draw):
    """Nondegenerate diagonals of rank 1-3 over Q (small fractions), F_3,
    F_5 and F_7."""
    field = draw(st.sampled_from((None, FieldSpec.prime(3), FieldSpec.prime(5), F7)))
    if field is None:
        entry = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)
    else:
        entry = st.integers(1, field.p - 1)
    n = draw(st.integers(1, 3))
    return QuadraticForm(draw(st.lists(entry, min_size=n, max_size=n)), field)


def _literal_axiom_rows(form, parity):
    """``(rows, ncols)``: the int rows of [A | -b] for the pairing axioms
    with both adjunction laws on every basis triple, x = e_a for each
    blade a: 2 8^n law rows, read from ``blade_product`` and
    ``conjugate_sign``, each scaled by ``FieldSpec.scaled``.  The unknowns
    B(e_a, e_b), a <= b, are numbered as in the report: the packed upper
    triangle, row-major."""
    f, dim = form.field, form.dim
    pairs = [(a, b) for a in range(dim) for b in range(a, dim)]
    index = {pair: i for i, (a, b) in enumerate(pairs) for pair in ((a, b), (b, a))}
    ncols = len(pairs)

    def row(*cells, rhs=0):
        vec = [f.zero] * ncols + [-f.element(rhs)]
        for pair, v in cells:
            vec[index[pair]] += v
        return f.scaled(vec)[0]

    rows = [row(((0, 0), f.one), rhs=1)]
    rows += [row(((1 << i, 1 << j), f.one), rhs=form.diag[i] if i == j else 0)
             for i in range(form.n) for j in range(i, form.n)]
    if parity:
        rows += [row((pair, f.one)) for pair in pairs
                 if involute_sign(pair[0]) != involute_sign(pair[1])]
    for a in range(dim):
        s = conjugate_sign(a)
        for b in range(dim):
            for c in range(dim):
                ab, ac = form.blade_product(a, b), form.blade_product(a, c)
                ba, ca = form.blade_product(b, a), form.blade_product(c, a)
                # B(e_a e_b, e_c) = B(e_b, c(e_a) e_c), B(e_b e_a, e_c) = B(e_b, e_c c(e_a)).
                rows.append(row(((ab.mask, c), ab.coef), ((b, ac.mask), -s * ac.coef)))
                rows.append(row(((ba.mask, c), ba.coef), ((b, ca.mask), -s * ca.coef)))
    return rows, ncols


def _literal_report(form, parity):
    """The report with its solve handed the literal system of
    :func:`_literal_axiom_rows` in place of the generator laws."""
    literal_rows, ncols = _literal_axiom_rows(form, parity)
    solve = linalg.affine_space

    def literal(rows, n, field):
        assert n == ncols and len(rows) < len(literal_rows)
        return solve(literal_rows, ncols, field)

    with mock.patch.object(linalg, "affine_space", literal):
        return pairing_uniqueness_report(form, require_parity_invariance=parity)


@settings(deadline=None, derandomize=True, max_examples=50)
@given(form=_small_forms(), parity=st.booleans())
def test_generator_laws_give_the_report_of_the_literal_axiom_system(form, parity):
    """The report writes the adjunction laws for the generators only; every
    field is that of the literal system, both laws on every basis triple."""
    assert pairing_uniqueness_report(form, require_parity_invariance=parity) == _literal_report(
        form, parity)


@pytest.mark.parametrize("field", [None, F7], ids=["Q", "F7"])
def test_generator_laws_at_rank_four(monkeypatch, field):
    """On the forms above, dropping either adjunction law changes no report
    at ranks 1-3; at rank 4 each law binds (without one the nullity is 5),
    so one rank-4 form is held to the literal system, with the cap raised."""
    monkeypatch.setattr(caps, "UNIQUENESS_SOLVE", 4)
    form = QuadraticForm([1, -1, 2, 3], field)
    for parity in (False, True):
        rep = pairing_uniqueness_report(form, require_parity_invariance=parity)
        assert rep.unique and rep.matches_canonical
        assert rep == _literal_report(form, parity)


@pytest.mark.parametrize("text, count", [("sig:2,1", 91), ("sig:1,1", 20)])
def test_each_law_row_is_written_once_per_orbit(text, count):
    """The solve is handed one left-law row per orbit of (b, c) under swapping
    and under multiplying both by e_g, and a right-law row only where it is
    not ± the left one: 91 rows on sig:2,1, not the 391 of both laws on
    every pair, and 20 on sig:1,1, not 68."""
    solve, handed = linalg.affine_space, []

    def counted(rows, ncols, field):
        handed.append(len(rows))
        return solve(rows, ncols, field)

    with mock.patch.object(linalg, "affine_space", counted):
        pairing_uniqueness_report(QuadraticForm.from_text(text))
    assert handed == [count]


def test_uniqueness_solver_cap(monkeypatch):
    with pytest.raises(CapExceeded, match="UNIQUENESS_SOLVE capped at n = 3"):
        pairing_uniqueness_report(QuadraticForm([1, 1, 1, 1]))
    # The cap is read from the table when the solve runs.
    monkeypatch.setattr(caps, "UNIQUENESS_SOLVE", 4)
    rep = pairing_uniqueness_report(QuadraticForm([1, 1, 1, 1]))
    assert rep.consistent
