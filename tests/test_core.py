"""Blade arithmetic, multivectors, involutions, the canonical pairing.

Products are cross-checked against an oracle that multiplies generator
words by literal bubble sorting, with none of the bitmask shortcuts the
production path uses.
"""
import operator
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from cliffex import (
    RATIONAL,
    FieldSpec,
    QuadraticForm,
    Quaternion,
    anticommute_parity,
    blade_product,
    format_blade,
    format_multivector,
    pairing,
    parse_blade,
    parse_multivector,
    reorder_sign,
)
from cliffex import caps, core, inverse, is_zero_divisor, linalg, operators, translation_determinants
from cliffex.core import (
    Multivector, conjugate_sign, involute_sign, reorder_parity, reverse_sign, sign_mask,
)
from cliffex.errors import (
    DegenerateForm,
    IndexOutOfRange,
    MismatchedForm,
    MixedFieldSpec,
    NotInvertible,
    ParseError,
)
from cliffex.field import Fp
from cliffex.reference import (
    blade_word_product,
    mask_to_word,
    product_pairing,
    random_multivector,
    random_nonzero_element,
    random_vector,
)

SEED = 9001
F13 = FieldSpec.prime(13)


def _forms_for(n, field=None):
    """A positive definite and a mixed-sign diagonal of rank n."""
    out = [QuadraticForm([1] * n, field)]
    if n >= 2:
        diag = [(-1) ** i * (i + 1) for i in range(n)]
        out.append(QuadraticForm(diag, field))
    return out


# -- form construction ---------------------------------------------------


def test_degenerate_diagonal_is_rejected():
    with pytest.raises(DegenerateForm):
        QuadraticForm([1, 0, 2])
    with pytest.raises(DegenerateForm):
        QuadraticForm([13], F13)  # 13 = 0 mod 13


def test_form_text_round_trip():
    form = QuadraticForm([1, 1, -1])
    assert QuadraticForm.from_text(form.to_text()) == form
    sig = QuadraticForm.from_signature(2, 1)
    assert sig.diag == (Fraction(1), Fraction(1), Fraction(-1))
    assert QuadraticForm.from_text("sig:2,1") == sig


def test_form_dimensions():
    for n in (1, 3, 7):
        form = QuadraticForm([1] * n)
        assert form.n == n
        assert form.dim == 2**n
        assert form.full_mask == 2**n - 1


# -- sign bookkeeping ----------------------------------------------------


def test_grade_and_sign_tables():
    assert [m.bit_count() for m in range(8)] == [0, 1, 1, 2, 1, 2, 2, 3]
    # Grade automorphism flips odd grades, reversal flips grades 2,3 mod 4,
    # conjugation flips grades 1,2 mod 4.
    for m in range(1 << 6):
        k = m.bit_count()
        assert involute_sign(m) == (-1) ** k
        assert reverse_sign(m) == (-1) ** (k * (k - 1) // 2)
        assert conjugate_sign(m) == (-1) ** (k * (k + 1) // 2)
        assert conjugate_sign(m) == involute_sign(m) * reverse_sign(m)


def test_reorder_sign_against_word_oracle():
    form = QuadraticForm([1] * 6)
    for a in range(64):
        for b in range(64):
            if a & b:
                continue  # oracle squares handled separately below
            coef, mask = blade_word_product(mask_to_word(a), mask_to_word(b), form)
            assert mask == a ^ b
            assert coef == form.field.element(reorder_sign(a, b))


def test_anticommute_parity_by_explicit_product():
    rng = random.Random(SEED)
    form = QuadraticForm([1] * 5)
    for _ in range(300):
        a = rng.randrange(32)
        b = rng.randrange(32)
        ca, _ = form.blade_product(a, b)
        cb, _ = form.blade_product(b, a)
        flips = anticommute_parity(a, b)
        assert (ca == -cb) == bool(flips)
        assert (ca == cb) == (not flips)


# -- blade products ------------------------------------------------------


def test_generator_squares():
    form = QuadraticForm([2, -3])
    c0, m0 = form.blade_product(0b01, 0b01)
    assert (c0, m0) == (Fraction(-2), 0)
    c1, m1 = form.blade_product(0b10, 0b10)
    assert (c1, m1) == (Fraction(3), 0)


def test_orthogonal_generators_anticommute():
    form = QuadraticForm([1, 1])
    assert form.blade_product(0b01, 0b10) == (Fraction(1), 0b11)
    assert form.blade_product(0b10, 0b01) == (Fraction(-1), 0b11)


def test_mixed_signature_contraction():
    # Over diag(1,1,-1): e13 . e3 contracts the shared generator with
    # -q_3 = 1 and leaves e1.
    form = QuadraticForm.from_signature(2, 1)
    coef, mask = form.blade_product(0b101, 0b100)
    assert (coef, mask) == (Fraction(1), 0b001)


def test_blade_product_never_vanishes_and_xors():
    rng = random.Random(SEED + 1)
    for field in (None, F13):
        for form in _forms_for(5, field):
            for _ in range(400):
                a = rng.randrange(form.dim)
                b = rng.randrange(form.dim)
                coef, mask = form.blade_product(a, b)
                assert mask == a ^ b
                assert coef != form.field.zero


def test_blade_product_against_word_oracle():
    rng = random.Random(SEED + 2)
    for field in (None, F13):
        for form in _forms_for(5, field):
            for _ in range(250):
                a = rng.randrange(form.dim)
                b = rng.randrange(form.dim)
                coef, mask = form.blade_product(a, b)
                ocoef, omask = blade_word_product(
                    mask_to_word(a), mask_to_word(b), form
                )
                assert (coef, mask) == (ocoef, omask)


def test_blade_product_top_level_wrapper():
    form = QuadraticForm([1, 1, -1])
    assert blade_product(form, 0b101, 0b100) == form.blade_product(0b101, 0b100)


# -- multivector ring ----------------------------------------------------


def test_ring_axioms_sampled():
    rng = random.Random(SEED + 3)
    for field in (None, F13):
        for form in _forms_for(4, field):
            one = form.one()
            for _ in range(40):
                x = random_multivector(rng, form, terms=5)
                y = random_multivector(rng, form, terms=5)
                z = random_multivector(rng, form, terms=5)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
                assert (y + z) * x == y * x + z * x
                assert one * x == x * one == x
                assert x - x == form.zero()


def test_scalar_promotion_in_dunders():
    form = QuadraticForm([1, 1])
    e1 = form.generator(1)
    assert 2 * e1 == e1 + e1
    assert e1 * 2 == e1 + e1
    assert e1 + 1 == form.one() + e1
    assert 1 - e1 == -(e1 - 1)
    assert (e1 * Fraction(1, 2)) * 2 == e1


def test_scalar_operands_are_strict():
    e1 = QuadraticForm([1, 1]).generator(1)
    f1 = QuadraticForm([1, 1], F13).generator(1)
    for x, foreign in ((e1, Fp(2, 5)), (f1, Fp(2, 5))):
        for op in (operator.add, operator.sub, operator.mul, operator.eq):
            with pytest.raises(MixedFieldSpec):
                op(x, foreign)
            with pytest.raises(MixedFieldSpec):
                op(foreign, x)
    assert f1 + Fp(2, 13) == f1 + 2
    assert f1 * Fraction(1, 2) * 2 == f1
    # Text is never a scalar operand, whether or not it parses as one.
    for x in (e1, f1):
        for text in ("3", "e2", "1/2"):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(TypeError):
                    op(x, text)
                with pytest.raises(TypeError):
                    op(text, x)
            assert x != text
    # A float is a number outside every field here: refused, never coerced.
    for x in (e1, f1):
        for op in (operator.add, operator.sub, operator.mul, operator.eq):
            with pytest.raises(MixedFieldSpec):
                op(x, 1.5)
            with pytest.raises(MixedFieldSpec):
                op(1.5, x)
    with pytest.raises(MixedFieldSpec):
        QuadraticForm([1, 1]).one() * 0.5


def test_vector_square_rule():
    """v . v = -Q(v,v) and the polarized anticommutation identity."""
    rng = random.Random(SEED + 4)
    for field in (None, F13):
        for form in _forms_for(5, field):
            for _ in range(60):
                v = random_vector(rng, form)
                w = random_vector(rng, form)
                q_vv = -(v * v).scalar_part()
                assert v * v == form.scalar(q_vv) * -1 or (v * v).grades() <= {0}
                # 2 Q(v,w) 1 = -(vw + wv)
                lhs = v * w + w * v
                assert lhs.grades() <= {0}
                assert pairing(v, w) + pairing(w, v) == -lhs.scalar_part()


def test_commutator_and_power():
    form = QuadraticForm([1, 1, 1])
    e1, e2 = form.generator(1), form.generator(2)
    assert e1.commutator(e2) == e1 * e2 - e2 * e1
    assert (e1 + e2) ** 0 == form.one()
    assert (e1 + e2) ** 3 == (e1 + e2) * (e1 + e2) * (e1 + e2)
    with pytest.raises(TypeError):
        (e1 + e2) ** -1


def test_cross_form_arithmetic_is_refused():
    a = QuadraticForm([1, 1]).one()
    b = QuadraticForm([1, -1]).one()
    with pytest.raises(MismatchedForm):
        a * b
    with pytest.raises(MismatchedForm):
        a + b


def test_multivectors_are_immutable():
    x = QuadraticForm([1]).one()
    with pytest.raises(AttributeError):
        x.coeffs = ()


# -- involutions ---------------------------------------------------------


def test_involutions_are_involutive_and_compose():
    rng = random.Random(SEED + 5)
    for field in (None, F13):
        for form in _forms_for(5, field):
            for _ in range(50):
                x = random_multivector(rng, form, terms=6)
                assert x.involute().involute() == x
                assert x.reverse().reverse() == x
                assert x.conjugate().conjugate() == x
                assert x.conjugate() == x.reverse().involute() == x.involute().reverse()


def test_involution_morphism_laws():
    rng = random.Random(SEED + 6)
    form = QuadraticForm([1, -1, 2, -3])
    for _ in range(50):
        x = random_multivector(rng, form, terms=5)
        y = random_multivector(rng, form, terms=5)
        assert (x * y).involute() == x.involute() * y.involute()
        assert (x * y).reverse() == y.reverse() * x.reverse()
        assert (x * y).conjugate() == y.conjugate() * x.conjugate()


def test_conjugation_negates_vectors():
    form = QuadraticForm([1, 1, -1])
    for i in (1, 2, 3):
        v = form.generator(i)
        assert v.conjugate() == -v
        assert v.reverse() == v
        assert v.involute() == -v


def test_involution_kind_dispatch():
    x = QuadraticForm([1, 1]).parse("1 + e1 + e12")
    assert x.involution("grade") == x.involute()
    assert x.involution("reverse") == x.reverse()
    assert x.involution("conj") == x.conjugate()
    with pytest.raises(ParseError):
        x.involution("dual")


# -- the canonical pairing -----------------------------------------------


def test_pairing_normalization_and_restriction():
    for field in (None, F13):
        for form in _forms_for(4, field):
            one = form.one()
            assert pairing(one, one) == form.field.one
            for i in range(1, form.n + 1):
                for j in range(1, form.n + 1):
                    got = pairing(form.generator(i), form.generator(j))
                    want = form.diag[i - 1] if i == j else form.field.zero
                    assert got == want


def test_pairing_is_symmetric_and_blade_diagonal():
    form = QuadraticForm([1, -1, 2])
    for a in range(form.dim):
        for b in range(form.dim):
            ea, eb = form.basis_blade(a), form.basis_blade(b)
            assert pairing(ea, eb) == pairing(eb, ea)
            if a != b:
                assert pairing(ea, eb) == form.field.zero


def test_gram_diagonal_closed_form():
    """Diagonal Gram entry of a blade is the product of its q_i."""
    for field in (None, F13):
        form = QuadraticForm([1, -1, 2, -3], field)
        gram = form.gram_diagonal()
        for mask in range(form.dim):
            prod = form.field.one
            for i in range(form.n):
                if mask >> i & 1:
                    prod = form.field.mul(prod, form.diag[i])
            assert gram[mask] == prod
            e = form.basis_blade(mask)
            assert pairing(e, e) == prod


def test_pairing_matches_scalar_projection_oracle():
    rng = random.Random(SEED + 7)
    for field in (None, F13):
        for form in _forms_for(4, field):
            for _ in range(60):
                x = random_multivector(rng, form, terms=6)
                y = random_multivector(rng, form, terms=6)
                assert pairing(x, y) == product_pairing(x, y)


def test_pairing_adjointness_laws():
    rng = random.Random(SEED + 8)
    for field in (None, F13):
        for form in _forms_for(4, field):
            for _ in range(40):
                x = random_multivector(rng, form, terms=4)
                y = random_multivector(rng, form, terms=4)
                z = random_multivector(rng, form, terms=4)
                assert pairing(x * y, z) == pairing(y, x.conjugate() * z)
                assert pairing(y * x, z) == pairing(y, z * x.conjugate())


def test_pairing_involution_invariance():
    rng = random.Random(SEED + 9)
    form = QuadraticForm([1, 1, -1])
    for _ in range(50):
        x = random_multivector(rng, form)
        y = random_multivector(rng, form)
        assert pairing(x.involute(), y.involute()) == pairing(x, y)
        assert pairing(x.conjugate(), y.conjugate()) == pairing(x, y)


def test_scalar_trace_symmetry():
    """p(xy) = p(yx), the cyclic identity behind the adjoint laws."""
    rng = random.Random(SEED + 10)
    form = QuadraticForm([1, -1, 2])
    for _ in range(60):
        x = random_multivector(rng, form)
        y = random_multivector(rng, form)
        assert (x * y).scalar_part() == (y * x).scalar_part()


# -- volume element ------------------------------------------------------


def test_volume_square_closed_form():
    for diag in ([1], [1, 1], [1, 1, -1], [2, -3, 5, 7], [1, 1, 1, 1, 1]):
        form = QuadraticForm(diag)
        n = form.n
        prod = Fraction(1)
        for q in form.diag:
            prod *= -q
        want = Fraction((-1) ** (n * (n - 1) // 2)) * prod
        assert form.volume_square() == want
        omega = form.volume_element()
        assert omega * omega == form.scalar(want)


def test_volume_commutes_exactly_when_odd():
    rng = random.Random(SEED + 11)
    for n in range(1, 6):
        form = QuadraticForm([1] * n)
        omega = form.volume_element()
        x = random_multivector(rng, form)
        if n % 2:
            assert omega * x == x * omega
        else:
            # Even rank: omega x = alpha(x) omega instead.
            assert omega * x == x.involute() * omega


# -- text grammar --------------------------------------------------------


def test_blade_literal_round_trip():
    assert parse_blade("1", 3) == 0
    assert parse_blade("e13", 3) == 0b101
    assert parse_blade("e{1,3}", 3) == 0b101
    assert format_blade(0b101, 3) == "e13"
    for mask in range(16):
        assert parse_blade(format_blade(mask, 4), 4) == mask


def test_blade_literal_wide_rank_uses_braces():
    n = 11
    mask = (1 << 0) | (1 << 9) | (1 << 10)
    text = format_blade(mask, n)
    assert text == "e{1,10,11}"
    assert parse_blade(text, n) == mask


def test_blade_literal_errors():
    with pytest.raises(ParseError):
        parse_blade("e", 3)
    with pytest.raises(ParseError):
        parse_blade("e21", 3)  # not increasing
    with pytest.raises(ParseError):
        parse_blade("xyz", 3)
    with pytest.raises(IndexOutOfRange):
        parse_blade("e4", 3)


def test_multivector_parse_examples():
    form = QuadraticForm([1, 1, -1])
    x = form.parse("1 + 2*e1 - e23")
    assert x.coeff(0) == Fraction(1)
    assert x.coeff(0b001) == Fraction(2)
    assert x.coeff(0b110) == Fraction(-1)
    assert form.parse("-e1") == -form.generator(1)
    assert form.parse("3/2*e12") == form.basis_blade(0b011) * Fraction(3, 2)


def test_multivector_format_parse_round_trip():
    rng = random.Random(SEED + 12)
    for field in (None, F13):
        for form in _forms_for(4, field):
            for _ in range(60):
                x = random_multivector(rng, form, terms=rng.randint(0, 6))
                assert parse_multivector(format_multivector(x), form) == x
    assert format_multivector(QuadraticForm([1]).zero()) == "0"


def test_multivector_parse_errors():
    form = QuadraticForm([1, 1])
    for bad in ("", "e1 +", "+ + e1", "e1 ++ e2", "2*", "*e1"):
        with pytest.raises(ParseError):
            form.parse(bad)


def test_str_uses_the_grammar():
    form = QuadraticForm([1, 1])
    x = form.parse("1 - e2")
    assert str(x) == "1 - e2"


# -- the product kernel ----------------------------------------------------
#
# Multivector's product, pairing, involutions and slotwise arithmetic
# against oracles that share none of its shortcuts: products and signs by
# sorting index words, the pairing by its definition, sums slot by slot.

KERNEL_FIELDS = (RATIONAL, FieldSpec.prime(3), FieldSpec.prime(7), FieldSpec.prime(101))


@lru_cache(maxsize=None)
def _word_product(form, a, b):
    return blade_word_product(mask_to_word(a), mask_to_word(b), form)


def _oracle_product(x, y):
    form = x.form
    out = [form.field.zero] * form.dim
    for a, ca in x.terms():
        for b, cb in y.terms():
            coef, mask = _word_product(form, a, b)
            out[mask] = out[mask] + ca * cb * coef
    return out


def _oracle_involution(x, kind):
    # A reversed word sorts back with the reversal sign; conjugation also
    # negates each generator.
    out = []
    for m, c in enumerate(x.coeffs):
        word = mask_to_word(m)
        reverse = blade_word_product(word[::-1], (), x.form)[0] if kind != "grade" else 1
        odd = len(word) & 1 and kind != "reverse"
        out.append(-c * reverse if odd else c * reverse)
    return out


@st.composite
def _kernel_diagonals(draw, field, kind):
    """Six diagonal entries over ``field``: units, non-unit integers, or
    fractions whose first two entries multiply to ±1, so that e_12 squares
    to ±1 while d != 1."""
    p = field.p or 1 << 64
    ints = st.integers(-5, 5).filter(lambda v: v % p)
    if kind == "unit":
        return draw(st.lists(st.sampled_from((1, -1)), min_size=6, max_size=6))
    if kind == "integer":
        return draw(st.lists(ints.filter(lambda v: abs(v) > 1), min_size=6, max_size=6))
    fractions = st.builds(Fraction, ints, ints.filter(lambda v: v > 1))
    r = draw(fractions)
    return [r, draw(st.sampled_from((1, -1))) / r] + draw(st.lists(fractions, min_size=4, max_size=4))


def _check_kernel(x, y, s):
    form, field = x.form, x.form.field
    results = {
        "product": (x * y, _oracle_product(x, y)),
        "sum": (x + y, [a + b for a, b in zip(x.coeffs, y.coeffs)]),
        "difference": (x - y, [a - b for a, b in zip(x.coeffs, y.coeffs)]),
        "negation": (-x, [-a for a in x.coeffs]),
        "scaled": (x * s, [a * s for a in x.coeffs]),
        "left scaled": (s * x, [s * a for a in x.coeffs]),
    }
    for kind in ("grade", "reverse", "conj"):
        results[kind] = (x.involution(kind), _oracle_involution(x, kind))
    for name, (got, want) in results.items():
        assert list(got.coeffs) == want, name
        assert all(field.owns(c) for c in got.coeffs), name
    conj = form.multivector(_oracle_involution(y, "conj"))
    assert x.pair(y) == _oracle_product(x, conj)[0] == product_pairing(x, y)
    assert all(field.owns(v) for v in (x.pair(y), y.pair(x)))


@pytest.mark.parametrize("kind", ["unit", "integer", "fraction"])
@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.to_text())
def test_kernel_against_word_oracles(field, kind):
    """At every rank 1-6 on the drawn diagonal's leading entries: dense,
    sparse and zero operands in every order, scaled by 0, ±1 and 3."""
    @settings(deadline=None, derandomize=True, max_examples=4, database=None)
    @given(diag=_kernel_diagonals(field, kind), seed=st.integers(0, 2**32))
    def check(diag, seed):
        rng = random.Random(seed)
        scalars = [field.zero, field.one, -field.one, field.element(3)]
        for n in range(1, 7):
            form = QuadraticForm(diag[:n], field)
            dense, sparse = random_multivector(rng, form), random_multivector(rng, form, 3)
            for x, y in ((dense, sparse), (sparse, dense), (sparse, sparse), (form.zero(), dense)):
                _check_kernel(x, y, rng.choice(scalars))
            _check_kernel(dense, random_multivector(rng, form), rng.choice(scalars))

    check()


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.to_text())
def test_product_pairing_agrees_with_pair_and_shares_no_fast_path(field, monkeypatch):
    """The pairing oracle matches ``pair`` on dense and sparse operands,
    over a signature and a fractional non-unit diagonal, while the product
    kernel, the involutions, the sign masks and the square table raise."""
    rng = random.Random(SEED + 18)
    cases = []
    for text in ("sig:3,3", "diag:1/2,2,-5,1/4,5,-1"):
        form = QuadraticForm.from_text(text, field)
        dense, sparse = random_multivector(rng, form), random_multivector(rng, form, 6)
        for x, y in ((dense, random_multivector(rng, form)), (dense, sparse), (sparse, dense),
                     (sparse, sparse), (sparse, random_multivector(rng, form, 6))):
            cases.append((x, y, x.pair(y)))

    def fast_path(*args, **kwargs):
        raise AssertionError("the oracle reached a fast path")

    for owner, name in ((Multivector, "__mul__"), (Multivector, "_signed"), (core, "sign_mask"),
                        (QuadraticForm, "square_table"), (QuadraticForm, "gram_diagonal"),
                        *SPLIT_PATHS):
        monkeypatch.setattr(owner, name, fast_path)
    for x, y, want in cases:
        got = product_pairing(x, y)
        assert got == want and field.owns(got)
    assert any(want for _, _, want in cases)


def _inversions(a, b):
    """Parity of the pairs (i, j), i in word a and j in word b, with i > j:
    the transpositions that sort the word a then b."""
    return sum(i > j for i in mask_to_word(a) for j in mask_to_word(b)) & 1


def test_sign_mask_against_word_inversions():
    for a in range(64):
        left, right = sign_mask(a), sign_mask(a, left=False)
        for b in range(64):
            assert (b & left).bit_count() & 1 == _inversions(a, b) == reorder_parity(a, b)
            assert (b & right).bit_count() & 1 == _inversions(b, a) == reorder_parity(b, a)
    rng = random.Random(SEED + 16)
    for _ in range(2000):
        a, b = rng.randrange(1 << 16), rng.randrange(1 << 16)
        assert (b & sign_mask(a)).bit_count() & 1 == _inversions(a, b)
        assert (b & sign_mask(a, left=False)).bit_count() & 1 == _inversions(b, a)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.to_text())
def test_zero_rule(field):
    """Zero slots stay the field's own zero: nothing leaks as an int or a
    None, and adding zero changes neither the value nor its hash."""
    rng = random.Random(SEED + 17)
    for text in ("sig:2,2", "diag:1/2,2,-5"):
        form = QuadraticForm.from_text(text, field)
        zero = form.zero()
        for terms in (None, 0, 1, 3):
            x = random_multivector(rng, form, terms)
            assert x - x == zero
            assert x * field.zero == zero == field.zero * x
            assert x * 0 == zero == 0 * x
            assert hash(x + zero) == hash(x) == hash(zero + x)
            for got in (x - x, x * field.zero, x + zero, -x, x * zero, x.reverse()):
                assert all(field.owns(c) for c in got.coeffs)


@pytest.mark.parametrize("element, number", [
    (QuadraticForm([1, 1]).scalar(3), 3),
    (QuadraticForm([1, 1]).scalar(Fraction(-1, 2)), Fraction(-1, 2)),
    (QuadraticForm([1, 1]).zero(), 0),
    (QuadraticForm([1, -1], FieldSpec.prime(7)).scalar(3), 3),
    (QuadraticForm([1, -1], FieldSpec.prime(7)).scalar(-1), 6),
    (Quaternion(1), 1),
    (Quaternion(Fraction(1, 2)), Fraction(1, 2)),
    (Quaternion(), 0),
], ids=["Q", "Q-fraction", "Q-zero", "F7", "F7-minus-one", "H", "H-fraction", "H-zero"])
def test_equal_values_hash_alike(element, number):
    """A scalar-valued element equals its scalar, so it hashes as the scalar
    and sets and dicts find one by the other."""
    assert element == number and hash(element) == hash(number)
    assert number in {element} and element in {number}


SLOT_FIELDS = (RATIONAL, FieldSpec.prime(3), FieldSpec.prime(101))


def test_field_zero_is_one_shared_object_per_field():
    for field, want in zip(SLOT_FIELDS, (Fraction(0), Fp(0, 3), Fp(0, 101))):
        assert field.zero is field.zero is FieldSpec(field.p).zero
        assert field.zero == want and type(field.zero) is type(want)
    assert FieldSpec.prime(3).zero is not FieldSpec.prime(101).zero


def _with_fresh_zeros(x):
    """x with each zero slot a new zero object, not the field's shared one,
    as a cancelling sum leaves it."""
    f = x.form.field
    return Multivector._make(x.form, tuple(c or f.element(0) for c in x.coeffs))


@pytest.mark.parametrize("field", SLOT_FIELDS, ids=lambda f: f.to_text())
def test_slot_operations_agree_with_field_arithmetic(field):
    """+, -, negation, scalar multiples on either side, the three involutions
    and == on zero, sparse (1-4 terms) and dense operands at ranks 1-6, slot
    by slot against field arithmetic on ``coeffs``; exact cancellation gives
    the zero element with every slot 0."""
    @settings(deadline=None, derandomize=True, max_examples=6, database=None)
    @given(seed=st.integers(0, 2**32), scalar=st.integers(-3, 3))
    def check(seed, scalar):
        rng = random.Random(seed)
        s = field.element(scalar)
        for n in range(1, 7):
            form = QuadraticForm([rng.choice((1, -1, 2, Fraction(-1, 2))) for _ in range(n)], field)
            dense = random_multivector(rng, form)
            xs = [form.zero(), dense, _with_fresh_zeros(random_multivector(rng, form, 2))]
            xs += [random_multivector(rng, form, terms) for terms in range(1, 5)]
            for x in xs:
                a = list(x.coeffs)
                results = [(-x, [-c for c in a]), (x * scalar, [c * s for c in a]),
                           (s * x, [s * c for c in a])]
                results += [(x.involution(kind), _oracle_involution(x, kind))
                            for kind in ("grade", "reverse", "conj")]
                for y in xs:
                    b = list(y.coeffs)
                    results += [(x + y, [u + v for u, v in zip(a, b)]),
                                (x - y, [u - v for u, v in zip(a, b)])]
                    assert (x == y) == all(u == v for u, v in zip(a, b))
                for got, want in results:
                    assert list(got.coeffs) == want and all(map(field.owns, got.coeffs))
                for zero in (x - x, x + -x, x * 0):
                    assert zero == form.zero() and all(c == 0 for c in zero.coeffs)
                assert x == _with_fresh_zeros(x)

    check()


# -- the split route ---------------------------------------------------------
#
# Dense products, inverses and zero-divisor tests over F_p go through
# Cl(V) = M(2^ceil(n/2), F_p).  The route is checked against word products,
# computed with both the route and the tuple kernel patched to raise.

SPLIT_FIELDS = tuple(FieldSpec.prime(p) for p in (3, 7, 101, 65537, 2**31 - 1))
# Every entry point of the route.
SPLIT_PATHS = ((QuadraticForm, "split"), (core.SplitAlgebra, "matrix"),
               (core.SplitAlgebra, "coefficients"), (core.SplitAlgebra, "product"))


def _fast_path(*args, **kwargs):
    raise AssertionError("the oracle reached a fast path")


def _oracle_coeff(x, y, k):
    """Coefficient k of x y: x_a y_(a xor k) times the word product of a and
    a xor k, summed over a."""
    total = x.form.field.zero
    for a, ca in x.terms():
        if cb := y.coeffs[a ^ k]:
            coef, mask = blade_word_product(mask_to_word(a), mask_to_word(a ^ k), x.form)
            assert mask == k
            total = total + ca * cb * coef
    return total


def _check_against_oracle(cases, monkeypatch, masks=None):
    """Each (x, y, products): every product equals x y by word products, on
    the coefficients ``masks`` (all when None), with the fast paths raising."""
    with monkeypatch.context() as m:
        for owner, name in ((Multivector, "__mul__"), *SPLIT_PATHS):
            m.setattr(owner, name, _fast_path)
        for x, y, products in cases:
            for k in range(x.form.dim) if masks is None else masks:
                want = _oracle_coeff(x, y, k)
                assert all(z.coeffs[k] == want and z.form.field.owns(z.coeffs[k]) for z in products)


@pytest.mark.parametrize("field", SPLIT_FIELDS, ids=lambda f: f.to_text())
def test_split_route_against_word_oracle(field, monkeypatch):
    """At every rank 1-10 on the drawn diagonal's leading entries: dense,
    sparse and zero operands, multiplied at the default threshold (dense
    times dense routed from rank 3, the rest on the kernel) and with every
    product routed.  Every coefficient is checked up to rank 6, three
    sampled ones above."""
    @settings(deadline=None, derandomize=True, max_examples=3, database=None)
    @given(diag=st.lists(st.integers(-9, 9).filter(lambda v: v % field.p), min_size=10, max_size=10),
           seed=st.integers(0, 2**32))
    def check(diag, seed):
        rng = random.Random(seed)
        for n in range(1, 11):
            form = QuadraticForm(diag[:n], field)
            dense, sparse = random_multivector(rng, form), random_multivector(rng, form, 3)
            cases = []
            for x, y in ((dense, random_multivector(rng, form)), (dense, sparse), (sparse, dense),
                         (sparse, sparse), (form.zero(), dense), (dense, form.zero())):
                with monkeypatch.context() as m:
                    m.setattr(caps, "SPLIT_PRODUCT", 0)
                    routed = x * y
                cases.append((x, y, (x * y, routed)))
            _check_against_oracle(cases, monkeypatch, None if n <= 6 else rng.sample(range(form.dim), 3))

    check()


def test_split_route_at_rank_12_on_a_sampled_coefficient(monkeypatch):
    """A routed dense product at rank 12, one coefficient summed over its
    4096 word products."""
    form = QuadraticForm.from_text("diag:1,-1,2,-3,5,1,-1,7,3,-2,1,-5", FieldSpec.prime(101))
    rng = random.Random(SEED + 19)
    x, y = random_multivector(rng, form), random_multivector(rng, form)
    _check_against_oracle([(x, y, (x * y,))], monkeypatch, [rng.randrange(form.dim)])


# Over F_3 the only nonzero square is 1: a is a square, b is, or neither.
@pytest.mark.parametrize("text, squares", [("diag:-1,1", (1, 2)), ("diag:1,-1", (2, 1)),
                                           ("diag:1,1", (2, 2))])
def test_each_split_branch_gives_a_quaternion_basis(text, squares, monkeypatch):
    """The 2 x 2 images g, h of G = e_1 and H = e_2 satisfy g^2 = a,
    h^2 = b and gh = -hg, with a and b the word-product squares, and the
    route multiplies correctly."""
    form = QuadraticForm.from_text(text, FieldSpec.prime(3))
    split = core.SplitAlgebra(form)
    [(a, b, g, h)] = split.factors
    assert (a, b) == squares == tuple(blade_word_product((i, i), (), form)[0].residue for i in (1, 2))

    def times(x, y):
        return [[sum(x[i][k] * y[k][j] for k in (0, 1)) % 3 for j in (0, 1)] for i in (0, 1)]

    assert times(g, g) == [[a, 0], [0, a]] and times(h, h) == [[b, 0], [0, b]]
    assert times(g, h) == [[-v % 3 for v in row] for row in times(h, g)] != [[0, 0], [0, 0]]
    rng = random.Random(SEED + 20)
    cases = []
    for _ in range(4):
        x, y = random_multivector(rng, form), random_multivector(rng, form)
        cases.append((x, y, (Multivector._make(form, split.product(x.coeffs, y.coeffs)),)))
    _check_against_oracle(cases, monkeypatch)


def test_the_threshold_routes_only_large_prime_field_products(monkeypatch):
    """Dense times dense over F_p from rank 3 is routed, at exactly
    SPLIT_PRODUCT 2^n support pairs; fewer pairs and every product over Q
    stay on the kernel."""
    routed = []
    original = core.SplitAlgebra.product
    monkeypatch.setattr(core.SplitAlgebra, "product",
                        lambda self, xs, ys: routed.append(1) or original(self, xs, ys))
    rng = random.Random(SEED + 21)
    for field in (RATIONAL, FieldSpec.prime(101)):
        form = QuadraticForm.from_text("sig:2,1", field)
        full = form.multivector([1] * 8)
        for terms, want in ((8, 1), (7, 0), (4, 0)):
            before = len(routed)
            full * random_multivector(rng, form, terms)
            assert len(routed) - before == (want if field.p else 0), (field, terms)
        form = QuadraticForm.from_text("sig:4,4", field)
        random_multivector(rng, form) * random_multivector(rng, form, 4)
    assert len(routed) == 1


# Inverses, zero-divisor tests and determinants over F_p read phi(x):
# det L_x = det R_x = det phi(x)^(2^n / D), x^-1 from phi(x)^-1.


def _unit(rng, form, masks):
    """x = prod (a + b e_B) over ``masks`` and its inverse, the product of
    the (a - b e_B) / (a^2 - b^2 e_B^2) in reverse, with e_B^2 from words.
    Each factor has two terms, so no product here reaches the route.  A
    mask is passed over when no draw gives a^2 != b^2 e_B^2: over F_3 that
    is every blade of square 1."""
    f = form.field
    x = xinv = form.one()
    for mask in masks:
        square = blade_word_product(mask_to_word(mask), mask_to_word(mask), form)[0]
        for _ in range(16):
            a, b = random_nonzero_element(rng, f), random_nonzero_element(rng, f)
            if norm := a * a - b * b * square:
                break
        else:
            continue
        x = x * form.multivector({0: a, mask: b})
        xinv = form.multivector({0: a / norm, mask: -b / norm}) * xinv
    return x, xinv


def _zero_divisor(rng, form, u):
    """(1 + u) r for u^2 = 1 and a dense r: (1 - u) kills it."""
    assert u * u == form.one()
    while not (z := (form.one() + u) * random_multivector(rng, form)):
        pass
    assert not ((form.one() - u) * z)
    return z


def _check_route(form, units, zero_divisors, monkeypatch, masks=None):
    """Each (x, known inverse or None) of ``units`` has that inverse, two-sided
    by word products on ``masks``, and is no zero divisor; each zero
    divisor is one, has no inverse and determinants 0."""
    cases = []
    for x, want in units:
        inv = inverse(x)
        assert not is_zero_divisor(x) and (want is None or inv == want)
        cases += [(x, inv, (form.one(),)), (inv, x, (form.one(),))]
    _check_against_oracle(cases, monkeypatch, masks)
    zero = form.field.zero
    for z in zero_divisors:
        assert is_zero_divisor(z) and translation_determinants(z) == (zero, zero)
        with pytest.raises(NotInvertible):
            inverse(z)


@pytest.mark.parametrize("field", SPLIT_FIELDS, ids=lambda f: f.to_text())
def test_split_inverses_and_zero_divisors_against_word_oracle(field, monkeypatch):
    """At every rank 1-10 on the drawn diagonal's leading entries: a dense
    random element (when it is a unit) and a product of n factors a + b e_B
    have two-sided inverses by word products, the first its known one; with
    the n-th entry set to -1 (e_n^2 = 1), (1 + e_B) r is a zero divisor for
    a blade with e_B^2 = 1.  Every coefficient up to rank 6, three above."""
    @settings(deadline=None, derandomize=True, max_examples=2, database=None)
    @given(diag=st.lists(st.integers(-9, 9).filter(lambda v: v % field.p), min_size=10, max_size=10),
           seed=st.integers(0, 2**32))
    def check(diag, seed):
        rng = random.Random(seed)
        for n in range(1, 11):
            form = QuadraticForm(diag[:n], field)
            dense = random_multivector(rng, form)
            units = [_unit(rng, form, [rng.randrange(1, form.dim) for _ in range(n)])]
            units += [(dense, None)] if dense and translation_determinants(dense)[0] else []
            twin = QuadraticForm(diag[:n - 1] + [-1], field)
            involutive = [m for m in range(1, twin.dim) if twin.blade_square(m) == field.one]
            zero_divisors = [_zero_divisor(rng, twin, twin.basis_blade(rng.choice(involutive)))]
            masks = None if n <= 6 else rng.sample(range(form.dim), 3)
            _check_route(form, units, [], monkeypatch, masks)
            _check_route(twin, [], zero_divisors, monkeypatch)

    check()


@pytest.mark.parametrize("field", SPLIT_FIELDS, ids=lambda f: f.to_text())
def test_split_determinants_against_the_right_matrix(field):
    """At every rank 1-7, on dense, sparse, unit and zero-divisor elements,
    both determinants are det phi(x)^(2^n / D) = det R_x, R_x eliminated
    as a 2^n x 2^n matrix off the route, and decide zero-divisorhood."""
    rng = random.Random(SEED + 22)
    for n in range(1, 8):
        diag = [rng.choice([v for v in range(-9, 10) if v % field.p]) for _ in range(n - 1)] + [-1]
        form = QuadraticForm(diag, field)
        xs = [random_multivector(rng, form), random_multivector(rng, form, 3),
              _unit(rng, form, [rng.randrange(1, form.dim) for _ in range(n)])[0],
              _zero_divisor(rng, form, form.generator(n))]
        for x in xs:
            want = linalg.determinant(operators.right_matrix(x), field)
            assert translation_determinants(x) == (want, want) and field.owns(want)
            assert is_zero_divisor(x) == (not want)
        assert translation_determinants(xs[2])[0] and not translation_determinants(xs[3])[0]


# Over F_3, u squares to 1: for diag:1,1 no blade does, but e1 + e2 does.
# diag:1,1,-1,-1 takes the third branch on both of its pairs.
@pytest.mark.parametrize("text, u", [("diag:-1,1", "e1"), ("diag:1,-1", "e2"),
                                     ("diag:1,1", "e1 + e2"), ("diag:1,1,-1,-1", "e3")])
def test_split_inverses_on_each_f3_branch(text, u, monkeypatch):
    """Units and zero divisors on each of the three F_3 splits, exhaustively
    checked, with their determinants against R_x."""
    form = QuadraticForm.from_text(text, FieldSpec.prime(3))
    rng = random.Random(SEED + 23)
    units = [_unit(rng, form, rng.sample(range(1, form.dim), min(3, form.dim - 1)))
             for _ in range(4)]
    zero_divisors = [_zero_divisor(rng, form, form.parse(u)) for _ in range(4)]
    _check_route(form, units, zero_divisors, monkeypatch)
    for x in [x for x, _ in units] + zero_divisors:
        want = linalg.determinant(operators.right_matrix(x), form.field)
        assert translation_determinants(x) == (want, want)


def test_split_inverse_of_a_dense_unit_at_rank_12(monkeypatch):
    """(a_1 + b_1 e_1) ... (a_12 + b_12 e_12) has all 4096 coefficients
    nonzero; its inverse is the known one, and one sampled coefficient of
    each product with it is summed over 4096 word products."""
    form = QuadraticForm.from_text("diag:1,-1,2,-3,5,1,-1,7,3,-2,1,-5", FieldSpec.prime(101))
    rng = random.Random(SEED + 24)
    x, xinv = _unit(rng, form, [1 << i for i in range(12)])
    assert all(x.coeffs)
    _check_route(form, [(x, xinv)], [], monkeypatch, [rng.randrange(form.dim)])
