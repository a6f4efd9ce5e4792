"""Field layer: exact rationals and odd prime fields behind one facade."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffex import RATIONAL, Fp, FieldSpec, QuadraticForm
from cliffex.errors import (
    EvenCharacteristic,
    InversionOfZero,
    MixedFieldSpec,
    NonPrimeModulus,
    ParseError,
    UnorderedField,
)
from cliffex.field import is_prime, sqrt_mod

SEED = 1009
TRIALS = 200


def test_primality_matches_trial_division():
    def slow(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(600):
        assert is_prime(n) == slow(n), n
    # A couple of larger witnesses either side of a known prime.
    assert is_prime(104729)
    assert not is_prime(104729 * 104729)


def test_field_spec_round_trips_through_text():
    assert FieldSpec.from_text("rational") is RATIONAL or FieldSpec.from_text("rational") == RATIONAL
    f7 = FieldSpec.from_text("fp:7")
    assert f7.p == 7
    assert f7.to_text() == "fp:7"
    assert RATIONAL.to_text() == "rational"
    assert FieldSpec.from_text(f7.to_text()) == f7


def test_bad_moduli_are_rejected():
    with pytest.raises(NonPrimeModulus):
        FieldSpec.prime(15)
    with pytest.raises(EvenCharacteristic):
        FieldSpec.prime(2)
    with pytest.raises(NonPrimeModulus):
        FieldSpec.from_text("fp:1")


@pytest.mark.parametrize("p, error, message", [
    (None, NonPrimeModulus, "modulus must be an integer >= 2, got None"),
    (1, NonPrimeModulus, "modulus must be an integer >= 2, got 1"),
    (True, NonPrimeModulus, "modulus must be an integer >= 2, got True"),
    (9, NonPrimeModulus, "9 is not prime"),
    (2, EvenCharacteristic, "characteristic 2 is unsupported (modulus 2)"),
])
def test_prime_field_boundaries_raise_with_their_messages(p, error, message):
    with pytest.raises(error) as info:
        FieldSpec.prime(p)
    assert str(info.value) == message


def test_the_default_spec_is_the_rationals_and_bools_are_ints():
    assert FieldSpec() == FieldSpec.rational() == RATIONAL
    one = RATIONAL.element(True)
    assert one == 1 and type(one) is Fraction
    zero = FieldSpec.prime(7).element(False)
    assert zero == Fp(0, 7) and type(zero.residue) is int
    four = Fp(3, 7) + True
    assert four == Fp(4, 7) and type(four.residue) is int


@pytest.mark.parametrize("field", [RATIONAL, FieldSpec.prime(7)], ids=lambda f: f.to_text())
def test_a_bool_compares_as_its_int_over_both_fields(field):
    one, zero = field.one, field.zero
    assert (one == True, zero == False, True == one, one == False, zero == True) == (
        True, True, True, False, False)
    assert QuadraticForm([1, 1], field).one() == True
    assert QuadraticForm([1, 1], field).zero() == False


@pytest.mark.parametrize("field", [RATIONAL, FieldSpec.prime(7)], ids=lambda f: f.to_text())
def test_equal_elements_and_ints_are_one_set_member_and_dict_key(field):
    one, three = field.one, field.element(3)
    assert 1 in {one} and one in {1} and True in {one} and one in {True}
    assert {3: "int"}[three] == "int" and {three: "element"}[3] == "element"
    assert len({one, 1, True, field.element(1), three, 3}) == 2
    n = field.p or 5
    assert len({field.element(v) for v in range(n)} | set(range(n))) == n


@pytest.mark.parametrize("p", [3, 7, 101, 65537, 2**31 - 1])
def test_square_roots_mod_p(p):
    """Each square has a root and each non-square none; p = 65537, with
    p - 1 = 2^16, runs every step of Tonelli-Shanks."""
    rng = random.Random(SEED + p)
    for a in [0, 1, p - 1, 2, 3] + [rng.randrange(p) for _ in range(TRIALS)]:
        root = sqrt_mod(a, p)
        if pow(a, (p - 1) // 2, p) == p - 1:
            assert root is None
        else:
            assert root is not None and root * root % p == a % p


def test_rational_parse_and_format():
    assert RATIONAL.parse("3/4") == Fraction(3, 4)
    assert RATIONAL.parse("-12") == Fraction(-12)
    assert RATIONAL.parse(" 7 / -2 ") == Fraction(-7, 2)
    assert RATIONAL.format(Fraction(-7, 2)) == "-7/2"
    with pytest.raises(ParseError):
        RATIONAL.parse("1/0")
    with pytest.raises(ParseError):
        RATIONAL.parse("one")
    with pytest.raises(MixedFieldSpec):
        RATIONAL.parse("3 mod 7")


def test_prime_parse_and_format():
    f7 = FieldSpec.prime(7)
    assert f7.parse("3 mod 7") == Fp(3, 7)
    assert f7.parse("10") == Fp(3, 7)
    assert f7.parse("1/2") == Fp(4, 7)  # 2 * 4 = 8 = 1 mod 7
    with pytest.raises(MixedFieldSpec):
        f7.parse("3 mod 11")
    assert f7.format(Fp(4, 7)) == "4 mod 7"


def test_element_refuses_cross_field_values():
    f7 = FieldSpec.prime(7)
    with pytest.raises(MixedFieldSpec):
        RATIONAL.element(Fp(1, 7))
    with pytest.raises(MixedFieldSpec):
        f7.element(Fp(1, 11))
    with pytest.raises(InversionOfZero):
        f7.element(Fraction(1, 7))


def test_field_axioms_under_random_sampling():
    """Commutativity, associativity, distributivity, inverses."""
    rng = random.Random(SEED)
    for field in (RATIONAL, FieldSpec.prime(11), FieldSpec.prime(101)):
        for _ in range(TRIALS):
            a = field.element(rng.randint(-50, 50))
            b = field.element(rng.randint(-50, 50))
            c = field.element(rng.randint(-50, 50))
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.mul(a, field.add(b, c)) == field.add(
                field.mul(a, b), field.mul(a, c)
            )
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            if a:
                assert field.mul(a, field.inv(a)) == field.one
                assert field.div(b, a) == field.mul(b, field.inv(a))
            assert field.add(a, -a) == field.zero


def test_fp_power_and_fermat():
    f = FieldSpec.prime(13)
    for k in range(1, 13):
        x = Fp(k, 13)
        assert x ** 12 == f.one
        assert x ** -1 == x.inverse()


def test_zero_inversion_raises():
    for field in (RATIONAL, FieldSpec.prime(5)):
        with pytest.raises(InversionOfZero):
            field.inv(field.zero)
        with pytest.raises(InversionOfZero):
            field.div(field.one, field.zero)


def test_sign_of_is_rational_only():
    assert RATIONAL.sign_of(Fraction(-3, 7)) == -1
    assert RATIONAL.sign_of(Fraction(0)) == 0
    assert RATIONAL.sign_of(Fraction(9)) == 1
    with pytest.raises(UnorderedField):
        FieldSpec.prime(5).sign_of(Fp(1, 5))


def test_facade_is_strict_about_ownership():
    f7 = FieldSpec.prime(7)
    with pytest.raises(MixedFieldSpec):
        f7.add(Fp(1, 7), Fraction(1))
    with pytest.raises(MixedFieldSpec):
        RATIONAL.mul(Fraction(1), Fp(1, 7))


# -- the integer boundary ------------------------------------------------

BOUNDARY_PRIMES = (3, 7, 101)


@st.composite
def _boundary_values(draw):
    """``(field, values)``: ints and fractions over Q, or residues, ints and
    unit-denominator fractions over F_3, F_7 and F_101; lists may be empty."""
    p = draw(st.sampled_from((None,) + BOUNDARY_PRIMES))
    ints = st.integers(-10**6, 10**6)
    if p is None:
        return RATIONAL, draw(st.lists(ints | st.fractions(max_denominator=10**4), max_size=8))
    value = ints | ints.map(lambda k: Fp(k, p)) | ints.map(Fraction)
    return FieldSpec.prime(p), draw(st.lists(value, max_size=8))


@settings(deadline=None, derandomize=True, max_examples=300)
@given(case=_boundary_values())
def test_scaled_ints_come_back_as_the_same_elements(case):
    f, values = case
    ints, mult = f.scaled(values)
    assert all(type(v) is int for v in ints) and type(mult) is int and mult > 0
    if f.p:
        assert mult == 1 and all(0 <= v < f.p for v in ints)
    back = f.quotients(ints, mult)
    assert back == [f.element(v) for v in values]
    assert all(f.owns(v) for v in back)


def test_scaled_round_trips_the_empty_list_and_refuses_a_foreign_residue():
    assert RATIONAL.scaled([]) == ([], 1)
    assert RATIONAL.quotients([], 1) == []
    for p in BOUNDARY_PRIMES:
        with pytest.raises(MixedFieldSpec):
            FieldSpec.prime(p).scaled([1, Fp(1, 5)])
