"""Quaternion arithmetic, quaternionic matrices, and the rank-2 bridge."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffex import (
    HMatrix,
    QuadraticForm,
    Quaternion,
    basis_change,
    coordinates_in_basis,
    format_quaternion,
    from_quaternion,
    hermitian_pairing,
    parse_quaternion,
    to_quaternion,
)
from cliffex.errors import (
    DimensionMismatch,
    InversionOfZero,
    MixedFieldSpec,
    ParseError,
    SingularBasis,
    WrongForm,
)
from cliffex.field import FieldSpec, Fp
from cliffex.quaternions import _left_inverse

SEED = 40902


def rand_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))


def rand_quaternion(rng):
    return Quaternion(*(rand_fraction(rng) for _ in range(4)))


def rand_hmatrix(rng, size):
    return HMatrix([[rand_quaternion(rng) for _ in range(size)] for _ in range(size)])


def rand_vector(rng, size):
    return tuple(rand_quaternion(rng) for _ in range(size))


# -- scalar quaternion arithmetic ----------------------------------------

def test_hamilton_table():
    one, i, j, k = Quaternion.one(), Quaternion.i(), Quaternion.j(), Quaternion.k()
    minus = -one
    assert i * i == j * j == k * k == minus
    assert i * j == k and j * k == i and k * i == j
    assert j * i == -k and k * j == -i and i * k == -j
    assert i * j * k == minus


def test_conjugation_reverses_products():
    rng = random.Random(SEED)
    for _ in range(60):
        p, q = rand_quaternion(rng), rand_quaternion(rng)
        assert (p * q).conjugate() == q.conjugate() * p.conjugate()
        assert p.conjugate().conjugate() == p
        # q + conj(q) is twice the scalar part.
        assert (p + p.conjugate()) == Quaternion(2 * p.scalar_part())


def test_norm_is_multiplicative():
    rng = random.Random(SEED + 1)
    for _ in range(60):
        p, q = rand_quaternion(rng), rand_quaternion(rng)
        assert (p * q).norm_squared() == p.norm_squared() * q.norm_squared()
        assert p * p.conjugate() == Quaternion(p.norm_squared())


def test_inverse_and_division():
    rng = random.Random(SEED + 2)
    seen = 0
    while seen < 40:
        q = rand_quaternion(rng)
        if not q:
            continue
        seen += 1
        assert q * q.inverse() == Quaternion.one()
        assert q.inverse() * q == Quaternion.one()
        p = rand_quaternion(rng)
        assert (p / q) * q == p
    with pytest.raises(InversionOfZero):
        Quaternion.zero().inverse()


def test_integer_and_fraction_coercion():
    q = Quaternion(1, 2, 3, 4)
    assert 2 * q == q * 2 == Quaternion(2, 4, 6, 8)
    assert q + 1 == Quaternion(2, 2, 3, 4)
    assert 1 - q == Quaternion(0, -2, -3, -4)
    assert q / 2 == Quaternion(Fraction(1, 2), 1, Fraction(3, 2), 2)
    assert q * Fraction(1, 3) == Quaternion(Fraction(1, 3), Fraction(2, 3), 1, Fraction(4, 3))
    assert q != "1 + 2i"


def test_text_round_trip():
    rng = random.Random(SEED + 3)
    for _ in range(80):
        q = rand_quaternion(rng)
        assert parse_quaternion(format_quaternion(q)) == q


def test_format_spellings():
    assert format_quaternion(Quaternion()) == "0"
    assert format_quaternion(Quaternion(0, -1, 0, 0)) == "-i"
    assert format_quaternion(Quaternion(1, 2, Fraction(-3, 4), 1)) == "1 + 2i - 3/4j + k"
    assert format_quaternion(Quaternion(Fraction(5, 7))) == "5/7"


def test_parse_accepts_loose_input():
    assert parse_quaternion("3") == Quaternion(3)
    assert parse_quaternion("-j") == Quaternion(0, 0, -1, 0)
    assert parse_quaternion("2*i + 1/2 k") == Quaternion(0, 2, 0, Fraction(1, 2))
    # Repeated units accumulate.
    assert parse_quaternion("i + i") == Quaternion(0, 2, 0, 0)


def test_parse_rejects_malformed_input():
    for bad in ["", "  ", "1 + + i", "q", "2m", "i2", "1 +", "--i", "1/0", "2 + 3/0 j",
                "2*", "*i"]:
        with pytest.raises(ParseError):
            parse_quaternion(bad)


# -- against a Fraction oracle -------------------------------------------

def hamilton(p, q):
    """Oracle: the Hamilton product of two 4-tuples of Fraction."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def oracle_inverse(p):
    n = sum(x * x for x in p)
    return (p[0] / n, -p[1] / n, -p[2] / n, -p[3] / n)


_rationals = st.fractions(min_value=-30, max_value=30, max_denominator=24)
_tuples = st.tuples(_rationals, _rationals, _rationals, _rationals)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(p=_tuples, q=_tuples)
def test_arithmetic_against_a_fraction_oracle(p, q):
    x, y = Quaternion(*p), Quaternion(*q)
    assert x.components() == p and (x.a, x.b, x.c, x.d) == p
    assert (x + y).components() == tuple(u + v for u, v in zip(p, q))
    assert (x - y).components() == tuple(u - v for u, v in zip(p, q))
    assert (-x).components() == tuple(-u for u in p)
    assert (x * y).components() == hamilton(p, q)
    assert x.conjugate().components() == (p[0], -p[1], -p[2], -p[3])
    assert x.norm_squared() == sum(u * u for u in p)
    assert x.scalar_part() == p[0]
    if any(q):
        assert y.inverse().components() == oracle_inverse(q)
        assert (x / y).components() == hamilton(p, oracle_inverse(q))
    assert (x == y) == (p == q)
    # A real quaternion equals its real part, so it hashes as that number.
    assert x == Quaternion(*p) and hash(x) == hash(Quaternion(*p))
    assert hash(x) == (hash(p) if any(p[1:]) else hash(p[0]))
    assert bool(x) == any(p)
    assert parse_quaternion(str(x)) == x
    assert repr(x) == f"Quaternion({p[0]}, {p[1]}, {p[2]}, {p[3]})"


def test_storage_is_canonical():
    half = Quaternion(Fraction(2, 4))
    assert half == Quaternion(Fraction(1, 2)) == Quaternion("1/2") == Quaternion(0) + Fraction(1, 2)
    assert hash(half) == hash(Quaternion(Fraction(1, 2)))
    assert Quaternion(3) == 3 and Quaternion(3) == Fraction(3)
    # Four plain ints and the same values through the field's constructor.
    ints, mixed = Quaternion(1, -2, 0, 4), Quaternion(Fraction(1), "-2", False, Fraction(8, 2))
    assert ints == mixed and hash(ints) == hash(mixed)
    # A sum whose denominators cancel compares equal to the integer value.
    third = Quaternion(Fraction(1, 3), Fraction(2, 3))
    assert third + third + third == Quaternion(1, 2)
    assert {Quaternion(1, 2), third * 3} == {Quaternion(1, 2)}


def test_components_are_strict():
    assert Quaternion(True, False, 2, Fraction(3, 4)) == Quaternion(1, 0, 2, "3/4")
    assert Quaternion(" -5/10 ").components() == (Fraction(-1, 2), 0, 0, 0)
    for bad in (0.1, Fp(3, 7), None, object(), 1j, [1]):
        with pytest.raises(MixedFieldSpec):
            Quaternion(bad)
        with pytest.raises(MixedFieldSpec):
            Quaternion(0, 0, 0, bad)
    with pytest.raises(ParseError):
        Quaternion("0.5")


def test_quaternions_are_immutable():
    q = Quaternion(1, 2, 3, 4)
    for name in ("a", "b", "c", "d", "x", "_num", "_den"):
        with pytest.raises(AttributeError):
            setattr(q, name, 5)
    assert q == Quaternion(1, 2, 3, 4)


# -- quaternionic matrices -----------------------------------------------

def test_identity_action_and_shape_checks():
    rng = random.Random(SEED + 4)
    for size in (1, 2, 3):
        v = rand_vector(rng, size)
        assert HMatrix.identity(size).action(v) == v
    with pytest.raises(DimensionMismatch):
        HMatrix([])
    with pytest.raises(DimensionMismatch):
        HMatrix([[Quaternion.one(), Quaternion.one()]])
    with pytest.raises(DimensionMismatch):
        HMatrix.identity(2).action((Quaternion.one(),))
    with pytest.raises(DimensionMismatch):
        HMatrix([["1"]])
    with pytest.raises(MixedFieldSpec):
        HMatrix([[1.5]])


def test_action_is_left_linear():
    # Coefficients written on the left pass straight through the action.
    rng = random.Random(SEED + 5)
    for size in (1, 2, 3):
        for _ in range(8):
            a = rand_hmatrix(rng, size)
            x = rand_vector(rng, size)
            y = rand_vector(rng, size)
            c = rand_quaternion(rng)
            ax = a.action(x)
            ay = a.action(y)
            assert a.action(tuple(xv + yv for xv, yv in zip(x, y))) == tuple(
                p + q for p, q in zip(ax, ay)
            )
            assert a.action(tuple(c * xv for xv in x)) == tuple(c * p for p in ax)


def test_compose_matches_action_composition():
    rng = random.Random(SEED + 6)
    for size in (1, 2, 3):
        for _ in range(10):
            a = rand_hmatrix(rng, size)
            b = rand_hmatrix(rng, size)
            x = rand_vector(rng, size)
            assert a.compose(b).action(x) == a.action(b.action(x))
    with pytest.raises(DimensionMismatch):
        rand_hmatrix(rng, 2).compose(rand_hmatrix(rng, 3))


def test_compose_entry_rule_uses_reversed_factors():
    # With entries that do not commute the composition rule must put the
    # inner matrix's entry first: (A . B)[i][j] = sum_k B[k][j] A[i][k].
    i, j = Quaternion.i(), Quaternion.j()
    a = HMatrix([[i]])
    b = HMatrix([[j]])
    assert a.compose(b) == HMatrix([[j * i]])
    assert b.compose(a) == HMatrix([[i * j]])
    assert a.compose(b) != b.compose(a)


def test_matrix_sums_match_the_scalar_arithmetic():
    # action, compose, the pairing and coordinates sum their products on
    # integer numerators; the oracle sums them with Quaternion + and *, on
    # entries with mixed denominators and zeros.
    rng = random.Random(SEED + 18)

    def entry():
        if rng.random() < 0.25:
            return Quaternion()
        return Quaternion(*(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12)))
                            for _ in range(4)))

    def total(products):
        return sum(products, Quaternion())

    for size in (1, 2, 3, 4):
        for _ in range(6):
            a = HMatrix([[entry() for _ in range(size)] for _ in range(size)])
            b = HMatrix([[entry() for _ in range(size)] for _ in range(size)])
            x = [entry() for _ in range(size)]
            y = [entry() for _ in range(size)]
            ks = range(size)
            assert a.action(x) == tuple(total(x[k] * a[i, k] for k in ks) for i in ks)
            assert a.compose(b) == HMatrix(
                [[total(b[k, j] * a[i, k] for k in ks) for j in ks] for i in ks]
            )
            assert hermitian_pairing(x, y) == total(x[k] * y[k].conjugate() for k in ks)
            try:
                coords = coordinates_in_basis(x, a.entries)
            except SingularBasis:
                continue
            assert tuple(total(coords[r] * a[r, k] for r in ks) for k in ks) == tuple(x)


def test_adjoint_is_conjugate_transpose_and_reverses_compose():
    rng = random.Random(SEED + 7)
    for size in (1, 2, 3):
        for _ in range(8):
            a = rand_hmatrix(rng, size)
            b = rand_hmatrix(rng, size)
            adj = a.adjoint()
            for r in range(size):
                for c in range(size):
                    assert adj[r, c] == a[c, r].conjugate()
            assert adj.adjoint() == a
            assert a.compose(b).adjoint() == b.adjoint().compose(a.adjoint())


def test_pairing_adjoint_law():
    rng = random.Random(SEED + 8)
    for size in (1, 2, 3):
        for _ in range(10):
            a = rand_hmatrix(rng, size)
            x = rand_vector(rng, size)
            y = rand_vector(rng, size)
            assert hermitian_pairing(a.action(x), y) == hermitian_pairing(
                x, a.adjoint().action(y)
            )


def test_hermitian_pairing_properties():
    rng = random.Random(SEED + 9)
    for size in (1, 2, 3):
        for _ in range(10):
            x = rand_vector(rng, size)
            y = rand_vector(rng, size)
            c = rand_quaternion(rng)
            p = hermitian_pairing(x, y)
            assert hermitian_pairing(y, x) == p.conjugate()
            assert hermitian_pairing(tuple(c * xv for xv in x), y) == c * p
            assert hermitian_pairing(x, tuple(c * yv for yv in y)) == p * c.conjugate()
            self_pair = hermitian_pairing(x, x)
            assert self_pair == Quaternion(self_pair.scalar_part())
            assert self_pair.scalar_part() >= 0
            assert bool(self_pair) == any(bool(xv) for xv in x)
    with pytest.raises(DimensionMismatch):
        hermitian_pairing((Quaternion.one(),), (Quaternion.one(), Quaternion.one()))


def conventional_product(x, u):
    """(X U)[i][j] = sum_k X[i][k] U[k][j], factors in that order."""
    m = len(u)
    return [
        [sum((x[i][k] * u[k][j] for k in range(m)), Quaternion()) for j in range(m)]
        for i in range(m)
    ]


def nonzero_quaternion(rng):
    while True:
        q = rand_quaternion(rng)
        if q:
            return q


def rand_invertible_rows(rng, size):
    """A nonzero diagonal put through random row swaps and left row operations."""
    rows = [
        [nonzero_quaternion(rng) if r == c else Quaternion() for c in range(size)]
        for r in range(size)
    ]
    for _ in range(3 * size):
        r, s = rng.randrange(size), rng.randrange(size)
        if r == s:
            continue
        if rng.random() < 0.3:
            rows[r], rows[s] = rows[s], rows[r]
        else:
            f = rand_quaternion(rng)
            rows[r] = [x + f * y for x, y in zip(rows[r], rows[s])]
    return rows


def test_left_inverse_under_the_conventional_product():
    rng = random.Random(SEED + 17)
    for size in (1, 2, 3, 4):
        eye = [[Quaternion(int(r == c)) for c in range(size)] for r in range(size)]
        for _ in range(12):
            u = rand_invertible_rows(rng, size)
            x = _left_inverse(u)
            assert x is not None
            assert conventional_product(x, u) == eye
            assert conventional_product(u, x) == eye
            # A row replaced by a left combination of the others is singular.
            r = rng.randrange(size)
            coefs = [rand_quaternion(rng) for _ in range(size)]
            dep = [
                sum((coefs[k] * u[k][c] for k in range(size) if k != r), Quaternion())
                for c in range(size)
            ]
            assert _left_inverse(u[:r] + [dep] + u[r + 1:]) is None


def test_coordinates_reconstruct_the_vector():
    rng = random.Random(SEED + 10)
    for size in (1, 2, 3):
        found = 0
        while found < 6:
            basis = [rand_vector(rng, size) for _ in range(size)]
            vec = rand_vector(rng, size)
            try:
                coords = coordinates_in_basis(vec, basis)
            except SingularBasis:
                continue
            found += 1
            rebuilt = [Quaternion.zero()] * size
            for coef, bvec in zip(coords, basis):
                rebuilt = [acc + coef * bv for acc, bv in zip(rebuilt, bvec)]
            assert tuple(rebuilt) == vec


def test_coordinates_reject_dependent_basis():
    i = Quaternion.i()
    dep = [(Quaternion.one(), i), (i, i * i)]  # second row = i * first row
    with pytest.raises(SingularBasis):
        coordinates_in_basis((Quaternion.one(), Quaternion.one()), dep)
    with pytest.raises(DimensionMismatch):
        coordinates_in_basis((Quaternion.one(),), dep)


def test_coordinate_and_basis_change_errors_keep_their_messages():
    one, i = Quaternion.one(), Quaternion.i()
    good = [(one, Quaternion()), (Quaternion(), one)]
    dep = [(one, i), (i, i * i)]
    shape = "^need m vectors of length m and a matching target$"
    dependent = "^the given vectors are linearly dependent$"
    with pytest.raises(DimensionMismatch, match=shape):
        coordinates_in_basis((one,), good)
    with pytest.raises(DimensionMismatch, match=shape):
        coordinates_in_basis((one, one), [(one,), (one,)])
    with pytest.raises(DimensionMismatch, match="^entry '1' is not a quaternion$"):
        coordinates_in_basis((one, one), [("1", one), (one, one)])
    with pytest.raises(DimensionMismatch, match="^entry 'x' is not a quaternion$"):
        coordinates_in_basis(("x", one), good)
    with pytest.raises(SingularBasis, match=dependent):
        coordinates_in_basis((one, one), dep)
    a = HMatrix.identity(2)
    with pytest.raises(DimensionMismatch, match="^expected 2 basis vectors, got 1$"):
        basis_change(a, good[:1])
    with pytest.raises(DimensionMismatch, match="^basis vectors must have the matrix's size$"):
        basis_change(a, [(one,), (one, i, one)])
    with pytest.raises(DimensionMismatch, match="^entry 'x' is not a quaternion$"):
        basis_change(a, [("x", one), (one, one)])
    with pytest.raises(SingularBasis, match=dependent):
        basis_change(a, dep)


def test_basis_change_in_standard_basis_is_identity_operation():
    rng = random.Random(SEED + 11)
    for size in (1, 2, 3):
        std = [
            tuple(Quaternion.one() if r == s else Quaternion.zero() for s in range(size))
            for r in range(size)
        ]
        a = rand_hmatrix(rng, size)
        assert basis_change(a, std) == a
        assert basis_change(HMatrix.identity(size), std) == HMatrix.identity(size)


def test_basis_change_is_multiplicative():
    rng = random.Random(SEED + 12)
    for size in (2, 3):
        done = 0
        while done < 5:
            basis = [rand_vector(rng, size) for _ in range(size)]
            a = rand_hmatrix(rng, size)
            b = rand_hmatrix(rng, size)
            try:
                ca = basis_change(a, basis)
            except SingularBasis:
                continue
            done += 1
            cb = basis_change(b, basis)
            assert basis_change(a.compose(b), basis) == ca.compose(cb)
            assert basis_change(HMatrix.identity(size), basis) == HMatrix.identity(size)


def test_basis_change_matches_coordinates():
    # Column i of the new matrix holds the coordinates of a(basis[i]).
    rng = random.Random(SEED + 13)
    size = 3
    while True:
        basis = [rand_vector(rng, size) for _ in range(size)]
        a = rand_hmatrix(rng, size)
        try:
            m = basis_change(a, basis)
        except SingularBasis:
            continue
        break
    for i in range(size):
        coords = coordinates_in_basis(a.action(basis[i]), basis)
        for r in range(size):
            assert m[r, i] == coords[r]


# -- the rank-2 bridge ---------------------------------------------------

def bridge_form():
    return QuadraticForm([1, 1])


def test_bridge_sends_basis_to_units():
    form = bridge_form()
    assert to_quaternion(form.one()) == Quaternion.one()
    assert to_quaternion(form.parse("e1")) == Quaternion.i()
    assert to_quaternion(form.parse("e2")) == Quaternion.j()
    assert to_quaternion(form.parse("e12")) == Quaternion.k()


def test_bridge_is_multiplicative_and_additive():
    rng = random.Random(SEED + 14)
    form = bridge_form()
    from cliffex.reference import random_multivector

    for _ in range(40):
        x = random_multivector(rng, form, terms=4)
        y = random_multivector(rng, form, terms=4)
        assert to_quaternion(x * y) == to_quaternion(x) * to_quaternion(y)
        assert to_quaternion(x + y) == to_quaternion(x) + to_quaternion(y)


def test_bridge_intertwines_involution_with_conjugation():
    rng = random.Random(SEED + 15)
    form = bridge_form()
    from cliffex.reference import random_multivector

    for _ in range(40):
        x = random_multivector(rng, form, terms=4)
        assert to_quaternion(x.conjugate()) == to_quaternion(x).conjugate()


def test_bridge_round_trip():
    rng = random.Random(SEED + 16)
    form = bridge_form()
    from cliffex.reference import random_multivector

    for _ in range(20):
        x = random_multivector(rng, form, terms=4)
        assert from_quaternion(to_quaternion(x)) == x
        q = rand_quaternion(rng)
        assert from_quaternion(q).form == form
        assert to_quaternion(from_quaternion(q)) == q


def test_bridge_rejects_other_forms():
    with pytest.raises(WrongForm):
        to_quaternion(QuadraticForm([1, -1]).one())
    with pytest.raises(WrongForm):
        to_quaternion(QuadraticForm([1, 1, 1]).one())
    with pytest.raises(WrongForm):
        to_quaternion(QuadraticForm([1, 2]).one())
    with pytest.raises(WrongForm):
        to_quaternion(QuadraticForm([1, 1], FieldSpec.from_text("fp:7")).one())
    # from_quaternion has no form to choose: it always lands on the bridge form.
    assert from_quaternion(Quaternion.one()).form == QuadraticForm([1, 1])
