"""The integer translation route against the field-element route.

``translation_determinants``, ``is_zero_divisor`` and ``inverse`` eliminate
the integer rows c L_x directly; ``left_matrix`` and ``right_matrix`` divide
the same rows by c.  Here they are held against routes that share none of
that scaling: the columns x e_j and e_j x of algebra products, and the
determinant of ``linalg`` and a solve by its elimination core on the
field-element matrices, each row scaled by ``FieldSpec.scaled``.  The
forms cover Q with an integer and with a rational diagonal, and F_3, F_7
and F_101, at ranks 1-5; the elements are units, constructed zero divisors
(r + u) y with u u = r^2, one-term elements and random ones.

Over F_p the field-element route ends in the same elimination, so at ranks
6 and 7 (64 x 64 and 128 x 128 matrices) the results over F_101 are held
instead to the rational results on the same integer elements, reduced
mod 101.
"""
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from cliffex import (
    FieldSpec,
    QuadraticForm,
    inverse,
    is_zero_divisor,
    left_matrix,
    linalg,
    right_matrix,
    structure,
    translation_determinants,
)
from cliffex.errors import NotInvertible
from cliffex.field import Fp
from cliffex.reference import random_isometry

DIAGONALS = {
    "q-int": (None, [1, -1, 2, -2, 3]),
    "q-rat": (None, [Fraction(1, 2), 3, -5, Fraction(2, 3), Fraction(-1, 4)]),
    "f3": (FieldSpec.prime(3), [1, -1, 1, -1, 2]),
    "f7": (FieldSpec.prime(7), [1, -1, 2, -2, 3]),
    "f101": (FieldSpec.prime(101), [1, -1, 2, -2, 3]),
}
KINDS = ("unit", "zero_divisor", "one_term", "random")
SETTINGS = settings(deadline=None, derandomize=True, max_examples=80)


def _form(key: str, n: int) -> QuadraticForm:
    field, diag = DIAGONALS[key]
    return QuadraticForm(diag[:n], field)


def _scalars(field):
    if field.is_rational:
        return st.fractions(min_value=-9, max_value=9, max_denominator=5)
    return st.integers(0, field.p - 1).map(field.element)


def _is_square(s, field):
    """A root r of s in ``field``, or None."""
    if field.is_rational:
        num, den = s.numerator, s.denominator
        if num >= 0 and isqrt(num) ** 2 == num and isqrt(den) ** 2 == den:
            return Fraction(isqrt(num), isqrt(den))
        return None
    return next((field.element(r) for r in range(field.p) if r * r % field.p == s.residue), None)


@lru_cache(maxsize=None)
def _square_roots(key: str, n: int) -> list:
    """(u, r) with u u = r^2, so (r + u)(r - u) = 0: blades, and vectors with
    coordinates in -2..2 (over diag:1/2,3,-5 no blade qualifies, but the
    isotropic 2 e_1 + e_2 + e_3 does)."""
    form = _form(key, n)
    f = form.field
    out = []
    for mask in range(1, form.dim):
        r = _is_square(form.blade_square(mask), f)
        if r is not None:
            out.append((form.basis_blade(mask), r))
    for coords in product(range(-2, 3), repeat=n):
        if any(coords):
            v = form.vector(coords)
            r = _is_square((v * v).scalar_part(), f)
            if r is not None:
                out.append((v, r))
    return out


@st.composite
def _sparse(draw, form, max_terms=4):
    scalars = _scalars(form.field)
    masks = draw(st.sets(st.integers(0, form.dim - 1), min_size=1, max_size=max_terms))
    return form.multivector({m: draw(scalars) for m in masks})


@st.composite
def elements(draw, key):
    """(kind, x) with x nonzero over the diagonal ``key``; units and one-term
    elements are invertible and the constructed zero divisors are not."""
    form = _form(key, draw(st.integers(1, 5)))
    f = form.field
    scalars = _scalars(f)
    kind = draw(st.sampled_from(KINDS))
    if kind == "unit":
        # (a + b e_B)(a - b e_B) = a^2 - b^2 s is a nonzero scalar.
        x = form.one()
        for _ in range(draw(st.integers(1, 3))):
            mask = draw(st.integers(0, form.dim - 1))
            a, b = draw(scalars), draw(scalars)
            assume(a * a - b * b * form.blade_square(mask))
            x = x * form.multivector({0: a, mask: b}) if mask else x * (a + b)
    elif kind == "zero_divisor":
        roots = _square_roots(key, form.n)
        assume(roots)
        u, r = draw(st.sampled_from(roots))
        x = (u + r) * draw(_sparse(form))
    elif kind == "one_term":
        c = draw(scalars)
        assume(c)
        x = form.basis_blade(draw(st.integers(0, form.dim - 1))) * c
    else:
        x = draw(_sparse(form, form.dim))
    assume(not x.is_zero())
    return kind, x


def _columns(matrix: list) -> list:
    return [list(col) for col in zip(*matrix)]


@pytest.mark.parametrize("key", DIAGONALS)
@SETTINGS
@given(data=st.data())
def test_translation_matrices_are_the_products_by_basis_blades(key, data):
    _, x = data.draw(elements(key))
    form = x.form
    blades = [form.basis_blade(m) for m in range(form.dim)]
    assert _columns(left_matrix(x)) == [list((x * e).coeffs) for e in blades]
    assert _columns(right_matrix(x)) == [list((e * x).coeffs) for e in blades]


@pytest.mark.parametrize("key", DIAGONALS)
@SETTINGS
@given(data=st.data())
def test_integer_route_matches_the_field_element_route(key, data):
    kind, x = data.draw(elements(key))
    form = x.form
    f = form.field
    det_l = linalg.determinant(left_matrix(x), f)
    det_r = linalg.determinant(right_matrix(x), f)
    assert det_l == det_r
    dets = translation_determinants(x)
    assert dets == (det_l, det_r)
    assert all(type(d) is (Fraction if f.is_rational else Fp) for d in dets)
    if kind == "zero_divisor":
        assert not det_l
    elif kind != "random":
        assert det_l
    assert is_zero_divisor(x) == (not det_l)
    if det_l:
        # L_x^-1 e_0, the first column of the inverse matrix.
        rows = [f.scaled([*row, f.one if i == 0 else f.zero])[0]
                for i, row in enumerate(left_matrix(x))]
        det, ys = linalg._eliminate(rows, form.dim, f.p)
        want = f.quotients([y[0] for y in ys], det)
        assert list(inverse(x).coeffs) == want
    else:
        with pytest.raises(NotInvertible):
            inverse(x)


def test_one_term_element_over_a_rational_diagonal():
    # Over diag:1/2, e_1 e_1 = -1/2, so c e_1 has L = [[0, -c/2], [c, 0]] and
    # both determinants are c^2 / 2; the integer rows carry c = 7 * 2.
    form = _form("q-rat", 1)
    x = form.generator(1) * Fraction(3, 7)
    assert left_matrix(x) == [[0, Fraction(-3, 14)], [Fraction(3, 7), 0]]
    assert translation_determinants(x) == (Fraction(9, 98), Fraction(9, 98))


def _gram_preserved(matrix: list, form: QuadraticForm) -> bool:
    """transpose(M) G M = G by dense field-element products."""
    f = form.field
    g = [[gi if i == j else f.zero for j, gi in enumerate(form.gram_diagonal())]
         for i in range(form.dim)]
    mt = [list(col) for col in zip(*matrix)]
    return _mat_mul(_mat_mul(mt, g, f), matrix, f) == g


def _mat_mul(a, b, field):
    return [[sum((x * y for x, y in zip(row, col)), field.zero) for col in zip(*b)] for row in a]


@pytest.mark.parametrize("key", DIAGONALS)
@settings(deadline=None, derandomize=True, max_examples=30)
@given(data=st.data())
def test_sparse_gram_check_matches_the_dense_definition(key, data):
    _, x = data.draw(elements(key))
    if data.draw(st.booleans()):
        x = random_isometry(random.Random(data.draw(st.integers(0, 2**16))), x.form)
    form = x.form
    ev = structure.isometry_evidence(x)
    assert ev.left_gram_preserved == _gram_preserved(left_matrix(x), form)
    assert ev.right_gram_preserved == _gram_preserved(right_matrix(x), form)
    assert ev.consistent


# -- full translation size: F_101 against Q reduced mod 101 ----------------

F101 = FieldSpec.prime(101)
FULL_DIAGONAL = (1, -1, 2, -2, 3, -5, 7)
FULL_SIZE_CASES = {6: {"unit": 3, "dense": 2, "zero_divisor": 2},
                   7: {"unit": 3, "dense": 1, "zero_divisor": 1}}


def _mod101(v: Fraction) -> Fp:
    return F101.element(v.numerator * pow(v.denominator, -1, 101))


def _full_size_element(form: QuadraticForm, kind: str, rng: random.Random):
    """A seeded integer element over Q: a product of three factors
    a + b e_I, a dense element, or (r + u) y for a blade u with u u = r^2
    and a dense y."""
    dense = form.multivector({m: rng.randint(-9, 9) for m in range(form.dim)})
    if kind == "dense":
        return dense
    if kind == "zero_divisor":
        roots = [(m, isqrt(s)) for m in range(1, form.dim)
                 if (s := int(form.blade_square(m))) > 0 and isqrt(s) ** 2 == s]
        mask, r = rng.choice(roots)
        return form.multivector({0: r, mask: 1}) * dense
    x = form.one()
    for _ in range(3):
        mask, a, b = rng.randrange(1, form.dim), rng.randint(-9, 9), rng.randint(1, 9)
        while a * a == b * b * form.blade_square(mask):
            a += 1
        x = x * form.multivector({0: a, mask: b})
    return x


@pytest.mark.parametrize("n, kind", [(n, k) for n, kinds in FULL_SIZE_CASES.items() for k in kinds])
def test_f101_results_are_the_rational_ones_reduced_at_full_size(n, kind):
    """64 x 64 and 128 x 128 translation matrices: the Gauss core over F_101
    against the Bareiss core over Q, on the same integer element."""
    form = QuadraticForm(FULL_DIAGONAL[:n])
    form101 = QuadraticForm(FULL_DIAGONAL[:n], F101)
    rng = random.Random(f"{n}-{kind}")
    for _ in range(FULL_SIZE_CASES[n][kind]):
        x = _full_size_element(form, kind, rng)
        x101 = form101.multivector({m: int(c) for m, c in x.terms()})
        det = translation_determinants(x)[0]
        assert (det == 0) == (kind == "zero_divisor")
        assert translation_determinants(x101) == (_mod101(det),) * 2
        assert is_zero_divisor(x101) == (not _mod101(det))
        if _mod101(det):
            assert list(inverse(x101).coeffs) == [_mod101(c) for c in inverse(x).coeffs]
        else:
            with pytest.raises(NotInvertible):
                inverse(x101)
