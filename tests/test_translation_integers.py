"""The integer translation route against the field-element route.

``translation_determinants``, ``is_zero_divisor`` and ``inverse`` eliminate
the integer rows c L_x directly; ``left_matrix`` and ``right_matrix`` divide
the same rows by c.  Here they are held against routes that share none of
that scaling: the columns x e_j and e_j x of algebra products, and the
determinant and inverse of ``linalg`` on the field-element matrices.  The
forms cover Q with an integer and with a rational diagonal, and F_3, F_7
and F_101, at ranks 1-5; the elements are units, constructed zero divisors
(r + u) y with u u = r^2, one-term elements and random ones.
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
        want = [row[0] for row in linalg.invert_matrix(left_matrix(x), f)]
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
