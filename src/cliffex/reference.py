"""Slow reference implementations and seeded random samplers.

Everything here exists to cross-check the fast paths in the rest of the
package by an independent route:

* ``blade_word_product`` multiplies blades by literally bubble-sorting the
  concatenated index word, never touching the popcount parity formula.
* ``cofactor_determinant`` expands along the first row.
* ``product_pairing`` evaluates the canonical pairing by its definition,
  the scalar part of x * conjugate(y), from word products over the common
  support instead of the Gram diagonal sum.
* ``anticommuting_lie_blades`` enumerates the masks that the Killing count
  counts, instead of summing the grade formula.

The samplers all take an explicit ``random.Random`` so every test run is
reproducible from its seed.
"""
from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Optional, Sequence

from .core import Multivector, QuadraticForm, anticommute_parity
from .errors import InternalInconsistency, MismatchedForm
from .field import FieldElement, FieldSpec, Fp


def mask_to_word(mask: int) -> tuple:
    """Ascending 1-based index word of a blade mask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def blade_word_product(word_a: Sequence[int], word_b: Sequence[int], form: QuadraticForm):
    """Product of two blade index words by adjacent transpositions.

    Walks the concatenated word swapping out-of-order neighbours (a sign
    flip each time) and cancelling equal neighbours against ``-q_i`` until
    the word is strictly increasing.  Returns ``(coef, mask)``.
    """
    field = form.field
    coef = field.one
    word = list(word_a) + list(word_b)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(word) - 1:
            a, b = word[i], word[i + 1]
            if a == b:
                coef = coef * (-form.diag[a - 1])
                del word[i : i + 2]
                changed = True
                i = max(i - 1, 0)
            elif a > b:
                word[i], word[i + 1] = b, a
                coef = -coef
                changed = True
                i += 1
            else:
                i += 1
    mask = 0
    for i in word:
        mask |= 1 << (i - 1)
    return coef, mask


def cofactor_determinant(rows, field: FieldSpec) -> FieldElement:
    """Determinant by first-row cofactor expansion; fine for small sizes."""
    n = len(rows)
    if n == 0:
        return field.one
    if n == 1:
        return rows[0][0]
    total = field.zero
    for j, top in enumerate(rows[0]):
        if not top:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = top * cofactor_determinant(minor, field)
        total = total - term if j & 1 else total + term
    return total


def product_pairing(x: Multivector, y: Multivector) -> FieldElement:
    """Canonical pairing by its definition, the scalar part of x * conjugate(y):
    only e_w conjugate(e_w) = (-1)^|w| e_w e_(w reversed) has one, so the sum
    runs over the common support of word products."""
    if x.form != y.form:
        raise MismatchedForm("operands live over different quadratic forms")
    total = x.form.field.zero
    for mask, (a, b) in enumerate(zip(x.coeffs, y.coeffs)):
        if a and b:
            word = mask_to_word(mask)
            term = a * b * blade_word_product(word, word[::-1], x.form)[0]
            total = total - term if len(word) & 1 else total + term
    return total


def anticommuting_lie_blades(form: QuadraticForm, mask: int) -> list:
    """Every Lie blade (grade 1 or 2 mod 4) anticommuting with ``mask``."""
    return [b for b in range(form.dim) if b.bit_count() % 4 in (1, 2) and anticommute_parity(mask, b)]


# -- seeded samplers -----------------------------------------------------


def random_element(rng: Random, field: FieldSpec, span: int = 9) -> FieldElement:
    if field.is_rational:
        return Fraction(rng.randint(-span, span), rng.randint(1, span))
    return Fp(rng.randrange(field.p), field.p)


def random_nonzero_element(rng: Random, field: FieldSpec, span: int = 9) -> FieldElement:
    while True:
        x = random_element(rng, field, span)
        if x:
            return x


def random_multivector(
    rng: Random,
    form: QuadraticForm,
    terms: Optional[int] = None,
    span: int = 9,
) -> Multivector:
    """Random element; ``terms`` limits the support size (None = dense)."""
    if terms is None:
        return form.multivector([random_element(rng, form.field, span) for _ in range(form.dim)])
    terms = min(terms, form.dim)
    masks = rng.sample(range(form.dim), terms)
    data = {m: random_nonzero_element(rng, form.field, span) for m in masks}
    return form.multivector(data)


def random_vector(rng: Random, form: QuadraticForm, span: int = 9) -> Multivector:
    return form.vector([random_element(rng, form.field, span) for _ in range(form.n)])


def random_invertible(
    rng: Random,
    form: QuadraticForm,
    terms: Optional[int] = None,
    span: int = 9,
    attempts: int = 64,
) -> Multivector:
    from .operators import is_invertible

    for _ in range(attempts):
        x = random_multivector(rng, form, terms, span)
        if x and is_invertible(x):
            return x
    raise InternalInconsistency("failed to sample an invertible element")


def plane_rotor(form: QuadraticForm, i: int, j: int, t) -> Optional[Multivector]:
    """Unit-pairing rotor ``x + y e_ij`` in the i-j coordinate plane.

    With d = q_i q_j, the point (x, y) = ((1 - d t^2)/(1 + d t^2),
    2t/(1 + d t^2)) satisfies x^2 + d y^2 = 1 exactly, which is the
    isometry condition for this rotor.  Returns None when the denominator
    vanishes for the given parameter (possible over a prime field).
    """
    field = form.field
    t = field.element(t)
    d = form.diag[i - 1] * form.diag[j - 1]
    den = field.one + d * t * t
    if not den:
        return None
    x = (field.one - d * t * t) / den
    y = (t + t) / den
    mask = (1 << (i - 1)) | (1 << (j - 1))
    return form.multivector({0: x, mask: y})


def random_isometry(
    rng: Random,
    form: QuadraticForm,
    factors: int = 3,
    span: int = 5,
) -> Multivector:
    """Product of random plane rotors and unit blades.

    Each factor satisfies g * conjugate(g) = 1, so the product does too.
    With a single generator only unit blades are available.
    """
    g = form.one()
    gram = form.gram_diagonal()
    unit_masks = [m for m in range(1, form.dim) if gram[m] == form.field.one]
    for _ in range(factors):
        if form.n >= 2 and (not unit_masks or rng.random() < 0.75):
            i, j = sorted(rng.sample(range(1, form.n + 1), 2))
            rotor = None
            while rotor is None:
                rotor = plane_rotor(form, i, j, random_element(rng, form.field, span))
            g = g * rotor
        elif unit_masks:
            mask = rng.choice(unit_masks)
            g = g * form.basis_blade(mask)
    return g
