"""Structure theory: isometry Lie algebra, centers, Killing form.

The composite involution c (involution then reversal) is a linear map with
eigenvalues ±1; its (-1)-eigenspace is spanned by the blades of grade 1 or
2 mod 4 and is closed under commutators.  That space is the Lie algebra of
infinitesimal isometries of the canonical pairing, and everything in this
module works in its blade basis:

* one bracket, [e_a, e_b] = (c / d) e_(a xor b) with c an int read from
  the form's square table, which the centre solve, the adjoint matrices
  and the trace route of the Killing form all read;
* centers of the full algebra and of the Lie algebra, both by a closed
  form and by reading the diagonal centralizer equations blade by blade;
* the Killing form, diagonal in the blade basis, each entry 4 m s where s
  is the blade's scalar square and m counts anticommuting basis blades of
  the Lie algebra;
* the splitting into the span of the top blade (when central) and the
  complementary ideal on which the Killing form stays nondegenerate;
* sign facts over ordered fields and the isometry test for group elements.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Callable, Iterable, Optional, Sequence

from . import caps
from .core import (
    Multivector,
    QuadraticForm,
    format_blade,
    reverse_sign,
    sign_mask,
)
from .errors import (
    MismatchedForm,
    NotDefiniteForm,
    NotInLieAlgebra,
    NotInvariantSubspace,
    ParseError,
    UnorderedField,
    ZeroElement,
)
from .field import FieldElement
from .operators import _translation_matrix


def is_lie_blade(mask: int) -> bool:
    """Blades of grade 1 or 2 mod 4 are the (-1)-eigenvectors of c."""
    return mask.bit_count() % 4 in (1, 2)


def lie_blades(form: QuadraticForm) -> tuple:
    return tuple(m for m in range(form.dim) if is_lie_blade(m))


def lie_dimension(n: int) -> int:
    """Closed-form dimension: C(n, k) blades of each grade k of a Lie blade."""
    return sum(comb(n, k) for k in range(n + 1) if is_lie_blade((1 << k) - 1))


def lie_algebra_basis(form: QuadraticForm) -> list:
    return [form.basis_blade(m) for m in lie_blades(form)]


def in_lie_algebra(x: Multivector) -> bool:
    """Membership in the (-1)-eigenspace of the composite involution: c is
    diagonal in the blade basis with signs ±1 and 2 != 0 in the field, so
    c(x) = -x exactly when every term of x sits on a Lie blade."""
    return all(is_lie_blade(m) for m in x.support())


def _brackets(squares: Sequence[int], a: int) -> Callable[[int], int]:
    """The map b -> c with [e_a, e_b] = (c / d) e_(a xor b), for (d,
    ``squares``) a form's square table.  c is the difference of the two
    ordered products, each the integer squares[a & b] signed by its reorder
    parity, read from a's two sign masks.  It is the structure layer's one
    bracket: the centre solve, :func:`ad_matrix` and the Killing trace read it."""
    left, right = sign_mask(a), sign_mask(a, left=False)

    def bracket(b: int) -> int:
        s = squares[a & b]
        return (-s if (b & left).bit_count() & 1 else s) - (
            -s if (b & right).bit_count() & 1 else s)

    return bracket


# -- centers -------------------------------------------------------------


@dataclass(frozen=True)
class CenterDescription:
    """A center computed either by closed form or by exact solve."""

    space: str  # "algebra" or "lie"
    method: str  # "closed_form" or "solve"
    dimension: int
    basis: tuple
    contains_volume: bool


def _centralizer_kernel(form: QuadraticForm, masks: Iterable[int]) -> list:
    """Unit blades e_m, m in ``masks`` ascending, spanning the elements of
    their span that commute with every generator, and so with the algebra.

    The system is diagonal: [e_g, x] = sum_m x_m [e_g, e_m], and [e_g, e_m]
    = (c / d) e_(g xor m) with m -> g xor m injective, so x_m meets each g
    in an equation c x_m = 0 of its own.  e_m is in the kernel when c, from
    the generator's :func:`_brackets`, built once per call, is 0 for every
    g; the loop stops at the first g where it is not.  c is 0 or ±2s for s a
    nonzero square-table entry, so over F_p (p odd) c is 0 in the field
    exactly when it is the int 0.
    """
    _, squares = form.square_table()
    brackets = [_brackets(squares, 1 << k) for k in range(form.n)]
    kernel = []
    for m in masks:
        for bracket in brackets:
            if bracket(m):
                break
        else:
            kernel.append(form.basis_blade(m))
    return kernel


def _center(
    space: str, form: QuadraticForm, method: str, closed: Callable[[], list], masks: Iterable[int]
) -> CenterDescription:
    """The method dispatch of :func:`center` and :func:`lie_center`: the
    basis is ``closed()`` for the closed form, or the centralizer kernel on
    the blades ``masks`` for the solve."""
    if method == "closed_form":
        basis = closed()
    elif method == "solve":
        basis = _centralizer_kernel(form, masks)
    else:
        raise ParseError(f"unknown method {method!r}")
    contains_volume = any(b.coeffs[form.full_mask] for b in basis)
    return CenterDescription(space, method, len(basis), tuple(basis), contains_volume)


def center(form: QuadraticForm, method: str = "closed_form") -> CenterDescription:
    """Center of the full algebra: scalars, plus the top blade when n is odd."""
    def closed():
        return [form.one(), form.volume_element()] if form.n % 2 == 1 else [form.one()]

    return _center("algebra", form, method, closed, range(form.dim))


def _lie_center_blades(form: QuadraticForm) -> list:
    """The Lie centre's closed form: the top blade iff n = 1 mod 4."""
    return [form.volume_element()] if form.n % 4 == 1 else []


def lie_center(form: QuadraticForm, method: str = "closed_form") -> CenterDescription:
    """Center of the Lie algebra: the top-blade line iff n = 1 mod 4.

    For Lie-algebra elements, commuting with every generator (as an
    associative commutator) is again the right system: brackets against
    grade-1 elements generate all the constraints that matter, because the
    generators generate the algebra and the bracket is a derivation in
    each slot.
    """
    return _center("lie", form, method, lambda: _lie_center_blades(form),
                   filter(is_lie_blade, range(form.dim)))


# -- Killing form --------------------------------------------------------


@dataclass(frozen=True)
class KillingRecord:
    """One diagonal entry of the Killing form in the blade basis."""

    mask: int
    blade: str
    anticommuting: int
    square: FieldElement
    value: FieldElement


@lru_cache(maxsize=None)
def _anticommuting_count(n: int, k: int) -> int:
    """Lie blades of rank n anticommuting with a grade-k blade: those of grade
    j sharing i indices with it, C(k, i) C(n - k, j - i) of them, when k j - i is odd."""
    return sum(
        comb(k, i) * comb(n - k, j - i)
        for j in range(n + 1)
        if is_lie_blade((1 << j) - 1)
        for i in range(min(k, j) + 1)
        if (k * j - i) & 1
    )


def killing_count(form: QuadraticForm, mask: int) -> int:
    """Number of Lie-algebra basis blades anticommuting with ``mask``, by its grade."""
    form.check_mask(mask)
    return _anticommuting_count(form.n, mask.bit_count())


def _killing_entries(form: QuadraticForm, masks: Sequence[int]) -> list:
    """``(m, s, 4 m s)`` for each Lie blade in ``masks``: the anticommuting
    count, the blade square s = e_I e_I, read from the form's square table
    as (-1)^(k(k-1)/2) sq(I) at grade k, and the Killing entry.  Each
    distinct pair (m, d s) becomes field elements once."""
    d, squares = form.square_table()
    f = form.field
    seen: dict = {}
    out = []
    for mask in masks:
        m = killing_count(form, mask)
        s = squares[mask] * reverse_sign(mask)
        entry = seen.get((m, s))
        if entry is None:
            sq = f.quotients((s,), d)[0]
            entry = seen[m, s] = (m, sq, f.element(4 * m) * sq)
        out.append(entry)
    return out


def killing_entry(form: QuadraticForm, a: int, b: int) -> FieldElement:
    """Killing form of two basis blades of the Lie algebra.

    Off-diagonal pairs pair to zero by the Z_2^n grading: ad e_a ad e_b sends
    e_c to a multiple of e_(a xor b xor c), never e_c when a != b, so the
    trace is an empty sum.  A diagonal entry is 4 m s with m the
    anticommuting count and s the blade's scalar square.
    """
    if not (is_lie_blade(form.check_mask(a)) and is_lie_blade(form.check_mask(b))):
        raise NotInLieAlgebra("Killing form is defined on Lie-algebra blades")
    if a != b:
        return form.field.zero
    return _killing_entries(form, (a,))[0][2]


def killing_form(form: QuadraticForm, method: str = "count") -> list:
    """All diagonal Killing entries, ascending by blade mask.

    ``method="count"`` uses the anticommutation-count closed form;
    ``method="trace"`` recomputes each entry as tr(ad x ad x), the
    definition, by :func:`_killing_trace`; it is the cross-check, capped,
    and its cost is quadratic in the Lie dimension.
    """
    if method not in ("count", "trace"):
        raise ParseError(f"unknown method {method!r}")
    if method == "trace":
        caps.require("KILLING_TRACE", form.n)
    masks = lie_blades(form)
    records = []
    for mask, (m, sq, value) in zip(masks, _killing_entries(form, masks)):
        if method == "trace":
            value = _killing_trace(form, mask, masks)
        records.append(KillingRecord(mask, format_blade(mask, form.n), m, sq, value))
    return records


def _killing_trace(form: QuadraticForm, a: int, masks: Sequence[int]) -> FieldElement:
    """tr(ad e_a ad e_a) on the span of the unit blades ``masks``.  The map
    sends e_b to (c_b c_(a xor b) / d^2) e_b, c as in :func:`_brackets`, so
    the trace is one integer sum, divided by d^2 once.  The brackets are the
    ordered blade products as they are, so this route, the definition,
    shares nothing with the anticommutation counts it checks."""
    d, squares = form.square_table()
    bracket = _brackets(squares, a)
    total = sum(c * bracket(a ^ b) for b, c in zip(masks, map(bracket, masks)) if c)
    return form.field.quotients((total,), d * d)[0]


def ad_matrix(xi: Multivector, basis: Optional[Sequence[Multivector]] = None) -> list:
    """Matrix of bracketing with ``xi`` on the span of ``basis``, a list of
    distinct unit blades e_b, by default the Lie algebra's blade basis.

    Each term x_a e_a of ``xi`` gets its :func:`_brackets` once, and column
    b gets x_a c / d in row a xor b for each term with c nonzero in the
    field: a -> a xor b is injective, so the terms land on distinct rows.
    Raises :class:`NotInLieAlgebra` when ``xi`` is outside the Lie algebra,
    :class:`MismatchedForm` when a basis element lives over another form,
    and :class:`NotInvariantSubspace` when the basis is not of distinct unit
    blades or some bracket leaves the span, naming the lowest blade that
    leaves it in the first column, in basis order, where one does.
    """
    if not in_lie_algebra(xi):
        raise NotInLieAlgebra("ad is defined for Lie-algebra elements")
    form = xi.form
    f = form.field
    if basis is None:
        masks = lie_blades(form)
    else:
        if any(b.form != form for b in basis):
            raise MismatchedForm("ad_matrix needs a basis over the element's form")
        masks = [s[0] for s in map(Multivector.support, basis) if len(s) == 1]
        if len(set(masks)) < len(basis) or any(b.coeffs[m] != f.one for b, m in zip(basis, masks)):
            raise NotInvariantSubspace("ad_matrix needs a basis of unit blades")
    d, squares = form.square_table()
    unit = f.quotients((1,), d)[0]
    pos = {m: i for i, m in enumerate(masks)}
    rows = [[f.zero] * len(masks) for _ in masks]
    leaving = []
    for a, x_a in xi.terms():
        bracket, scale = _brackets(squares, a), x_a * unit
        for col, b in enumerate(masks):
            if c := bracket(b):
                r = pos.get(a ^ b)
                if r is None:
                    leaving.append((col, a ^ b))
                else:
                    rows[r][col] = scale * c
    if leaving:
        mask = min(leaving)[1]
        raise NotInvariantSubspace(f"bracket leaves the span at blade {format_blade(mask, form.n)}")
    return rows


# -- decomposition -------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """Splitting of the Lie algebra into its center and a Killing-regular ideal."""

    lie_dim: int
    center_basis: tuple
    ideal_masks: tuple
    codim: int
    bracket_closed: bool
    killing_nondegenerate_on_ideal: bool


def decompose(form: QuadraticForm) -> Decomposition:
    """Split the Lie algebra as center, the closed form of :func:`lie_center`,
    plus the ideal of non-top blades.

    When n = 1 mod 4 the top blade is central and the ideal has
    codimension one; otherwise the center is zero and the ideal is
    everything.  Both flags are decided per grade (``checks`` enumerates).
    A bracket of Lie blades is 0 or a multiple of their product, a Lie
    blade, so it leaves the ideal only at the top blade, from a grade-k
    blade and its complement, which anticommute iff k (n - k) is odd.  A
    Killing entry 4 m s has s != 0, so it vanishes iff the grade's count m
    does in the field: over F_p the second flag is False when p divides m.
    """
    n = form.n
    central = tuple(_lie_center_blades(form))
    top = form.full_mask if central else -1
    ideal = tuple(m for m in lie_blades(form) if m != top)
    grades = [k for k in range(1, n + 1) if is_lie_blade((1 << k) - 1) and not (central and k == n)]
    f = form.field
    return Decomposition(
        lie_dim=len(ideal) + len(central),
        center_basis=central,
        ideal_masks=ideal,
        codim=len(central),
        bracket_closed=not (central and any(k * (n - k) & 1 for k in grades)),
        killing_nondegenerate_on_ideal=all(f.element(_anticommuting_count(n, k)) for k in grades),
    )


# -- definiteness over ordered fields ------------------------------------


@dataclass(frozen=True)
class DefinitenessReport:
    """Sign behaviour of the Killing form and pairing on the regular ideal."""

    n: int
    ideal_dim: int
    killing_negative: bool
    pairing_positive: bool
    killing_signs: tuple  # (negative, zero, positive) counts
    pairing_signs: tuple


def definiteness_report(form: QuadraticForm) -> DefinitenessReport:
    """For a positive definite form over an ordered field: B < 0, pairing > 0.

    Checks every blade of the Killing-regular ideal.  Requires the
    rationals (sign queries) and a positive definite diagonal.
    """
    f = form.field
    if not f.is_rational:
        raise UnorderedField("definiteness needs an ordered coefficient field")
    if any(f.sign_of(q) <= 0 for q in form.diag):
        raise NotDefiniteForm("definiteness results need a positive definite form")
    dec = decompose(form)
    gram = form.gram_diagonal()

    def tally(values) -> tuple:
        signs = [f.sign_of(v) for v in values]
        return signs.count(-1), signs.count(0), signs.count(1)

    killing = tally(value for _, _, value in _killing_entries(form, dec.ideal_masks))
    pairing = tally(gram[m] for m in dec.ideal_masks)
    total = len(dec.ideal_masks)
    return DefinitenessReport(
        n=form.n,
        ideal_dim=total,
        killing_negative=killing[0] == total,
        pairing_positive=pairing[2] == total,
        killing_signs=killing,
        pairing_signs=pairing,
    )


# -- isometries of the pairing -------------------------------------------


@dataclass(frozen=True)
class IsometryEvidence:
    """Why an element is (or is not) an isometry of the canonical pairing."""

    isometry: bool
    left_unit: bool
    right_unit: bool
    left_gram_preserved: Optional[bool]
    right_gram_preserved: Optional[bool]
    consistent: bool


def is_isometry(g: Multivector) -> bool:
    """True when g times its conjugate is 1 on both sides."""
    if g.is_zero():
        raise ZeroElement("the zero element cannot be an isometry")
    one = g.form.one()
    c = g.conjugate()
    return g * c == one and c * g == one


def isometry_evidence(g: Multivector) -> IsometryEvidence:
    """Unit condition plus (capped) exact Gram preservation of translations.

    For an isometry, both translations preserve the canonical pairing's
    Gram matrix; the matrix check is skipped (None) above
    ``caps.ISOMETRY_GRAM``.
    """
    if g.is_zero():
        raise ZeroElement("the zero element cannot be an isometry")
    form = g.form
    one = form.one()
    c = g.conjugate()
    left_unit = g * c == one
    right_unit = c * g == one

    left_gram = right_gram = None
    if form.n <= caps.ISOMETRY_GRAM:
        left_gram = _preserves_gram(g, True)
        right_gram = _preserves_gram(g, False)

    isometry = left_unit and right_unit
    consistent = True
    if left_gram is not None:
        consistent = (left_gram == isometry) and (right_gram == isometry)
    return IsometryEvidence(isometry, left_unit, right_unit, left_gram, right_gram, consistent)


def _preserves_gram(g: Multivector, left: bool) -> bool:
    """Exact check that M^T G M = G, for M the left (or right)
    translation by ``g`` and G the diagonal Gram matrix of the pairing, on
    the integer rows c M and k G (k from :meth:`FieldSpec.scaled`): sum_i
    cM[i][a] kG[i] cM[i][b] is c^2 kG[a] when b = a and 0 otherwise.  Column
    by column, visiting only the nonzeros (see the README's design notes),
    and the first mismatch returns.
    """
    form = g.form
    p = form.field.p
    rows, c = _translation_matrix(g, left)
    gram = form.field.scaled(form.gram_diagonal())[0]
    support = g.support()
    for a in range(form.dim):
        acc = {}
        for mi in support:
            i = mi ^ a
            row = rows[i]
            x = row[a] * gram[i]
            for mk in support:
                b = i ^ mk
                acc[b] = acc.get(b, 0) + x * row[b]
        acc[a] -= c * c * gram[a]
        if any(v % p if p else v for v in acc.values()):
            return False
    return True
