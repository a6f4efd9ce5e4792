"""Operators attached to algebra elements.

Left and right translation by a fixed element are linear maps on the
underlying 2^n-dimensional coefficient space; their exact determinants
decide zero-divisorhood and invertibility.  This module also builds the
algebra isomorphism induced by a linear change of generators that carries
one diagonal form to another, and runs the linear-system solver probing
how far the axioms of the canonical pairing pin it down in low dimension.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from . import caps, linalg
from .core import (
    Multivector,
    QuadraticForm,
    anticommute_parity,
    reorder_parity,
    sign_mask,
)
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    MismatchedForm,
    NotEquivalent,
    NotInvertible,
    SingularTransformation,
    ZeroElement,
)


def _translation_matrix(a: Multivector, left: bool) -> tuple:
    """Integer rows of c T and the scale c, for T the matrix of y -> a * y
    when ``left``, else of y -> y * a (columns index the input); over F_p
    c = 1 and the cells are ints left unreduced, which every caller reduces.
    The README's design notes derive the cells and signs.
    """
    form = a.form
    dim = form.dim
    d, squares = form.square_table()
    masks = a.support()
    ints, d_a = form.field.scaled([a.coeffs[m] for m in masks])
    rows = [[0] * dim for _ in range(dim)]
    for mi, ci in zip(masks, ints):
        w = sign_mask(mi, left)
        cell = [ci * s for s in squares]
        for mj in range(dim):
            v = cell[mi & mj]
            rows[mi ^ mj][mj] = -v if (mj & w).bit_count() & 1 else v
    return rows, d_a * d


def _field_matrix(a: Multivector, left: bool) -> list:
    """The translation matrix in field elements: c T divided by c, each
    distinct cell value converted once."""
    rows, scale = _translation_matrix(a, left)
    values = list({v for row in rows for v in row})
    cells = dict(zip(values, a.form.field.quotients(values, scale)))
    return [[cells[v] for v in row] for row in rows]


def left_matrix(a: Multivector) -> list:
    """Matrix of y -> a * y in the blade basis (columns index the input).

    Each cell is written once, as ±a_i sq(i & j) at row i xor j of column j.
    """
    return _field_matrix(a, True)


def right_matrix(a: Multivector) -> list:
    """Matrix of y -> y * a in the blade basis (columns index the input).

    Built like :func:`left_matrix`, with the sign read from e_j e_i.
    """
    return _field_matrix(a, False)


def _unit_route(a: Multivector, invert: bool) -> tuple:
    """det L_a, and with ``invert`` the coefficients of a^-1 (None when a is a
    zero divisor), from one exact elimination.  Over F_p it eliminates phi(a),
    with I beside it to invert, and det L_a = det phi(a)^(2^n / D); over Q the
    integer rows c L_a, with c e_0 beside them, and det L_a = det(c L_a) / c^(2^n).
    The README derives both."""
    form, f, p = a.form, a.form.field, a.form.field.p
    if p:
        split = form.split()
        rows, c, power = split.matrix(a.coeffs), 1, 1 << form.n // 2
        width = len(rows)
    else:
        rows, c = _translation_matrix(a, True)
        power, width = 1, 1
    if invert:
        rows = [row + [c * (i == j) for j in range(width)] for i, row in enumerate(rows)]
    det, ys = linalg._eliminate(rows, len(rows), p)
    value = f.quotients((pow(det, power, p),), c**form.dim)[0]
    if not (invert and det):
        return value, None
    return value, split.coefficients(ys, det) if p else f.quotients([y[0] for y in ys], det)


def translation_determinants(a: Multivector) -> tuple:
    """Exact determinants (left, right) of the two translations by ``a``.

    They are equal (R_a = G^-1 L_a^T G), so one elimination gives both.
    """
    value = _unit_route(a, False)[0]
    return value, value


def is_zero_divisor(a: Multivector) -> bool:
    """True when a nonzero ``a`` kills some nonzero element on either side.

    In a finite-dimensional algebra left translation by ``a`` is invertible
    exactly when right translation is, so the left determinant decides.
    """
    if a.is_zero():
        raise ZeroElement("zero-divisor test needs a nonzero element")
    return not translation_determinants(a)[0]


def is_invertible(a: Multivector) -> bool:
    if a.is_zero():
        raise ZeroElement("invertibility test needs a nonzero element")
    return not is_zero_divisor(a)


def inverse(a: Multivector) -> Multivector:
    """Two-sided inverse of ``a``; raises :class:`NotInvertible` otherwise."""
    if a.is_zero():
        raise ZeroElement("the zero element has no inverse")
    coeffs = _unit_route(a, True)[1]
    if coeffs is None:
        raise NotInvertible("zero divisor")
    form = a.form
    inv = form.multivector(coeffs)
    if a * inv != form.one() or inv * a != form.one():
        raise InternalInconsistency("one-sided inverse failed the two-sided check")
    return inv


def pairing_adjoint(rows: list, form: QuadraticForm) -> list:
    """Adjoint of a matrix with respect to the canonical diagonal pairing."""
    gram = form.gram_diagonal()
    dim = form.dim
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise DimensionMismatch("adjoint needs a dim x dim matrix")
    f = form.field
    inv = [f.inv(g) for g in gram]
    return [[inv[a] * rows[b][a] * gram[b] for b in range(dim)] for a in range(dim)]


# -- equivalence of forms ------------------------------------------------


@dataclass
class AlgebraMap:
    """Algebra homomorphism induced by a generator substitution.

    ``blade_images[I]`` is the image of basis blade I; applying the map is
    plain linear extension.  Construction verifies multiplicativity on all
    blade pairs up to the stated cap.
    """

    source: QuadraticForm
    target: QuadraticForm
    vector_matrix: list
    blade_images: list = dc_field(repr=False)

    def apply(self, x: Multivector) -> Multivector:
        if x.form != self.source:
            raise MismatchedForm("element does not live over the map's source form")
        out = [self.target.field.zero] * self.target.dim
        for mask, c in x.terms():
            for k, v in self.blade_images[mask].terms():
                out[k] = out[k] + c * v
        return Multivector._make(self.target, tuple(out))

    def inverse(self) -> "AlgebraMap":
        """The inverse map, from the adjoint: construction checked
        t^T G_target t = G_source, so t^-1 = G_source^-1 t^T G_target."""
        t, q_source, q_target = self.vector_matrix, self.source.diag, self.target.diag
        inv = [[t[j][i] * q / q_source[i] for j, q in enumerate(q_target)] for i in range(len(t))]
        return equivalence_isomorphism(inv, self.target, self.source)

    def verify_multiplicative(self) -> bool:
        """Check map(x*y) = map(x)*map(y) on every pair of basis blades."""
        src = self.source
        for a in range(src.dim):
            img_a = self.blade_images[a]
            for b in range(src.dim):
                coef, k = src.blade_product(a, b)
                if img_a * self.blade_images[b] != self.blade_images[k] * coef:
                    return False
        return True


def equivalence_isomorphism(
    t: list, source: QuadraticForm, target: QuadraticForm
) -> AlgebraMap:
    """Algebra isomorphism from the substitution e_j -> sum_i t[i][j] e_i.

    ``t`` must be an invertible n x n matrix whose substitution pulls the
    target's form back to the source's, i.e. transpose(t) G_target t =
    G_source on the generators; otherwise :class:`NotEquivalent`.  The
    resulting map sends a source blade to the ordered product of its
    generators' images and is multiplicative; construction checks that on
    all blade pairs up to rank ``caps.MULTIPLICATIVITY``.
    """
    if source.field != target.field or source.n != target.n:
        raise MismatchedForm("equivalence needs two forms of equal rank over one field")
    f = source.field
    n = source.n
    if len(t) != n or any(len(row) != n for row in t):
        raise DimensionMismatch(f"substitution matrix must be {n} x {n}")
    rows = [[f.element(v) for v in row] for row in t]
    if not linalg.determinant(rows, f):
        raise SingularTransformation("substitution matrix is singular")

    # Pullback condition on generators: images must be orthogonal with the
    # source's squared lengths.
    for a in range(n):
        for b in range(a, n):
            acc = f.zero
            for i in range(n):
                if rows[i][a] and rows[i][b]:
                    acc = acc + rows[i][a] * target.diag[i] * rows[i][b]
            want = source.diag[a] if a == b else f.zero
            if acc != want:
                raise NotEquivalent(
                    f"substitution does not carry the form: generator pair ({a + 1}, {b + 1})"
                )

    gen_images = [target.vector([rows[i][j] for i in range(n)]) for j in range(n)]
    blade_images: list = [target.one()]
    for mask in range(1, source.dim):
        low = mask & -mask
        rest = mask ^ low
        img = gen_images[low.bit_length() - 1]
        blade_images.append(img * blade_images[rest] if rest else img)
    amap = AlgebraMap(source, target, rows, blade_images)
    if n <= caps.MULTIPLICATIVITY and not amap.verify_multiplicative():
        raise InternalInconsistency("constructed map failed multiplicativity")
    return amap


# -- uniqueness of the canonical pairing ---------------------------------


@dataclass(frozen=True)
class UniquenessReport:
    """Outcome of solving the pairing axioms as a linear system.

    The adjunction laws are written for the generators only, which gives
    the same solution set as writing them for every basis element (see
    :func:`pairing_uniqueness_report`), so every field is that of the full
    axiom system.  ``kernel`` holds one symmetric matrix per free direction
    of the solution set (empty when the solution is unique).
    ``kernel_is_volume_twist`` is set when the nullity is exactly one: it
    records whether that free direction is spanned by the volume-twisted
    pairing ``D(x, y) = B(x, omega * y)``, the only way the axioms below
    fail to pin the pairing down (this happens precisely when n = 3 mod 4,
    where the volume blade is central and fixed by conjugation).
    """

    n: int
    unknowns: int
    rank: int
    nullity: int
    consistent: bool
    unique: bool
    matches_canonical: bool
    solution: Optional[tuple]
    kernel: tuple = ()
    kernel_is_volume_twist: Optional[bool] = None


def pairing_uniqueness_report(
    form: QuadraticForm, require_parity_invariance: bool = False
) -> UniquenessReport:
    """Set up the axioms of the canonical pairing as linear equations.

    Unknowns are the values B(e_A, e_B) on unordered pairs of basis blades
    (symmetry built in).  Equations: B(1, 1) = 1; B restricted to grade one
    equals the quadratic form; and both adjointness laws
    B(x y, z) = B(y, c(x) z) and B(y x, z) = B(y, z c(x)) for every
    generator x = e_g (c(e_g) = -e_g) and all basis blades y = e_b, z = e_c.
    The elements x that satisfy a law for all y and z form a
    subalgebra, because c reverses products:
    B(x1 x2 y, z) = B(x2 y, c(x1) z) = B(y, c(x2) c(x1) z) = B(y, c(x1 x2) z),
    and likewise on the right.  The generators span V, which generates the
    algebra, so these rows have the solutions of the laws on all basis
    triples.  The rows of (b, c), (c, b), (g^c, g^b) and (g^b, g^c) are
    multiples of one row, as coef(g, x) coef(g, g^x) = d squares[g], so one
    per orbit is written; the right-law row is ± the left-law row unless e_g
    commutes with just one of e_b and e_c, and only then is it written.  The
    report records whether the system has exactly one solution and whether
    it is the canonical pairing.

    That axiom list does not always force uniqueness.  When n = 3 mod 4
    the volume blade omega is central and conjugation fixes it, so
    B(x, omega * y) is itself symmetric, vanishes on scalars and on grade
    one, and satisfies both adjointness laws; adding any multiple of it to
    the canonical pairing produces another solution.  Passing
    ``require_parity_invariance=True`` additionally imposes
    B(alpha(x), alpha(y)) = B(x, y) for the parity involution alpha, which
    kills the twisted family and restores a unique solution.
    """
    caps.require("UNIQUENESS_SOLVE", form.n)
    f = form.field
    dim = form.dim

    def unknown(a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        # Index into the packed upper triangle, row-major.
        return a * dim - a * (a - 1) // 2 + (b - a)

    unknowns = dim * (dim + 1) // 2

    def equation(*cells: tuple) -> list:
        # The dense int row of [A | -b] with the entries (column, value) added.
        vec = [0] * (unknowns + 1)
        for col, v in cells:
            vec[col] += v
        return vec

    # B(1, 1) = 1 and B on grade one is the form.
    rows = [equation((unknown(0, 0), 1), (unknowns, -1))]
    for i in range(form.n):
        for j in range(i, form.n):
            (b, c), _ = f.scaled([form.diag[i] if i == j else 0, 1])
            rows.append(equation((unknown(1 << i, 1 << j), c), (unknowns, -b)))

    if require_parity_invariance:
        # B(alpha(e_a), alpha(e_b)) = B(e_a, e_b) forces the entry to zero
        # whenever the two parity signs disagree.
        rows += [
            equation((unknown(a, b), 1))
            for a in range(dim)
            for b in range(a, dim)
            if (a ^ b).bit_count() & 1
        ]

    # e_a e_b = (coef(a, b) / d) e_(a ^ b), as ints from the square table.
    d, squares = form.square_table()

    def coef(a: int, b: int) -> int:
        return -squares[a & b] if reorder_parity(a, b) else squares[a & b]

    for g in (1 << k for k in range(form.n)):
        for b in range(dim):
            for c in range(b, dim):
                if (b, c) > (min(g ^ b, g ^ c), max(g ^ b, g ^ c)):  # not the orbit's least
                    continue
                # B(e_g e_b, e_c) = -B(e_b, e_g e_c) and B(e_b e_g, e_c) = -B(e_b, e_c e_g).
                u, v = unknown(g ^ b, c), unknown(b, g ^ c)
                rows.append(equation((u, coef(g, b)), (v, coef(g, c))))
                if anticommute_parity(g, b) != anticommute_parity(g, c):
                    rows.append(equation((u, coef(b, g)), (v, coef(c, g))))

    solution, nullity, consistent, kernel_vecs = linalg.affine_space(rows, unknowns, f)
    rank = unknowns - nullity
    unique = consistent and nullity == 0

    def unpack(vec: list) -> tuple:
        return tuple(tuple(vec[unknown(a, b)] for b in range(dim)) for a in range(dim))

    # The canonical pairing is the Gram diagonal: B(e_a, e_b) = g_a when a = b, else 0.
    gram = form.gram_diagonal()
    matrix = None if solution is None else unpack(solution)
    matches = matrix is not None and all(
        matrix[a][b] == (gram[a] if a == b else f.zero) for a in range(dim) for b in range(dim)
    )
    kernel = tuple(unpack(vec) for vec in kernel_vecs)

    twist = None
    if nullity == 1:
        # Proportional to B(x, omega y): the same support and one ratio.
        # omega e_b = (coef(full, b) / d) e_(full ^ b), so B(e_a, omega e_b)
        # is that coefficient times g_a on the cells a = full ^ b, else 0.
        full = form.full_mask
        gen = [v for row in kernel[0] for v in row]
        tw = [f.zero] * (dim * dim)
        for b, num in enumerate(f.quotients([coef(full, b) for b in range(dim)], d)):
            tw[(full ^ b) * dim + b] = num * gram[full ^ b]
        i = next(i for i, v in enumerate(gen) if v)
        ratio = f.div(gen[i], tw[i]) if tw[i] else None
        twist = ratio is not None and all(g == ratio * t for g, t in zip(gen, tw))

    return UniquenessReport(
        n=form.n,
        unknowns=unknowns,
        rank=rank,
        nullity=nullity,
        consistent=consistent,
        unique=unique,
        matches_canonical=matches,
        solution=matrix,
        kernel=kernel,
        kernel_is_volume_twist=twist,
    )
