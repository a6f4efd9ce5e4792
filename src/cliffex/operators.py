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
from math import lcm
from typing import Optional

from . import caps, linalg
from .core import (
    Multivector,
    QuadraticForm,
    conjugate_sign,
    involute_sign,
    reorder_parity,
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
from .field import FieldElement


def _translation_matrix(a: Multivector, left: bool) -> tuple:
    """Integer rows of c T and the scale c, for T the matrix of y -> a * y
    when ``left``, else of y -> y * a (columns index the input).

    Column mj of T is the image of e_mj.  The term ci e_mi of ``a`` sends it
    to ±ci sq(mi & mj) e_(mi ^ mj), the sign being the reorder parity of
    (mi, mj) on the left and of (mj, mi) on the right.  For a fixed mj the
    map mi -> mi ^ mj is injective, so each cell is written once, as
    ±(ci d_a)(d sq(mi & mj)) with d_a the common denominator of the
    coefficients of ``a`` and d that of the form's square table; then
    c = d_a d.  Over F_p the cells are residues and c = 1.

    The reorder parity is additive in each argument over GF(2), so for a
    fixed mi it is the parity of mj & w, with w the generators whose own
    parity against mi is odd.
    """
    form = a.form
    dim = form.dim
    p = form.field.p
    d, squares = form.square_table()
    if p is None:
        d_a = lcm(*(c.denominator for _, c in a.terms()))
        terms = [(m, c.numerator * (d_a // c.denominator)) for m, c in a.terms()]
        scale, neg = d_a * d, 0
    else:
        terms = [(m, c.residue) for m, c in a.terms()]
        scale, neg = 1, p
    rows = [[0] * dim for _ in range(dim)]
    for mi, ci in terms:
        w = sum(
            1 << b
            for b in range(form.n)
            if (reorder_parity(mi, 1 << b) if left else reorder_parity(1 << b, mi))
        )
        cell = [ci * s % p for s in squares] if p else [ci * s for s in squares]
        for mj in range(dim):
            v = cell[mi & mj]
            rows[mi ^ mj][mj] = neg - v if (mj & w).bit_count() & 1 else v
    return rows, scale


def _field_matrix(a: Multivector, left: bool) -> list:
    """The translation matrix in field elements: c T divided by c, each
    distinct cell value converted once."""
    rows, scale = _translation_matrix(a, left)
    values = list({v for row in rows for v in row})
    cells = dict(zip(values, linalg._quotients(values, scale, a.form.field)))
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


def translation_determinants(a: Multivector) -> tuple:
    """Exact determinants (left, right) of the two translations by ``a``.

    They are equal, so one elimination of c L_a gives both, as
    det(c L_a) / c^dim.  The scalar part tau has tau(x y) = tau(y x) and
    the pairing b(u, v) = tau(u v) has the nonzero diagonal Gram matrix G
    of the blade squares; b(a u, v) = b(u, v a) then reads L_a^T G = G R_a,
    so R_a = G^-1 L_a^T G has the determinant of L_a in every field of
    characteristic other than 2.
    """
    rows, scale = _translation_matrix(a, True)
    dim = a.form.dim
    det = linalg._eliminate(rows, dim, a.form.field.p)[0]
    value = linalg._quotients((det,), scale**dim, a.form.field)[0]
    return value, value


def is_zero_divisor(a: Multivector) -> bool:
    """True when a nonzero ``a`` kills some nonzero element on either side.

    In a finite-dimensional algebra left translation by ``a`` is invertible
    exactly when right translation is, so the left determinant decides.
    """
    if a.is_zero():
        raise ZeroElement("zero-divisor test needs a nonzero element")
    rows, _ = _translation_matrix(a, True)
    return not linalg._eliminate(rows, a.form.dim, a.form.field.p)[0]


def is_invertible(a: Multivector) -> bool:
    if a.is_zero():
        raise ZeroElement("invertibility test needs a nonzero element")
    return not is_zero_divisor(a)


def inverse(a: Multivector) -> Multivector:
    """Two-sided inverse of ``a``; raises :class:`NotInvertible` otherwise.

    Solves c L_a y = c e_0 on the integer rows of c L_a.
    """
    if a.is_zero():
        raise ZeroElement("the zero element has no inverse")
    form = a.form
    rows, scale = _translation_matrix(a, True)
    for i, row in enumerate(rows):
        row.append(0 if i else scale)
    det, ys = linalg._eliminate(rows, form.dim, form.field.p)
    if ys is None:
        raise NotInvertible("zero divisor")
    inv = form.multivector(linalg._quotients([row[0] for row in ys], det, form.field))
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
        acc = self.target.zero()
        for mask, c in x.terms():
            acc = acc + self.blade_images[mask] * c
        return acc

    def matrix(self) -> list:
        """Dense dim x dim matrix of the map (columns index source blades)."""
        dim = self.source.dim
        zero = self.target.field.zero
        rows = [[zero] * dim for _ in range(dim)]
        for j in range(dim):
            img = self.blade_images[j]
            for i in range(dim):
                rows[i][j] = img.coeffs[i]
        return rows

    def inverse(self) -> "AlgebraMap":
        inv = linalg.invert_matrix(self.vector_matrix, self.source.field)
        if inv is None:
            raise SingularTransformation("generator matrix is singular")
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

    ``kernel`` holds one symmetric matrix per free direction of the solution
    set (empty when the solution is unique).  ``kernel_is_volume_twist`` is
    set when the nullity is exactly one: it records whether that free
    direction is spanned by the volume-twisted pairing
    ``D(x, y) = B(x, omega * y)``, the only way the axioms below fail to
    pin the pairing down (this happens precisely when n = 3 mod 4, where
    the volume blade is central and fixed by conjugation).
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
    B(x y, z) = B(y, c(x) z) and B(y x, z) = B(y, z c(x)) on all basis
    triples.  The report records whether the system has exactly one
    solution and whether it is the canonical pairing.

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
    # B(1, 1) = 1 and B on grade one is the form, as integer rows.
    grade_one = [(i, j) for i in range(form.n) for j in range(i, form.n)]
    rows, rhs = linalg._integer_system(
        [{unknown(0, 0): 1}] + [{unknown(1 << i, 1 << j): 1} for i, j in grade_one],
        [1] + [form.diag[i] if i == j else 0 for i, j in grade_one],
        f,
    )

    if require_parity_invariance:
        # B(alpha(e_a), alpha(e_b)) = B(e_a, e_b) forces the entry to zero
        # whenever the two parity signs disagree.
        for a in range(dim):
            for b in range(a, dim):
                if involute_sign(a) * involute_sign(b) < 0:
                    rows.append({unknown(a, b): 1})
                    rhs.append(0)

    # e_a e_b = (prods[a][b] / d) e_(a ^ b), as ints from the square table.
    d, squares = form.square_table()
    prods = [
        [-squares[a & b] if reorder_parity(a, b) else squares[a & b] for b in range(dim)]
        for a in range(dim)
    ]

    def law(lam: int, key: int, mu: int, key2: int) -> None:
        # The row lam x_key - mu x_key2 = 0, dropped when it reads 0 = 0.
        row = {key: lam, key2: -mu} if key != key2 else {key: lam - mu}
        if any(v % f.p if f.p else v for v in row.values()):
            rows.append(row)
            rhs.append(0)

    for a in range(dim):
        csign = conjugate_sign(a)
        for b in range(dim):
            for c in range(dim):
                # Left-translation law: B(x y, z) = B(y, c(x) z).
                law(prods[a][b], unknown(a ^ b, c), csign * prods[a][c], unknown(b, a ^ c))
                # Right-translation law: B(y x, z) = B(y, z c(x)).
                law(prods[b][a], unknown(b ^ a, c), csign * prods[c][a], unknown(b, c ^ a))

    solution, nullity, consistent, kernel_vecs = linalg.affine_space(rows, rhs, unknowns, f)
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
        # omega e_b = (prods[full][b] / d) e_(full ^ b), so B(e_a, omega e_b)
        # is that coefficient times g_a on the cells a = full ^ b, else 0.
        full = form.full_mask
        gen = [v for row in kernel[0] for v in row]
        tw = [f.zero] * (dim * dim)
        for b, num in enumerate(linalg._quotients(prods[full], d, f)):
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
