"""Exact linear algebra over a :class:`~cliffex.field.FieldSpec`.

Dense routines (determinant, solve, inverse) work on lists of lists of
field elements and share one fraction-free Bareiss core, ``_eliminate``.
It runs on plain ints, integers over the rationals and residues over F_p,
and yields the determinant and the solution together.  The public
routines reach it through one boundary step, ``_integer_rows``, that
scales each row of field elements to ints; callers that already hold
integer rows (the translation operators) pass them straight in.

Sparse routines work on rows stored as ``{column: value}`` dicts.  The
linear systems built downstream (centralizer conditions, bilinear-form
axioms) have one or two nonzeros per row, so the sparse reduction never
fills in and handles thousands of columns comfortably.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import DimensionMismatch
from .field import FieldElement, FieldSpec, Fp

Matrix = list  # list[list[FieldElement]] by convention


def identity_matrix(dim: int, field: FieldSpec) -> Matrix:
    z, o = field.zero, field.one
    return [[o if i == j else z for j in range(dim)] for i in range(dim)]


def mat_mul(a: Matrix, b: Matrix, field: FieldSpec) -> Matrix:
    if len(a[0]) != len(b):
        raise DimensionMismatch(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    z = field.zero
    cols = len(b[0])
    out = []
    for row in a:
        acc = [z] * cols
        for k, aik in enumerate(row):
            if not aik:
                continue
            brow = b[k]
            for j in range(cols):
                if brow[j]:
                    acc[j] = acc[j] + aik * brow[j]
        out.append(acc)
    return out


def mat_vec(a: Matrix, v: Sequence[FieldElement], field: FieldSpec) -> list:
    if len(a[0]) != len(v):
        raise DimensionMismatch(f"{len(a)}x{len(a[0])} matrix times length-{len(v)} vector")
    z = field.zero
    out = []
    for row in a:
        s = z
        for x, y in zip(row, v):
            if x and y:
                s = s + x * y
        out.append(s)
    return out


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def _eliminate(rows: list, n: int, p: Optional[int]) -> tuple:
    """Fraction-free elimination of an integer augmented system, in place.

    Each of the ``n`` rows holds a row of the square matrix A and then its
    right-hand sides (none for a bare determinant); over F_p the entries
    are residues in [0, p).  Returns ``(det, ys)``: ``det`` is det A as an
    int (a residue over F_p), and ``ys`` holds the rows of det * x for the
    solution x of A x = rhs, or is None when det = 0.

    Forward elimination is Bareiss's recurrence: every entry it produces is
    a minor of the input, so the division by the previous pivot is exact;
    over F_p each pivot is inverted once instead.  Back substitution then
    computes the integral Cramer numerators det * x.
    """
    if n == 0:
        return 1, []
    sign = 1
    prev = 1  # previous pivot over Q, its inverse over F_p
    inverses = []
    for k in range(n):
        for r in range(k, n):
            if rows[r][k]:
                break
        else:
            return 0, None
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            sign = -sign
        pivot_row = rows[k]
        piv = pivot_row[k]
        tail = pivot_row[k + 1:]
        for row in rows[k + 1:]:
            f = row[k]
            if p is None:
                row[k + 1:] = [(x * piv - f * y) // prev for x, y in zip(row[k + 1:], tail)]
            else:
                row[k + 1:] = [(x * piv - f * y) * prev % p for x, y in zip(row[k + 1:], tail)]
        if p is None:
            prev = piv
        else:
            prev = pow(piv, -1, p)
            inverses.append(prev)
    det = sign * rows[-1][n - 1]
    if p is not None:
        det %= p
    ys = [None] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = [det * b for b in row[n:]]
        if acc:
            for j in range(i + 1, n):
                c = row[j]
                if c:
                    acc = [s - c * y for s, y in zip(acc, ys[j])]
        if p is None:
            ys[i] = [s // row[i] for s in acc]
        else:
            ys[i] = [s * inverses[i] % p for s in acc]
    return det, ys


def _integer_rows(a: Matrix, rhs: Matrix, field: FieldSpec) -> tuple:
    """The rows of ``[a | rhs]`` as ints for :func:`_eliminate`, and their scale.

    Over Q each row is multiplied by the lcm of its denominators and the
    scale is the product of those multipliers, so det a = det / scale.
    Over F_p the entries become residues and the scale is 1.
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(rhs) != n:
        raise DimensionMismatch("elimination needs a square system")
    if field.p is not None:
        return [[field.element(c).residue for c in (*row, *extra)] for row, extra in zip(a, rhs)], 1
    rows = []
    scale = 1
    for row, extra in zip(a, rhs):
        full = [*row, *extra]
        mult = lcm(*(c.denominator for c in full))
        rows.append([c.numerator * (mult // c.denominator) for c in full])
        scale *= mult
    return rows, scale


def _quotients(nums: Sequence[int], den: int, field: FieldSpec) -> list:
    """The field elements v / den for the ints v in ``nums``; den != 0 in the field."""
    p = field.p
    if p is None:
        return [Fraction(v, den) for v in nums]
    inv = pow(den, -1, p)
    return [Fp(v * inv, p) for v in nums]


def _solve(a: Matrix, rhs: Matrix, field: FieldSpec) -> Optional[Matrix]:
    rows, _ = _integer_rows(a, rhs, field)
    det, ys = _eliminate(rows, len(rows), field.p)
    return None if ys is None else [_quotients(y, det, field) for y in ys]


def determinant(rows: Matrix, field: FieldSpec) -> FieldElement:
    """Exact determinant of a square matrix over ``field``."""
    m, scale = _integer_rows(rows, [[] for _ in rows], field)
    return _quotients([_eliminate(m, len(m), field.p)[0]], scale, field)[0]


def solve_dense(a: Matrix, b: Sequence[FieldElement], field: FieldSpec) -> Optional[list]:
    """Solve ``a x = b`` exactly; None when ``a`` is singular."""
    x = _solve(a, [[v] for v in b], field)
    return None if x is None else [row[0] for row in x]


def invert_matrix(a: Matrix, field: FieldSpec) -> Optional[Matrix]:
    """Exact inverse of a square matrix; None when singular."""
    return _solve(a, identity_matrix(len(a), field), field)


# -- sparse reduction ----------------------------------------------------


def _sparse_rref(rows: list, field: FieldSpec, rhs: Optional[list] = None):
    """Reduce sparse rows to reduced row echelon form.

    ``rows`` is a list of ``{col: value}`` dicts; ``rhs`` an optional list
    of right-hand sides carried through the elimination.  Returns
    ``(pivot_rows, pivot_rhs, inconsistent)`` where ``pivot_rows`` maps a
    pivot column to its fully reduced row (pivot entry 1) and
    ``inconsistent`` flags a 0 = nonzero row.

    Rows are taken in order.  Each is reduced against the stored pivot
    rows, normalised at its lowest column, and that column is then cleared
    from the stored rows that hold it.  Those rows are found through an
    index from each non-pivot column to the pivot columns whose rows hold
    it, so a new pivot costs the rows it touches, not a sweep of them all.
    """
    pivot_rows: dict = {}
    pivot_rhs: dict = {}
    holders: dict = {}  # non-pivot column -> pivot columns whose rows hold it
    inconsistent = False
    use_rhs = rhs is not None
    zero = field.zero
    for idx, raw in enumerate(rows):
        row = {c: v for c, v in raw.items() if v}
        r = field.element(rhs[idx]) if use_rhs else None
        # Stored rows are fully reduced, so subtracting one brings in no
        # other pivot column: every pivot column of the row goes in one pass.
        for c0 in sorted(row.keys() & pivot_rows.keys()):
            f = row.pop(c0)
            for c, v in pivot_rows[c0].items():
                if c == c0:
                    continue
                nv = row.get(c, zero) - f * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
            if use_rhs:
                r = r - f * pivot_rhs[c0]
        if not row:
            if use_rhs and r:
                inconsistent = True
            continue
        lead = min(row)
        inv = field.inv(row[lead])
        row = {c: v * inv for c, v in row.items()}
        if use_rhs:
            r = r * inv
        # Knock the new pivot column out of the stored rows that hold it.
        for pc in holders.pop(lead, ()):
            prow = pivot_rows[pc]
            f = prow.pop(lead)
            for c, v in row.items():
                if c == lead:
                    continue
                nv = prow.get(c, zero) - f * v
                if nv:
                    if c not in prow:
                        holders.setdefault(c, set()).add(pc)
                    prow[c] = nv
                elif c in prow:
                    del prow[c]
                    holders[c].discard(pc)
            if use_rhs:
                pivot_rhs[pc] = pivot_rhs[pc] - f * r
        for c in row:
            if c != lead:
                holders.setdefault(c, set()).add(lead)
        pivot_rows[lead] = row
        if use_rhs:
            pivot_rhs[lead] = r
    return pivot_rows, pivot_rhs, inconsistent


def _kernel(pivot_rows: dict, ncols: int, field: FieldSpec) -> list:
    z, o = field.zero, field.one
    basis = []
    for free in range(ncols):
        if free in pivot_rows:
            continue
        vec = [z] * ncols
        vec[free] = o
        for pc, prow in pivot_rows.items():
            coef = prow.get(free)
            if coef:
                vec[pc] = -coef
        basis.append(vec)
    return basis


def _particular(pivot_rows: dict, pivot_rhs: dict, inconsistent: bool, ncols: int,
                field: FieldSpec) -> tuple:
    nullity = ncols - len(pivot_rows)
    if inconsistent:
        return None, nullity, False
    vec = [field.zero] * ncols
    for pc in pivot_rows:
        vec[pc] = pivot_rhs[pc]
    return vec, nullity, True


def kernel_basis(rows: list, ncols: int, field: FieldSpec) -> list:
    """Basis of the null space of a sparse homogeneous system.

    Returns one dense coefficient vector per free column, in ascending
    column order, each with a 1 in its free slot.
    """
    return _kernel(_sparse_rref(rows, field)[0], ncols, field)


def affine_solve(rows: list, rhs: list, ncols: int, field: FieldSpec):
    """Solve a sparse inhomogeneous system ``A x = b``.

    Returns ``(solution, nullity, consistent)``; the solution (free
    variables set to 0) is None when the system is inconsistent.
    """
    return _particular(*_sparse_rref(rows, field, rhs), ncols, field)


def affine_space(rows: list, rhs: list, ncols: int, field: FieldSpec):
    """:func:`affine_solve` and :func:`kernel_basis` of one system, from one
    reduction: the right-hand sides ride along and do not change the pivots.

    Returns ``(solution, nullity, consistent, kernel)``.
    """
    reduced = _sparse_rref(rows, field, rhs)
    return (*_particular(*reduced, ncols, field), _kernel(reduced[0], ncols, field))


def rank_sparse(rows: list, field: FieldSpec) -> int:
    pivot_rows, _, _ = _sparse_rref(rows, field)
    return len(pivot_rows)


def in_span(vectors: list, target: Sequence[FieldElement], field: FieldSpec) -> bool:
    """True when ``target`` is a linear combination of ``vectors``.

    Treats each vector as a column of a (dense coordinates, sparse storage)
    system and solves for the combination exactly.
    """
    if not any(target):
        return True
    if not vectors:
        return False
    length = len(target)
    rows = []
    rhs = []
    for i in range(length):
        row = {j: vec[i] for j, vec in enumerate(vectors) if vec[i]}
        rows.append(row)
        rhs.append(target[i])
    _, _, inconsistent = _sparse_rref(rows, field, rhs)
    return not inconsistent
