"""Exact linear algebra over a :class:`~cliffex.field.FieldSpec`.

Dense routines (determinant, solve, inverse) work on lists of lists of
field elements and share one fraction-free Bareiss core, ``_eliminate``.
It runs on plain ints, rows scaled to integers over the rationals and
residues over F_p, and yields the determinant and the solution together.

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


def _eliminate(a: Matrix, rhs: Matrix, field: FieldSpec):
    """Fraction-free elimination of the augmented system ``[a | rhs]``.

    ``rhs`` holds one row of right-hand sides per row of ``a`` (empty rows
    for a bare determinant).  Returns ``(det, x)`` with ``x`` the rows of
    the solution of ``a x = rhs``, or ``(0, None)`` when ``a`` is singular.

    Forward elimination is Bareiss's recurrence: every entry it produces is
    a minor of the (scaled) input, so the division by the previous pivot is
    exact.  Over Q each row is first scaled to integers; over F_p the
    entries are plain residues and each pivot is inverted once.  Back
    substitution then computes the integral Cramer numerators det * x, and
    those become field elements only at the end.
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(rhs) != n:
        raise DimensionMismatch("elimination needs a square system")
    if n == 0:
        return field.one, []
    p = field.p
    scale = 1
    if p is None:
        rows = []
        for row, extra in zip(a, rhs):
            full = [*row, *extra]
            mult = lcm(*(c.denominator for c in full))
            rows.append([c.numerator * (mult // c.denominator) for c in full])
            scale *= mult
    else:
        rows = [[field.element(c).residue for c in (*row, *extra)] for row, extra in zip(a, rhs)]
    sign = 1
    prev = 1  # previous pivot over Q, its inverse over F_p
    inverses = []
    for k in range(n):
        for r in range(k, n):
            if rows[r][k]:
                break
        else:
            return field.zero, None
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
    det = rows[-1][n - 1]
    ys = [None] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = [det * b for b in row[n:]]
        for j in range(i + 1, n):
            c = row[j]
            if c:
                acc = [s - c * y for s, y in zip(acc, ys[j])]
        if p is None:
            ys[i] = [s // row[i] for s in acc]
        else:
            ys[i] = [s * inverses[i] % p for s in acc]
    if p is None:
        return Fraction(sign * det, scale), [[Fraction(y, det) for y in yrow] for yrow in ys]
    return Fp(sign * det, p), [[Fp(y * inverses[-1], p) for y in yrow] for yrow in ys]


def determinant(rows: Matrix, field: FieldSpec) -> FieldElement:
    """Exact determinant of a square matrix over ``field``."""
    return _eliminate(rows, [[] for _ in rows], field)[0]


def solve_dense(a: Matrix, b: Sequence[FieldElement], field: FieldSpec) -> Optional[list]:
    """Solve ``a x = b`` exactly; None when ``a`` is singular."""
    x = _eliminate(a, [[v] for v in b], field)[1]
    return None if x is None else [row[0] for row in x]


def invert_matrix(a: Matrix, field: FieldSpec) -> Optional[Matrix]:
    """Exact inverse of a square matrix; None when singular."""
    return _eliminate(a, identity_matrix(len(a), field), field)[1]


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


def kernel_basis(rows: list, ncols: int, field: FieldSpec) -> list:
    """Basis of the null space of a sparse homogeneous system.

    Returns one dense coefficient vector per free column, in ascending
    column order, each with a 1 in its free slot.
    """
    pivot_rows, _, _ = _sparse_rref(rows, field)
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


def affine_solve(rows: list, rhs: list, ncols: int, field: FieldSpec):
    """Solve a sparse inhomogeneous system ``A x = b``.

    Returns ``(solution, nullity, consistent)``; the solution (free
    variables set to 0) is None when the system is inconsistent.
    """
    pivot_rows, pivot_rhs, inconsistent = _sparse_rref(rows, field, rhs)
    nullity = ncols - len(pivot_rows)
    if inconsistent:
        return None, nullity, False
    z = field.zero
    vec = [z] * ncols
    for pc in pivot_rows:
        vec[pc] = pivot_rhs[pc]
    return vec, nullity, True


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
