"""Exact linear algebra over a :class:`~cliffex.field.FieldSpec`.

One elimination core serves every solve, on integer rows: integers over Q,
residues over F_p.  ``_forward`` eliminates square and rectangular systems
alike and ``_back`` substitutes back; ``_eliminate`` is the square solve
behind determinants and inverses, and :func:`affine_space` solves
rectangular systems on the same two steps.  :meth:`FieldSpec.scaled`
turns rows of field elements into ints and :meth:`FieldSpec.quotients`
turns results into field elements; integer rows (translation operators,
pairing axioms) come straight in.
"""
from __future__ import annotations

from typing import Optional

from .errors import DimensionMismatch
from .field import FieldElement, FieldSpec

Matrix = list  # list[list[FieldElement]] by convention


def _forward(rows: list, ncols: int, p: Optional[int], square: bool = False) -> tuple:
    """Forward elimination in place over the first ``ncols`` columns of
    integer rows of one width: Bareiss over Q, Gauss over F_p.

    The columns past ``ncols`` ride along.  A column with no nonzero entry
    outside the pivot rows is skipped, or ends the pass with det 0 when the
    system is ``square`` (it is singular then).  Returns ``(det, pivots)``:
    the pivot of column ``pivots[i]`` sits in row i, and ``det`` is, up to
    sign, the minor of the pivot rows on the pivot columns (an int, a
    residue over F_p).  The other rows end zero on the first ``ncols``
    columns, but for stale entries below the pivots, which are not read.

    Over Q, Bareiss's recurrence: every entry it produces is a minor of the
    input, so the division by the previous pivot is exact.  The scaling is
    lazy: a row with a zero in the pivot column would only be multiplied by
    piv / prev, and those factors telescope, so it is left alone and
    ``last`` keeps the pivot it was last updated against.  Its next update
    divides by that pivot, and as the pivot row it is brought up to date
    once; both results are true Bareiss entries, so both divisions are exact.

    Over F_p the entries must be residues in [0, p), so that a row is
    cleared exactly when its pivot-column entry is a nonzero int.  Each
    pivot is inverted once and its row's tail scaled by the inverse; a row
    with f != 0 in the pivot column becomes (x - f y) % p, a row with 0
    there is not touched, and det is the signed product of the pivots.
    """
    m = len(rows)
    pivots: list = []
    sign = 1
    prev = 1  # over Q the previous pivot, over F_p the product of the pivots
    last = [1] * m  # over Q, the pivot each row was last updated against
    for c in range(ncols):
        k = len(pivots)
        for r in range(k, m):
            if rows[r][c]:
                break
        else:
            if square:
                return 0, pivots
            continue
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            last[k], last[r] = last[r], last[k]
            sign = -sign
        pivot_row = rows[k]
        if p is None:
            lag = last[k]
            if lag != prev:
                pivot_row[c:] = [x * prev // lag for x in pivot_row[c:]]
            piv = pivot_row[c]
            tail = pivot_row[c + 1:]
            for i in range(k + 1, m):
                row = rows[i]
                f = row[c]
                if f:
                    lag = last[i]
                    row[c + 1:] = [(x * piv - f * y) // lag for x, y in zip(row[c + 1:], tail)]
                    last[i] = piv
            prev = piv
        else:
            piv = pivot_row[c]
            inv = pow(piv, -1, p)
            tail = pivot_row[c + 1:] = [x * inv % p for x in pivot_row[c + 1:]]
            for row in rows[k + 1:]:
                f = row[c]
                if f:
                    row[c + 1:] = [(x - f * y) % p for x, y in zip(row[c + 1:], tail)]
            prev = prev * piv % p
        pivots.append(c)
    return (sign * prev if p is None else sign * prev % p), pivots


def _back(rows: list, pivots: list, det: int, cols, p: Optional[int]) -> list:
    """Back substitution on the pivot rows :func:`_forward` left, with each
    column of ``cols``, all without a pivot, as a right-hand side:
    ``ys[i][j]`` is det * x for the unknown of ``pivots[i]``, x solving the
    pivot rows for column ``cols[j]`` (mod p over F_p).  Over Q these are
    integral Cramer numerators, so each division by a pivot is exact."""
    ys: list = [None] * len(pivots)
    for i in range(len(pivots) - 1, -1, -1):
        row = rows[i]
        acc = [det * row[c] for c in cols]
        if acc:
            for j in range(i + 1, len(pivots)):
                f = row[pivots[j]]
                if f:
                    acc = [s - f * y for s, y in zip(acc, ys[j])]
        # Over F_p the tail of each pivot row was divided by its pivot.
        ys[i] = [s // row[pivots[i]] for s in acc] if p is None else [s % p for s in acc]
    return ys


def _eliminate(rows: list, n: int, p: Optional[int]) -> tuple:
    """Solve A x = rhs in place on ``n`` integer rows, each a row of the
    square A and then its right-hand sides (none for a determinant): returns
    det A (a residue over F_p) and the rows of det * x, or ``(0, None)``."""
    det, pivots = _forward(rows, n, p, square=True)
    if not det:
        return 0, None
    return det, _back(rows, pivots, det, range(n, len(rows[0]) if rows else n), p)


def determinant(rows: Matrix, field: FieldSpec) -> FieldElement:
    """Exact determinant of a square matrix over ``field``: each row is
    scaled to ints, so det = det(int rows) / the product of the scales."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionMismatch("elimination needs a square system")
    ints, scale = [], 1
    for row in rows:
        vec, mult = field.scaled(row)
        ints.append(vec)
        scale *= mult
    return field.quotients([_eliminate(ints, n, field.p)[0]], scale)[0]


def affine_space(rows: list, ncols: int, field: FieldSpec) -> tuple:
    """Solve ``A x = b`` in ``ncols`` unknowns over ``field``.

    ``rows`` are the dense int rows of ``[A | -b]``, each ``ncols + 1``
    long, with -b last (0 for a homogeneous row); scale rows of field
    elements by :meth:`FieldSpec.scaled` first.  Returns ``(solution,
    nullity, consistent, kernel)``: the solution (free unknowns 0) is None
    when the system is inconsistent, and the kernel holds one vector per
    free column, ascending, with a 1 in its free slot and 0 in the other
    free slots; it does not depend on b.

    This is the kernel of ``[A | -b]``: each distinct row (mod p over F_p)
    is eliminated once, and column ``ncols`` gets no pivot.  :func:`_back`
    takes every column without a pivot as a right-hand side, the vector
    with a 1 in free slot c is -ys / det on the pivot slots, and the
    solution is the one with a 1 in slot ``ncols``.
    """
    p = field.p
    if p is not None:
        rows = ([v % p for v in row] for row in rows)
    dense = [list(row) for row in dict.fromkeys(map(tuple, rows))]
    det, pivots = _forward(dense, ncols, p)
    free = sorted(set(range(ncols + 1)) - set(pivots))
    ys = _back(dense, pivots, det, free, p)
    vectors = []
    for j, c in enumerate(free):
        nums = [0] * (ncols + 1)
        nums[c] = det
        for pc, y in zip(pivots, ys):
            nums[pc] = -y[j]
        vectors.append(field.quotients(nums[:ncols], det))
    *kernel, solution = vectors
    consistent = not any(vec[ncols] for vec in dense[len(pivots):])
    return (solution if consistent else None), len(kernel), consistent, kernel
