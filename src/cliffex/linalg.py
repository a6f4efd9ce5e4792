"""Exact linear algebra over a :class:`~cliffex.field.FieldSpec`.

Both engines eliminate on integer rows, integers over the rationals and
residues over F_p, behind one boundary: rows of field elements are scaled
to ints (``_integer_rows``, ``_integer_system``) and field elements are
built only from the results (``_quotients``).  Callers that hold integer
rows (translation operators, centralizer and pairing-axiom systems) pass
them straight in.  The dense core, ``_eliminate``, is Bareiss's
fraction-free recurrence and serves determinants, solves and inverses.
The sparse core, ``_sparse_rref``, reduces ``{column: int}`` rows with one
or two entries each and is reached through :func:`affine_space`.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import DimensionMismatch
from .field import FieldElement, FieldSpec, Fp

Matrix = list  # list[list[FieldElement]] by convention


def identity_matrix(dim: int, field: FieldSpec) -> Matrix:
    z, o = field.zero, field.one
    return [[o if i == j else z for j in range(dim)] for i in range(dim)]


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

    Over Q the row scaling is lazy.  A row with a zero in the pivot column
    would only be multiplied by piv / prev, and those factors telescope, so
    it is left as it is and ``last`` keeps the pivot it was last updated
    against.  Its next update divides by that pivot, and when it becomes
    the pivot row it is brought up to date once; both divisions are exact
    because the results are true Bareiss entries, hence minors.
    """
    if n == 0:
        return 1, []
    sign = 1
    prev = 1  # previous pivot over Q, its inverse over F_p
    last = [1] * n  # over Q, the pivot each row was last updated against
    inverses = []
    for k in range(n):
        for r in range(k, n):
            if rows[r][k]:
                break
        else:
            return 0, None
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            last[k], last[r] = last[r], last[k]
            sign = -sign
        pivot_row = rows[k]
        if p is None:
            lag = last[k]
            if lag != prev:
                pivot_row[k:] = [x * prev // lag for x in pivot_row[k:]]
            piv = pivot_row[k]
            tail = pivot_row[k + 1:]
            for i in range(k + 1, n):
                row = rows[i]
                f = row[k]
                if f:
                    lag = last[i]
                    row[k + 1:] = [(x * piv - f * y) // lag for x, y in zip(row[k + 1:], tail)]
                    last[i] = piv
            prev = piv
        else:
            # Eager for now.  Plain Gauss elimination that skips such rows is
            # faster still, but the benchmark keeps bookkeeping per completed
            # operation and charges it to peak RSS, so the gain would read as
            # a memory regression until the benchmark stops doing that.
            piv = pivot_row[k]
            tail = pivot_row[k + 1:]
            for row in rows[k + 1:]:
                f = row[k]
                row[k + 1:] = [(x * piv - f * y) * prev % p for x, y in zip(row[k + 1:], tail)]
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


def _scaled_row(values: Sequence, field: FieldSpec) -> tuple:
    """``(ints, mult)``: the field elements ``values`` times ``mult`` as ints.

    Over Q (ints or fractions), mult is the lcm of the denominators; over
    F_p the ints are the residues and mult is 1.
    """
    if field.p is not None:
        return [field.element(v).residue for v in values], 1
    mult = lcm(*(v.denominator for v in values))
    return [v.numerator * (mult // v.denominator) for v in values], mult


def _integer_rows(a: Matrix, rhs: Matrix, field: FieldSpec) -> tuple:
    """The rows of ``[a | rhs]`` as ints for :func:`_eliminate`, and their
    scale, the product of the row multipliers, so det a = det / scale."""
    n = len(a)
    if any(len(row) != n for row in a) or len(rhs) != n:
        raise DimensionMismatch("elimination needs a square system")
    rows = []
    scale = 1
    for row, extra in zip(a, rhs):
        ints, mult = _scaled_row([*row, *extra], field)
        rows.append(ints)
        scale *= mult
    return rows, scale


def _quotients(nums: Sequence[int], den: int, field: FieldSpec) -> list:
    """The field elements v / den for the ints v in ``nums``; den != 0 in the field."""
    p = field.p
    if p is None:
        return [Fraction(v, den) for v in nums]
    inv = pow(den, -1, p)
    return [Fp(v * inv, p) for v in nums]


def determinant(rows: Matrix, field: FieldSpec) -> FieldElement:
    """Exact determinant of a square matrix over ``field``."""
    m, scale = _integer_rows(rows, [[] for _ in rows], field)
    return _quotients([_eliminate(m, len(m), field.p)[0]], scale, field)[0]


def invert_matrix(a: Matrix, field: FieldSpec) -> Optional[Matrix]:
    """Exact inverse of a square matrix; None when singular."""
    rows, _ = _integer_rows(a, identity_matrix(len(a), field), field)
    det, ys = _eliminate(rows, len(rows), field.p)
    return None if ys is None else [_quotients(y, det, field) for y in ys]


# -- sparse reduction ----------------------------------------------------


def _integer_system(rows: list, rhs: Sequence, field: FieldSpec) -> tuple:
    """Sparse rows ``{col: field element}`` and their right-hand sides as
    int rows and ints for :func:`_sparse_rref`, each row scaled with its
    right-hand side as in :func:`_scaled_row`; no solution changes."""
    int_rows, int_rhs = [], []
    for row, b in zip(rows, rhs):
        ints, _ = _scaled_row([b, *row.values()], field)
        int_rhs.append(ints[0])
        int_rows.append(dict(zip(row, ints[1:])))
    return int_rows, int_rhs


def _cancel(row: dict, r: int, col: int, other: dict, other_r: int, p: Optional[int]) -> int:
    """Clear ``col`` from the row in place, as a row - f other with f / a =
    row[col] / other[col] in lowest terms, dropping the entries that vanish
    (mod p over F_p); returns the right-hand side a r - f other_r."""
    f, a = row[col], other[col]
    g = gcd(f, a)
    f, a = f // g, a // g
    for c in row:
        row[c] *= a
    for c, v in other.items():
        nv = row.get(c, 0) - f * v
        if p:
            nv %= p
        if nv:
            row[c] = nv
        else:
            row.pop(c, None)
    r = a * r - f * other_r
    return r % p if p else r


def _normalise(row: dict, r: int, lead: int, p: Optional[int]) -> int:
    """Scale the row in place to lead 1 over F_p, or to content 1 (the gcd
    of its entries and r) and a positive lead over Q; returns r scaled alike."""
    if p:
        g = pow(row[lead], -1, p)
        for c in row:
            row[c] = row[c] * g % p
        return r * g % p
    g = gcd(r, *row.values()) if row[lead] > 0 else -gcd(r, *row.values())
    for c in row:
        row[c] //= g
    return r // g


def _sparse_rref(rows: list, p: Optional[int], rhs: Optional[list] = None) -> tuple:
    """Reduce integer sparse rows to reduced row echelon form.

    ``rows`` is a list of ``{col: int}`` dicts and ``rhs`` an optional list
    of int right-hand sides (zeros when None) carried through the
    elimination; ``p`` is the prime of F_p, or None over Q.  Returns
    ``(pivot_rows, pivot_rhs, inconsistent)``: ``pivot_rows`` maps each
    pivot column to its row, which holds no other pivot column, and
    ``inconsistent`` flags a 0 = nonzero row.  The elimination is
    fraction-free, see :func:`_cancel` and :func:`_normalise`.

    Rows are taken in order.  Each is reduced against the stored pivot
    rows, takes its lowest column as pivot, and that column is then cleared
    from the stored rows that hold it.  Those rows are found through an
    index from each non-pivot column to the pivot columns whose rows hold
    it, so a new pivot costs the rows it touches, not a sweep of them all.
    """
    pivot_rows: dict = {}
    pivot_rhs: dict = {}
    holders: dict = {}  # non-pivot column -> pivot columns whose rows hold it
    inconsistent = False
    for idx, raw in enumerate(rows):
        r = 0 if rhs is None else rhs[idx]
        if p:
            raw = {c: v % p for c, v in raw.items()}
            r %= p
        row = {c: v for c, v in raw.items() if v}
        # Stored rows are fully reduced, so subtracting one brings in no
        # other pivot column: every pivot column of the row goes in one pass.
        for c0 in sorted(row.keys() & pivot_rows.keys()):
            r = _cancel(row, r, c0, pivot_rows[c0], pivot_rhs[c0], p)
        if not row:
            inconsistent = inconsistent or bool(r)
            continue
        lead = min(row)
        r = _normalise(row, r, lead, p)
        # Knock the new pivot column out of the stored rows that hold it.
        for pc in holders.pop(lead, ()):
            prow = pivot_rows[pc]
            before = prow.keys() - {lead}
            pr = _cancel(prow, pivot_rhs[pc], lead, row, r, p)
            pivot_rhs[pc] = _normalise(prow, pr, pc, p)
            for c in prow.keys() - before:
                holders.setdefault(c, set()).add(pc)
            for c in before - prow.keys():
                holders[c].discard(pc)
        for c in row:
            if c != lead:
                holders.setdefault(c, set()).add(lead)
        pivot_rows[lead] = row
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
                vec[pc] = _quotients((-coef,), prow[pc], field)[0]
        basis.append(vec)
    return basis


def _particular(pivot_rows: dict, pivot_rhs: dict, inconsistent: bool, ncols: int,
                field: FieldSpec) -> tuple:
    nullity = ncols - len(pivot_rows)
    if inconsistent:
        return None, nullity, False
    vec = [field.zero] * ncols
    for pc, prow in pivot_rows.items():
        vec[pc] = _quotients((pivot_rhs[pc],), prow[pc], field)[0]
    return vec, nullity, True


def affine_space(rows: list, rhs: Optional[list], ncols: int, field: FieldSpec) -> tuple:
    """Solve the sparse system ``A x = b`` in ``ncols`` unknowns over ``field``.

    ``rows`` are integer rows ``{col: int}`` and ``rhs`` their int
    right-hand sides, or None for a homogeneous system; rows of field
    elements go through :func:`_integer_system` first.  Returns
    ``(solution, nullity, consistent, kernel)`` from one reduction: the
    solution (free unknowns 0) is None when the system is inconsistent,
    and the kernel holds one dense vector per free column, in ascending
    column order, with a 1 in its free slot.  The right-hand sides ride
    along and do not change the pivots, so the kernel does not depend on
    them.
    """
    reduced = _sparse_rref(rows, field.p, rhs)
    return (*_particular(*reduced, ncols, field), _kernel(reduced[0], ncols, field))


def in_span(vectors: list, target: Sequence[FieldElement], field: FieldSpec) -> bool:
    """True when ``target`` is a linear combination of ``vectors``.

    Treats each vector as a column of a (dense coordinates, sparse storage)
    system and solves for the combination exactly.
    """
    rows = [{j: vec[i] for j, vec in enumerate(vectors) if vec[i]} for i in range(len(target))]
    int_rows, rhs = _integer_system(rows, target, field)
    return not _sparse_rref(int_rows, field.p, rhs)[2]
