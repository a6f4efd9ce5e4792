"""Exact dense and sparse linear algebra.

The dense determinant is cross-checked against a cofactor expansion that
shares no code with the production path, on seeded samples and on
hypothesis-drawn singular and row-swapping matrices.  The lazy row scaling
of the rational core is checked on matrices with structured zeros against
cofactors, against the eager F_13 core on the reduced matrix and by
inverse round trips.  The sparse solver is checked by substituting its
answers back into the original rows.
"""
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cliffex import RATIONAL, FieldSpec, QuadraticForm, inverse, linalg, translation_determinants
from cliffex.errors import DimensionMismatch
from cliffex.reference import cofactor_determinant, random_element

SEED = 424243
FIELDS = (RATIONAL, FieldSpec.prime(13))


def _random_matrix(rng, field, n, span=6):
    return [[random_element(rng, field, span) for _ in range(n)] for _ in range(n)]


def _mat_mul(a, b, field):
    """Dense product by the definition, the oracle for inverses."""
    return [[sum((x * y for x, y in zip(row, col)), field.zero) for col in zip(*b)] for row in a]


def _solve(a, b, field):
    """Solve ``a x = b`` through :func:`linalg.invert_matrix`; None when singular."""
    inv = linalg.invert_matrix(a, field)
    if inv is None:
        return None
    return [sum((x * y for x, y in zip(row, b)), field.zero) for row in inv]


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(SEED)
    for field in FIELDS:
        for n in range(1, 6):
            for _ in range(12):
                m = _random_matrix(rng, field, n)
                assert linalg.determinant(m, field) == cofactor_determinant(m, field)


def test_determinant_of_identity_and_swap():
    for field in FIELDS:
        eye = linalg.identity_matrix(4, field)
        assert linalg.determinant(eye, field) == field.one
        swapped = [eye[1], eye[0], eye[2], eye[3]]
        assert linalg.determinant(swapped, field) == field.neg(field.one)


def test_determinant_multiplicative():
    rng = random.Random(SEED + 1)
    for field in FIELDS:
        for _ in range(10):
            a = _random_matrix(rng, field, 4)
            b = _random_matrix(rng, field, 4)
            ab = _mat_mul(a, b, field)
            assert linalg.determinant(ab, field) == field.mul(
                linalg.determinant(a, field), linalg.determinant(b, field)
            )


def test_rational_fast_path_handles_fractions():
    # Mixed denominators exercise the row scaling in front of the integer
    # elimination.
    m = [
        [Fraction(1, 2), Fraction(2, 3)],
        [Fraction(3, 4), Fraction(5, 6)],
    ]
    expected = Fraction(1, 2) * Fraction(5, 6) - Fraction(2, 3) * Fraction(3, 4)
    assert linalg.determinant(m, RATIONAL) == expected == cofactor_determinant(m, RATIONAL)


def test_solve_dense_round_trip():
    rng = random.Random(SEED + 2)
    for field in FIELDS:
        solved = 0
        while solved < 15:
            a = _random_matrix(rng, field, 5)
            if not linalg.determinant(a, field):
                continue
            x = [random_element(rng, field) for _ in range(5)]
            b = linalg.mat_vec(a, x, field)
            got = _solve(a, b, field)
            assert got == x
            solved += 1


def test_solve_dense_reports_singular():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert _solve(a, [Fraction(1), Fraction(1)], RATIONAL) is None
    assert linalg.invert_matrix(a, RATIONAL) is None


def test_invert_matrix_round_trip():
    rng = random.Random(SEED + 3)
    for field in FIELDS:
        done = 0
        while done < 10:
            a = _random_matrix(rng, field, 4)
            inv = linalg.invert_matrix(a, field)
            if inv is None:
                continue
            assert _mat_mul(a, inv, field) == linalg.identity_matrix(4, field)
            assert _mat_mul(inv, a, field) == linalg.identity_matrix(4, field)
            done += 1


# -- property tests of the dense core -------------------------------------


def _scalars(field):
    if field.is_rational:
        return st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return st.integers(0, field.p - 1).map(field.element)


@st.composite
def _square_matrices(draw, field):
    """Square matrices of size 0-5, plain, singular or needing row swaps."""
    n = draw(st.integers(0, 5))
    scalars = _scalars(field)
    a = [[draw(scalars) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(("plain", "singular", "swaps")))
    if shape == "singular" and n:
        # The last row becomes a combination of the others (zero when alone).
        last = [field.zero] * n
        for row in a[:-1]:
            c = draw(scalars)
            last = [x + c * y for x, y in zip(last, row)]
        a[-1] = last
    elif shape == "swaps" and n > 1:
        # Zero leading entries force a row swap before the first pivot.
        for row in a[: draw(st.integers(1, n - 1))]:
            row[0] = field.zero
    return a, shape


PROPERTY_SETTINGS = settings(deadline=None, derandomize=True)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.to_text())
@PROPERTY_SETTINGS
@given(data=st.data())
def test_determinant_property_against_cofactor_oracle(field, data):
    a, shape = data.draw(_square_matrices(field))
    det = linalg.determinant(a, field)
    assert det == cofactor_determinant(a, field)
    if shape == "singular" and a:
        assert det == field.zero


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.to_text())
@PROPERTY_SETTINGS
@given(data=st.data())
def test_solve_and_inverse_properties(field, data):
    a, _ = data.draw(_square_matrices(field))
    n = len(a)
    x = [data.draw(_scalars(field)) for _ in range(n)]
    b = linalg.mat_vec(a, x, field) if n else []
    solved = _solve(a, b, field)
    inv = linalg.invert_matrix(a, field)
    if not cofactor_determinant(a, field):
        assert solved is None and inv is None
        return
    assert solved == x
    if n:
        eye = linalg.identity_matrix(n, field)
        assert _mat_mul(a, inv, field) == eye
        assert _mat_mul(inv, a, field) == eye
    else:
        assert inv == []


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        linalg.determinant([[Fraction(1), Fraction(2)]], RATIONAL)
    with pytest.raises(DimensionMismatch):
        linalg.mat_vec([[Fraction(1)]], [Fraction(1), Fraction(2)], RATIONAL)
    with pytest.raises(DimensionMismatch):
        linalg.invert_matrix([[Fraction(1), Fraction(2)]], RATIONAL)


# -- lazy row scaling ----------------------------------------------------

F13 = FieldSpec.prime(13)


def _mod13(v):
    """A rational whose denominator is prime to 13, as an element of F_13."""
    v = Fraction(v)
    return F13.element(v.numerator * pow(v.denominator, -1, 13))


@st.composite
def _structured_matrices(draw):
    """Rational matrices of size 1-8 with structured zeros.

    Permuted block-diagonal and banded matrices; sparse ones with about 70 %
    zero entries; and "lagging" sparse ones, where a row is swapped up as a
    pivot row over a row that lags by another pivot.  From size 4, row 2 is
    a multiple of row 0 on the first three columns, so it is updated at
    step 0, skipped at step 1 and has a zero pivot entry at step 2; row 3
    starts with two zeros, so it is skipped twice and then swapped up as
    the third pivot row.  At size 3 the same is done one step earlier with
    rows 1 and 2.  Denominators are at most 6, so every entry also reduces
    mod 13.
    """
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("block", "banded", "sparse", "lagging")))
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    nonzero = entry.filter(bool)
    a = [[Fraction(0)] * n for _ in range(n)]
    if kind == "block":
        start = 0
        while start < n:
            stop = start + draw(st.integers(1, n - start))
            for i in range(start, stop):
                for j in range(start, stop):
                    a[i][j] = draw(entry)
            start = stop
    elif kind == "banded":
        width = draw(st.integers(0, 2))
        a = [[draw(entry) if abs(i - j) <= width else Fraction(0) for j in range(n)]
             for i in range(n)]
    else:
        a = [[draw(entry) if draw(st.integers(0, 9)) >= 7 else Fraction(0) for _ in range(n)]
             for _ in range(n)]
    if kind == "lagging" and n >= 4:
        t = draw(nonzero)
        a[0][:2] = [draw(nonzero), draw(nonzero)]
        a[1][:2] = [draw(nonzero), draw(nonzero)]
        a[2][:4] = [t * v for v in a[0][:3]] + [draw(nonzero)]
        a[3][:3] = [Fraction(0), Fraction(0), draw(nonzero)]
    elif kind == "lagging" and n == 3:
        t = draw(nonzero)
        a[0][0] = draw(nonzero)
        a[1][:2] = [t * v for v in a[0][:2]]
        a[2][:2] = [Fraction(0), draw(nonzero)]
    elif kind != "lagging":
        rows, cols = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
        a = [[a[i][j] for j in cols] for i in rows]
    return a


@PROPERTY_SETTINGS
@given(a=_structured_matrices())
def test_lazy_rows_against_cofactors_reduction_mod_p_and_inverses(a):
    n = len(a)
    a13 = [[_mod13(v) for v in row] for row in a]
    det = linalg.determinant(a, RATIONAL)
    det13 = linalg.determinant(a13, F13)
    assert det13 == _mod13(det)
    if n <= 5:
        assert det == cofactor_determinant(a, RATIONAL)
        assert det13 == cofactor_determinant(a13, F13)
    for field, m, d in ((RATIONAL, a, det), (F13, a13, det13)):
        inv = linalg.invert_matrix(m, field)
        if not d:
            assert inv is None
            continue
        eye = linalg.identity_matrix(n, field)
        assert _mat_mul(m, inv, field) == eye
        assert _mat_mul(inv, m, field) == eye


class _WatchedRow(list):
    """A row that checks each slice write ``_eliminate`` makes to it.

    The step k is the column of the last single entry read from any row
    (the pivot search and the update factor read column k).  At step k an
    update writes from column k + 1 and needs a nonzero entry in column k;
    a rescale writes from column k and is allowed only for the pivot row.
    """

    def __getitem__(self, key):
        if isinstance(key, int):
            self.state["step"] = key
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        k = self.state["step"]
        if key.start == k:
            assert self.state["rows"][k] is self, f"a row other than the pivot rescaled at step {k}"
        else:
            assert key.start == k + 1 and super().__getitem__(k), (
                f"a row with a zero in the pivot column written at step {k}")
        super().__setitem__(key, value)


@PROPERTY_SETTINGS
@given(a=_structured_matrices())
def test_rational_elimination_leaves_rows_with_a_zero_pivot_entry_alone(a):
    rows, scale = linalg._integer_rows(a, [[] for _ in a], RATIONAL)
    state = {"step": -1}
    state["rows"] = watched = [_WatchedRow(row) for row in rows]
    for row in watched:
        row.state = state
    det = linalg._eliminate(watched, len(watched), None)[0]
    assert _mod13(Fraction(det, scale)) == linalg.determinant(
        [[_mod13(v) for v in row] for row in a], F13)


@st.composite
def _sparse_units(draw):
    """``(x over Q, x over F_13)``: a product of one to three factors
    a + b e_I in a signature algebra of rank 1-6, each a unit over Q and
    over F_13 since a^2 - b^2 (e_I)^2 is prime to 13."""
    n = draw(st.integers(1, 6))
    neg = draw(st.integers(0, n))
    form = QuadraticForm.from_signature(n - neg, neg)
    form13 = QuadraticForm.from_signature(n - neg, neg, F13)
    x = form.one()
    for _ in range(draw(st.integers(1, 3))):
        mask = draw(st.integers(1, form.dim - 1))
        a, b = draw(st.integers(-6, 6)), draw(st.integers(1, 6))
        while not (a * a - b * b * form.blade_square(mask)) % 13:
            a += 1
        x = x * form.multivector({0: a, mask: b})
    return x, form13.multivector({m: int(c) for m, c in x.terms()})


@settings(deadline=None, derandomize=True, max_examples=30)
@given(pair=_sparse_units())
def test_lazy_rows_on_translation_matrices_of_sparse_units(pair):
    x, x13 = pair
    det, _ = translation_determinants(x)
    det13, _ = translation_determinants(x13)
    assert det and det13 == _mod13(det)
    for y in (x, x13):
        inv = inverse(y)
        assert y * inv == inv * y == y.form.one()


# -- sparse path ---------------------------------------------------------


def _affine_space(rows, rhs, ncols, field):
    """``affine_space`` on rows of field elements, through the scaling step."""
    return linalg.affine_space(*linalg._integer_system(rows, rhs, field), ncols, field)


def _check_kernel(rows, ncols, field):
    _, nullity, _, vecs = _affine_space(rows, [field.zero] * len(rows), ncols, field)
    assert len(vecs) == nullity
    for vec in vecs:
        for row in rows:
            acc = field.zero
            for c, v in row.items():
                acc = acc + v * vec[c]
            assert acc == field.zero
    return vecs


def test_kernel_vectors_annihilate_every_row():
    rng = random.Random(SEED + 4)
    for field in FIELDS:
        for _ in range(20):
            ncols = rng.randint(2, 8)
            nrows = rng.randint(1, 10)
            rows = []
            for _ in range(nrows):
                row = {
                    c: random_element(rng, field, 4)
                    for c in rng.sample(range(ncols), rng.randint(1, ncols))
                }
                row = {c: v for c, v in row.items() if v}
                if row:
                    rows.append(row)
            vecs = _check_kernel(rows, ncols, field)
            dense = [[row.get(c, field.zero) for c in range(ncols)] for row in rows]
            assert len(vecs) == ncols - _dense_rank(dense, field)


def test_kernel_regression_nonleading_pivot_column():
    """A row whose minimum column is fresh may still hold older pivots.

    Before the reduction loop eliminated every known pivot column, this
    exact shape produced a vector outside the kernel.
    """
    f = RATIONAL
    one = f.one
    rows = [{1: one, 2: one}, {0: one, 1: one}]
    vecs = _check_kernel(rows, 3, f)
    assert vecs == [[Fraction(1), Fraction(-1), Fraction(1)]]

    sol, nullity, consistent, _ = _affine_space(rows, [f.element(3), f.element(5)], 3, f)
    assert consistent and nullity == 1
    assert sol == [Fraction(2), Fraction(3), Fraction(0)]


def test_affine_space_substitutes_back():
    rng = random.Random(SEED + 5)
    for field in FIELDS:
        for _ in range(25):
            ncols = rng.randint(2, 7)
            rows = []
            rhs = []
            target = [random_element(rng, field, 4) for _ in range(ncols)]
            for _ in range(rng.randint(1, 9)):
                row = {
                    c: random_element(rng, field, 4)
                    for c in rng.sample(range(ncols), rng.randint(1, ncols))
                }
                row = {c: v for c, v in row.items() if v}
                if not row:
                    continue
                rows.append(row)
                acc = field.zero
                for c, v in row.items():
                    acc = acc + v * target[c]
                rhs.append(acc)
            sol, _, consistent, _ = _affine_space(rows, rhs, ncols, field)
            assert consistent, "system built from a witness must be consistent"
            for row, want in zip(rows, rhs):
                acc = field.zero
                for c, v in row.items():
                    acc = acc + v * sol[c]
                assert acc == want


def test_affine_space_detects_inconsistency():
    f = RATIONAL
    rows = [{0: f.one}, {0: f.one}]
    sol, _, consistent, _ = _affine_space(rows, [f.one, f.element(2)], 1, f)
    assert not consistent and sol is None


def test_in_span():
    f = RATIONAL
    v1 = [f.element(1), f.element(0), f.element(1)]
    v2 = [f.element(0), f.element(1), f.element(1)]
    assert linalg.in_span([v1, v2], [f.element(2), f.element(3), f.element(5)], f)
    assert not linalg.in_span([v1, v2], [f.element(0), f.element(0), f.element(1)], f)
    assert linalg.in_span([], [f.zero, f.zero], f)


# -- property tests of the sparse reducer --------------------------------

SPARSE_FIELDS = (RATIONAL, FieldSpec.prime(3), FieldSpec.prime(13), FieldSpec.prime(101))
# Primes, so fractions over them have pairwise coprime denominators; none
# is divisible by 3, 13 or 101.
BIG_DENOMINATORS = (10007, 65537, 1000003, 2**31 - 1, 2**61 - 1)


def _sparse_scalars(field):
    """Small scalars, and fractions over large coprime denominators."""
    big = st.builds(Fraction, st.integers(-(10**12), 10**12), st.sampled_from(BIG_DENOMINATORS))
    return st.one_of(_scalars(field), big.map(field.element))


@st.composite
def _sparse_systems(draw, field):
    """Sparse rows over 0-8 columns and their right-hand sides.

    Besides rows on random supports there are combinations of earlier rows
    (dependent, some cancelling to nothing), rows that share the lowest
    column of an earlier row with a fresh tail, so that eliminating that
    column fills in the earlier row's other columns, and rows of explicit
    zeros, which leave only a right-hand side (0 = b).  The right-hand
    sides come from a witness (a consistent system) or are random.
    """
    ncols = draw(st.integers(0, 8))
    scalars = _sparse_scalars(field)
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("random", "combination", "fill", "zero")))
        if kind == "combination" and rows:
            row = {}
            for old in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                c = draw(scalars)
                for col, v in old.items():
                    row[col] = row.get(col, field.zero) + c * v
        elif kind == "fill" and rows and rows[-1]:
            lead = min(rows[-1])
            row = {lead: draw(scalars)}
            for col in draw(st.sets(st.integers(0, ncols - 1), max_size=3)):
                row[col] = draw(scalars)
        elif kind == "zero" and ncols:
            row = {col: field.zero for col in draw(st.sets(st.integers(0, ncols - 1), max_size=2))}
        elif ncols:
            cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
            row = {col: draw(scalars) for col in cols}
        else:
            row = {}
        rows.append(row)
    if draw(st.booleans()):
        witness = [draw(scalars) for _ in range(ncols)]
        rhs = [_row_value(row, witness, field) for row in rows]
    else:
        rhs = [draw(scalars) for _ in rows]
    return rows, rhs, ncols


def _dense_pivots(matrix, field):
    """Pivot columns of the reduced row echelon form, by plain Gauss-Jordan
    elimination on a dense copy."""
    m = [list(row) for row in matrix]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = field.inv(m[rank][c])
        m[rank] = [v * inv for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        pivots.append(c)
    return pivots


def _dense_rank(matrix, field):
    return len(_dense_pivots(matrix, field))


def _row_value(row, vec, field):
    acc = field.zero
    for c, v in row.items():
        acc = acc + v * vec[c]
    return acc


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=lambda f: f.to_text())
@PROPERTY_SETTINGS
@given(data=st.data())
def test_sparse_routines_against_dense_elimination(field, data):
    rows, rhs, ncols = data.draw(_sparse_systems(field))
    dense = [[row.get(c, field.zero) for c in range(ncols)] for row in rows]
    pivots = _dense_pivots(dense, field)
    rank = len(pivots)
    free = [c for c in range(ncols) if c not in pivots]

    # The integer rows of the reducer's contract: each row and its
    # right-hand side times a nonzero int, which gives content above 1 and
    # negative leads, and over F_p plus multiples of p, which leaves ints
    # outside [0, p) (explicit zeros among them).
    p = field.p
    int_rows, int_rhs = linalg._integer_system(rows, rhs, field)
    for i, row in enumerate(int_rows):
        k = data.draw(st.integers(-30, 30).filter(lambda k: k % p if p else k))
        t = data.draw(st.integers(-3, 3)) * p if p else 0
        int_rows[i] = {c: k * v + t for c, v in row.items()}
        int_rhs[i] = k * int_rhs[i] + t

    # Stored pivot rows: lead 1 and residues over F_p; over Q content 1
    # (with the right-hand side) and a positive lead.
    pivot_rows, pivot_rhs, _ = linalg._sparse_rref(int_rows, p, int_rhs)
    for pc, prow in pivot_rows.items():
        assert min(prow) == pc
        if p:
            assert prow[pc] == 1 and all(0 < v < p for v in prow.values()) and 0 <= pivot_rhs[pc] < p
        else:
            assert prow[pc] > 0 and gcd(pivot_rhs[pc], *prow.values()) == 1

    sol, nullity, consistent, kernel = linalg.affine_space(int_rows, int_rhs, ncols, field)
    assert ncols - nullity == rank
    assert len(kernel) == ncols - rank
    assert _dense_rank(kernel, field) == len(kernel)
    for vec, c in zip(kernel, free):
        # The reduced echelon kernel: 1 in its own free slot, 0 in the others.
        assert [vec[j] for j in free] == [field.one if j == c else field.zero for j in free]
        assert all(not _row_value(row, vec, field) for row in rows)

    augmented = [row + [b] for row, b in zip(dense, rhs)]
    assert consistent == (_dense_rank(augmented, field) == rank)
    if consistent:
        assert [_row_value(row, sol, field) for row in rows] == rhs
        assert all(not sol[j] for j in free)
    else:
        assert sol is None
    # The right-hand sides do not change the pivots, and the rows as
    # field elements through the scaling step give the same answer.
    assert linalg.affine_space(int_rows, None, ncols, field)[3] == kernel
    assert _affine_space(rows, rhs, ncols, field) == (sol, nullity, consistent, kernel)
