"""Exact quaternions, quaternionic matrices, and the rank-2 bridge.

Scalars act on column vectors from the LEFT and matrices act through

    A(x)_i = sum_k x_k A[i][k]

with the coordinate written before the entry; composition then forces the
matrix product rule

    (A . B)[i][j] = sum_k B[k][j] A[i][k]

which differs from the conventional entrywise rule precisely because the
entries do not commute.  The Hermitian pairing is sum_i x_i conj(y_i),
left-linear in its first slot.  With these choices adjoint(A) is the
conjugate transpose and all the expected identities hold exactly:
(A . B)(x) = A(B(x)), pairing(A x, y) = pairing(x, adjoint(A) y), and
adjoint(A . B) = adjoint(B) . adjoint(A).

The bridge at the bottom identifies the rank-2 algebra of the form
diag(1, 1) over the rationals with the quaternions via e1 -> i, e2 -> j,
e12 -> k; the composite involution goes over to quaternion conjugation.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .core import Multivector, QuadraticForm, join_terms, split_terms
from .errors import (
    DimensionMismatch,
    InversionOfZero,
    ParseError,
    SingularBasis,
    WrongForm,
)
from .field import NUMBERS, RATIONAL


class Quaternion:
    """A quaternion with exact rational components.

    Stored as four integer numerators over one positive common denominator,
    with no factor common to all five.  That form is canonical, so equality
    compares the stored integers, and the arithmetic (sums, products,
    conjugate, inverse, quotients) runs on plain ints: the inverse of
    (a, b, c, d) / D is (a D, -b D, -c D, -d D) / (a^2 + b^2 + c^2 + d^2).
    ``Fraction`` values are built only when a component is read, through
    ``.a`` to ``.d``, :meth:`components`, :meth:`scalar_part` and
    :meth:`norm_squared`.

    Four plain ints are stored as they are.  Otherwise every component goes
    through :meth:`FieldSpec.element` of the rationals, so bools,
    ``Fraction`` and rational text are accepted and anything else (a
    float, a prime-field residue) raises :class:`MixedFieldSpec`; then
    :meth:`FieldSpec.scaled` puts them over one denominator.  The
    value is immutable and hashable.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, a=0, b=0, c=0, d=0):
        if type(a) is type(b) is type(c) is type(d) is int:
            num, den = (a, b, c, d), 1
        else:
            num, den = RATIONAL.scaled([RATIONAL.element(v) for v in (a, b, c, d)])
        object.__setattr__(self, "_num", tuple(num))
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    @staticmethod
    def zero() -> "Quaternion":
        return Quaternion()

    @staticmethod
    def one() -> "Quaternion":
        return Quaternion(1)

    @staticmethod
    def i() -> "Quaternion":
        return Quaternion(0, 1)

    @staticmethod
    def j() -> "Quaternion":
        return Quaternion(0, 0, 1)

    @staticmethod
    def k() -> "Quaternion":
        return Quaternion(0, 0, 0, 1)

    a = property(lambda self: Fraction(self._num[0], self._den))
    b = property(lambda self: Fraction(self._num[1], self._den))
    c = property(lambda self: Fraction(self._num[2], self._den))
    d = property(lambda self: Fraction(self._num[3], self._den))

    def components(self) -> tuple:
        den = self._den
        return tuple(Fraction(x, den) for x in self._num)

    @staticmethod
    def _coerce(other):
        """``other`` as a quaternion if it is one or a number (which may raise
        :class:`MixedFieldSpec`, as the constructor does), else None."""
        if isinstance(other, Quaternion):
            return other
        if isinstance(other, NUMBERS):
            return Quaternion(other)
        return None

    def __add__(self, other):
        o = other if isinstance(other, Quaternion) else self._coerce(other)
        if o is None:
            return NotImplemented
        (a1, b1, c1, d1), e1 = self._num, self._den
        (a2, b2, c2, d2), e2 = o._num, o._den
        if e1 == e2:
            return _reduced(a1 + a2, b1 + b2, c1 + c2, d1 + d2, e1)
        return _reduced(a1 * e2 + a2 * e1, b1 * e2 + b2 * e1,
                        c1 * e2 + c2 * e1, d1 * e2 + d2 * e1, e1 * e2)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if isinstance(other, Quaternion) else self._coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        a, b, c, d = self._num
        return _reduced(-a, -b, -c, -d, self._den)

    def __mul__(self, other):
        o = other if isinstance(other, Quaternion) else self._coerce(other)
        if o is None:
            return NotImplemented
        return _dot((self,), (o,))

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def conjugate(self) -> "Quaternion":
        a, b, c, d = self._num
        return _reduced(a, -b, -c, -d, self._den)

    def norm_squared(self) -> Fraction:
        a, b, c, d = self._num
        return Fraction(a * a + b * b + c * c + d * d, self._den * self._den)

    def inverse(self) -> "Quaternion":
        (a, b, c, d), e = self._num, self._den
        n = a * a + b * b + c * c + d * d
        if not n:
            raise InversionOfZero("zero quaternion has no inverse")
        return _reduced(a * e, -b * e, -c * e, -d * e, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def __hash__(self):
        # Equal to its real part when b = c = d = 0, so hashed as that number.
        if not any(self._num[1:]):
            return hash(self.a)
        return hash(self.components())

    def __bool__(self):
        return any(self._num)

    def scalar_part(self) -> Fraction:
        return self.a

    def __repr__(self):
        return f"Quaternion({self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self):
        return format_quaternion(self)


def _reduced(a: int, b: int, c: int, d: int, den: int) -> Quaternion:
    """The quaternion (a, b, c, d) / den, for ints and den > 0, in lowest terms."""
    g = gcd(a, b, c, d, den)
    if g != 1:
        a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
    q = object.__new__(Quaternion)
    object.__setattr__(q, "_num", (a, b, c, d))
    object.__setattr__(q, "_den", den)
    return q


_UNIT_ORDER = ("", "i", "j", "k")


def format_quaternion(q: Quaternion) -> str:
    """Render as ``a + bi + cj + dk`` dropping zero components."""
    parts = []
    for comp, unit in zip(q.components(), _UNIT_ORDER):
        if comp:
            sign, mag = (-1, -comp) if comp < 0 else (1, comp)
            parts.append((sign, unit if unit and mag == 1 else f"{mag}{unit}"))
    return join_terms(parts)


# A "*" stands only between a coefficient and a unit.
_QTERM = re.compile(r"^(?:([+-]?\d+(?:/\d+)?)\s*(?:\*\s*(?=[ijk]))?)?([ijk]?)$")


def parse_quaternion(text: str) -> Quaternion:
    """Parse ``a + bi + cj + dk`` with rational components."""
    comps = {unit: Fraction(0) for unit in _UNIT_ORDER}
    for sgn, chunk in split_terms(text, "quaternion"):
        m = _QTERM.match(chunk)
        if not m or (m.group(1) is None and not m.group(2)):
            raise ParseError(f"bad quaternion term {chunk!r}")
        coef = RATIONAL.parse(m.group(1)) if m.group(1) is not None else Fraction(1)
        unit = m.group(2)
        comps[unit] += sgn * coef
    return Quaternion(comps[""], comps["i"], comps["j"], comps["k"])


class HMatrix:
    """A square quaternionic matrix under the left-coefficient conventions.

    All products and the adjoint follow the module docstring; rows are
    stored as tuples and the object is immutable.
    """

    __slots__ = ("entries", "size")

    def __init__(self, entries: Iterable):
        rows = []
        for row in entries:
            rows.append(tuple(self._as_quat(v) for v in row))
        size = len(rows)
        if size == 0 or any(len(r) != size for r in rows):
            raise DimensionMismatch("need a nonempty square matrix")
        object.__setattr__(self, "entries", tuple(rows))
        object.__setattr__(self, "size", size)

    def __setattr__(self, name, value):
        raise AttributeError("HMatrix is immutable")

    @staticmethod
    def _as_quat(v) -> Quaternion:
        q = Quaternion._coerce(v)
        if q is None:
            raise DimensionMismatch(f"entry {v!r} is not a quaternion")
        return q

    @staticmethod
    def identity(size: int) -> "HMatrix":
        return HMatrix(
            [[Quaternion(1) if i == j else Quaternion() for j in range(size)] for i in range(size)]
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def action(self, vec: Sequence) -> tuple:
        """Apply to a column vector: result_i = sum_k x_k A[i][k]."""
        xs = [self._as_quat(v) for v in vec]
        if len(xs) != self.size:
            raise DimensionMismatch(f"vector length {len(xs)} != size {self.size}")
        return tuple(_dot(xs, row) for row in self.entries)

    def compose(self, other: "HMatrix") -> "HMatrix":
        """The product matching action composition: self after other.

        Entrywise: result[i][j] = sum_k other[k][j] self[i][k].
        """
        if not isinstance(other, HMatrix) or other.size != self.size:
            raise DimensionMismatch("compose needs matching square matrices")
        cols = list(zip(*other.entries))
        return HMatrix([[_dot(col, row) for col in cols] for row in self.entries])

    def adjoint(self) -> "HMatrix":
        """Conjugate transpose."""
        m = self.size
        return HMatrix(
            [[self.entries[j][i].conjugate() for j in range(m)] for i in range(m)]
        )

    def __eq__(self, other):
        if not isinstance(other, HMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        rows = "; ".join(
            ", ".join(str(v) for v in row) for row in self.entries
        )
        return f"HMatrix[{rows}]"


def _dot(xs: Sequence, ys: Sequence) -> Quaternion:
    """sum_k xs[k] ys[k] for quaternions, each product in that order; the
    one place Hamilton's formula is written.

    The Hamilton products are summed on integer numerators over one
    denominator and reduced once, at the end.
    """
    a = b = c = d = 0
    den = 1
    for x, y in zip(xs, ys):
        (a1, b1, c1, d1), (a2, b2, c2, d2) = x._num, y._num
        e = x._den * y._den
        if e == den:
            k = 1
        else:
            a, b, c, d, k, den = a * e, b * e, c * e, d * e, den, den * e
        a += k * (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2)
        b += k * (a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2)
        c += k * (a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2)
        d += k * (a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)
    return _reduced(a, b, c, d, den)


def hermitian_pairing(x: Sequence, y: Sequence) -> Quaternion:
    """sum_i x_i conj(y_i); left-linear in x, conjugate-linear in y."""
    if len(x) != len(y):
        raise DimensionMismatch("pairing needs equal-length vectors")
    pairs = [(HMatrix._as_quat(xv), HMatrix._as_quat(yv)) for xv, yv in zip(x, y)]
    return _dot([xq for xq, _ in pairs], [yq.conjugate() for _, yq in pairs])


def _left_inverse(rows: list) -> list:
    """X with X U = I under the CONVENTIONAL product, by left row ops.

    Row operations multiply from the left, so they assemble X on the
    identity half of the augmented matrix.  Works over the quaternions
    because every nonzero entry is invertible; a one-sided inverse over a
    division ring is automatically two-sided.
    """
    m = len(rows)
    aug = [list(rows[i]) + [Quaternion(1) if j == i else Quaternion() for j in range(m)] for i in range(m)]
    for col in range(m):
        piv = None
        for r in range(col, m):
            if aug[r][col]:
                piv = r
                break
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [inv * v for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


def coordinates_in_basis(vec: Sequence, basis: Sequence) -> tuple:
    """Left coordinates of ``vec``: vec = sum_r c_r basis[r]."""
    m = len(basis)
    if any(len(b) != m for b in basis) or len(vec) != m:
        raise DimensionMismatch("need m vectors of length m and a matching target")
    x = _left_inverse([[HMatrix._as_quat(v) for v in b] for b in basis])
    if x is None:
        raise SingularBasis("the given vectors are linearly dependent")
    w = [HMatrix._as_quat(v) for v in vec]
    return tuple(_dot(w, col) for col in zip(*x))


def basis_change(a: HMatrix, basis: Sequence) -> HMatrix:
    """Matrix of the same operator in a new basis.

    Column i holds the left coordinates of a(basis[i]) in ``basis``:
    a(basis[i]) = sum_r result[r][i] basis[r].  Multiplicative for the
    composition product and sends the identity to the identity.
    """
    m = a.size
    if len(basis) != m:
        raise DimensionMismatch(f"expected {m} basis vectors, got {len(basis)}")
    u_rows = [[HMatrix._as_quat(v) for v in b] for b in basis]
    if any(len(r) != m for r in u_rows):
        raise DimensionMismatch("basis vectors must have the matrix's size")
    x = _left_inverse(u_rows)
    if x is None:
        raise SingularBasis("the given vectors are linearly dependent")
    images = [a.action(u) for u in u_rows]
    return HMatrix([[_dot(w, col) for w in images] for col in zip(*x)])


# -- bridge to the rank-2 algebra ----------------------------------------

BRIDGE_FORM = QuadraticForm((1, 1))


def to_quaternion(x: Multivector) -> Quaternion:
    """Identify the rank-2 unit-diagonal algebra with the quaternions.

    Sends 1, e1, e2, e12 to 1, i, j, k.  Multiplicative, and intertwines
    the composite involution with quaternion conjugation.
    """
    if x.form != BRIDGE_FORM:
        raise WrongForm("the quaternion bridge needs the rank-2 rational form with unit diagonal")
    return Quaternion(*x.coeffs)


def from_quaternion(q: Quaternion) -> Multivector:
    """Inverse of :func:`to_quaternion`."""
    return BRIDGE_FORM.multivector(q.components())
