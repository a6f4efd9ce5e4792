"""Clifford algebra core: diagonal quadratic forms, blades, multivectors.

Basis blades are encoded as bitmasks: bit ``i-1`` set means generator ``i``
is a factor, so the mask runs over ``0 .. 2^n - 1`` with mask 0 the scalar
blade.  The product of two basis blades is a third basis blade up to an
exact scalar:

    e_I * e_J = sign * (prod of -q_i over i in I & J) * e_(I xor J)

where the sign counts, modulo 2, the transpositions needed to interleave
the concatenated index word into ascending order.  Generators square to
``-q_i``, i.e. v * v = -Q(v, v) for every vector v.

A :class:`Multivector` stores one coefficient per mask (dense tuple) and is
immutable; all arithmetic returns new values.  Coefficients live in the
field named by the form's :class:`~cliffex.field.FieldSpec`.

The product reads each row's signs from one mask, :func:`sign_mask`, and
each scale from the integer :meth:`QuadraticForm.square_table`: a square
of ±1 (:meth:`QuadraticForm.unit_squares`) only sets the sign, any other
is multiplied in, and ``pair`` reads the Gram entries the same way.

Over F_p, a product with |supp x| |supp y| >= caps.SPLIT_PRODUCT 2^n goes
through :class:`SplitAlgebra` instead: Cl(V) as the matrix algebra
M(2^ceil(n/2), F_p), reached by a signed, scaled permutation of masks and one
4 x 4 map per generator pair, O(n 2^n), around one dense matrix product.
"""
from __future__ import annotations

import re
from math import prod
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import caps
from .errors import (
    CapExceeded,
    DegenerateForm,
    IndexOutOfRange,
    MismatchedForm,
    MixedFieldSpec,
    ParseError,
)
from .field import NUMBERS, RATIONAL, FieldElement, FieldSpec, sqrt_mod


def reorder_parity(a: int, b: int) -> int:
    """Parity (0 or 1) of the interleave sort of index words I then J."""
    return (b & sign_mask(a)).bit_count() & 1


def sign_mask(a: int, left: bool = True) -> int:
    """The mask w with ``(b & w).bit_count() & 1`` the parity of sorting
    the index words of ``a`` then ``b``, for every b (of ``b`` then ``a``
    with ``left`` false).

    Bit j of w is the parity of the indices of ``a`` above j (below j for
    the right-hand twin), so one row of products reads its signs with one
    AND and one popcount each.  The right-hand mask may be negative.
    """
    w = 0
    while a:
        low = a & -a
        w ^= low - 1 if left else -(low << 1)
        a ^= low
    return w


def reorder_sign(a: int, b: int) -> int:
    """The ±1 factor from sorting the concatenated blade index words."""
    return -1 if reorder_parity(a, b) else 1


def anticommute_parity(a: int, b: int) -> int:
    """1 when basis blades with masks ``a`` and ``b`` anticommute.

    Swapping the two index words costs |I||J| transpositions minus one for
    each common index (whose square commutes past everything).
    """
    return (a.bit_count() * b.bit_count() - (a & b).bit_count()) & 1


def involute_sign(mask: int) -> int:
    """Main involution: -1 on odd grades."""
    return -1 if mask.bit_count() & 1 else 1


def reverse_sign(mask: int) -> int:
    """Reversal anti-automorphism: sign (-1)^(k(k-1)/2) on grade k."""
    k = mask.bit_count()
    return -1 if (k * (k - 1) // 2) & 1 else 1


def conjugate_sign(mask: int) -> int:
    """Composite of involution and reversal: (-1)^(k(k+1)/2) on grade k.

    Negative exactly on grades 1 and 2 mod 4, which is what makes its
    (-1)-eigenspace a Lie algebra downstream.
    """
    k = mask.bit_count()
    return -1 if (k * (k + 1) // 2) & 1 else 1


_INVOLUTION_SIGNS = {
    "grade": involute_sign,
    "reverse": reverse_sign,
    "conj": conjugate_sign,
}


class BladeProduct(NamedTuple):
    """Result of multiplying two basis blades: ``coef * e_mask``."""

    coef: FieldElement
    mask: int


class QuadraticForm:
    """A nondegenerate diagonal quadratic form over an exact field.

    ``diag`` lists the values Q(e_i, e_i) for the n generators.  The
    generators then obey e_i * e_i = -q_i and e_i * e_j = -e_j * e_i for
    i != j.  All blade-product machinery hangs off this object, including
    the per-form integer table of the products of -q_i over index subsets.
    """

    __slots__ = ("n", "diag", "field", "_sqf_cache", "_gram", "_squares", "_split")

    def __init__(self, diag: Sequence, field: Optional[FieldSpec] = None):
        field = RATIONAL if field is None else field
        if not isinstance(field, FieldSpec):
            raise MixedFieldSpec(f"a form's field must be a FieldSpec, got {field!r}")
        entries = tuple(field.element(v) for v in diag)
        if not 1 <= len(entries) <= caps.GENERATORS:
            raise CapExceeded(
                f"supported generator counts are 1..{caps.GENERATORS}, got {len(entries)}"
            )
        for pos, q in enumerate(entries, start=1):
            if not q:
                raise DegenerateForm(f"diagonal entry {pos} is zero")
        self.n = len(entries)
        self.diag = entries
        self.field = field
        self._sqf_cache: dict = {}
        self._gram: Optional[tuple] = None
        self._squares: Optional[tuple] = None
        self._split: Optional[SplitAlgebra] = None

    # -- construction ----------------------------------------------------

    @staticmethod
    def from_signature(pos: int, neg: int, field: Optional[FieldSpec] = None) -> "QuadraticForm":
        """Diagonal form with ``pos`` entries +1 followed by ``neg`` -1."""
        if pos < 0 or neg < 0 or pos + neg < 1:
            raise ParseError(f"bad signature ({pos}, {neg})")
        return QuadraticForm([1] * pos + [-1] * neg, field)

    @staticmethod
    def from_text(text: str, field: Optional[FieldSpec] = None) -> "QuadraticForm":
        """Parse a form literal: ``diag:1,1,-1`` or ``sig:R,S``."""
        t = text.strip()
        if t.startswith("diag:"):
            body = t[len("diag:"):]
            parts = [p.strip() for p in body.split(",")]
            if not parts or any(not p for p in parts):
                raise ParseError(f"bad diagonal literal {text!r}")
            f = field if field is not None else RATIONAL
            return QuadraticForm([f.parse(p) for p in parts], f)
        if t.startswith("sig:"):
            body = t[len("sig:"):]
            parts = [p.strip() for p in body.split(",")]
            if len(parts) != 2 or not all(p.lstrip("+-").isdigit() for p in parts):
                raise ParseError(f"bad signature literal {text!r}")
            return QuadraticForm.from_signature(int(parts[0]), int(parts[1]), field)
        raise ParseError(f"unknown form literal {text!r}")

    def to_text(self) -> str:
        if self.field.is_rational and all(q == 1 for q in self.diag):
            return f"sig:{self.n},0"
        return "diag:" + ",".join(str(q) for q in self.diag)

    # -- basic facts -----------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension of the full algebra, 2^n."""
        return 1 << self.n

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other):
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        return self.field == other.field and self.diag == other.diag

    def __hash__(self):
        return hash((self.diag, self.field))

    def __repr__(self):
        return f"QuadraticForm({self.to_text()!r}, field={self.field.to_text()!r})"

    def check_mask(self, mask: int) -> int:
        if not isinstance(mask, int) or not 0 <= mask < self.dim:
            raise MismatchedForm(f"mask {mask!r} is not a blade of a {self.n}-generator algebra")
        return mask

    # -- blade products --------------------------------------------------

    def square_factor(self, common: int) -> FieldElement:
        """Product of -q_i over the indices in ``common``, read from
        :meth:`square_table` and converted once per mask."""
        hit = self._sqf_cache.get(common)
        if hit is None:
            d, squares = self.square_table()
            hit = self._sqf_cache[common] = self.field.quotients((squares[common],), d)[0]
        return hit

    def blade_product(self, a: int, b: int) -> BladeProduct:
        """Exact product of two basis blades given by mask."""
        self.check_mask(a)
        self.check_mask(b)
        coef = self.square_factor(a & b)
        if reorder_parity(a, b):
            coef = -coef
        return BladeProduct(coef, a ^ b)

    def square_table(self) -> tuple:
        """``(d, squares)`` with squares[m] = d sq(m) an int for every mask m,
        sq(m) the product of -q_i over i in m, filled once per form.  Over Q,
        d is the product of the diagonal's denominators; over F_p, d = 1 and
        the squares are residues."""
        if self._squares is None:
            p = self.field.p
            squares = [1]
            for q in self.diag:
                if p is None:
                    num, den = -q.numerator, q.denominator
                    squares = [s * den for s in squares] + [s * num for s in squares]
                else:
                    num = -q.residue
                    squares += [s * num % p for s in squares]
            d = 1 if p is not None else prod(q.denominator for q in self.diag)
            self._squares = (d, tuple(squares))
        return self._squares

    def split(self) -> "SplitAlgebra":
        """Cl(V) over F_p as a matrix algebra, built on first use and kept."""
        self._split = self._split or SplitAlgebra(self)
        return self._split

    def unit_squares(self) -> tuple:
        """``(d, minus, squares)`` from :meth:`square_table`: e_m squares to
        +1 when squares[m] == d and to -1 when squares[m] == minus (-d over
        Q, p - 1 over F_p)."""
        d, squares = self.square_table()
        return d, (self.field.p - 1 if self.field.p else -d), squares

    def blade_square(self, mask: int) -> FieldElement:
        """The scalar e_I * e_I."""
        return self.blade_product(mask, mask).coef

    def gram_diagonal(self) -> tuple:
        """Diagonal of the canonical bilinear pairing on basis blades.

        Entry at mask I is the pairing of e_I with itself, which works out
        to the plain product of q_i over i in I, read from the square table
        as (-1)^|I| squares[I] / d.
        """
        if self._gram is None:
            d, squares = self.square_table()
            signed = [-s if m.bit_count() & 1 else s for m, s in enumerate(squares)]
            self._gram = tuple(self.field.quotients(signed, d))
        return self._gram

    # -- element constructors --------------------------------------------

    def zero(self) -> "Multivector":
        return self.multivector({})

    def one(self) -> "Multivector":
        return self.scalar(1)

    def scalar(self, value) -> "Multivector":
        return self.multivector({0: value})

    def basis_blade(self, mask: int) -> "Multivector":
        return self.multivector({mask: 1})

    def generator(self, index: int) -> "Multivector":
        """The grade-1 generator e_index, indices 1-based."""
        if not 1 <= index <= self.n:
            raise IndexOutOfRange(f"generator index {index} outside 1..{self.n}")
        return self.basis_blade(1 << (index - 1))

    def vector(self, components: Iterable) -> "Multivector":
        """Grade-1 element with the given n components."""
        comps = list(components)
        if len(comps) != self.n:
            raise MismatchedForm(f"expected {self.n} components, got {len(comps)}")
        return self.multivector({1 << i: c for i, c in enumerate(comps)})

    def multivector(self, data) -> "Multivector":
        """Build from a mask -> coefficient mapping or a dense sequence."""
        zero = self.field.zero
        if isinstance(data, dict):
            coeffs = [zero] * self.dim
            for mask, val in data.items():
                coeffs[self.check_mask(mask)] = self.field.element(val) or zero
        else:
            coeffs = [self.field.element(v) or zero for v in data]
            if len(coeffs) != self.dim:
                raise MismatchedForm(f"expected {self.dim} coefficients, got {len(coeffs)}")
        return Multivector._make(self, tuple(coeffs))

    def volume_element(self) -> "Multivector":
        """The top blade, the ordered product of all generators."""
        return self.basis_blade(self.full_mask)

    def volume_square(self) -> FieldElement:
        """The scalar square of the top blade."""
        return self.blade_square(self.full_mask)

    def parse(self, text: str) -> "Multivector":
        return parse_multivector(text, self)


class Multivector:
    """An element of the Clifford algebra of a fixed diagonal form.

    Immutable; supports +, -, *, scalar mixing, the three involutions, the
    canonical pairing, and text round-tripping.
    """

    __slots__ = ("form", "coeffs")

    def __init__(self, form: QuadraticForm, coeffs: Iterable):
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "coeffs", form.multivector(coeffs).coeffs)

    @classmethod
    def _make(cls, form: QuadraticForm, coeffs: tuple) -> "Multivector":
        # Trusted fast path: coeffs already canonical field elements.
        self = object.__new__(cls)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- access ----------------------------------------------------------

    def coeff(self, mask: int) -> FieldElement:
        self.form.check_mask(mask)
        return self.coeffs[mask]

    __getitem__ = coeff

    def scalar_part(self) -> FieldElement:
        return self.coeffs[0]

    def support(self) -> tuple:
        return tuple(m for m, _ in self.terms())

    def terms(self) -> Iterator:
        z = self.form.field.zero
        for m, c in enumerate(self.coeffs):
            if c is not z and c:
                yield m, c

    def grades(self) -> set:
        return {m.bit_count() for m, _ in self.terms()}

    def is_zero(self) -> bool:
        return next(self.terms(), None) is None

    def __bool__(self):
        return not self.is_zero()

    # -- ring structure --------------------------------------------------

    def _check_mate(self, other: "Multivector"):
        if self.form is not other.form and self.form != other.form:
            raise MismatchedForm("operands live over different quadratic forms")

    def _as_scalar(self, value) -> Optional[FieldElement]:
        # Numbers become field elements, so a float or a value from another
        # field raises MixedFieldSpec; text and other types are not scalars.
        if isinstance(value, NUMBERS):
            return self.form.field.element(value)
        return None

    def __add__(self, other):
        if isinstance(other, Multivector):
            self._check_mate(other)
            z = self.form.field.zero
            return Multivector._make(self.form, tuple(
                b if a is z else a if b is z else a + b
                for a, b in zip(self.coeffs, other.coeffs)))
        s = self._as_scalar(other)
        if s is None:
            return NotImplemented
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + s
        return Multivector._make(self.form, tuple(coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Multivector):
            self._check_mate(other)
            z = self.form.field.zero
            return Multivector._make(self.form, tuple(
                a if b is z else -b if a is z else a - b
                for a, b in zip(self.coeffs, other.coeffs)))
        s = self._as_scalar(other)
        if s is None:
            return NotImplemented
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] - s
        return Multivector._make(self.form, tuple(coeffs))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        z = self.form.field.zero
        return Multivector._make(self.form, tuple(c if c is z else -c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check_mate(other)
            form = self.form
            left, right = list(self.terms()), list(other.terms())
            if form.field.p and len(left) * len(right) >= caps.SPLIT_PRODUCT << form.n:
                return Multivector._make(form, form.split().product(self.coeffs, other.coeffs))
            d, minus, squares = form.unit_squares()
            sqf = form.square_factor
            out = [form.field.zero] * form.dim
            for mi, ci in left:
                w = sign_mask(mi)
                for mj, cj in right:
                    s = squares[mi & mj]
                    term = ci * cj
                    flip = (mj & w).bit_count()
                    if s != d:
                        if s == minus:
                            flip += 1
                        else:
                            term = term * sqf(mi & mj)
                    k = mi ^ mj
                    out[k] = out[k] - term if flip & 1 else out[k] + term
            return Multivector._make(form, tuple(out))
        return self._scalar_multiple(other)

    def __rmul__(self, other):
        # Scalars commute with everything; Multivector * Multivector never
        # reaches here.
        return self._scalar_multiple(other)

    def _scalar_multiple(self, other):
        s = self._as_scalar(other)
        if s is None:
            return NotImplemented
        z = self.form.field.zero
        return Multivector._make(self.form, tuple(c if c is z else c * s for c in self.coeffs))

    def commutator(self, other: "Multivector") -> "Multivector":
        return self * other - other * self

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            return NotImplemented
        acc = self.form.one()
        base = self
        e = exp
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other):
        if isinstance(other, Multivector):
            return ((self.form is other.form or self.form == other.form)
                    and self.coeffs == other.coeffs)
        s = self._as_scalar(other)
        if s is None:
            return NotImplemented
        return self.coeffs[0] == s and not any(m for m, _ in self.terms())

    def __hash__(self):
        # Equal to its scalar when no other blade is present, so hashed as one.
        if not any(m for m, _ in self.terms()):
            return hash(self.coeffs[0])
        return hash((self.form, self.coeffs))

    # -- involutions -----------------------------------------------------

    def _signed(self, sign_fn) -> "Multivector":
        # One sign per grade, read off the blade e_1 ... e_k.
        flip = [sign_fn((1 << k) - 1) < 0 for k in range(self.form.n + 1)]
        z = self.form.field.zero
        coeffs = tuple(
            c if c is z or not flip[m.bit_count()] else -c for m, c in enumerate(self.coeffs)
        )
        return Multivector._make(self.form, coeffs)

    def involute(self) -> "Multivector":
        """Main involution: negate odd grades."""
        return self._signed(involute_sign)

    def reverse(self) -> "Multivector":
        """Reversal: write each blade's index word backwards."""
        return self._signed(reverse_sign)

    def conjugate(self) -> "Multivector":
        """Composite of involution and reversal."""
        return self._signed(conjugate_sign)

    def involution(self, kind: str) -> "Multivector":
        try:
            fn = _INVOLUTION_SIGNS[kind]
        except KeyError:
            raise ParseError(f"unknown involution kind {kind!r}") from None
        return self._signed(fn)

    # -- pairing ---------------------------------------------------------

    def pair(self, other: "Multivector") -> FieldElement:
        """Canonical bilinear pairing: scalar part of self * conjugate(other),
        which is the sum of x_I y_I g_I over the Gram diagonal g."""
        self._check_mate(other)
        form = self.form
        d, minus, squares = form.unit_squares()
        total = z = form.field.zero
        ys, gram = other.coeffs, form.gram_diagonal()
        for m, x in self.terms():
            y = ys[m]
            if y is not z and y:
                # g_m = (-1)^|m| sq(m): a sign when the square is a unit.
                s = squares[m]
                if s == d or s == minus:
                    total = total - x * y if (m.bit_count() + (s != d)) & 1 else total + x * y
                else:
                    total = total + x * y * gram[m]
        return total

    # -- text ------------------------------------------------------------

    def to_text(self) -> str:
        return format_multivector(self)

    def __repr__(self):
        return f"Multivector({self.to_text()!r}, form={self.form.to_text()!r})"

    def __str__(self):
        return self.to_text()


def _matmul(x, y, p: int) -> list:
    """The matrix product x y mod p, rows of ints."""
    cols = list(zip(*y))
    return [[sum(map(mul, row, col)) % p for col in cols] for row in x]


def _transform(y: list, maps, p: int) -> list:
    """Each 4 x 4 map in turn on the lowest base-4 digit, which then moves to the top."""
    for rows in maps:
        cols = [y[d::4] for d in range(4)]
        y = []
        for f0, f1, f2, f3 in rows:
            y += [(f0 * s + f1 * t + f2 * u + f3 * v) % p for s, t, u, v in zip(*cols)]
    return y


def _split_pair(a: int, b: int, p: int) -> tuple:
    """2 x 2 matrices g, h over F_p with g^2 = a, h^2 = b and gh = -hg: given
    a x^2 + b y^2 = 1, from u = xG + yH = diag(1, -1) and GH = [[0, -ab], [1, 0]].
    x runs up from 0, so y = 1/√b when b is a square, until (1 - a x^2) / b is
    a square; the conic has a point, so x stops below p."""
    x = 0
    while (y := sqrt_mod((1 - a * x * x) * pow(b, -1, p), p)) is None:
        x += 1
    g = ((x * a % p, y * a * b % p), (y, -x * a % p))
    return g, ((y * b % p, -x * a * b % p), (-x % p, -y * b % p))


class SplitAlgebra:
    """Cl(V) over F_p as the matrix algebra M(D, F_p), D = 2^m, m = ceil(n/2).

    G_k = e_1...e_2k e_(2k+1) and H_k = e_1...e_2k e_(2k+2), k < m, with an
    e_(n+1) of square 1 for odd n, anticommute, square to scalars a_k, b_k and
    commute with the other pairs: Cl is the tensor product of the split
    quaternion algebras ``factors[k] = (a_k, b_k, g_k, h_k)``.  Bits 2k, 2k+1
    of a word w are its powers of G_k, H_k, and w is c_w e_(mask_w).
    :meth:`matrix` is the algebra embedding phi: Cl(V) -> M(D, F_p), and
    :meth:`coefficients` maps phi(x) back to x.
    """

    def __init__(self, form: QuadraticForm):
        p, self.field, self.m = form.field.p, form.field, (form.n + 1) // 2
        squares = form.square_table()[1] * (1 + form.n % 2)
        gens = [(1 << (i & -2)) - 1 | 1 << i for i in range(2 * self.m)]
        masks, coefs = [0], [1]
        for gen in gens:
            coefs += [(-c if reorder_parity(m, gen) else c) * squares[m & gen] % p
                      for m, c in zip(masks, coefs)]
            masks += [m ^ gen for m in masks]
        # Per mask of Cl(V): its word w, c_w and 1 / c_w.
        self.words = sorted(range(len(masks)), key=masks.__getitem__)[:form.dim]
        self.coefs = [coefs[w] for w in self.words]
        self.inverses = [pow(c, -1, p) for c in self.coefs]
        ab = [-squares[g] % p if reorder_parity(g, g) else squares[g] for g in gens]
        self.factors = [(a, b, *_split_pair(a, b, p)) for a, b in zip(ab[::2], ab[1::2])]
        # Per pair: coordinates on 1, G, H, GH to 2 x 2 cells, back by tr(X B^-1) / 2.
        self.forward, self.back, half = [], [], pow(2, -1, p)
        for _, _, g, h in self.factors:
            basis = (((1, 0), (0, 1)), g, h, _matmul(g, h, p))
            self.forward.append([[B[i][j] for B in basis] for i in (0, 1) for j in (0, 1)])
            self.back.append([[x * half * pow(s * v - t * u, -1, p) % p for x in (v, -u, -t, s)]
                              for (s, t), (u, v) in basis])
        # Cell (R, C) of a matrix: digit k of its index is 2 R_k + C_k.
        spread = [int(f"{r:b}", 4) for r in range(1 << self.m)]
        self.cells = [2 * r | c for r in spread for c in spread]

    def matrix(self, coeffs) -> list:
        """phi(x) as D rows of residues, from the coefficients of x."""
        p, D = self.field.p, 1 << self.m
        y = [0] * (D * D)
        for w, c, r in zip(self.words, self.inverses, self.field.scaled(coeffs)[0]):
            y[w] = r * c % p
        y = _transform(y, self.forward, p)
        return [[y[i] for i in self.cells[k:k + D]] for k in range(0, D * D, D)]

    def coefficients(self, rows, den: int = 1) -> tuple:
        """The coefficients of x, as field elements, from den phi(x) as rows of residues."""
        p, y = self.field.p, [0] * len(self.cells)
        for i, v in zip(self.cells, (v for row in rows for v in row)):
            y[i] = v
        y = _transform(y, self.back, p)
        nums = [y[w] * c % p for w, c in zip(self.words, self.coefs)]
        return tuple(self.field.quotients(nums, den))

    def product(self, xs, ys) -> tuple:
        """The coefficients of x y from those of x and y."""
        return self.coefficients(_matmul(self.matrix(xs), self.matrix(ys), self.field.p))


def blade_product(form: QuadraticForm, a: int, b: int) -> BladeProduct:
    """Module-level alias for :meth:`QuadraticForm.blade_product`."""
    return form.blade_product(a, b)


def pairing(x: Multivector, y: Multivector) -> FieldElement:
    """Canonical bilinear pairing of two multivectors."""
    return x.pair(y)


# -- text round-tripping -------------------------------------------------

_BRACE_BLADE = re.compile(r"^e\{([0-9,\s]*)\}$")


def parse_blade(text: str, n: int) -> int:
    """Parse a blade literal: ``1``, ``e13``, or ``e{1,12}``.

    Indices must be strictly increasing; out-of-range indices raise
    :class:`IndexOutOfRange`, everything else malformed raises
    :class:`ParseError`.
    """
    t = text.strip()
    if t == "1":
        return 0
    if not t.startswith("e"):
        raise ParseError(f"bad blade literal {text!r}")
    m = _BRACE_BLADE.match(t)
    if m:
        inner = m.group(1).strip()
        if not inner:
            raise ParseError(f"empty index list in {text!r}")
        parts = [p.strip() for p in inner.split(",")]
        if any(not p.isdigit() for p in parts):
            raise ParseError(f"bad index list in {text!r}")
        idxs = [int(p) for p in parts]
    else:
        body = t[1:]
        if not body or not body.isdigit():
            raise ParseError(f"bad blade literal {text!r}")
        idxs = [int(ch) for ch in body]
    mask = 0
    prev = 0
    for i in idxs:
        if not 1 <= i <= n:
            raise IndexOutOfRange(f"index {i} outside 1..{n} in blade {text!r}")
        if i <= prev:
            raise ParseError(f"indices must be strictly increasing in {text!r}")
        prev = i
        mask |= 1 << (i - 1)
    return mask


def format_blade(mask: int, n: int) -> str:
    """Inverse of :func:`parse_blade` for canonical masks."""
    if mask == 0:
        return "1"
    idxs = [i + 1 for i in range(n) if mask >> i & 1]
    if n <= 9:
        return "e" + "".join(str(i) for i in idxs)
    return "e{" + ",".join(str(i) for i in idxs) + "}"


def split_terms(text: str, kind: str) -> list:
    """Split a ``kind`` literal (multivector, quaternion) into (sign, term) pairs.
    Signs occur only as term separators plus one optional leading sign."""
    s = text.strip()
    if not s:
        raise ParseError(f"empty {kind} literal")
    parts = re.split(r"([+-])", s)
    # Pair each term with the sign before it; a term with none is positive.
    parts[0:1] = [] if s[0] in "+-" else ["+", parts[0]]
    chunks = []
    for sign, chunk in zip(parts[::2], parts[1::2]):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError(f"empty term in {text!r}")
        chunks.append((-1 if sign == "-" else 1, chunk))
    return chunks


def parse_multivector(text: str, form: QuadraticForm) -> Multivector:
    """Parse a sum of optionally scaled blades over the form's field."""
    field = form.field
    coeffs = [field.zero] * form.dim
    for sgn, chunk in split_terms(text, "multivector"):
        if "*" in chunk:
            coef_text, blade_text = chunk.split("*", 1)
            coef = field.parse(coef_text.strip())
            mask = parse_blade(blade_text.strip(), form.n)
        elif chunk.startswith("e"):
            coef = field.one
            mask = parse_blade(chunk, form.n)
        else:
            coef = field.parse(chunk)
            mask = 0
        if sgn < 0:
            coef = -coef
        coeffs[mask] = coeffs[mask] + coef
    return Multivector._make(form, tuple(coeffs))


def join_terms(parts: Sequence) -> str:
    """Inverse of :func:`split_terms`: the (sign, term) pairs as one sum,
    with a leading sign only when the first term is negative; no terms
    give ``0``."""
    if not parts:
        return "0"
    (sign, term), rest = parts[0], parts[1:]
    return ("-" if sign < 0 else "") + term + "".join(
        (" - " if s < 0 else " + ") + t for s, t in rest
    )


def format_multivector(x: Multivector) -> str:
    """Render in the grammar that :func:`parse_multivector` accepts.

    Terms are emitted in ascending mask order; the zero element prints as
    ``0``.  Over F_p a coefficient prints as its residue, so no term is
    negative.  Formatting then parsing is the identity on values.
    """
    form = x.form
    parts = []
    for mask, c in x.terms():
        mag = c if form.field.is_rational else c.residue
        sign, mag = (-1, -mag) if mag < 0 else (1, mag)
        blade = format_blade(mask, form.n)
        parts.append((sign, str(mag) if mask == 0 else blade if mag == 1 else f"{mag}*{blade}"))
    return join_terms(parts)
