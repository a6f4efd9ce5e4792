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
"""
from __future__ import annotations

import re
from math import prod
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import caps
from .errors import (
    CapExceeded,
    DegenerateForm,
    IndexOutOfRange,
    MismatchedForm,
    ParseError,
)
from .field import NUMBERS, RATIONAL, FieldElement, FieldSpec
from .linalg import _quotients


def reorder_parity(a: int, b: int) -> int:
    """Parity (0 or 1) of the interleave sort of index words I then J."""
    t = 0
    bb = b
    while bb:
        low = bb & -bb
        t += (a >> low.bit_length()).bit_count()
        bb ^= low
    return t & 1


def reorder_sign(a: int, b: int) -> int:
    """The ±1 factor from sorting the concatenated blade index words."""
    return -1 if reorder_parity(a, b) else 1


def anticommute_parity(a: int, b: int) -> int:
    """1 when basis blades with masks ``a`` and ``b`` anticommute.

    Swapping the two index words costs |I||J| transpositions minus one for
    each common index (whose square commutes past everything).
    """
    return (a.bit_count() * b.bit_count() - (a & b).bit_count()) & 1


def grade_of(mask: int) -> int:
    return mask.bit_count()


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
    a per-form cache of the products of -q_i over index subsets.
    """

    __slots__ = ("n", "diag", "field", "_sqf_cache", "_gram", "_neg_diag", "_squares")

    def __init__(self, diag: Sequence, field: Optional[FieldSpec] = None):
        if field is None:
            field = RATIONAL
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
        self._neg_diag = tuple(-q for q in entries)
        self._sqf_cache = {0: field.one}
        self._gram: Optional[tuple] = None
        self._squares: Optional[tuple] = None

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
        """Product of -q_i over the indices in ``common`` (cached)."""
        cache = self._sqf_cache
        hit = cache.get(common)
        if hit is not None:
            return hit
        low = common & -common
        val = self.square_factor(common ^ low) * self._neg_diag[low.bit_length() - 1]
        cache[common] = val
        return val

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
            for q in self._neg_diag:
                if p is None:
                    num, den = q.numerator, q.denominator
                    squares = [s * den for s in squares] + [s * num for s in squares]
                else:
                    num = q.residue
                    squares += [s * num % p for s in squares]
            d = 1 if p is not None else prod(q.denominator for q in self.diag)
            self._squares = (d, tuple(squares))
        return self._squares

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
            self._gram = tuple(_quotients(signed, d, self.field))
        return self._gram

    # -- element constructors --------------------------------------------

    def zero(self) -> "Multivector":
        return Multivector._make(self, (self.field.zero,) * self.dim)

    def one(self) -> "Multivector":
        return self.scalar(1)

    def scalar(self, value) -> "Multivector":
        coeffs = [self.field.zero] * self.dim
        coeffs[0] = self.field.element(value)
        return Multivector._make(self, tuple(coeffs))

    def basis_blade(self, mask: int) -> "Multivector":
        self.check_mask(mask)
        coeffs = [self.field.zero] * self.dim
        coeffs[mask] = self.field.one
        return Multivector._make(self, tuple(coeffs))

    def generator(self, index: int) -> "Multivector":
        """The grade-1 generator e_index, indices 1-based."""
        if not 1 <= index <= self.n:
            raise IndexOutOfRange(f"generator index {index} outside 1..{self.n}")
        return self.basis_blade(1 << (index - 1))

    def generators(self) -> list:
        return [self.generator(i) for i in range(1, self.n + 1)]

    def vector(self, components: Iterable) -> "Multivector":
        """Grade-1 element with the given n components."""
        comps = [self.field.element(c) for c in components]
        if len(comps) != self.n:
            raise MismatchedForm(f"expected {self.n} components, got {len(comps)}")
        coeffs = [self.field.zero] * self.dim
        for i, c in enumerate(comps):
            coeffs[1 << i] = c
        return Multivector._make(self, tuple(coeffs))

    def multivector(self, data) -> "Multivector":
        """Build from a mask -> coefficient mapping or a dense sequence."""
        coeffs = [self.field.zero] * self.dim
        if isinstance(data, dict):
            for mask, val in data.items():
                self.check_mask(mask)
                coeffs[mask] = coeffs[mask] + self.field.element(val)
        else:
            seq = list(data)
            if len(seq) != self.dim:
                raise MismatchedForm(f"expected {self.dim} coefficients, got {len(seq)}")
            coeffs = [self.field.element(v) for v in seq]
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
        vals = [form.field.element(v) for v in coeffs]
        if len(vals) != form.dim:
            raise MismatchedForm(f"expected {form.dim} coefficients, got {len(vals)}")
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "coeffs", tuple(vals))

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
        return tuple(m for m, c in enumerate(self.coeffs) if c)

    def terms(self) -> Iterator:
        for m, c in enumerate(self.coeffs):
            if c:
                yield m, c

    def grades(self) -> set:
        return {m.bit_count() for m, _ in self.terms()}

    def grade_part(self, k: int) -> "Multivector":
        coeffs = tuple(
            c if m.bit_count() == k else self.form.field.zero
            for m, c in enumerate(self.coeffs)
        )
        return Multivector._make(self.form, coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    # -- ring structure --------------------------------------------------

    def _check_mate(self, other: "Multivector"):
        if self.form != other.form:
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
            return Multivector._make(
                self.form, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
            )
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
            return Multivector._make(
                self.form, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
            )
        s = self._as_scalar(other)
        if s is None:
            return NotImplemented
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] - s
        return Multivector._make(self.form, tuple(coeffs))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Multivector._make(self.form, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check_mate(other)
            form = self.form
            zero = form.field.zero
            out = [zero] * form.dim
            right = [(m, c) for m, c in enumerate(other.coeffs) if c]
            sqf = form.square_factor
            for mi, ci in enumerate(self.coeffs):
                if not ci:
                    continue
                for mj, cj in right:
                    term = ci * cj
                    common = mi & mj
                    if common:
                        term = term * sqf(common)
                    k = mi ^ mj
                    if reorder_parity(mi, mj):
                        out[k] = out[k] - term
                    else:
                        out[k] = out[k] + term
            return Multivector._make(form, tuple(out))
        s = self._as_scalar(other)
        if s is None:
            return NotImplemented
        return Multivector._make(self.form, tuple(c * s for c in self.coeffs))

    def __rmul__(self, other):
        # Scalars commute with everything; Multivector * Multivector never
        # reaches here.
        s = self._as_scalar(other)
        if s is None:
            return NotImplemented
        return Multivector._make(self.form, tuple(s * c for c in self.coeffs))

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
            return self.form == other.form and self.coeffs == other.coeffs
        s = self._as_scalar(other)
        if s is None:
            return NotImplemented
        return self.coeffs[0] == s and not any(self.coeffs[1:])

    def __hash__(self):
        return hash((self.form, self.coeffs))

    # -- involutions -----------------------------------------------------

    def _signed(self, sign_fn) -> "Multivector":
        coeffs = tuple(
            -c if (c and sign_fn(m) < 0) else c for m, c in enumerate(self.coeffs)
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
        total = self.form.field.zero
        for c, d, g in zip(self.coeffs, other.coeffs, self.form.gram_diagonal()):
            if c and d:
                total = total + c * d * g
        return total

    # -- text ------------------------------------------------------------

    def to_text(self) -> str:
        return format_multivector(self)

    def __repr__(self):
        return f"Multivector({self.to_text()!r}, form={self.form.to_text()!r})"

    def __str__(self):
        return self.to_text()


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


def format_multivector(x: Multivector) -> str:
    """Render in the grammar that :func:`parse_multivector` accepts.

    Terms are emitted in ascending mask order; the zero element prints as
    ``0``.  Formatting then parsing is the identity on values.
    """
    form = x.form
    field = form.field
    parts = []
    for mask, c in x.terms():
        blade = format_blade(mask, form.n)
        if field.is_rational:
            negative = c < 0
            mag = -c if negative else c
            if mask == 0:
                body = str(mag)
            elif mag == 1:
                body = blade
            else:
                body = f"{mag}*{blade}"
        else:
            negative = False
            r = c.residue
            if mask == 0:
                body = str(r)
            elif r == 1:
                body = blade
            else:
                body = f"{r}*{blade}"
        parts.append((negative, body))
    if not parts:
        return "0"
    first_neg, first_body = parts[0]
    out = ("-" if first_neg else "") + first_body
    for negative, body in parts[1:]:
        out += (" - " if negative else " + ") + body
    return out
