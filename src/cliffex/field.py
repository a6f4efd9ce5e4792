"""Exact coefficient fields.

Two kinds of field back every computation in this package: arbitrary
precision rationals (``fractions.Fraction``) and prime fields of odd
characteristic (:class:`Fp`).  A :class:`FieldSpec` value names the field,
builds canonical elements, parses and formats them, and exposes a small
arithmetic facade that rejects cross-field mixing loudly instead of letting
Python's numeric coercion guess.  It also owns the one boundary with the
integer engines: :meth:`FieldSpec.scaled` turns field elements into ints
and :meth:`FieldSpec.quotients` turns ints back into field elements.

Characteristic 2 is refused everywhere: the constructions downstream divide
by 2 freely (polarization, averaging over an involution), so a field where
2 = 0 cannot support them.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm
from numbers import Number
from typing import Sequence, Union

from .errors import (
    EvenCharacteristic,
    InversionOfZero,
    MixedFieldSpec,
    NonPrimeModulus,
    ParseError,
    UnorderedField,
)

# Deterministic Miller-Rabin witness set, exact for n < 3.3e24 which is far
# beyond any modulus this package will ever see.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for the modulus sizes used here."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_mod(a: int, p: int):
    """A square root of ``a`` modulo the odd prime ``p`` by Tonelli-Shanks,
    or None when ``a`` is not a square mod p."""
    if pow(a, (p - 1) // 2, p) != 1:
        return 0 if a % p == 0 else None
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q 2^s with q odd
    q, z = (p - 1) >> s, next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i = next(i for i in range(1, s) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


class Fp:
    """A residue class modulo an odd prime, stored canonically in [0, p).

    Arithmetic between residues checks that the moduli agree and refuses to
    mix with rationals; both mistakes raise :class:`MixedFieldSpec`.  Plain
    ``int`` operands are accepted and reduced, which keeps formulas such as
    ``2 * x`` readable.

    A residue hashes as its int in [0, p), as ``Fraction(1)`` hashes as 1, so
    sets and dicts find one by the other; an int outside [0, p) can compare
    equal (``Fp(1, 7) == 8``) without hashing alike.
    """

    __slots__ = ("residue", "modulus")

    def __init__(self, residue: int, modulus: int):
        self.residue = residue % modulus
        self.modulus = modulus

    def _coerce(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.modulus != self.modulus:
                raise MixedFieldSpec(
                    f"residues modulo {self.modulus} and {other.modulus} cannot mix"
                )
            return other
        if isinstance(other, int):
            return Fp(other, self.modulus)
        if isinstance(other, Fraction):
            raise MixedFieldSpec("rational and prime-field values cannot mix")
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.residue + o.residue, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.residue - o.residue, self.modulus)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(o.residue - self.residue, self.modulus)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.residue * o.residue, self.modulus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return Fp(-self.residue, self.modulus)

    def __pow__(self, exp: int):
        if not isinstance(exp, int):
            return NotImplemented
        if exp < 0 and self.residue == 0:
            raise InversionOfZero(f"0 has no inverse modulo {self.modulus}")
        return Fp(pow(self.residue, exp, self.modulus), self.modulus)

    def inverse(self) -> "Fp":
        if self.residue == 0:
            raise InversionOfZero(f"0 has no inverse modulo {self.modulus}")
        return Fp(pow(self.residue, -1, self.modulus), self.modulus)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.modulus == other.modulus and self.residue == other.residue
        if isinstance(other, int):
            return self.residue == other % self.modulus
        return NotImplemented

    def __hash__(self):
        return hash(self.residue)

    def __bool__(self):
        return self.residue != 0

    def __repr__(self):
        return f"Fp({self.residue}, {self.modulus})"

    def __str__(self):
        return f"{self.residue} mod {self.modulus}"


FieldElement = Union[Fraction, Fp]

# Scalar operands of the element types: each goes through FieldSpec.element,
# which refuses floats and foreign residues; anything else is not a scalar.
# The common types come first, ahead of the slower abstract-class checks.
NUMBERS = (int, Fp, Fraction, Number)

_ZEROS: dict = {}  # FieldSpec.zero, one per modulus (None for Q)
_FP_TEXT = re.compile(r"^\s*(-?\d+)\s+mod\s+(\d+)\s*$")
_RAT_TEXT = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*([+-]?\d+)\s*)?$")


@dataclass(frozen=True)
class FieldSpec:
    """Name of a coefficient field: F_p for an odd prime ``p``, or the
    rationals when ``p`` is None (the default).

    The spec object is tiny and hashable; quadratic forms and multivectors
    hold one and route all element construction through it.
    """

    p: int | None = None

    def __post_init__(self):
        if self.p is None:
            return
        if not isinstance(self.p, int) or self.p < 2:
            raise NonPrimeModulus(f"modulus must be an integer >= 2, got {self.p!r}")
        if self.p % 2 == 0:
            raise EvenCharacteristic(f"characteristic 2 is unsupported (modulus {self.p})")
        if not is_prime(self.p):
            raise NonPrimeModulus(f"{self.p} is not prime")

    # -- construction ---------------------------------------------------

    @staticmethod
    def rational() -> "FieldSpec":
        return FieldSpec()

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        if p is None:  # FieldSpec(None) is the rationals
            raise NonPrimeModulus("modulus must be an integer >= 2, got None")
        return FieldSpec(p)

    @staticmethod
    def from_text(text: str) -> "FieldSpec":
        """Parse a field literal: ``rational`` or ``fp:P``."""
        t = text.strip().lower()
        if t in ("rational", "q"):
            return FieldSpec.rational()
        if t.startswith("fp:"):
            body = t[3:]
            if not body.lstrip("+-").isdigit():
                raise ParseError(f"bad prime field literal {text!r}")
            return FieldSpec.prime(int(body))
        raise ParseError(f"unknown field literal {text!r}")

    def to_text(self) -> str:
        return "rational" if self.p is None else f"fp:{self.p}"

    # -- basic facts ----------------------------------------------------

    @property
    def characteristic(self) -> int:
        return self.p or 0

    @property
    def is_rational(self) -> bool:
        return self.p is None

    @cached_property
    def zero(self) -> FieldElement:
        """The field's 0: one object per field, shared by every untouched slot
        so that slot operations skip it by identity.  Never mutate it."""
        return _ZEROS.setdefault(self.p, Fraction(0) if self.is_rational else Fp(0, self.p))

    @property
    def one(self) -> FieldElement:
        return Fraction(1) if self.is_rational else Fp(1, self.p)

    # -- element construction and validation ----------------------------

    def element(self, value) -> FieldElement:
        """Coerce ``value`` into a canonical element of this field.

        Accepts ints, text, and elements of the same field.  A rational
        value over a prime field is evaluated as a quotient (denominator
        inverted mod p); an ``Fp`` value over the rationals is refused.
        """
        if self.is_rational:
            if isinstance(value, Fp):
                raise MixedFieldSpec("prime-field residue given for a rational field")
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
            if isinstance(value, str):
                return self.parse(value)
            raise MixedFieldSpec(f"cannot build a rational from {value!r}")
        if isinstance(value, Fp):
            if value.modulus != self.p:
                raise MixedFieldSpec(
                    f"residue modulo {value.modulus} given for F_{self.p}"
                )
            return value
        if isinstance(value, int):
            return Fp(value, self.p)
        if isinstance(value, Fraction):
            den = Fp(value.denominator, self.p)
            if not den:
                raise InversionOfZero(
                    f"denominator {value.denominator} vanishes mod {self.p}"
                )
            return Fp(value.numerator, self.p) * den.inverse()
        if isinstance(value, str):
            return self.parse(value)
        raise MixedFieldSpec(f"cannot build an F_{self.p} element from {value!r}")

    def owns(self, x) -> bool:
        """True when ``x`` is already a canonical element of this field."""
        if self.is_rational:
            return isinstance(x, Fraction)
        return isinstance(x, Fp) and x.modulus == self.p

    def _claim(self, x) -> FieldElement:
        if not self.owns(x):
            raise MixedFieldSpec(f"{x!r} is not an element of {self.to_text()}")
        return x

    # -- text forms ------------------------------------------------------

    def parse(self, text: str) -> FieldElement:
        """Parse a scalar literal: ``a`` or ``a/b``, plus ``k mod p``."""
        m = _FP_TEXT.match(text)
        if m:
            k, p = int(m.group(1)), int(m.group(2))
            if self.is_rational:
                raise MixedFieldSpec(f"residue literal {text!r} over the rationals")
            if p != self.p:
                raise MixedFieldSpec(f"literal {text!r} has modulus {p}, field has {self.p}")
            return Fp(k, p)
        m = _RAT_TEXT.match(text)
        if not m:
            raise ParseError(f"bad scalar literal {text!r}")
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
        if den == 0:
            raise ParseError(f"zero denominator in {text!r}")
        return self.element(Fraction(num, den))

    def format(self, x: FieldElement) -> str:
        x = self._claim(x)
        return str(x)

    # -- the integer boundary --------------------------------------------

    def scaled(self, values: Sequence) -> tuple:
        """``(ints, mult)``: the field elements ``values`` times ``mult`` as ints.

        Over Q (ints or fractions), mult is the lcm of the denominators; over
        F_p the ints are the residues and mult is 1.
        """
        if self.p is not None:
            return [self.element(v).residue for v in values], 1
        mult = lcm(*(v.denominator for v in values))
        return [v.numerator * (mult // v.denominator) for v in values], mult

    def quotients(self, nums: Sequence[int], den: int) -> list:
        """The field elements v / den for the ints v in ``nums``; den != 0 in the field."""
        p = self.p
        if p is None:
            return [Fraction(v, den) for v in nums]
        inv = pow(den, -1, p)
        return [Fp(v * inv, p) for v in nums]

    # -- arithmetic facade (strict: no silent cross-field coercion) ------

    def add(self, x, y) -> FieldElement:
        return self._claim(x) + self._claim(y)

    def mul(self, x, y) -> FieldElement:
        return self._claim(x) * self._claim(y)

    def div(self, x, y) -> FieldElement:
        x, y = self._claim(x), self._claim(y)
        if not y:
            raise InversionOfZero("division by zero")
        return x / y

    def inv(self, x) -> FieldElement:
        x = self._claim(x)
        if not x:
            raise InversionOfZero("zero has no inverse")
        if isinstance(x, Fp):
            return x.inverse()
        return Fraction(1) / x

    def sign_of(self, x) -> int:
        """Sign in {-1, 0, 1}; defined only over an ordered field."""
        if not self.is_rational:
            raise UnorderedField(f"F_{self.p} admits no order-compatible sign")
        x = self._claim(x)
        if x > 0:
            return 1
        if x < 0:
            return -1
        return 0


RATIONAL = FieldSpec.rational()
