"""Classification of the positive definite algebras and their isometry groups.

Over the reals with a positive definite form, the algebra of rank n is a
matrix algebra (or a double of one) over R, C, or H, repeating with period
8 in n while the matrix size scales by 16 per period.  The isometry group
of the canonical pairing follows the same rhythm through the orthogonal,
unitary, and symplectic families on the same matrix size and doubling.
This module hard-codes the one period-8 table of algebras, reads the group
from it, exposes exact dimension formulas, and verifies the structural
payload (Lie dimension, center, Killing definiteness, algebra dimension)
against the exact engine for small ranks.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import caps, structure
from .core import QuadraticForm
from .errors import CapExceeded
from .field import RATIONAL

_REAL_DIMS = {"R": 1, "C": 2, "H": 4}

# Period-8 table: residue of n -> (base field, matrix size exponent offset,
# doubled?).  The size is 2**(4k + offset) where k = n // 8.
_ALGEBRA_TABLE = {
    0: ("R", 0, False),
    1: ("C", 0, False),
    2: ("H", 0, False),
    3: ("H", 0, True),
    4: ("H", 1, False),
    5: ("C", 2, False),
    6: ("R", 3, False),
    7: ("R", 3, True),
}

_GROUP_FAMILY = {"R": "O", "C": "U", "H": "Sp"}  # the unitary group over each base


@dataclass(frozen=True)
class MatrixAlgebra:
    """A matrix algebra M(size, base), possibly doubled."""

    base: str
    size: int
    double: bool

    def real_dimension(self) -> int:
        d = self.size * self.size * _REAL_DIMS[self.base]
        return 2 * d if self.double else d

    def describe(self) -> str:
        body = f"M({self.size},{self.base})"
        return f"{body}+{body}" if self.double else body


@dataclass(frozen=True)
class IsometryGroup:
    """A classical group O(m), U(m), or Sp(m), possibly doubled."""

    family: str
    size: int
    double: bool

    def dimension(self) -> int:
        m = self.size
        if self.family == "O":
            d = m * (m - 1) // 2
        elif self.family == "U":
            d = m * m
        else:
            d = m * (2 * m + 1)
        return 2 * d if self.double else d

    def describe(self) -> str:
        body = f"{self.family}({self.size})"
        return f"{body}x{body}" if self.double else body


def matrix_algebra_of(n: int) -> MatrixAlgebra:
    """Table entry for the rank-n positive definite algebra."""
    if not isinstance(n, int) or n < 1:
        raise CapExceeded(f"rank must be an int of at least 1, got {n!r}")
    base, offset, double = _ALGEBRA_TABLE[n % 8]
    return MatrixAlgebra(base, 1 << (4 * (n // 8) + offset), double)


def isometry_group_of(n: int) -> IsometryGroup:
    """The isometry group of the canonical pairing: the unitary group of the
    algebra table's base field, on the same matrix size and doubling."""
    algebra = matrix_algebra_of(n)
    return IsometryGroup(_GROUP_FAMILY[algebra.base], algebra.size, algebra.double)


def expected_lie_center_dim(n: int) -> int:
    """1 exactly when the top blade is central in the Lie algebra."""
    return 1 if n % 4 == 1 else 0


@dataclass(frozen=True)
class CheckPair:
    expected: int
    got: int

    @property
    def ok(self) -> bool:
        return self.expected == self.got


@dataclass(frozen=True)
class ClassificationReport:
    """Exact-engine verification of the table entry for one rank."""

    n: int
    algebra: MatrixAlgebra
    group: IsometryGroup
    lie_dim: CheckPair
    center_dim: CheckPair
    algebra_dim: CheckPair
    killing_definite: bool

    @property
    def passed(self) -> bool:
        return (
            self.lie_dim.ok
            and self.center_dim.ok
            and self.algebra_dim.ok
            and self.killing_definite
        )


def verify_classification(n: int) -> ClassificationReport:
    """Check the table's predictions against exact computation at rank n.

    Uses the unit-diagonal rational form.  The Lie dimension must match
    the group's dimension, the exactly solved Lie center must match the
    period-4 prediction, the Killing form must be negative on every ideal
    blade, and the table algebra's real dimension must be 2^n.  A rank
    above ``caps.GENERATORS`` is refused before a form is built.
    """
    caps.require("GENERATORS", n)
    form = QuadraticForm([1] * n, RATIONAL)
    algebra = matrix_algebra_of(n)
    group = isometry_group_of(n)

    lie_dim = CheckPair(group.dimension(), len(structure.lie_blades(form)))

    solved = structure.lie_center(form, method="solve")
    center_dim = CheckPair(expected_lie_center_dim(n), solved.dimension)

    algebra_dim = CheckPair(1 << n, algebra.real_dimension())

    definite = structure.definiteness_report(form)
    killing_definite = definite.killing_negative

    return ClassificationReport(
        n=n,
        algebra=algebra,
        group=group,
        lie_dim=lie_dim,
        center_dim=center_dim,
        algebra_dim=algebra_dim,
        killing_definite=killing_definite,
    )
