"""Every rank cap of the engine, and its one route threshold, in one table.

A cap is the largest rank n at which an enumeration, exact solve or dense
cross-check runs; above it the route raises CapExceeded or the check is
skipped (blade pairs are sampled).  The closed forms run at every rank.
SPLIT_PRODUCT is no cap: it picks an exact product route at every rank.
Callers read ``caps.NAME`` when they run, so a test can substitute a value
with ``monkeypatch``.  Raise a cap only with a measurement at the new rank.
"""
from .errors import CapExceeded

GENERATORS = 16  # generator counts a QuadraticForm accepts: the advertised n <= 16
# Exact centralizer solve of center / lie_center (method="solve") and so of
# verify_classification: n generators tested on each of 2^n blades, 9 ms at
# n = 14; at 16, 32 ms, and check_centers + check_classification take 0.28 s.
CENTER_SOLVE = 14
# Trace route of killing_form: quadratic in the Lie dimension, all entries of
# sig:n,0 in 0.13 s at n = 10, 0.49 s at 11, 2.1 s at 12 (2-core machine).
KILLING_TRACE = 10
ISOMETRY_GRAM = 8  # Gram preservation in isometry_evidence: a dim^3 loop
MULTIPLICATIVITY = 6  # equivalence_isomorphism's check on all 4^n blade pairs
UNIQUENESS_SOLVE = 3  # pairing axioms: 2n·4^n equations in 4^n / 2 unknowns
# F_p products of |supp x| |supp y| >= SPLIT_PRODUCT 2^n go to the split route.
# Over F_101 it broke even at 4 pairs per blade for even n, 8 for odd n (4..10).
SPLIT_PRODUCT = 8

# Checks in checks.py that sweep dense objects.
BLADE_PAIRS_EXHAUSTIVE = 5  # every blade pair against the word oracle; 200 sampled above
KILLING_DICHOTOMY_CHECK = 4  # two dense commutators per pair of Lie blades
INVERTIBILITY_CHECK = 6  # dense 2^n x 2^n determinants and inverses
ADJOINT_MATRICES_CHECK = 5  # dense translation matrices and their adjoints
EQUIVALENCE_CHECK = 4  # a full AlgebraMap, built and checked both ways


def over(name: str, n: int) -> str:
    """``"<name> capped at n = <value>"`` when rank n is above the cap, else ``""``."""
    cap = globals()[name]
    return f"{name} capped at n = {cap}" if n > cap else ""


def require(name: str, n: int) -> None:
    """Raise :class:`CapExceeded` when rank n is above the cap ``name``."""
    if message := over(name, n):
        raise CapExceeded(message)
