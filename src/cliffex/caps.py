"""Every rank cap of the engine, and its one route threshold, in one table.

A cap is the largest rank n at which an enumeration, exact solve or dense
cross-check runs; above it the route raises CapExceeded or the check is
skipped, but the blade-level checks sample their pairs.  The closed forms, the
centre solve and the Killing dichotomy run at every rank.  SPLIT_PRODUCT is no
cap: it picks an exact product route at every rank.  Callers read ``caps.NAME``
when they run, so a test can substitute a value with ``monkeypatch``.  Each cap
states its measured cost at its value and one rank above (2-core machine);
raise one only with a measurement at the new rank.
"""
from .errors import CapExceeded

# Generator counts a QuadraticForm accepts (the advertised n <= 16), and ranks
# verify_classification takes: `cliffex check` on sig:16,0 takes 2.4 s.
GENERATORS = 16
# Trace route of killing_form: quadratic in the Lie dimension, all entries of
# sig:n,0 in 0.13 s at n = 10, 0.49 s at 11, 2.1 s at 12.
KILLING_TRACE = 10
# Gram preservation in isometry_evidence, dim t^2 per translation by a t-term
# element: 2 ms on a sampled rotor at n = 8, 4-6 ms at 9.
ISOMETRY_GRAM = 8
# equivalence_isomorphism's check on all 4^n blade pairs, and check_equivalence:
# 0.06-0.12 s and 0.13-0.30 s at n = 6, 0.33-0.54 s and 0.67-1.25 s at 7.
MULTIPLICATIVITY = 6
# Pairing axioms, one row per orbit of each law (91 on sig:2,1) in 4^n / 2 unknowns,
# solved with and without parity invariance: 1.7-1.8 ms at n = 3, 18-20 ms at 4.
UNIQUENESS_SOLVE = 3
# F_p products of |supp x| |supp y| >= SPLIT_PRODUCT 2^n go to the split route.
# Over F_101 it broke even at 4 pairs per blade for even n, 8 for odd n (4..10).
SPLIT_PRODUCT = 8

# Checks in checks.py that sweep dense objects; costs of the whole check, over
# Q and F_7 on sig:n,0 and sig:n-n/3,n/3.
# The one pair sweep of check_blade_products, check_gram's off-diagonal and
# check_killing_dichotomy, every blade pair and 200 sampled above: the three
# checks take 5-8 ms at n = 5, 22-35 ms at 6.
BLADE_PAIRS_EXHAUSTIVE = 5
# Dense 2^n x 2^n translation matrices in field elements, in check_invertibility
# (0.01-0.06 s at n = 6, 0.02-0.17 s at 7) and check_adjoint_matrices
# (0.05-0.20 s at 6, 0.14-0.71 s at 7).
TRANSLATION_MATRICES = 6


def over(name: str, n: int) -> str:
    """``"<name> capped at n = <value>"`` when rank n is above the cap, else ``""``."""
    cap = globals()[name]
    return f"{name} capped at n = {cap}" if n > cap else ""


def require(name: str, n: int) -> None:
    """Raise :class:`CapExceeded` when rank n is not an int or is above the cap ``name``."""
    if not isinstance(n, int):
        raise CapExceeded(f"rank must be an int, got {n!r}")
    if message := over(name, n):
        raise CapExceeded(message)
