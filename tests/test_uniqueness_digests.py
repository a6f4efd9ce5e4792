"""Uniqueness reports pinned by digest: every field of each report.

``uniqueness_digests.json`` holds one sha256 per call of
``pairing_uniqueness_report``, with and without parity invariance, over Q,
F_3 and F_7 on the diagonals of acceptance criterion 3 at ranks 1-3 (those
that stay nondegenerate over the field), and over Q on one diagonal with
fractions.  The digest covers every field of the report: rank, nullity,
consistent, unique, matches_canonical, solution, kernel (each free
direction, in order) and kernel_is_volume_twist, with n and unknowns.  A
change that is meant to keep the solve's answers must leave every digest as
it is.  After a deliberate change, regenerate the file with
``python tests/test_uniqueness_digests.py`` (with the package importable)
and review the diff.
"""
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

DIGESTS = Path(__file__).with_name("uniqueness_digests.json")

CRITERION_DIAGONALS = ("1", "-2", "3", "1,1", "1,-1", "2,-3", "1,1,-1", "1,1,1", "2,-3,5")
RATIONAL_DIAGONAL = "1/2,3,-7/5"


def cases() -> list:
    """``(key, form, parity)`` for each report, ``key`` naming all three."""
    from cliffex import FieldSpec, QuadraticForm
    from cliffex.errors import DegenerateForm

    forms = [(f"diag:{d}", field) for field in ("rational", "fp:3", "fp:7")
             for d in CRITERION_DIAGONALS]
    forms.append((f"diag:{RATIONAL_DIAGONAL}", "rational"))
    out = []
    for text, field in forms:
        try:
            form = QuadraticForm.from_text(text, FieldSpec.from_text(field))
        except DegenerateForm:
            continue  # an entry divisible by the prime
        out += [(f"{text} {field} parity={parity}", form, parity) for parity in (False, True)]
    return out


def digest(form, parity: bool) -> str:
    """sha256 of the repr of every field of the report, in declaration order."""
    from cliffex import pairing_uniqueness_report

    rep = pairing_uniqueness_report(form, require_parity_invariance=parity)
    blob = "\0".join(f"{f.name}={getattr(rep, f.name)!r}" for f in dataclasses.fields(rep))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_uniqueness_reports_match_the_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    table = cases()
    assert sorted(recorded) == sorted(key for key, _, _ in table)
    changed = [key for key, form, parity in table if digest(form, parity) != recorded[key]]
    assert not changed, f"{len(changed)} reports changed, first: {changed[:5]}"


if __name__ == "__main__":
    table = {key: digest(form, parity) for key, form, parity in cases()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
