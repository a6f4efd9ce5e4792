"""Mutation checks: small wrong edits of the package that named tests must catch.

Run by hand, with pytest installed, from the root of the repository:

    python tests/mutants.py [NAME ...]

Each mutant is an exact anchor text in one file of ``src/cliffex``, its
replacement, and the test ids that must fail on it.  The script copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory, runs
every named test there once unmutated (they must all pass), then applies
one mutant at a time and runs its tests.  It prints KILLED or SURVIVED per
mutant and exits 1 when one survives, when a run stops on an error, or when
an anchor does not occur exactly once in ``src/``; ``tests/test_mutants.py``
checks the anchors in the tier-1 suite.  pytest does not collect this file.
"""
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cliffex"


class Mutant(NamedTuple):
    name: str
    file: str  # in src/cliffex
    anchor: str
    replacement: str
    tests: tuple  # pytest ids, relative to the repository root


MUTANTS = (
    Mutant("minus-one square keeps the sign", "core.py",
           "                        if s == minus:\n                            flip += 1",
           "                        if s == minus:\n                            flip += 0",
           ("tests/test_core.py::test_vector_square_rule",
            "tests/test_core.py::test_kernel_against_word_oracles[rational-unit]")),
    Mutant("right operand's first slot skipped", "core.py",
           "for mj, cj in right:", "for mj, cj in right[1:]:",
           ("tests/test_core.py::test_ring_axioms_sampled",
            "tests/test_core.py::test_commutator_and_power")),
    Mutant("grade-2 sign dropped in _signed", "core.py",
           "sign_fn((1 << k) - 1) < 0 for k", "sign_fn((1 << k) - 1) < 0 and k != 2 for k",
           ("tests/test_core.py::test_involution_morphism_laws",)),
    Mutant("sign_mask off by one", "core.py",
           "w ^= low - 1 if left", "w ^= low if left",
           ("tests/test_core.py::test_reorder_sign_against_word_oracle",
            "tests/test_core.py::test_generator_squares")),
    Mutant("row swap keeps the pivot sign", "linalg.py",
           "            sign = -sign\n", "            sign = sign\n",
           ("tests/test_linalg.py::test_determinant_of_identity_and_swap",
            "tests/test_linalg.py::test_determinant_matches_cofactor_expansion")),
    Mutant("square_table swaps numerator and denominator", "core.py",
           "num, den = -q.numerator, q.denominator", "num, den = -q.denominator, q.numerator",
           ("tests/test_core.py::test_generator_squares",
            "tests/test_core.py::test_gram_diagonal_closed_form")),
    Mutant("Lie centre at n = 3 mod 4", "structure.py",
           "[form.volume_element()] if form.n % 4 == 1 else []",
           "[form.volume_element()] if form.n % 4 == 3 else []",
           ("tests/test_structure.py::test_lie_center_closed_form",
            "tests/test_structure.py::test_decomposition_shape")),
    Mutant("Killing count one too high", "structure.py",
           "return _anticommuting_count(form.n, mask.bit_count())",
           "return _anticommuting_count(form.n, mask.bit_count()) + 1",
           ("tests/test_structure.py::test_killing_count_matches_the_enumeration_at_every_mask",)),
    Mutant("Killing trace divided by d", "structure.py",
           "quotients((total,), d * d)", "quotients((total,), d)",
           ("tests/test_structure.py::test_killing_trace_sum_is_the_count_on_every_blade[Q-3]",)),
    Mutant("bracket with the last generator forced to 0", "structure.py",
           "brackets = [_brackets(squares, 1 << k) for k in range(form.n)]",
           "brackets = [_brackets(squares, 1 << k) for k in range(form.n - 1)]",
           ("tests/test_structure.py::test_solved_centers_agree_with_closed_form",
            "tests/test_structure.py::test_centralizer_kernel_is_the_kernel_of_the_literal_system")),
    Mutant("_split_pair sign", "core.py",
           "(y, -x * a % p))", "(y, x * a % p))",
           ("tests/test_core.py::test_each_split_branch_gives_a_quaternion_basis",)),
    Mutant("unit route det power doubled", "operators.py",
           "power = split.matrix(a.coeffs), 1, 1 << form.n // 2",
           "power = split.matrix(a.coeffs), 1, 1 << form.n // 2 + 1",
           ("tests/test_core.py::test_split_determinants_against_the_right_matrix",)),
    Mutant("SPLIT_PRODUCT at 0", "caps.py",
           "SPLIT_PRODUCT = 8", "SPLIT_PRODUCT = 0",
           ("tests/test_core.py::test_the_threshold_routes_only_large_prime_field_products",)),
    Mutant("grade 3 admitted as a Lie grade", "structure.py",
           "mask.bit_count() % 4 in (1, 2)", "mask.bit_count() % 4 in (1, 2, 3)",
           ("tests/test_structure.py::test_lie_blades_are_grades_one_and_two_mod_four",
            "tests/test_structure.py::test_lie_dimension_table")),
    Mutant("Q determinant divided by c^(2^n - 1)", "operators.py",
           "c**form.dim", "c**(form.dim - 1)",
           ("tests/test_operators.py::test_determinants_against_cofactor_oracle",)),
    Mutant("hash ignores the scalar rule", "core.py",
           "return hash(self.coeffs[0])", "return hash((self.form, self.coeffs))",
           ("tests/test_core.py::test_equal_values_hash_alike",)),
    Mutant("blade product scaled by the squares of the union", "core.py",
           "coef = self.square_factor(a & b)", "coef = self.square_factor(a | b)",
           ("tests/test_checks.py::"
            "test_killing_dichotomy_reads_blade_products_below_and_above_the_pair_cap",)),
    Mutant("right-law row never written", "operators.py",
           "rows.append(equation((u, coef(b, g)), (v, coef(c, g))))", "pass",
           ("tests/test_operators.py::test_generator_laws_at_rank_four[Q]",)),
    Mutant("orbit test drops the representative", "operators.py",
           "(b, c) > (min(g ^ b", "(b, c) >= (min(g ^ b",
           ("tests/test_uniqueness_digests.py::test_uniqueness_reports_match_the_recorded_digests",)),
    Mutant("Killing check reads one blade below the cap", "checks.py",
           "if capped else masks:", "if capped else masks[:1]:",
           ("tests/test_checks.py::test_below_the_cap_the_killing_check_compares_every_blade",)),
)


def anchor_counts() -> dict:
    """Mutant name -> occurrences of its anchor in all of ``src/cliffex``."""
    texts = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    return {m.name: sum(text.count(m.anchor) for text in texts) for m in MUTANTS}


def _pytest(cwd: Path, ids) -> int:
    """pytest's exit code on ``ids`` in ``cwd`` (1: a test failed), or -1 after 10 minutes."""
    try:
        return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *ids], cwd=cwd, capture_output=True, timeout=600).returncode
    except subprocess.TimeoutExpired:
        return -1


def main(names) -> int:
    mutants = [m for m in MUTANTS if not names or m.name in names]
    stale = {name: k for name, k in anchor_counts().items() if k != 1}
    if stale:
        print(f"anchors not found exactly once: {stale}")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        ids = sorted({i for m in mutants for i in m.tests})
        if _pytest(work, ids) != 0:
            print("the named tests do not all pass on the unmutated tree")
            return 1
        survived = 0
        for m in mutants:
            path = work / "src" / "cliffex" / m.file
            text = path.read_text()
            path.write_text(text.replace(m.anchor, m.replacement))
            code = _pytest(work, m.tests)
            path.write_text(text)
            verdict = {0: "SURVIVED", 1: "KILLED"}.get(code, f"ERROR (pytest exit {code})")
            survived += code != 1
            print(f"{verdict:<10} {m.name}  [{m.file}; {', '.join(m.tests)}]")
    print(f"{len(mutants) - survived} of {len(mutants)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
