"""Tests of the benchmark itself: its checks reject wrong answers, its oracles
agree with the definitions, and every workload runs end to end at a tiny size.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
import workloads as W  # noqa: E402
from cliffex import QuadraticForm, operators, structure  # noqa: E402
from cliffex.field import FieldSpec  # noqa: E402
from cliffex.reference import cofactor_determinant  # noqa: E402

Q, F7, F101 = FieldSpec.rational(), FieldSpec.prime(7), FieldSpec.prime(101)


def _flip(x, mask):
    coeffs = list(x.coeffs)
    coeffs[mask] = -coeffs[mask]
    return x.form.multivector(coeffs)


@pytest.fixture
def pair3():
    rng = Random(3)
    form = QuadraticForm([1, -1, 2], Q)
    return W.dense(rng, form), W.dense(rng, form)


# -- algebra_mix checks -------------------------------------------------------


def test_product_checks_reject_one_flipped_sign(pair3):
    x, y = pair3
    good = x * y
    assert W.check_product_full(x, y)(good) is None
    assert W.check_product_sampled(x, y, [0, 5])(good) is None
    bad = _flip(good, 5)
    assert W.check_product_full(x, y)(bad) is not None
    assert W.check_product_sampled(x, y, [0, 5])(bad) is not None


def test_pair_involution_sum_commutator_checks_reject_wrong_answers(pair3):
    x, y = pair3
    assert W.check_pair(x, y)(x.pair(y)) is None
    assert W.check_pair(x, y)(x.pair(y) + 1) is not None
    for kind in ("grade", "reverse", "conj"):
        good = x.involution(kind)
        assert W.check_involution(kind, x)(good) is None
        assert W.check_involution(kind, x)(_flip(good, 3)) is not None
    assert W.check_sum(x, y)(x + y) is None
    assert W.check_sum(x, y)(x - y) is not None
    assert W.check_commutator(x, y)(x.commutator(y)) is None
    assert W.check_commutator(x, y)(y.commutator(x)) is not None


def test_anticommutator_check_rejects_a_wrong_scalar():
    form = QuadraticForm([2, -3, 5], F101)
    u, v = form.vector([1, 2, 3]), form.vector([4, 5, 6])
    good = u * v + v * u
    assert W.check_anticommutator(u, v)(good) is None
    assert W.check_anticommutator(u, v)(good + 1) is not None
    assert W.check_anticommutator(u, v)(u * v) is not None


# -- inverse_solve checks -----------------------------------------------------


class _LeftOnlyInverse:
    """Poses as a multivector y with x * y = 1 but y * x = 0."""

    def __init__(self, form):
        self.form = form

    def __rmul__(self, other):
        return self.form.one()

    def __mul__(self, other):
        return self.form.zero()


@pytest.mark.parametrize("field", [Q, F101])
def test_inverse_checks_reject_wrong_answers(field):
    rng = Random(7)
    form = W._inv_form(3, field)
    x, xinv = W.invertible(rng, form, 3)
    assert W.check_inverse(x, xinv)(operators.inverse(x)) is None
    assert W.check_inverse(x, xinv)(_LeftOnlyInverse(form)) == "inverse(x) * x is not 1"
    assert W.check_inverse(x, xinv)(xinv + form.generator(1)) is not None
    assert W.check_not_zero_divisor(x, xinv)(False) is None
    assert W.check_not_zero_divisor(x, xinv)(True) is not None
    z, w = W.zero_divisor(rng, form, 3)
    assert W.check_zero_divisor(z, w)(True) is None
    assert W.check_zero_divisor(z, w)(False) is not None
    assert W.check_zero_divisor(z, form.one())(True) is not None
    assert W.check_dets_zero(z)(operators.translation_determinants(z)) is None
    assert W.check_dets_zero(z)((field.zero, field.one)) is not None


def test_determinant_checks_reject_wrong_values():
    rng = Random(8)
    form = W._inv_form(3, Q)
    a, _ = W.invertible(rng, form, 3)
    b, _ = W.invertible(rng, form, 2)
    dl, dr = operators.translation_determinants(a)
    assert W.check_dets_rational(a, b)((dl, dr)) is None
    assert W.check_dets_rational(a, b)((dl * 2, dr)) is not None
    assert W.check_dets_rational(a, b)((dl, -dr)) is not None
    fp_form = W._inv_form(3, F101)
    x, _ = W.invertible(rng, fp_form, 3)
    dl, dr = operators.translation_determinants(x)
    assert W.check_dets_mod_p(x, W._INV_DIAG[:3])((dl, dr)) is None
    assert W.check_dets_mod_p(x, W._INV_DIAG[:3])((dl + 1, dr)) is not None


# -- structure_scan checks ----------------------------------------------------


def test_killing_check_rejects_a_wrong_entry_and_count():
    form = QuadraticForm([1, -1, 2, -3, 1], Q)
    records = structure.killing_form(form)
    assert W.check_killing(form)(records) is None
    wrong_value = list(records)
    wrong_value[3] = dataclasses.replace(records[3], value=records[3].value + 1)
    assert W.check_killing(form)(wrong_value) is not None
    wrong_count = list(records)
    wrong_count[0] = dataclasses.replace(records[0], anticommuting=records[0].anticommuting + 1)
    assert W.check_killing(form)(wrong_count) is not None
    assert W.check_killing(form)(records[:-1]) is not None


def test_uniqueness_check_rejects_a_wrong_nullity():
    for n in (1, 2, 3):
        form = QuadraticForm([1, -1, 2][:n], F7)
        rep = operators.pairing_uniqueness_report(form)
        assert W.check_uniqueness(form, False)(rep) is None
        wrong = dataclasses.replace(rep, nullity=1 - rep.nullity, unique=not rep.unique)
        assert W.check_uniqueness(form, False)(wrong) is not None
    form = QuadraticForm([1, 1, 1], Q)
    rep = operators.pairing_uniqueness_report(form, require_parity_invariance=True)
    assert W.check_uniqueness(form, True)(rep) is None
    assert W.check_uniqueness(form, False)(rep) is not None


def test_center_definiteness_classification_checks_reject_wrong_answers():
    from cliffex import classify

    form = QuadraticForm([1, 2, -3, 1, -1], F7)
    good = structure.center(form, method="solve")
    assert W.check_center(form, "algebra")(good) is None
    assert W.check_center(form, "algebra")(dataclasses.replace(good, dimension=1)) is not None
    lie = structure.lie_center(form, method="solve")
    assert W.check_center(form, "lie")(lie) is None
    assert W.check_center(form, "lie")(dataclasses.replace(lie, contains_volume=False)) is not None
    pos = QuadraticForm([1] * 4)
    rep = structure.definiteness_report(pos)
    assert W.check_definiteness(pos)(rep) is None
    assert W.check_definiteness(pos)(dataclasses.replace(rep, killing_signs=(9, 1, 0))) is not None
    cls = classify.verify_classification(5)
    assert W.check_classification(5)(cls) is None
    assert W.check_classification(6)(cls) is not None


def test_decompose_check_catches_the_flag_over_f3_and_passes_over_f7():
    bad = QuadraticForm([1] * 4, FieldSpec.prime(3))
    assert "killing_nondegenerate_on_ideal" in W.check_decompose(bad)(structure.decompose(bad))
    good = QuadraticForm([1] * 4, F7)
    dec = structure.decompose(good)
    assert W.check_decompose(good)(dec) is None
    assert W.check_decompose(good)(dataclasses.replace(dec, codim=1)) is not None


# -- check_cli checks ---------------------------------------------------------


def test_cli_check_rejects_exit_code_fail_line_drift_and_wrong_json():
    argv = W._args("product", "sig:2,1", None, "json", "e1 + 2*e2", "e3")
    out = W.run_cli(argv)

    def want_e123(obj):
        return None if oracles.parse_mv(obj["result"]) == {0b101: 1, 0b110: 2} else "wrong"

    check = W.check_cli(argv, want_e123, True)
    assert check(out) is None
    assert check((1, out[1])) is not None
    assert check((0, out[1] + "FAIL x\n")) is not None
    assert check((0, out[1].replace("e13", "e12"))) is not None
    assert W.check_cli(argv, lambda obj: "no", True)(out) is not None


# -- oracles ------------------------------------------------------------------


def test_grade_formula_matches_the_enumeration():
    for n in range(1, 8):
        form = QuadraticForm([1] * n)
        for mask in range(form.dim):
            assert oracles.killing_count(n, mask.bit_count()) == structure.killing_count(form, mask)
        assert oracles.lie_dimension(n) == structure.lie_dimension(n)


def test_oracle_determinant_matches_cofactor_expansion():
    rng = Random(4)
    for p in (None, 7):
        for d in range(1, 6):
            rows = [[Fraction(rng.randint(-4, 4)) for _ in range(d)] for _ in range(d)]
            want = cofactor_determinant(rows, Q)
            got = oracles.determinant(rows, p)
            assert got == (want if p is None else want.numerator * pow(want.denominator, -1, p) % p)


def test_printed_multivectors_round_trip():
    form = QuadraticForm([1] * 11, Q)
    d = {0: Fraction(-3, 2), 1: Fraction(1), 0b10000000101: Fraction(4)}
    text = oracles.format_mv(d, 11)
    assert oracles.parse_mv(text) == d
    assert oracles.parse_mv(str(form.parse(text))) == d


# -- end to end ---------------------------------------------------------------


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["algebra_mix", "inverse_solve", "structure_scan",
                                      "check_cli"])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_end_to_end_at_a_tiny_size(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in last["metrics"].items()}
    # Only the known fault fails: decompose over F_3 at rank 4, once a pass.
    passes = int(proc.stdout.split(" passes of ")[0].rsplit(" ", 1)[1])
    assert last["failed"] == (passes if workload == "structure_scan" else 0)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "algebra_mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
