"""Acceptance gate: ten go/no-go criteria with explicit time budgets.

Each test computes its verdict, prints one pass/fail line straight to the
real stdout (bypassing capture so the line always shows in the run log),
and only then asserts.  Each criterion asserts the exact mathematical
result, not a convenient approximation of it.  The third, for instance,
asserts the exact extent to which the pairing axioms pin the pairing
down: uniquely at ranks 1 and 2, only up to the volume twist at rank 3,
and uniquely again once parity invariance is imposed.
"""
import random
import sys
import time
from fractions import Fraction

from cliffex import (
    Quaternion,
    QuadraticForm,
    decompose,
    definiteness_report,
    from_quaternion,
    hermitian_pairing,
    inverse,
    is_zero_divisor,
    pairing_uniqueness_report,
    to_quaternion,
    verify_classification,
)
from cliffex import structure
from cliffex.classify import isometry_group_of
from cliffex.field import RATIONAL, FieldSpec
from cliffex.quaternions import HMatrix, basis_change, coordinates_in_basis
from cliffex.reference import (
    random_invertible,
    random_isometry,
    random_multivector,
    random_vector,
)

SEED = 20260822

# Mixed-sign pattern with entries invertible mod 5 and mod 7.
MIXED = [1, -1, 2, -3, 4, -1, 2, -3, 4, -1]

F5 = FieldSpec.from_text("fp:5")
F7 = FieldSpec.from_text("fp:7")

LIE_DIMS = [1, 3, 6, 10, 16, 28, 56, 120, 256, 528]


def _report(cap, num, label, ok, detail, t0, budget):
    elapsed = time.time() - t0
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    suffix = f" - {detail}" if detail else ""
    line = f"criterion {num} ({label}): {verdict}{suffix} [{elapsed:.2f}s / {budget}s]"
    with cap.disabled():
        print(line, file=sys.stderr, flush=True)
    assert ok, f"criterion {num}: {detail or 'failed'}"
    assert elapsed < budget, f"criterion {num} overran its {budget}s budget"


def _random_nonzero_diag(rng, n, field):
    diag = []
    while len(diag) < n:
        q = rng.randint(-9, 9)
        if q == 0:
            continue
        if field is F5 and q % 5 == 0:
            continue
        diag.append(q)
    return diag


def test_criterion_01_dimension_and_gram_diagonal(capfd):
    t0 = time.time()
    rng = random.Random(SEED + 1)
    problems = []
    for field in (RATIONAL, F5):
        for n in range(1, 11):
            for _ in range(5):
                form = QuadraticForm(_random_nonzero_diag(rng, n, field), field)
                gram = form.gram_diagonal()
                if form.dim != 1 << n or len(gram) != 1 << n:
                    problems.append(f"n={n}: wrong blade count")
                    continue
                if not all(gram):
                    problems.append(f"n={n}: zero gram entry")
                # Distinct blades pair to zero, so the gram matrix really is
                # diagonal; exhaustive for small ranks, sampled above them.
                if n <= 5:
                    pairs = [
                        (a, b) for a in range(form.dim) for b in range(form.dim) if a != b
                    ]
                else:
                    pairs = []
                    while len(pairs) < 40:
                        a, b = rng.randrange(form.dim), rng.randrange(form.dim)
                        if a != b:
                            pairs.append((a, b))
                for a, b in pairs:
                    if form.basis_blade(a).pair(form.basis_blade(b)):
                        problems.append(f"n={n}: off-diagonal pairing at {a},{b}")
                        break
    _report(capfd, 1, "dimension and gram diagonal", not problems,
            "; ".join(problems[:3]), t0, 5)


def test_criterion_02_anticommutation_and_involutions(capfd):
    t0 = time.time()
    rng = random.Random(SEED + 2)
    problems = []
    for n in range(1, 7):
        form = QuadraticForm(_random_nonzero_diag(rng, n, RATIONAL))
        f = form.field
        minus_two = f.element(-2)
        terms = None if n <= 3 else 6
        for _ in range(500):
            u = random_vector(rng, form)
            v = random_vector(rng, form)
            if u * v + v * u != form.scalar(f.mul(minus_two, u.pair(v))):
                problems.append(f"n={n}: anticommutation")
                break
            x = random_multivector(rng, form, terms)
            y = random_multivector(rng, form, terms)
            z = random_multivector(rng, form, terms)
            if (
                x.involute().involute() != x
                or x.reverse().reverse() != x
                or x.conjugate().conjugate() != x
            ):
                problems.append(f"n={n}: an involution is not involutive")
                break
            if x.conjugate() != x.involute().reverse():
                problems.append(f"n={n}: composite involution mismatch")
                break
            if (x * y).pair(z) != y.pair(x.conjugate() * z):
                problems.append(f"n={n}: left adjunction")
                break
            if (y * x).pair(z) != y.pair(z * x.conjugate()):
                problems.append(f"n={n}: right adjunction")
                break
    _report(capfd, 2, "anticommutation and involutions", not problems,
            "; ".join(problems), t0, 10)


def _volume_twist_axioms(form):
    """Which pairing axioms the volume twist D(x, y) = B(x, omega * y) obeys.

    Built from blade products, the involutions and ``pair`` alone, so it
    checks the solver's verdict without trusting the solver.  The axioms are
    the homogeneous ones a second solution B + t * D must leave intact:
    symmetry, vanishing on 1 and on grade one, and both adjunction laws on
    all basis triples.  Parity invariance is recorded too, since it is the
    extra axiom that rules the twist out.
    """
    f = form.field
    blades = [form.basis_blade(m) for m in range(form.dim)]
    omega = form.volume_element()

    def twist(x, y):
        return x.pair(omega * y)

    d = [[twist(x, y) for y in blades] for x in blades]
    grade_one = [1 << i for i in range(form.n)]
    left = right = True
    for x in blades:
        cx = x.conjugate()
        for y in blades:
            xy, yx = x * y, y * x
            for z in blades:
                left = left and twist(xy, z) == twist(y, cx * z)
                right = right and twist(yx, z) == twist(y, z * cx)
    return {
        "nonzero": any(v != f.zero for row in d for v in row),
        "symmetric": all(
            d[a][b] == d[b][a] for a in range(form.dim) for b in range(form.dim)
        ),
        "vanishes on 1 and grade one": d[0][0] == f.zero
        and all(d[a][b] == f.zero for a in grade_one for b in grade_one),
        "left adjunction": left,
        "right adjunction": right,
        "parity invariant": all(
            twist(x.involute(), y.involute()) == d[a][b]
            for a, x in enumerate(blades)
            for b, y in enumerate(blades)
        ),
    }


def test_criterion_03_pairing_uniqueness(capfd):
    # The axioms (value 1 on the unit, Q on generators, symmetry, both
    # adjunction laws) pin the pairing down at ranks 1 and 2.  At rank 3 the
    # volume blade is central and fixed by conjugation, so the volume twist
    # is a second solution and the solution set is a line; parity
    # invariance cuts it back to the canonical pairing.
    t0 = time.time()
    problems = []
    diags = {
        1: [[1], [-2], [3]],
        2: [[1, 1], [1, -1], [2, -3]],
        3: [[1, 1, -1], [1, 1, 1], [2, -3, 5]],
    }
    homogeneous = (
        "symmetric",
        "vanishes on 1 and grade one",
        "left adjunction",
        "right adjunction",
    )
    for field in (RATIONAL, F7):
        for n in range(1, 4):
            expected_nullity = 1 if n == 3 else 0
            for diag in diags[n]:
                form = QuadraticForm(diag, field)
                where = f"{field.to_text()} n={n} diag={diag}"
                rep = pairing_uniqueness_report(form)
                if not (rep.consistent and rep.matches_canonical):
                    problems.append(f"{where}: canonical pairing is not a solution")
                if rep.nullity != expected_nullity:
                    problems.append(
                        f"{where}: nullity {rep.nullity}, expected {expected_nullity}"
                    )
                if n == 3 and not rep.kernel_is_volume_twist:
                    problems.append(f"{where}: free direction is not the volume twist")
                strict = pairing_uniqueness_report(form, require_parity_invariance=True)
                if not (strict.unique and strict.matches_canonical):
                    problems.append(f"{where}: parity invariance does not force uniqueness")

                axioms = _volume_twist_axioms(form)
                if n == 3:
                    broken = [k for k in ("nonzero",) + homogeneous if not axioms[k]]
                    if broken:
                        problems.append(f"{where}: volume twist fails '{broken[0]}'")
                    if axioms["parity invariant"]:
                        problems.append(f"{where}: volume twist is parity invariant")
                elif all(axioms[k] for k in homogeneous):
                    problems.append(f"{where}: volume twist solves the axioms")
    _report(capfd, 3, "pairing uniqueness", not problems,
            "; ".join(problems[:2]), t0, 5)


def test_criterion_04_zero_divisors_and_inverses(capfd):
    t0 = time.time()
    rng = random.Random(SEED + 4)
    problems = []
    witness = QuadraticForm.from_text("sig:2,1")
    x = witness.parse("e1 + e3")
    if not is_zero_divisor(x):
        problems.append("e1 + e3 not flagged as a zero divisor over sig:2,1")
    if (x * x).coeffs != witness.zero().coeffs:
        problems.append("e1 + e3 should square to zero over sig:2,1")
    for n in range(1, 6):
        form = QuadraticForm(_random_nonzero_diag(rng, n, RATIONAL))
        for _ in range(50):
            a = random_invertible(rng, form)
            b = inverse(a)
            if a * b != form.one() or b * a != form.one():
                problems.append(f"n={n}: inverse is not two-sided")
                break
    _report(capfd, 4, "zero divisors and inverses", not problems,
            "; ".join(problems), t0, 20)


def test_criterion_05_centers_by_two_routes(capfd):
    t0 = time.time()
    problems = []
    for field in (RATIONAL, F7):
        for n in range(1, 9):
            form = QuadraticForm(MIXED[:n], field)
            for fn in (structure.center, structure.lie_center):
                closed = fn(form, method="closed_form")
                solved = fn(form, method="solve")
                if closed.dimension != solved.dimension:
                    problems.append(
                        f"{field.to_text()} n={n}: {fn.__name__} dims differ"
                    )
                    continue
                # The closed-form basis is unit blades, so the spans agree
                # when the solved basis is the same blades, each one term.
                if sorted(b.support() for b in solved.basis) != sorted(
                    b.support() for b in closed.basis
                ):
                    problems.append(
                        f"{field.to_text()} n={n}: {fn.__name__} spans differ"
                    )
    _report(capfd, 5, "centers by two routes", not problems,
            "; ".join(problems[:3]), t0, 30)


def test_criterion_06_killing_form(capfd):
    t0 = time.time()
    problems = []
    for n in range(1, 9):
        diags = [[1] * n]
        if n >= 2:
            diags.append(MIXED[:n])
        else:
            diags.append([-2])
        for diag in diags:
            form = QuadraticForm(diag)
            f = form.field
            four = f.element(4)
            counted = structure.killing_form(form, method="count")
            traced = structure.killing_form(form, method="trace")
            for rc, rt in zip(counted, traced):
                expected = f.mul(four, f.mul(f.element(rc.anticommuting), rc.square))
                if rc.value != expected or rt.value != expected:
                    problems.append(f"n={n} diag={diag}: {rc.blade} fails 4*m*square")
                    break
                if (rc.mask, rc.value) != (rt.mask, rt.value):
                    problems.append(f"n={n} diag={diag}: routes disagree at {rc.blade}")
                    break
            # Diagonal entry vanishes exactly on the volume blade in ranks
            # one past a multiple of four.
            full = form.full_mask
            for rc in counted:
                should_vanish = n % 4 == 1 and rc.mask == full
                if bool(rc.value) == should_vanish:
                    problems.append(f"n={n} diag={diag}: vanishing pattern at {rc.blade}")
                    break
            if n <= 6:
                blades = structure.lie_blades(form)
                for i in range(len(blades)):
                    for j in range(i + 1, len(blades)):
                        if structure.killing_entry(form, blades[i], blades[j]):
                            problems.append(f"n={n} diag={diag}: off-diagonal entry")
                            break
                    else:
                        continue
                    break
    _report(capfd, 6, "killing form", not problems, "; ".join(problems[:3]), t0, 60)


def test_criterion_07_ideal_decomposition(capfd):
    t0 = time.time()
    problems = []
    for n in range(1, 8):
        for diag in ([1] * n, MIXED[:n]):
            form = QuadraticForm(diag)
            dec = decompose(form)
            expected_codim = 1 if n % 4 == 1 else 0
            if dec.codim != expected_codim:
                problems.append(f"n={n} diag={diag}: codim {dec.codim}")
            if not dec.bracket_closed:
                problems.append(f"n={n} diag={diag}: ideal not bracket closed")
            if not dec.killing_nondegenerate_on_ideal:
                problems.append(f"n={n} diag={diag}: killing degenerate on ideal")
            if dec.lie_dim != LIE_DIMS[n - 1]:
                problems.append(f"n={n} diag={diag}: lie dim {dec.lie_dim}")
            if len(dec.ideal_masks) + len(dec.center_basis) != dec.lie_dim:
                problems.append(f"n={n} diag={diag}: summands do not fill the algebra")
    _report(capfd, 7, "ideal decomposition", not problems,
            "; ".join(problems[:3]), t0, 20)


def test_criterion_08_definiteness(capfd):
    t0 = time.time()
    problems = []
    for n in range(1, 9):
        for diag in ([1] * n, [2, 1, 3, 1, 5, 1, 2, 1][:n]):
            rep = definiteness_report(QuadraticForm(diag))
            if not rep.killing_negative or rep.killing_signs != (rep.ideal_dim, 0, 0):
                problems.append(f"n={n} diag={diag}: killing not negative definite")
            if not rep.pairing_positive or rep.pairing_signs != (0, 0, rep.ideal_dim):
                problems.append(f"n={n} diag={diag}: pairing not positive definite")
    _report(capfd, 8, "definiteness", not problems, "; ".join(problems[:3]), t0, 10)


def test_criterion_09_classification_fingerprint(capfd):
    t0 = time.time()
    problems = []
    for n in range(1, 11):
        rep = verify_classification(n)
        if not rep.passed:
            problems.append(f"n={n}: verification failed")
        if rep.lie_dim.got != LIE_DIMS[n - 1]:
            problems.append(f"n={n}: lie dim {rep.lie_dim.got}")
        if isometry_group_of(n).dimension() != LIE_DIMS[n - 1]:
            problems.append(f"n={n}: group dimension off the frozen row")
    _report(capfd, 9, "classification fingerprint", not problems,
            "; ".join(problems[:3]), t0, 60)


def test_criterion_10_quaternion_bridge(capfd):
    t0 = time.time()
    rng = random.Random(SEED + 10)
    problems = []
    form = QuadraticForm([1, 1])

    blades = [form.basis_blade(m) for m in range(4)]
    for a in blades:
        for b in blades:
            if to_quaternion(a * b) != to_quaternion(a) * to_quaternion(b):
                problems.append("bridge not multiplicative on basis pairs")
    for a in blades:
        if to_quaternion(a.conjugate()) != to_quaternion(a).conjugate():
            problems.append("bridge does not carry the involution to conjugation")
    for _ in range(50):
        g = random_isometry(rng, form)
        q = to_quaternion(g)
        if q.norm_squared() != Fraction(1):
            problems.append("isometry did not land on a unit quaternion")
            break
        if from_quaternion(q) != g:
            problems.append("bridge round trip failed")
            break

    def rand_q():
        return Quaternion(*(Fraction(rng.randint(-5, 5), rng.choice([1, 2])) for _ in range(4)))

    sizes = [1, 2, 3]
    for k in range(100):
        size = sizes[k % 3]
        a = HMatrix([[rand_q() for _ in range(size)] for _ in range(size)])
        b = HMatrix([[rand_q() for _ in range(size)] for _ in range(size)])
        x = tuple(rand_q() for _ in range(size))
        y = tuple(rand_q() for _ in range(size))
        if a.compose(b).action(x) != a.action(b.action(x)):
            problems.append(f"size {size}: composition law")
            break
        if hermitian_pairing(a.action(x), y) != hermitian_pairing(x, a.adjoint().action(y)):
            problems.append(f"size {size}: adjoint pairing law")
            break
        if a.compose(b).adjoint() != b.adjoint().compose(a.adjoint()):
            problems.append(f"size {size}: adjoint does not reverse composition")
            break
        if a.adjoint().adjoint() != a:
            problems.append(f"size {size}: adjoint not involutive")
            break
        basis = [tuple(rand_q() for _ in range(size)) for _ in range(size)]
        try:
            ca = basis_change(a, basis)
            cb = basis_change(b, basis)
        except Exception:
            continue  # singular sample; the law is vacuous here
        if basis_change(a.compose(b), basis) != ca.compose(cb):
            problems.append(f"size {size}: basis change not multiplicative")
            break
        coords = coordinates_in_basis(x, basis)
        rebuilt = [Quaternion.zero()] * size
        for coef, bvec in zip(coords, basis):
            rebuilt = [acc + coef * bv for acc, bv in zip(rebuilt, bvec)]
        if tuple(rebuilt) != x:
            problems.append(f"size {size}: coordinates do not reconstruct")
            break
    _report(capfd, 10, "quaternion bridge", not problems, "; ".join(problems[:3]), t0, 10)
