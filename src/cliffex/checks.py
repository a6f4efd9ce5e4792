"""Runnable invariant suite over a chosen form.

Each check exercises one contract of the engine by an independent route
(oracle recomputation, axiom instance, or round trip) on seeded random
data, and returns a :class:`CheckResult` instead of raising.  The CLI's
``check`` command prints one line per result; the test suite asserts that
every applicable check passes on a spread of forms.  Checks that do not
apply to the given form (wrong field, too large, not definite) report
themselves as skipped rather than silently passing.
"""
from __future__ import annotations

from dataclasses import dataclass
from random import Random

from . import caps, classify, linalg, operators, reference, structure
from .core import QuadraticForm, conjugate_sign, involute_sign
from .errors import CliffexError, InternalInconsistency, OddDimension
from .quaternions import (
    HMatrix,
    Quaternion,
    basis_change,
    coordinates_in_basis,
    from_quaternion,
    hermitian_pairing,
    parse_quaternion,
    to_quaternion,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    skipped: bool = False


def _ok(name: str, detail: str = "") -> CheckResult:
    return CheckResult(name, True, detail)


def _fail(name: str, detail: str) -> CheckResult:
    return CheckResult(name, False, detail)


def _skip(name: str, detail: str) -> CheckResult:
    return CheckResult(name, True, detail, skipped=True)


# Sampling tiers: they shrink checks but skip none, so they are not caps.
FULL_SAMPLES, HALF_SAMPLES, DENSE_OPERANDS = 4, 6, 5


def _sample_size(form: QuadraticForm, base: int) -> int:
    # Dense products get expensive with the rank: all samples up to
    # FULL_SAMPLES, half up to HALF_SAMPLES, a quarter above.
    if form.n <= FULL_SAMPLES:
        return base
    if form.n <= HALF_SAMPLES:
        return max(3, base // 2)
    return max(2, base // 4)


def _sparse_terms(form: QuadraticForm) -> int | None:
    # Dense random operands up to DENSE_OPERANDS, 6 terms above.
    return None if form.n <= DENSE_OPERANDS else 6


def check_field_arithmetic(form: QuadraticForm, rng: Random) -> CheckResult:
    """Field facade: ring axioms and inverses on sampled elements."""
    f = form.field
    for _ in range(30):
        x = reference.random_element(rng, f)
        y = reference.random_element(rng, f)
        z = reference.random_element(rng, f)
        if f.add(x, y) != f.add(y, x):
            return _fail("field_arithmetic", "addition not commutative")
        if f.mul(f.add(x, y), z) != f.add(f.mul(x, z), f.mul(y, z)):
            return _fail("field_arithmetic", "distributivity failed")
        if y:
            if f.mul(f.inv(y), y) != f.one:
                return _fail("field_arithmetic", "inverse failed")
            if f.mul(f.div(x, y), y) != x:
                return _fail("field_arithmetic", "division failed")
        two = f.element(2)
        if f.mul(two, f.inv(two)) != f.one:
            return _fail("field_arithmetic", "2 is not invertible")
    txt = f.format(f.element("2")) if f.is_rational else f.format(f.element(2))
    return _ok("field_arithmetic", f"char {f.characteristic}, sample 2 prints as {txt!r}")


def check_blade_products(form: QuadraticForm, rng: Random) -> CheckResult:
    """Fast blade product against the word-sorting oracle."""
    if form.n <= caps.BLADE_PAIRS_EXHAUSTIVE:
        pairs = [(a, b) for a in range(form.dim) for b in range(form.dim)]
    else:
        pairs = [
            (rng.randrange(form.dim), rng.randrange(form.dim)) for _ in range(200)
        ]
    for a, b in pairs:
        coef, mask = form.blade_product(a, b)
        ocoef, omask = reference.blade_word_product(
            reference.mask_to_word(a), reference.mask_to_word(b), form
        )
        if coef != ocoef or mask != omask:
            return _fail("blade_products", f"mismatch at masks {a}, {b}")
    return _ok("blade_products", f"{len(pairs)} pairs vs word oracle")


def check_product_ring(form: QuadraticForm, rng: Random) -> CheckResult:
    """Associativity, distributivity, unit on sampled multivectors."""
    terms = _sparse_terms(form)
    one = form.one()
    for _ in range(_sample_size(form, 8)):
        x = reference.random_multivector(rng, form, terms)
        y = reference.random_multivector(rng, form, terms)
        z = reference.random_multivector(rng, form, terms)
        if (x * y) * z != x * (y * z):
            return _fail("product_ring", "associativity failed")
        if x * (y + z) != x * y + x * z:
            return _fail("product_ring", "left distributivity failed")
        if (y + z) * x != y * x + z * x:
            return _fail("product_ring", "right distributivity failed")
        if x * one != x or one * x != x:
            return _fail("product_ring", "unit failed")
    v = reference.random_vector(rng, form)
    q = sum(
        (form.diag[i] * v.coeffs[1 << i] * v.coeffs[1 << i] for i in range(form.n)),
        form.field.zero,
    )
    if v * v != form.scalar(-q):
        return _fail("product_ring", "vector square is not minus its length")
    return _ok("product_ring", "associative, distributive, v*v = -Q(v,v)")


def check_involutions(form: QuadraticForm, rng: Random) -> CheckResult:
    """Involution laws: order two, (anti)multiplicative, composite."""
    terms = _sparse_terms(form)
    for _ in range(_sample_size(form, 6)):
        x = reference.random_multivector(rng, form, terms)
        y = reference.random_multivector(rng, form, terms)
        if x.involute().involute() != x or x.reverse().reverse() != x:
            return _fail("involutions", "an involution is not of order two")
        if (x * y).involute() != x.involute() * y.involute():
            return _fail("involutions", "main involution not multiplicative")
        if (x * y).reverse() != y.reverse() * x.reverse():
            return _fail("involutions", "reversal not antimultiplicative")
        if (x * y).conjugate() != y.conjugate() * x.conjugate():
            return _fail("involutions", "conjugation not antimultiplicative")
        if x.involute().reverse() != x.conjugate():
            return _fail("involutions", "composite involution mismatch")
        if x.involution("grade") != x.involute():
            return _fail("involutions", "kind dispatch mismatch")
    return _ok("involutions", "order two and (anti)automorphism laws hold")


def check_pairing(form: QuadraticForm, rng: Random) -> CheckResult:
    """Pairing: symmetric, bilinear, oracle route, both adjunction laws."""
    f = form.field
    terms = _sparse_terms(form)
    for _ in range(_sample_size(form, 6)):
        x = reference.random_multivector(rng, form, terms)
        y = reference.random_multivector(rng, form, terms)
        z = reference.random_multivector(rng, form, terms)
        s = reference.random_element(rng, f)
        if x.pair(y) != y.pair(x):
            return _fail("pairing", "not symmetric")
        if (x + z).pair(y) != x.pair(y) + z.pair(y):
            return _fail("pairing", "not additive")
        if (x * s).pair(y) != s * x.pair(y):
            return _fail("pairing", "not homogeneous")
        if x.pair(y) != reference.product_pairing(x, y):
            return _fail("pairing", "disagrees with the scalar part of the product")
        if (x * y).pair(z) != y.pair(x.conjugate() * z):
            return _fail("pairing", "left adjunction law failed")
        if (y * x).pair(z) != y.pair(z * x.conjugate()):
            return _fail("pairing", "right adjunction law failed")
    one = form.one()
    if one.pair(one) != f.one:
        return _fail("pairing", "pairing of 1 with 1 is not 1")
    return _ok("pairing", "symmetric bilinear, adjunctions, oracle agreement")


def check_gram(form: QuadraticForm) -> CheckResult:
    """Gram matrix of the pairing from its definition on basis blades: the
    pairing of e_a and e_b is the scalar part of e_a c(e_b) = c(b) e_a e_b.
    On the diagonal that scalar must equal the Gram diagonal on each blade;
    off the diagonal, on a spot check of 16 blades, it must vanish."""
    gram = form.gram_diagonal()
    for m in range(form.dim):
        coef, mask = form.blade_product(m, m)
        if mask or (coef if conjugate_sign(m) > 0 else -coef) != gram[m]:
            return _fail("gram", f"diagonal mismatch at mask {m}")
    limit = min(form.dim, 16)
    for a in range(limit):
        for b in range(limit):
            if a != b:
                coef, mask = form.blade_product(a, b)
                if not mask and (coef if conjugate_sign(b) > 0 else -coef):
                    return _fail("gram", f"nonzero off-diagonal at masks {a}, {b}")
    return _ok("gram", "matches pairing on basis blades")


def check_volume(form: QuadraticForm) -> CheckResult:
    """Top-blade square closed form, and its commutation behaviour."""
    f = form.field
    sq = form.volume_square()
    want = f.one
    for q in form.diag:
        want = want * (-q)
    n = form.n
    if (n * (n - 1) // 2) & 1:
        want = -want
    if sq != want:
        return _fail("volume", "square disagrees with the sign closed form")
    omega = form.volume_element()
    if n % 2 == 1:
        for k in range(1, n + 1):
            g = form.generator(k)
            if g * omega != omega * g:
                return _fail("volume", f"top blade not central against e{k}")
        try:
            volume_commutation_report(form)
        except OddDimension:
            pass
        else:
            return _fail("volume", "even-rank identity did not refuse odd rank")
        return _ok("volume", "square matches; central (odd rank)")
    try:
        checked = volume_commutation_report(form)
    except CliffexError as exc:
        return _fail("volume", str(exc))
    return _ok("volume", f"square matches; twisted commutation on {checked} blades")


def volume_commutation_report(form: QuadraticForm) -> int:
    """For even rank, count the basis blades satisfying x w = w involute(x),
    each by its two blade products with the top blade w.

    Returns the number checked (all of them on success); raises
    :class:`OddDimension` for odd rank, where the top blade is instead
    central and the twisted identity is not the right statement.
    """
    if form.n % 2 == 1:
        raise OddDimension("the twisted commutation identity needs even rank")
    full = form.full_mask
    product = form.blade_product
    for mask in range(form.dim):
        left, right = product(mask, full).coef, product(full, mask).coef
        if left != (right if involute_sign(mask) > 0 else -right):
            raise InternalInconsistency(f"twisted commutation fails at mask {mask}")
    return form.dim


def check_centers(form: QuadraticForm) -> CheckResult:
    """Solved centers must equal the closed-form answers as subspaces."""
    if why := caps.over("CENTER_SOLVE", form.n):
        return _skip("centers", why)
    for space, fn in (("algebra", structure.center), ("lie", structure.lie_center)):
        closed = fn(form, method="closed_form")
        solved = fn(form, method="solve")
        if closed.dimension != solved.dimension:
            return _fail("centers", f"{space}: dim {solved.dimension} != {closed.dimension}")
        # The closed-form bases are unit blades, so the spans agree exactly
        # when the solved basis is the same blades, each a single term.
        if sorted(b.support() for b in solved.basis) != sorted(b.support() for b in closed.basis):
            return _fail("centers", f"{space}: solved basis is not the closed-form blades")
    return _ok("centers", "solve equals closed form for algebra and Lie centers")


def check_lie_closure(form: QuadraticForm, rng: Random) -> CheckResult:
    """Brackets of Lie-algebra elements stay in the Lie algebra."""
    blades = structure.lie_blades(form)
    for _ in range(_sample_size(form, 6)):
        picks_x = rng.sample(blades, min(4, len(blades)))
        picks_y = rng.sample(blades, min(4, len(blades)))
        x = form.multivector({m: reference.random_nonzero_element(rng, form.field) for m in picks_x})
        y = form.multivector({m: reference.random_nonzero_element(rng, form.field) for m in picks_y})
        if not structure.in_lie_algebra(x):
            return _fail("lie_closure", "sampled element not in the Lie algebra")
        if not structure.in_lie_algebra(x.commutator(y)):
            return _fail("lie_closure", "bracket left the Lie algebra")
    g = form.generator(1)
    if not structure.in_lie_algebra(g):
        return _fail("lie_closure", "a generator is outside the Lie algebra")
    return _ok("lie_closure", "sampled brackets stay inside")


def check_killing(form: QuadraticForm) -> CheckResult:
    """Counting route vs trace-of-ad route for the Killing form."""
    if why := caps.over("KILLING_TRACE", form.n):
        return _skip("killing", why)
    counted = structure.killing_form(form, method="count")
    traced = structure.killing_form(form, method="trace")
    for rec_c, rec_t in zip(counted, traced):
        if rec_c.mask != rec_t.mask or rec_c.value != rec_t.value:
            return _fail("killing", f"routes disagree at blade {rec_c.blade}")
    basis = structure.lie_algebra_basis(form)
    # Off-diagonal spot check through traces.
    if len(basis) >= 2:
        ad0 = structure.ad_matrix(basis[0])
        ad1 = structure.ad_matrix(basis[1])
        off = reference.trace_of_product(ad0, ad1, form.field)
        if off:
            return _fail("killing", "off-diagonal trace is nonzero")
    return _ok("killing", f"{len(counted)} diagonal entries agree with traces")


def check_killing_dichotomy(form: QuadraticForm) -> CheckResult:
    """(ad x)^2 acts on each blade as 0 or as the scalar 4 x^2."""
    if why := caps.over("KILLING_DICHOTOMY_CHECK", form.n):
        return _skip("killing_dichotomy", why)
    blades = structure.lie_blades(form)
    four = form.field.element(4)
    for a in blades:
        x = form.basis_blade(a)
        scale = four * form.blade_square(a)
        for b in blades:
            y = form.basis_blade(b)
            twice = x.commutator(x.commutator(y))
            if twice != form.zero() and twice != y * scale:
                return _fail(
                    "killing_dichotomy", f"unexpected (ad)^2 value at masks {a}, {b}"
                )
    return _ok("killing_dichotomy", "squared adjoint is 0 or 4 x^2 on each blade")


def check_decomposition(form: QuadraticForm) -> CheckResult:
    """``decompose`` against an enumeration over the masks; permuting the generators
    keeps grades and the ideal, so one blade per Lie grade stands for its grade."""
    dec = structure.decompose(form)
    expect_codim = 1 if form.n % 4 == 1 else 0
    if dec.codim != expect_codim:
        return _fail("decomposition", f"codim {dec.codim}, expected {expect_codim}")
    lie = [m for m in range(form.dim) if m.bit_count() % 4 in (1, 2)]
    if list(dec.ideal_masks) != [m for m in lie if not (expect_codim and m == form.full_mask)]:
        return _fail("decomposition", "ideal is not the Lie blades less the center")
    ideal = set(dec.ideal_masks)
    closed = nondeg = True
    for k in sorted({m.bit_count() for m in lie}):
        a = (1 << k) - 1
        partners = reference.anticommuting_lie_blades(form, a)
        closed = closed and all(a ^ b in ideal for b in partners if b in ideal)
        # The entry 4 m s is zero in the field exactly when the count m is.
        if a in ideal:
            nondeg = nondeg and bool(form.field.element(len(partners)))
        elif partners:
            return _fail("decomposition", "central top blade has nonzero count")
    if not (closed and dec.bracket_closed):
        return _fail("decomposition", f"bracket closure: flag {dec.bracket_closed}, enumeration {closed}")
    if dec.killing_nondegenerate_on_ideal != nondeg:
        return _fail("decomposition", f"Killing nondegeneracy flag {not nondeg}, counts say {nondeg}")
    return _ok("decomposition", f"ideal dim {len(dec.ideal_masks)}, codim {dec.codim}")


def check_invertibility(form: QuadraticForm, rng: Random) -> CheckResult:
    """Determinant tests versus actually producing a two-sided inverse.

    The pair of translation determinants, both read from one elimination
    of the integer left translation, is checked against the determinant of
    the right translation matrix taken through the field-element route.
    """
    if why := caps.over("INVERTIBILITY_CHECK", form.n):
        return _skip("invertibility", why)
    inverted = 0
    for _ in range(_sample_size(form, 6)):
        x = reference.random_multivector(rng, form, _sparse_terms(form))
        if x.is_zero():
            continue
        det_r = linalg.determinant(operators.right_matrix(x), form.field)
        if operators.translation_determinants(x) != (det_r, det_r):
            return _fail("invertibility", "translation determinants differ from det R_x")
        invertible = operators.is_invertible(x)
        if invertible != bool(det_r):
            return _fail("invertibility", "invertibility disagrees with det R_x")
        if invertible:
            y = operators.inverse(x)
            if x * y != form.one() or y * x != form.one():
                return _fail("invertibility", "inverse is not two-sided")
            inverted += 1
        else:
            try:
                operators.inverse(x)
            except CliffexError:
                pass
            else:
                return _fail("invertibility", "inverse succeeded on a zero divisor")
    g = form.generator(1)
    gi = operators.inverse(g)
    if g * gi != form.one():
        return _fail("invertibility", "generator inverse failed")
    return _ok("invertibility", f"{inverted} random inverses verified two-sided")


def check_adjoint_matrices(form: QuadraticForm, rng: Random) -> CheckResult:
    """Translation by the conjugate equals the pairing adjoint of translation."""
    if why := caps.over("ADJOINT_MATRICES_CHECK", form.n):
        return _skip("adjoint_matrices", why)
    for _ in range(3):
        x = reference.random_multivector(rng, form, _sparse_terms(form))
        left = operators.left_matrix(x)
        conj_left = operators.left_matrix(x.conjugate())
        if operators.pairing_adjoint(left, form) != conj_left:
            return _fail("adjoint_matrices", "left translation adjoint mismatch")
        right = operators.right_matrix(x)
        conj_right = operators.right_matrix(x.conjugate())
        if operators.pairing_adjoint(right, form) != conj_right:
            return _fail("adjoint_matrices", "right translation adjoint mismatch")
    return _ok("adjoint_matrices", "conjugation realizes the pairing adjoint")


def check_equivalence(form: QuadraticForm, rng: Random) -> CheckResult:
    """Build a guaranteed equivalence by squared scaling and verify it."""
    if why := caps.over("EQUIVALENCE_CHECK", form.n):
        return _skip("equivalence", why)
    f = form.field
    scales = [reference.random_nonzero_element(rng, f) for _ in range(form.n)]
    target = form
    source = QuadraticForm([s * s * q for s, q in zip(scales, form.diag)], f)
    t = [
        [scales[i] if i == j else f.zero for j in range(form.n)]
        for i in range(form.n)
    ]
    amap = operators.equivalence_isomorphism(t, source, target)
    if not amap.verify_multiplicative():
        return _fail("equivalence", "scaled map is not multiplicative")
    back = amap.inverse()
    for _ in range(3):
        x = reference.random_multivector(rng, source, _sparse_terms(form))
        y = reference.random_multivector(rng, source, _sparse_terms(form))
        if amap.apply(x * y) != amap.apply(x) * amap.apply(y):
            return _fail("equivalence", "map failed on random products")
        if back.apply(amap.apply(x)) != x:
            return _fail("equivalence", "inverse map does not undo the map")
    return _ok("equivalence", "squared-scaling equivalence verified both ways")


def check_uniqueness(form: QuadraticForm) -> CheckResult:
    """The pairing axioms pin the pairing down as far as they can.

    For n = 3 mod 4 the bare axiom set leaves exactly one free direction,
    spanned by the volume-twisted pairing; everywhere else the solution is
    unique.  Requiring parity invariance on top must force uniqueness in
    every rank.
    """
    if why := caps.over("UNIQUENESS_SOLVE", form.n):
        return _skip("uniqueness", why)
    rep = operators.pairing_uniqueness_report(form)
    if not rep.consistent:
        return _fail("uniqueness", "axiom system inconsistent")
    if not rep.matches_canonical:
        return _fail("uniqueness", "canonical pairing is not a solution")
    expected_nullity = 1 if form.n % 4 == 3 else 0
    if rep.nullity != expected_nullity:
        return _fail(
            "uniqueness",
            f"nullity {rep.nullity}, expected {expected_nullity} at rank {form.n}",
        )
    if rep.nullity == 1 and not rep.kernel_is_volume_twist:
        return _fail("uniqueness", "free direction is not the volume twist")
    strict = operators.pairing_uniqueness_report(form, require_parity_invariance=True)
    if not (strict.unique and strict.matches_canonical):
        return _fail("uniqueness", "parity invariance did not force uniqueness")
    detail = f"{rep.unknowns} unknowns, rank {rep.rank}"
    if expected_nullity:
        detail += ", volume twist survives until parity invariance is imposed"
    return _ok("uniqueness", detail)


def check_isometries(form: QuadraticForm, rng: Random) -> CheckResult:
    """Sampled rotors are isometries with consistent evidence."""
    for _ in range(3):
        g = reference.random_isometry(rng, form)
        ev = structure.isometry_evidence(g)
        if not ev.isometry:
            return _fail("isometries", "sampled rotor failed the unit condition")
        if not ev.consistent:
            return _fail("isometries", "evidence inconsistent with unit condition")
    if form.field.is_rational:
        bad = form.scalar(2)
        if structure.is_isometry(bad):
            return _fail("isometries", "the scalar 2 passed as an isometry")
    return _ok("isometries", "rotor samples preserve the pairing")


def check_definiteness(form: QuadraticForm) -> CheckResult:
    if not form.field.is_rational:
        return _skip("definiteness", "needs an ordered field")
    if any(form.field.sign_of(q) <= 0 for q in form.diag):
        return _skip("definiteness", "needs a positive definite form")
    rep = structure.definiteness_report(form)
    if not rep.killing_negative:
        return _fail("definiteness", f"Killing signs {rep.killing_signs}")
    if not rep.pairing_positive:
        return _fail("definiteness", f"pairing signs {rep.pairing_signs}")
    return _ok("definiteness", f"{rep.ideal_dim} ideal blades: B < 0 < pairing")


def check_classification(form: QuadraticForm) -> CheckResult:
    if not form.field.is_rational:
        return _skip("classification", "table verification runs over the rationals")
    if any(form.field.sign_of(q) <= 0 for q in form.diag):
        return _skip("classification", "table describes positive definite forms")
    if why := caps.over("CENTER_SOLVE", form.n):
        return _skip("classification", why)
    rep = classify.verify_classification(form.n)
    if not rep.passed:
        return _fail("classification", f"table mismatch at rank {form.n}")
    return _ok(
        "classification",
        f"{rep.algebra.describe()} / {rep.group.describe()} confirmed",
    )


def check_quaternion_conventions(rng: Random) -> CheckResult:
    """Composition, adjointness, and basis-change laws for H-matrices."""

    def rand_q() -> Quaternion:
        return Quaternion(*(rng.randint(-4, 4) for _ in range(4)))

    for size in (2, 3):
        a = HMatrix([[rand_q() for _ in range(size)] for _ in range(size)])
        b = HMatrix([[rand_q() for _ in range(size)] for _ in range(size)])
        x = [rand_q() for _ in range(size)]
        y = [rand_q() for _ in range(size)]
        if a.compose(b).action(x) != a.action(b.action(x)):
            return _fail("quaternion_conventions", "composition law failed")
        if hermitian_pairing(a.action(x), y) != hermitian_pairing(x, a.adjoint().action(y)):
            return _fail("quaternion_conventions", "adjoint law failed")
        if a.compose(b).adjoint() != b.adjoint().compose(a.adjoint()):
            return _fail("quaternion_conventions", "adjoint of a product failed")
        lam = rand_q()
        if a.action([lam * v for v in x]) != tuple(lam * v for v in a.action(x)):
            return _fail("quaternion_conventions", "left linearity failed")
        # Basis change: multiplicative and correct on basis vectors.
        for _ in range(8):
            basis = [[rand_q() for _ in range(size)] for _ in range(size)]
            try:
                ba = basis_change(a, basis)
            except CliffexError:
                continue
            bb = basis_change(b, basis)
            if basis_change(a.compose(b), basis) != ba.compose(bb):
                return _fail("quaternion_conventions", "basis change not multiplicative")
            for i in range(size):
                image = a.action(basis[i])
                recon = [Quaternion() for _ in range(size)]
                for r in range(size):
                    recon = [
                        rv + ba[r, i] * bv for rv, bv in zip(recon, basis[r])
                    ]
                if tuple(recon) != image:
                    return _fail("quaternion_conventions", "basis change coordinates wrong")
                coords = coordinates_in_basis(image, basis)
                if tuple(ba[r, i] for r in range(size)) != coords:
                    return _fail("quaternion_conventions", "coordinate extraction mismatch")
            break
        ident = HMatrix.identity(size)
        if basis_change(ident, [[Quaternion(1) if i == j else Quaternion() for j in range(size)] for i in range(size)]) != ident:
            return _fail("quaternion_conventions", "identity not fixed")
    q = parse_quaternion("1/2 - 3i + k")
    if str(q) != "1/2 - 3i + k":
        return _fail("quaternion_conventions", "text round trip failed")
    return _ok("quaternion_conventions", "composition, adjoint, basis change verified")


def check_bridge(rng: Random) -> CheckResult:
    """The rank-2 unit form is the quaternions under 1, i, j, k."""
    form = QuadraticForm([1, 1])
    gens = {
        0: Quaternion.one(),
        1: Quaternion.i(),
        2: Quaternion.j(),
        3: Quaternion.k(),
    }
    for mask, q in gens.items():
        if to_quaternion(form.basis_blade(mask)) != q:
            return _fail("bridge", f"basis image wrong at mask {mask}")
    for _ in range(10):
        x = reference.random_multivector(rng, form)
        y = reference.random_multivector(rng, form)
        if to_quaternion(x * y) != to_quaternion(x) * to_quaternion(y):
            return _fail("bridge", "not multiplicative")
        if to_quaternion(x.conjugate()) != to_quaternion(x).conjugate():
            return _fail("bridge", "involution does not match conjugation")
        if from_quaternion(to_quaternion(x), form) != x:
            return _fail("bridge", "round trip failed")
        norm = to_quaternion(x).norm_squared()
        if x.pair(x) != norm:
            return _fail("bridge", "pairing does not match the quaternion norm")
    return _ok("bridge", "multiplicative, conjugation-compatible, norm-compatible")


def run_checks(form: QuadraticForm, seed: int = 0) -> list:
    """Run every applicable check on one form; deterministic in the seed."""
    rng = Random(seed)
    results = [
        check_field_arithmetic(form, rng),
        check_blade_products(form, rng),
        check_product_ring(form, rng),
        check_involutions(form, rng),
        check_pairing(form, rng),
        check_gram(form),
        check_volume(form),
        check_centers(form),
        check_lie_closure(form, rng),
        check_killing(form),
        check_killing_dichotomy(form),
        check_decomposition(form),
        check_invertibility(form, rng),
        check_adjoint_matrices(form, rng),
        check_equivalence(form, rng),
        check_uniqueness(form),
        check_isometries(form, rng),
        check_definiteness(form),
        check_classification(form),
        check_quaternion_conventions(rng),
        check_bridge(rng),
    ]
    return results
