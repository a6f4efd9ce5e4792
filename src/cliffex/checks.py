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

import functools
from dataclasses import dataclass
from random import Random

from . import caps, classify, linalg, operators, reference, structure
from .core import QuadraticForm, blade_product, conjugate_sign, format_blade, involute_sign
from .errors import CliffexError, InternalInconsistency, OddDimension
from .quaternions import (
    BRIDGE_FORM,
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


class _Failed(Exception):
    """A check's assertion did not hold; the message is the result's detail."""


def _expect(holds: bool, detail: str) -> None:
    if not holds:
        raise _Failed(detail)


def _check(cap: str = "", definite: tuple = ()):
    """Make a check body into a check.

    The check is named from ``check_<name>``.  It skips, naming the cap, when
    the rank is above ``caps.<cap>`` (read when it runs), and when
    ``definite`` holds a pair of details, it skips with the first over a
    field without order and with the second on a form that is not positive
    definite.  Otherwise the body runs: its first failed :func:`_expect`
    fails the check, and the string it returns is the pass detail.  ``rng``
    is optional, so a check that draws nothing runs on the form alone.
    """

    def make(body):
        name = body.__name__.removeprefix("check_")

        @functools.wraps(body)
        def check(form: QuadraticForm, rng: Random | None = None) -> CheckResult:
            f = form.field
            if definite and not f.is_rational:
                why = definite[0]
            elif definite and any(f.sign_of(q) <= 0 for q in form.diag):
                why = definite[1]
            else:
                why = cap and caps.over(cap, form.n)
            if why:
                return CheckResult(name, True, why, skipped=True)
            try:
                return CheckResult(name, True, body(form, rng))
            except _Failed as failed:
                return CheckResult(name, False, str(failed))

        return check

    return make


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


@_check()
def check_field_arithmetic(form: QuadraticForm, rng: Random) -> str:
    """Field facade: ring axioms and inverses on sampled elements."""
    f = form.field
    for _ in range(30):
        x = reference.random_element(rng, f)
        y = reference.random_element(rng, f)
        z = reference.random_element(rng, f)
        _expect(f.add(x, y) == f.add(y, x), "addition not commutative")
        _expect(f.mul(f.add(x, y), z) == f.add(f.mul(x, z), f.mul(y, z)), "distributivity failed")
        if y:
            _expect(f.mul(f.inv(y), y) == f.one, "inverse failed")
            _expect(f.mul(f.div(x, y), y) == x, "division failed")
        two = f.element(2)
        _expect(f.mul(two, f.inv(two)) == f.one, "2 is not invertible")
    return f"char {f.characteristic}, sample 2 prints as {f.format(f.element(2))!r}"


def _pairs(form: QuadraticForm, rng: Random, masks) -> list:
    """Every ordered pair of ``masks`` up to ``caps.BLADE_PAIRS_EXHAUSTIVE``,
    200 pairs drawn from ``rng`` above it: the blade-level checks' one sweep."""
    if form.n <= caps.BLADE_PAIRS_EXHAUSTIVE:
        return [(a, b) for a in masks for b in masks]
    return [(rng.choice(masks), rng.choice(masks)) for _ in range(200)]


@_check()
def check_blade_products(form: QuadraticForm, rng: Random) -> str:
    """Fast blade product against the word-sorting oracle."""
    pairs = _pairs(form, rng, range(form.dim))
    for a, b in pairs:
        coef, mask = blade_product(form, a, b)
        ocoef, omask = reference.blade_word_product(
            reference.mask_to_word(a), reference.mask_to_word(b), form
        )
        _expect(coef == ocoef and mask == omask, f"mismatch at masks {a}, {b}")
    return f"{len(pairs)} pairs vs word oracle"


@_check()
def check_product_ring(form: QuadraticForm, rng: Random) -> str:
    """Associativity, distributivity, unit on sampled multivectors."""
    terms = _sparse_terms(form)
    one = form.one()
    for _ in range(_sample_size(form, 8)):
        x = reference.random_multivector(rng, form, terms)
        y = reference.random_multivector(rng, form, terms)
        z = reference.random_multivector(rng, form, terms)
        _expect((x * y) * z == x * (y * z), "associativity failed")
        _expect(x * (y + z) == x * y + x * z, "left distributivity failed")
        _expect((y + z) * x == y * x + z * x, "right distributivity failed")
        _expect(x * one == x and one * x == x, "unit failed")
    v = reference.random_vector(rng, form)
    q = sum(
        (form.diag[i] * v.coeffs[1 << i] * v.coeffs[1 << i] for i in range(form.n)),
        form.field.zero,
    )
    _expect(v * v == form.scalar(-q), "vector square is not minus its length")
    return "associative, distributive, v*v = -Q(v,v)"


@_check()
def check_involutions(form: QuadraticForm, rng: Random) -> str:
    """Involution laws: order two, (anti)multiplicative, composite."""
    terms = _sparse_terms(form)
    for _ in range(_sample_size(form, 6)):
        x = reference.random_multivector(rng, form, terms)
        y = reference.random_multivector(rng, form, terms)
        _expect(x.involute().involute() == x and x.reverse().reverse() == x,
                "an involution is not of order two")
        _expect((x * y).involute() == x.involute() * y.involute(),
                "main involution not multiplicative")
        _expect((x * y).reverse() == y.reverse() * x.reverse(), "reversal not antimultiplicative")
        _expect((x * y).conjugate() == y.conjugate() * x.conjugate(),
                "conjugation not antimultiplicative")
        _expect(x.involute().reverse() == x.conjugate(), "composite involution mismatch")
        _expect(x.involution("grade") == x.involute(), "kind dispatch mismatch")
    return "order two and (anti)automorphism laws hold"


@_check()
def check_pairing(form: QuadraticForm, rng: Random) -> str:
    """Pairing: symmetric, bilinear, oracle route, both adjunction laws."""
    f = form.field
    terms = _sparse_terms(form)
    for _ in range(_sample_size(form, 6)):
        x = reference.random_multivector(rng, form, terms)
        y = reference.random_multivector(rng, form, terms)
        z = reference.random_multivector(rng, form, terms)
        s = reference.random_element(rng, f)
        _expect(x.pair(y) == y.pair(x), "not symmetric")
        _expect((x + z).pair(y) == x.pair(y) + z.pair(y), "not additive")
        _expect((x * s).pair(y) == s * x.pair(y), "not homogeneous")
        _expect(x.pair(y) == reference.product_pairing(x, y) == (x * y.conjugate()).scalar_part(),
                "disagrees with the scalar part of the product")
        _expect((x * y).pair(z) == y.pair(x.conjugate() * z), "left adjunction law failed")
        _expect((y * x).pair(z) == y.pair(z * x.conjugate()), "right adjunction law failed")
    one = form.one()
    _expect(one.pair(one) == f.one, "pairing of 1 with 1 is not 1")
    return "symmetric bilinear, adjunctions, oracle agreement"


@_check()
def check_gram(form: QuadraticForm, rng: Random) -> str:
    """Gram matrix of the pairing from its definition on basis blades: the
    pairing of e_a and e_b is the scalar part of e_a c(e_b) = c(b) e_a e_b.
    On the diagonal that scalar must equal the Gram diagonal on each blade;
    off the diagonal, on the pairs of :func:`_pairs`, it must vanish."""
    gram = form.gram_diagonal()
    for m in range(form.dim):
        coef, mask = form.blade_product(m, m)
        _expect(not mask and (coef if conjugate_sign(m) > 0 else -coef) == gram[m],
                f"diagonal mismatch at mask {m}")
    for a, b in _pairs(form, rng, range(form.dim)):
        if a != b:
            coef, mask = form.blade_product(a, b)
            _expect(mask or not (coef if conjugate_sign(b) > 0 else -coef),
                    f"nonzero off-diagonal at masks {a}, {b}")
    return "matches pairing on basis blades"


@_check()
def check_volume(form: QuadraticForm, rng: Random) -> str:
    """Top-blade square closed form, and its commutation behaviour."""
    f = form.field
    sq = form.volume_square()
    want = f.one
    for q in form.diag:
        want = want * (-q)
    n = form.n
    if (n * (n - 1) // 2) & 1:
        want = -want
    _expect(sq == want, "square disagrees with the sign closed form")
    omega = form.volume_element()
    if n % 2 == 1:
        for k in range(1, n + 1):
            g = form.generator(k)
            _expect(g * omega == omega * g, f"top blade not central against e{k}")
        try:
            volume_commutation_report(form)
        except OddDimension:
            return "square matches; central (odd rank)"
        raise _Failed("even-rank identity did not refuse odd rank")
    try:
        checked = volume_commutation_report(form)
    except CliffexError as exc:
        raise _Failed(str(exc)) from None
    return f"square matches; twisted commutation on {checked} blades"


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


def _same_blades(a: structure.CenterDescription, b: structure.CenterDescription) -> bool:
    """Whether two center bases are the same blades, each a single term: for
    the closed-form bases, which are unit blades, that is equal spans."""
    return sorted(x.support() for x in a.basis) == sorted(x.support() for x in b.basis)


@_check()
def check_centers(form: QuadraticForm, rng: Random) -> str:
    """Solved centers must equal the closed-form answers as subspaces."""
    for space, fn in (("algebra", structure.center), ("lie", structure.lie_center)):
        closed = fn(form, method="closed_form")
        solved = fn(form, method="solve")
        _expect(closed.dimension == solved.dimension,
                f"{space}: dim {solved.dimension} != {closed.dimension}")
        _expect(_same_blades(solved, closed),
                f"{space}: solved basis is not the closed-form blades")
    return "solve equals closed form for algebra and Lie centers"


@_check()
def check_lie_closure(form: QuadraticForm, rng: Random) -> str:
    """Brackets of Lie-algebra elements stay in the Lie algebra."""
    blades = structure.lie_blades(form)
    for _ in range(_sample_size(form, 6)):
        picks_x = rng.sample(blades, min(4, len(blades)))
        picks_y = rng.sample(blades, min(4, len(blades)))
        x = form.multivector({m: reference.random_nonzero_element(rng, form.field) for m in picks_x})
        y = form.multivector({m: reference.random_nonzero_element(rng, form.field) for m in picks_y})
        _expect(structure.in_lie_algebra(x), "sampled element not in the Lie algebra")
        _expect(structure.in_lie_algebra(x.commutator(y)), "bracket left the Lie algebra")
    _expect(structure.in_lie_algebra(form.generator(1)), "a generator is outside the Lie algebra")
    return "sampled brackets stay inside"


@_check()
def check_killing(form: QuadraticForm, rng: Random) -> str:
    """Counting route vs trace-of-ad route for the Killing form on every Lie
    blade up to ``caps.KILLING_TRACE``; above it on the lowest blade of the
    lowest and of the highest Lie grade, which draws nothing from ``rng``."""
    n = form.n
    masks = structure.lie_blades(form)
    capped = caps.over("KILLING_TRACE", n)
    top = max(k for k in range(1, n + 1) if structure.is_lie_blade((1 << k) - 1))
    for mask in (1, (1 << top) - 1) if capped else masks:
        _expect(structure._killing_trace(form, mask, masks)
                == structure.killing_entry(form, mask, mask),
                f"routes disagree at blade {format_blade(mask, n)}")
    if capped:
        return f"2 sampled diagonal entries agree with traces; {capped}"
    # Off the diagonal tr(ad e_a ad e_b) is an empty sum when ad e_a sends each
    # e_b only to e_(a xor b), as a != b then moves every blade: check that.
    pos, zero = {m: i for i, m in enumerate(masks)}, form.field.zero
    for a in masks[:2]:
        for b, col in zip(masks, zip(*structure.ad_matrix(form.basis_blade(a)))):
            r = pos.get(a ^ b)
            _expect(col.count(zero) + (r is not None and bool(col[r])) == len(col),
                    f"ad {format_blade(a, n)} sends {format_blade(b, n)} off its graded blade")
    return f"{len(masks)} diagonal entries agree with traces"


@_check()
def check_killing_dichotomy(form: QuadraticForm, rng: Random) -> str:
    """(ad x)^2 acts on each blade as 0 or as the scalar 4 x^2, on the Lie
    blade pairs of :func:`_pairs`.  With c = a xor b, e_a e_b = p1 e_c and
    e_b e_a = p2 e_c, e_a e_c = p3 e_b and e_c e_a = p4 e_b, so the square
    (ad e_a)^2 e_b is (p1 - p2)(p3 - p4) e_b, read from four blade products."""
    four = form.field.element(4)
    product = form.blade_product
    for a, b in _pairs(form, rng, structure.lie_blades(form)):
        c = a ^ b
        p1, p2, p3, p4 = (product(x, y).coef for x, y in ((a, b), (b, a), (a, c), (c, a)))
        twice = (p1 - p2) * (p3 - p4)
        _expect(not twice or twice == four * form.blade_square(a),
                f"unexpected (ad)^2 value at masks {a}, {b}")
    return "squared adjoint is 0 or 4 x^2 on each blade"


@_check()
def check_decomposition(form: QuadraticForm, rng: Random) -> str:
    """``decompose`` against an enumeration over the masks; permuting the generators
    keeps grades and the ideal, so one blade per Lie grade stands for its grade."""
    dec = structure.decompose(form)
    expect_codim = 1 if form.n % 4 == 1 else 0
    _expect(dec.codim == expect_codim, f"codim {dec.codim}, expected {expect_codim}")
    lie = [m for m in range(form.dim) if m.bit_count() % 4 in (1, 2)]
    _expect(list(dec.ideal_masks) == [m for m in lie if not (expect_codim and m == form.full_mask)],
            "ideal is not the Lie blades less the center")
    ideal = set(dec.ideal_masks)
    closed = nondeg = True
    for k in sorted({m.bit_count() for m in lie}):
        a = (1 << k) - 1
        partners = reference.anticommuting_lie_blades(form, a)
        closed = closed and all(a ^ b in ideal for b in partners if b in ideal)
        # The entry 4 m s is zero in the field exactly when the count m is.
        if a in ideal:
            nondeg = nondeg and bool(form.field.element(len(partners)))
        else:
            _expect(not partners, "central top blade has nonzero count")
    _expect(closed and dec.bracket_closed,
            f"bracket closure: flag {dec.bracket_closed}, enumeration {closed}")
    _expect(dec.killing_nondegenerate_on_ideal == nondeg,
            f"Killing nondegeneracy flag {not nondeg}, counts say {nondeg}")
    return f"ideal dim {len(dec.ideal_masks)}, codim {dec.codim}"


@_check(cap="TRANSLATION_MATRICES")
def check_invertibility(form: QuadraticForm, rng: Random) -> str:
    """Determinant tests versus actually producing a two-sided inverse.

    The pair of translation determinants, both read from one elimination
    (c L_x over Q, phi(x) over F_p), is checked against the determinant
    of the right translation matrix taken through the field-element route.
    """
    inverted = 0
    for _ in range(_sample_size(form, 6)):
        x = reference.random_multivector(rng, form, _sparse_terms(form))
        if x.is_zero():
            continue
        det_r = linalg.determinant(operators.right_matrix(x), form.field)
        _expect(operators.translation_determinants(x) == (det_r, det_r),
                "translation determinants differ from det R_x")
        invertible = operators.is_invertible(x)
        _expect(invertible == bool(det_r), "invertibility disagrees with det R_x")
        if invertible:
            y = operators.inverse(x)
            _expect(x * y == form.one() and y * x == form.one(), "inverse is not two-sided")
            inverted += 1
            continue
        try:
            operators.inverse(x)
        except CliffexError:
            continue
        raise _Failed("inverse succeeded on a zero divisor")
    g = form.generator(1)
    _expect(g * operators.inverse(g) == form.one(), "generator inverse failed")
    return f"{inverted} random inverses verified two-sided"


@_check(cap="TRANSLATION_MATRICES")
def check_adjoint_matrices(form: QuadraticForm, rng: Random) -> str:
    """Translation by the conjugate equals the pairing adjoint of translation."""
    for _ in range(3):
        x = reference.random_multivector(rng, form, _sparse_terms(form))
        for side, matrix in (("left", operators.left_matrix), ("right", operators.right_matrix)):
            _expect(operators.pairing_adjoint(matrix(x), form) == matrix(x.conjugate()),
                    f"{side} translation adjoint mismatch")
    return "conjugation realizes the pairing adjoint"


@_check(cap="MULTIPLICATIVITY")
def check_equivalence(form: QuadraticForm, rng: Random) -> str:
    """Build a guaranteed equivalence by squared scaling, whose construction
    checks every blade pair, and verify it on random products and both ways."""
    f = form.field
    scales = [reference.random_nonzero_element(rng, f) for _ in range(form.n)]
    target = form
    source = QuadraticForm([s * s * q for s, q in zip(scales, form.diag)], f)
    t = [
        [scales[i] if i == j else f.zero for j in range(form.n)]
        for i in range(form.n)
    ]
    amap = operators.equivalence_isomorphism(t, source, target)
    back = amap.inverse()
    for _ in range(3):
        x = reference.random_multivector(rng, source, _sparse_terms(form))
        y = reference.random_multivector(rng, source, _sparse_terms(form))
        _expect(amap.apply(x * y) == amap.apply(x) * amap.apply(y), "map failed on random products")
        _expect(back.apply(amap.apply(x)) == x, "inverse map does not undo the map")
    return "squared-scaling equivalence verified both ways"


@_check(cap="UNIQUENESS_SOLVE")
def check_uniqueness(form: QuadraticForm, rng: Random) -> str:
    """The pairing axioms pin the pairing down as far as they can.

    For n = 3 mod 4 the bare axiom set leaves exactly one free direction,
    spanned by the volume-twisted pairing; everywhere else the solution is
    unique.  Requiring parity invariance on top must force uniqueness in
    every rank.
    """
    rep = operators.pairing_uniqueness_report(form)
    _expect(rep.consistent, "axiom system inconsistent")
    _expect(rep.matches_canonical, "canonical pairing is not a solution")
    expected_nullity = 1 if form.n % 4 == 3 else 0
    _expect(rep.nullity == expected_nullity,
            f"nullity {rep.nullity}, expected {expected_nullity} at rank {form.n}")
    _expect(rep.nullity != 1 or rep.kernel_is_volume_twist,
            "free direction is not the volume twist")
    strict = operators.pairing_uniqueness_report(form, require_parity_invariance=True)
    _expect(strict.unique and strict.matches_canonical,
            "parity invariance did not force uniqueness")
    detail = f"{rep.unknowns} unknowns, rank {rep.rank}"
    if expected_nullity:
        detail += ", volume twist survives until parity invariance is imposed"
    return detail


@_check()
def check_isometries(form: QuadraticForm, rng: Random) -> str:
    """Sampled rotors are isometries with consistent evidence."""
    for _ in range(3):
        g = reference.random_isometry(rng, form)
        ev = structure.isometry_evidence(g)
        _expect(ev.isometry, "sampled rotor failed the unit condition")
        _expect(ev.consistent, "evidence inconsistent with unit condition")
    if form.field.is_rational:
        _expect(not structure.is_isometry(form.scalar(2)), "the scalar 2 passed as an isometry")
    return "rotor samples preserve the pairing"


@_check(definite=("needs an ordered field", "needs a positive definite form"))
def check_definiteness(form: QuadraticForm, rng: Random) -> str:
    rep = structure.definiteness_report(form)
    _expect(rep.killing_negative, f"Killing signs {rep.killing_signs}")
    _expect(rep.pairing_positive, f"pairing signs {rep.pairing_signs}")
    return f"{rep.ideal_dim} ideal blades: B < 0 < pairing"


@_check(
    definite=(
        "table verification runs over the rationals",
        "table describes positive definite forms",
    ),
)
def check_classification(form: QuadraticForm, rng: Random) -> str:
    rep = classify.verify_classification(form.n)
    _expect(rep.passed, f"table mismatch at rank {form.n}")
    return f"{rep.algebra.describe()} / {rep.group.describe()} confirmed"


@_check()
def check_quaternion_conventions(_: QuadraticForm, rng: Random) -> str:
    """Composition, adjointness, and basis-change laws for H-matrices."""

    def rand_q() -> Quaternion:
        return Quaternion(*(rng.randint(-4, 4) for _ in range(4)))

    for size in (2, 3):
        a = HMatrix([[rand_q() for _ in range(size)] for _ in range(size)])
        b = HMatrix([[rand_q() for _ in range(size)] for _ in range(size)])
        x = [rand_q() for _ in range(size)]
        y = [rand_q() for _ in range(size)]
        _expect(a.compose(b).action(x) == a.action(b.action(x)), "composition law failed")
        _expect(hermitian_pairing(a.action(x), y) == hermitian_pairing(x, a.adjoint().action(y)),
                "adjoint law failed")
        _expect(a.compose(b).adjoint() == b.adjoint().compose(a.adjoint()),
                "adjoint of a product failed")
        lam = rand_q()
        _expect(a.action([lam * v for v in x]) == tuple(lam * v for v in a.action(x)),
                "left linearity failed")
        # Basis change: multiplicative and correct on basis vectors.
        for _ in range(8):
            basis = [[rand_q() for _ in range(size)] for _ in range(size)]
            try:
                ba = basis_change(a, basis)
            except CliffexError:
                continue
            bb = basis_change(b, basis)
            _expect(basis_change(a.compose(b), basis) == ba.compose(bb),
                    "basis change not multiplicative")
            for i in range(size):
                image = a.action(basis[i])
                recon = [Quaternion() for _ in range(size)]
                for r in range(size):
                    recon = [
                        rv + ba[r, i] * bv for rv, bv in zip(recon, basis[r])
                    ]
                _expect(tuple(recon) == image, "basis change coordinates wrong")
                coords = coordinates_in_basis(image, basis)
                _expect(tuple(ba[r, i] for r in range(size)) == coords,
                        "coordinate extraction mismatch")
            break
        ident = HMatrix.identity(size)
        _expect(basis_change(ident, ident.entries) == ident, "identity not fixed")
    _expect(str(parse_quaternion("1/2 - 3i + k")) == "1/2 - 3i + k", "text round trip failed")
    return "composition, adjoint, basis change verified"


@_check()
def check_bridge(_: QuadraticForm, rng: Random) -> str:
    """The rank-2 unit form is the quaternions under 1, i, j, k."""
    form = BRIDGE_FORM
    for mask, q in enumerate((Quaternion.one(), Quaternion.i(), Quaternion.j(), Quaternion.k())):
        _expect(to_quaternion(form.basis_blade(mask)) == q, f"basis image wrong at mask {mask}")
    for _ in range(10):
        x = reference.random_multivector(rng, form)
        y = reference.random_multivector(rng, form)
        _expect(to_quaternion(x * y) == to_quaternion(x) * to_quaternion(y), "not multiplicative")
        _expect(to_quaternion(x.conjugate()) == to_quaternion(x).conjugate(),
                "involution does not match conjugation")
        _expect(from_quaternion(to_quaternion(x)) == x, "round trip failed")
        _expect(x.pair(x) == to_quaternion(x).norm_squared(),
                "pairing does not match the quaternion norm")
    return "multiplicative, conjugation-compatible, norm-compatible"


def run_checks(form: QuadraticForm, seed: int = 0) -> list:
    """Run every applicable check on one form; deterministic in the seed.

    The checks share one generator in this order, and each is read from the
    module when the run starts, so a substituted ``check_*`` attribute runs.
    """
    rng = Random(seed)
    return [
        check(form, rng)
        for check in (
            check_field_arithmetic,
            check_blade_products,
            check_product_ring,
            check_involutions,
            check_pairing,
            check_gram,
            check_volume,
            check_centers,
            check_lie_closure,
            check_killing,
            check_killing_dichotomy,
            check_decomposition,
            check_invertibility,
            check_adjoint_matrices,
            check_equivalence,
            check_uniqueness,
            check_isometries,
            check_definiteness,
            check_classification,
            check_quaternion_conventions,
            check_bridge,
        )
    ]
