"""The four workloads: seeded inputs, the operations timed on them, and their checks.

A workload is a fixed list of operations.  Each operation is one call into
the public API of ``cliffex`` on inputs made from the seed when the
workload is built.  Each carries a check that runs outside the timed
interval and returns ``None`` when the output is right, or a reason.
Checks compare against the independent routes in ``oracles`` or against
properties the answer must have, never against a stored copy of output.

Ranks, fields and counts are listed per workload in ``README.md``.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Any, Callable, Optional

import oracles
from cliffex import QuadraticForm, classify, cli, operators, structure
from cliffex.field import FieldSpec
from cliffex.reference import blade_word_product, mask_to_word

# Operations at or below this rank form the small tier.
SMALL_MAX_RANK = 4


@dataclass
class Op:
    name: str
    rank: int
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    # Fails until a known fault in the program is mended (see README).
    known_fault: bool = False
    # Output is (exit code, stdout text) of a CLI command.
    stdout: bool = False


@dataclass
class Workload:
    ops: list
    # Operations at or above this rank form the large tier.
    large_min_rank: int


def _rational_coeff(rng: Random):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))


def _coeff(rng: Random, field):
    if field.is_rational:
        return _rational_coeff(rng)
    return rng.randrange(1, field.p)


def dense(rng: Random, form):
    """Every one of the 2^n coefficients nonzero."""
    return form.multivector([_coeff(rng, form.field) for _ in range(form.dim)])


def sparse(rng: Random, form, terms: int):
    masks = rng.sample(range(form.dim), min(terms, form.dim))
    return form.multivector({m: _coeff(rng, form.field) for m in masks})


def _tag(field) -> str:
    return "Q" if field.is_rational else f"F{field.p}"


# -- algebra_mix -------------------------------------------------------------


def check_product_sampled(x, y, masks):
    """Sampled coefficients of x * y against the word-sorting oracle."""

    def check(out):
        for k in masks:
            want = oracles.product_coeff(x, y, k)
            if out.coeffs[k] != want:
                return f"coefficient {k} of the product is {out.coeffs[k]}, oracle {want}"
        return None

    return check


def check_product_full(x, y):
    """Every coefficient of x * y against the word-sorting oracle."""

    def check(out):
        want = oracles.product(x, y)
        if list(out.coeffs) != want:
            bad = next(k for k, (a, b) in enumerate(zip(out.coeffs, want)) if a != b)
            return f"coefficient {bad} of the product is {out.coeffs[bad]}, oracle {want[bad]}"
        return None

    return check


def check_commutator(x, y):
    def check(out):
        xy, yx = oracles.product(x, y), oracles.product(y, x)
        want = [a - b for a, b in zip(xy, yx)]
        if list(out.coeffs) != want:
            return "commutator differs from x*y - y*x by the word oracle"
        return None

    return check


def check_pair(x, y):
    def check(out):
        want = oracles.pairing(x, y)
        return None if out == want else f"pair is {out}, Gram closed form gives {want}"

    return check


def check_involution(kind: str, x):
    """Each coefficient scaled by the grade sign; applying it twice is the identity."""

    def check(out):
        for m, c in enumerate(x.coeffs):
            want = c if oracles.involution_sign(kind, m.bit_count()) > 0 else -c
            if out.coeffs[m] != want:
                return f"{kind} involution wrong on blade {m}"
        if out.involution(kind) != x:
            return f"{kind} involution is not of order two"
        return None

    return check


def check_sum(x, y):
    def check(out):
        want = [a + b for a, b in zip(x.coeffs, y.coeffs)]
        return None if list(out.coeffs) == want else "sum differs coefficient-wise"

    return check


def check_anticommutator(u, v):
    """u*v + v*u = -2 B(u, v) for vectors u, v."""

    def check(out):
        b = oracles.pairing(u, v)
        want = -(b + b)
        if out.coeffs[0] != want or any(out.coeffs[1:]):
            return f"u*v + v*u is {out}, expected the scalar {want}"
        return None

    return check


def _mix_form(n: int, field):
    if field.is_rational:
        return QuadraticForm([1 if i % 2 == 0 else -1 for i in range(n)], field)
    return QuadraticForm([(2, -3, 5, -1, 3, -2, 1, -5)[i] for i in range(n)], field)


def algebra_mix(rng: Random, tiny: bool) -> Workload:
    ops = []
    top = 4 if tiny else 8
    for field in (FieldSpec.rational(), FieldSpec.prime(101)):
        for n in range(2, top + 1):
            form = _mix_form(n, field)
            x, y = dense(rng, form), dense(rng, form)
            xs, ys = sparse(rng, form, 4), sparse(rng, form, 4)
            u = form.vector([_coeff(rng, field) for _ in range(n)])
            v = form.vector([_coeff(rng, field) for _ in range(n)])
            masks = rng.sample(range(form.dim), 3)
            t = f"{_tag(field)}/r{n}"
            ops += [
                Op(f"product.dense/{t}", n, lambda x=x, y=y: x * y,
                   check_product_sampled(x, y, masks)),
                Op(f"product.sparse/{t}", n, lambda a=xs, b=ys: a * b, check_product_full(xs, ys)),
                Op(f"pair.dense/{t}", n, lambda x=x, y=y: x.pair(y), check_pair(x, y)),
                Op(f"involute/{t}", n, lambda x=x: x.involute(), check_involution("grade", x)),
                Op(f"reverse/{t}", n, lambda y=y: y.reverse(), check_involution("reverse", y)),
                Op(f"conjugate/{t}", n, lambda x=x: x.conjugate(), check_involution("conj", x)),
                Op(f"commutator/{t}", n, lambda x=x, b=ys: x.commutator(b), check_commutator(x, ys)),
                Op(f"sum/{t}", n, lambda x=x, y=y: x + y, check_sum(x, y)),
                Op(f"vector_anticommutator/{t}", n, lambda u=u, v=v: u * v + v * u,
                   check_anticommutator(u, v)),
            ]
    return Workload(ops, top)


# -- inverse_solve -----------------------------------------------------------


def _inv_form(n: int, field):
    """Diagonal with -1 in slot 2, so e_2 squares to 1 and zero divisors exist."""
    return QuadraticForm([(1, -1, 2, -2, 3, -3)[i] for i in range(n)], field)


_INV_DIAG = (1, -1, 2, -2, 3, -3)


def _independent_masks(rng: Random, n: int, k: int) -> list:
    """k blade masks independent over GF(2), so a product of k two-term
    factors has exactly 2^k nonzero coefficients."""
    chosen, span = [], {0}
    while len(chosen) < k:
        m = rng.randrange(1, 1 << n)
        if m in span:
            continue
        chosen.append(m)
        span |= {s ^ m for s in span}
    return chosen


def invertible(rng: Random, form, k: int):
    """x = prod (a_i + b_i e_{B_i}) with its inverse, built factor by factor.

    (a + b e_B)(a - b e_B) = a^2 - b^2 s with s the blade square, so each
    factor's inverse is explicit once that scalar is nonzero.
    """
    f = form.field
    x = xinv = form.one()
    for mask in _independent_masks(rng, form.n, k):
        s = oracles.blade_square(form.diag, mask, f.one)
        while True:
            # Integer factors over Q keep the size of the entries, and so the
            # work, about the same from seed to seed.
            a = f.element(rng.choice([-1, 1]) * rng.randint(1, 9))
            b = f.element(rng.choice([-1, 1]) * rng.randint(1, 9))
            norm = a * a - b * b * s
            if norm:
                break
        u = form.multivector({0: a, mask: b})
        uinv = form.multivector({0: a / norm, mask: -b / norm})
        x, xinv = x * u, uinv * xinv
    return x, xinv


def zero_divisor(rng: Random, form, k: int):
    """z = (1 + e_B) r with e_B^2 = 1 and r invertible; (1 - e_B) z = 0."""
    f = form.field
    unit = [m for m in range(1, form.dim) if oracles.blade_square(form.diag, m, f.one) == f.one]
    mask = rng.choice(unit)
    r, _ = invertible(rng, form, k)
    z = form.multivector({0: 1, mask: 1}) * r
    w = form.multivector({0: 1, mask: -1})
    return z, w


def check_inverse(x, xinv):
    def check(out):
        one = x.form.one()
        if x * out != one:
            return "x * inverse(x) is not 1"
        if out * x != one:
            return "inverse(x) * x is not 1"
        if out != xinv:
            return "inverse differs from the product of the factor inverses"
        return None

    return check


def check_not_zero_divisor(x, xinv):
    def check(out):
        if out is not False:
            return f"is_zero_divisor gave {out} for an element with a two-sided inverse"
        one = x.form.one()
        if x * xinv != one or xinv * x != one:
            return "the constructed inverse is not two-sided"
        return None

    return check


def check_zero_divisor(z, w):
    def check(out):
        if out is not True:
            return f"is_zero_divisor gave {out} for an element with an annihilator"
        if not w or not z or w * z:
            return "the constructed annihilator does not kill the element"
        return None

    return check


def check_dets_rational(a, b):
    """det L(ab) = det L(a) det L(b), and the same for R; both nonzero."""

    def check(out):
        dl, dr = out
        if not dl or not dr:
            return "an invertible element has a zero translation determinant"
        bl, br = operators.translation_determinants(b)
        pl, pr = operators.translation_determinants(a * b)
        if pl != dl * bl:
            return "det L(ab) != det L(a) det L(b)"
        if pr != dr * br:
            return "det R(ab) != det R(a) det R(b)"
        return None

    return check


def check_dets_mod_p(x, diag):
    """The F_p determinants equal the rational ones of the integer lift, mod p."""

    def check(out):
        p = x.form.field.p
        qform = QuadraticForm(list(diag), FieldSpec.rational())
        lift = qform.multivector([c.residue for c in x.coeffs])
        ql, qr = operators.translation_determinants(lift)
        dl, dr = out
        if dl.residue != ql.numerator * pow(ql.denominator, -1, p) % p:
            return f"det L over F_{p} is {dl}, rational det reduces to another residue"
        if dr.residue != qr.numerator * pow(qr.denominator, -1, p) % p:
            return f"det R over F_{p} is {dr}, rational det reduces to another residue"
        return None

    return check


def check_dets_zero(z):
    def check(out):
        if any(out):
            return "an element with an annihilator has a nonzero translation determinant"
        return None

    return check


# Per rank, the factor counts k of its units.  Many shapes at small ranks
# spread the latencies evenly, so no percentile sits in a gap between two
# clusters of operations.
_INV_SHAPES = {2: (1, 2), 3: (1, 2, 3), 4: (1, 2, 3, 4), 5: (3, 4), 6: (3, 4)}
# Zero divisors come with the units up to this rank.  Elimination stops at
# the first column without a pivot, and where that column falls depends on
# the seed; above rank 4 that moved the latency of one operation by 10x.
_ZD_MAX_RANK = 4


def inverse_solve(rng: Random, tiny: bool) -> Workload:
    ops = []
    top = 4 if tiny else 6
    for field in (FieldSpec.rational(), FieldSpec.prime(101)):
        for n in range(2, top + 1):
            form = _inv_form(n, field)
            t = f"{_tag(field)}/r{n}"
            elems = [invertible(rng, form, k) for k in _INV_SHAPES[n]]
            for i, (x, xinv) in enumerate(elems):
                partner = elems[(i + 1) % len(elems)][0]
                dets = (check_dets_rational(x, partner) if field.is_rational
                        else check_dets_mod_p(x, _INV_DIAG[:n]))
                ops += [
                    Op(f"inverse/{t}", n, lambda x=x: _op("inverse", x), check_inverse(x, xinv)),
                    Op(f"is_zero_divisor.unit/{t}", n, lambda x=x: _op("is_zero_divisor", x),
                       check_not_zero_divisor(x, xinv)),
                    Op(f"translation_determinants.unit/{t}", n,
                       lambda x=x: _op("translation_determinants", x), dets),
                ]
                if n > _ZD_MAX_RANK:
                    continue
                z, w = zero_divisor(rng, form, _INV_SHAPES[n][i])
                ops += [
                    Op(f"is_zero_divisor.zd/{t}", n, lambda z=z: _op("is_zero_divisor", z),
                       check_zero_divisor(z, w)),
                    Op(f"translation_determinants.zd/{t}", n,
                       lambda z=z: _op("translation_determinants", z), check_dets_zero(z)),
                ]
    return Workload(ops, top)


def _op(name: str, x):
    # Looked up at call time, so a traced run sees its wrappers.
    return getattr(operators, name)(x)


# -- structure_scan ----------------------------------------------------------


def _structure(name: str, *args, **kwargs):
    return getattr(structure, name)(*args, **kwargs)


def _killing_value(form, mask):
    """4 m s with m from the grade formula and s the blade square."""
    f = form.field
    m = oracles.killing_count(form.n, mask.bit_count())
    return f.element(4 * m) * oracles.blade_square(form.diag, mask, f.one), m


def check_killing(form):
    def check(out):
        n = form.n
        if len(out) != oracles.lie_dimension(n):
            return f"{len(out)} Killing records, Lie dimension is {oracles.lie_dimension(n)}"
        masks = [r.mask for r in out]
        if masks != sorted(m for m in range(form.dim) if m.bit_count() % 4 in (1, 2)):
            return "Killing records are not the Lie blades in ascending order"
        for r in out:
            want, m = _killing_value(form, r.mask)
            if r.anticommuting != m:
                return f"blade {r.blade}: count {r.anticommuting}, grade formula {m}"
            if r.value != want:
                return f"blade {r.blade}: Killing entry {r.value}, 4 m s gives {want}"
        return None

    return check


def check_decompose(form):
    """Dimensions by rank, and the certificate against the entries in the field."""

    def check(out):
        n = form.n
        central = n % 4 == 1
        if out.lie_dim != oracles.lie_dimension(n):
            return f"Lie dimension {out.lie_dim}, expected {oracles.lie_dimension(n)}"
        if out.codim != (1 if central else 0) or len(out.center_basis) != out.codim:
            return f"center of dimension {out.codim} at rank {n}"
        if len(out.ideal_masks) != out.lie_dim - out.codim:
            return "ideal dimension does not complement the center"
        if not out.bracket_closed:
            return "ideal reported not bracket-closed"
        nondegenerate = all(_killing_value(form, m)[0] for m in out.ideal_masks)
        if out.killing_nondegenerate_on_ideal != nondegenerate:
            return (f"killing_nondegenerate_on_ideal is {out.killing_nondegenerate_on_ideal}, "
                    f"but the ideal's Killing entries in {form.field.to_text()} say {nondegenerate}")
        return None

    return check


def check_center(form, space: str):
    """Algebra center: dimension 1 (n even) or 2 (n odd); Lie center: 1 iff n = 1 mod 4."""

    def check(out):
        n = form.n
        if space == "algebra":
            want, volume = (2, True) if n % 2 else (1, False)
        else:
            want, volume = (1, True) if n % 4 == 1 else (0, False)
        if out.dimension != want or len(out.basis) != want:
            return f"{space} center of dimension {out.dimension} at rank {n}, expected {want}"
        if out.contains_volume != volume:
            return f"{space} center volume flag {out.contains_volume} at rank {n}"
        for b in out.basis:
            for g in range(n):
                e = form.basis_blade(1 << g)
                if b * e != e * b:
                    return f"{space} center basis element does not commute with e{g + 1}"
        return None

    return check


def check_uniqueness(form, parity: bool):
    """Nullity 0, 0, 1 at ranks 1, 2, 3; unique and canonical under parity invariance."""

    def check(out):
        n = form.n
        want = 0 if parity or n < 3 else 1
        if not out.consistent:
            return "pairing axioms reported inconsistent"
        if out.nullity != want:
            return f"nullity {out.nullity} at rank {n}, expected {want}"
        if out.unique != (want == 0):
            return f"unique flag {out.unique} with nullity {out.nullity}"
        if not out.matches_canonical:
            return "solution is not the canonical pairing"
        dim = form.dim
        for a in range(dim):
            for b in range(dim):
                g = oracles.gram(form.diag, a, form.field.one) if a == b else form.field.zero
                if out.solution[a][b] != g:
                    return f"solution entry ({a}, {b}) is not the Gram closed form"
        if want == 1 and out.kernel_is_volume_twist is not True:
            return "the free direction at rank 3 is not the volume twist"
        return None

    return check


def check_definiteness(form):
    def check(out):
        n = form.n
        ideal = oracles.lie_dimension(n) - (1 if n % 4 == 1 else 0)
        if out.ideal_dim != ideal:
            return f"ideal dimension {out.ideal_dim}, expected {ideal}"
        if out.killing_signs != (ideal, 0, 0) or not out.killing_negative:
            return f"Killing signs {out.killing_signs} on a positive definite form"
        if out.pairing_signs != (0, 0, ideal) or not out.pairing_positive:
            return f"pairing signs {out.pairing_signs} on a positive definite form"
        return None

    return check


def check_classification(n: int):
    def check(out):
        if not out.passed:
            return f"classification at rank {n} did not pass"
        if out.lie_dim.got != oracles.lie_dimension(n):
            return f"Lie dimension {out.lie_dim.got}, expected {oracles.lie_dimension(n)}"
        if out.group.dimension() != oracles.lie_dimension(n):
            return f"group {out.group.describe()} has the wrong dimension"
        if out.center_dim.got != (1 if n % 4 == 1 else 0):
            return f"Lie center dimension {out.center_dim.got} at rank {n}"
        if out.algebra_dim.got != 1 << n:
            return f"algebra {out.algebra.describe()} has the wrong real dimension"
        return None

    return check


def _pos_form(n: int, field=None):
    return QuadraticForm([1] * n, field)


def structure_scan(rng: Random, tiny: bool) -> Workload:
    """The seed picks the signature of each form; the rank grid is fixed."""
    Q, F3, F7 = FieldSpec.rational(), FieldSpec.prime(3), FieldSpec.prime(7)
    top = 4 if tiny else 12
    mid = 4 if tiny else 10
    ops = []

    def form_for(n, field):
        # The seed picks the signature; entries of +-1 keep the work per
        # operation the same from seed to seed.
        return QuadraticForm([rng.choice((1, -1)) for _ in range(n)], field)

    # Rank 12 for the Killing count; decompose stops at rank 11, because at
    # rank 12 it alone takes half a pass and leaves too few passes per run.
    for n in list(range(2, mid + 1)) + ([12] if not tiny else []):
        form = form_for(n, Q)
        ops.append(Op(f"killing_form.count/Q/r{n}", n,
                      lambda f=form: _structure("killing_form", f), check_killing(form)))
    for n in range(2, mid + 1 if tiny else 12):
        form = form_for(n, Q)
        ops.append(Op(f"decompose/Q/r{n}", n,
                      lambda f=form: _structure("decompose", f), check_decompose(form)))
    for n in range(2, mid + 1):
        for field in (Q, F7):
            form = form_for(n, field)
            t = f"{_tag(field)}/r{n}"
            ops.append(Op(f"center.solve/{t}", n,
                          lambda f=form: _structure("center", f, method="solve"),
                          check_center(form, "algebra")))
            ops.append(Op(f"lie_center.solve/{t}", n,
                          lambda f=form: _structure("lie_center", f, method="solve"),
                          check_center(form, "lie")))
    for field in (Q, F7):
        for n in (1, 2, 3):
            for parity in (False, True):
                form = form_for(n, field)
                ops.append(Op(f"uniqueness{'.parity' if parity else ''}/{_tag(field)}/r{n}", n,
                              lambda f=form, p=parity: _uniqueness(f, p),
                              check_uniqueness(form, parity)))
    for field in (Q, F7):
        for n in range(2, min(6, top) + 1):
            form = form_for(n, field)
            ops.append(Op(f"killing_form.trace/{_tag(field)}/r{n}", n,
                          lambda f=form: _structure("killing_form", f, method="trace"),
                          check_killing(form)))
    for n in range(2, mid + 1):
        form = _pos_form(n)
        ops.append(Op(f"definiteness_report/Q/r{n}", n,
                      lambda f=form: _structure("definiteness_report", f), check_definiteness(form)))
    for n in range(1, mid + 1):
        ops.append(Op(f"verify_classification/r{n}", n, lambda n=n: _classify(n),
                      check_classification(n)))
    # Decompositions over small primes; the first two trip the known fault
    # (the flag is read from the integer count, not the entry in the field).
    for field, n, fault in ((F3, 4, True), (F7, 8, True), (F7, 4, False), (F3, 2, False)):
        if n > top:
            continue
        form = _pos_form(n, field)
        ops.append(Op(f"decompose/{_tag(field)}/r{n}", n,
                      lambda f=form: _structure("decompose", f), check_decompose(form),
                      known_fault=fault))
    # The top tier is the Killing count at rank 12 and decompose at rank 11:
    # the enumerations a closed form for the counts would replace.
    return Workload(ops, mid if tiny else 11)


def _uniqueness(form, parity):
    return operators.pairing_uniqueness_report(form, require_parity_invariance=parity)


def _classify(n):
    return classify.verify_classification(n)


# -- check_cli ---------------------------------------------------------------


def run_cli(argv: list) -> tuple:
    """``cliffex.cli.main`` in process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse's exit on a usage error
            rc = exc.code
    return rc, buf.getvalue()


def check_cli(argv: list, verify: Callable[[Any], Optional[str]], json_out: bool):
    """Exit 0, no FAIL line, byte-identical on a second run, then the values."""

    def check(out):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        if any(line.startswith("FAIL") for line in text.splitlines()):
            return "a FAIL line in the output"
        if run_cli(argv) != out:
            return "a repeated invocation printed different bytes"
        if not json_out:
            return verify(text)
        try:
            obj = json.loads(text)
        except ValueError as exc:
            return f"JSON output does not parse: {exc}"
        return verify(obj)

    return check


def _cli_form_diag(spec: str) -> list:
    if spec.startswith("sig:"):
        r, s = (int(v) for v in spec[4:].split(","))
        return [1] * r + [-1] * s
    return [int(v) for v in spec[5:].split(",")]


class _Algebra:
    """Coefficient arithmetic for one CLI form, through the word oracle only."""

    def __init__(self, spec: str, p):
        self.p = p
        self.diag = _cli_form_diag(spec)
        self.n = len(self.diag)
        field = FieldSpec.rational() if p is None else FieldSpec.prime(p)
        self.form = QuadraticForm(self.diag, field)

    def mul(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for i, x in a.items():
            for j, y in b.items():
                coef, k = blade_word_product(mask_to_word(i), mask_to_word(j), self.form)
                c = coef if self.p is None else coef.residue
                out[k] = out.get(k, 0) + x * y * c
        return self.norm(out)

    def norm(self, d: dict) -> dict:
        if self.p is not None:
            d = {m: c % self.p for m, c in d.items()}
        return {m: c for m, c in d.items() if c}

    def scalar(self, value):
        return value if self.p is None else value % self.p

    def text(self, d: dict) -> str:
        return oracles.format_mv(d, self.n, self.p)

    def read(self, text: str) -> dict:
        return oracles.parse_mv(text, self.p)

    def random(self, rng: Random, terms: int) -> dict:
        masks = rng.sample(range(1 << self.n), min(terms, 1 << self.n))
        if self.p is None:
            return {m: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 3))
                    for m in masks}
        return {m: rng.randrange(1, self.p) for m in masks}


def _sign_apply(kind: str, d: dict) -> dict:
    return {m: c * oracles.involution_sign(kind, m.bit_count()) for m, c in d.items()}


# Forms for the element commands: (form, field prime or None).
_CLI_FORMS = [("sig:1,1", None), ("diag:2,3", 11), ("sig:2,1", None), ("diag:1,-2,3", 7),
              ("sig:3,1", None), ("sig:3,3", None), ("diag:1,2,-1,3,-2,5", 13)]
# Forms for `check`: cheap enough that a pass stays short.
_CHECK_FORMS = [("sig:2,0", None), ("diag:2,3", 11), ("sig:1,2", None), ("diag:1,-1,3", 7),
                ("sig:3,1", None), ("diag:1,2,-1,3", 13)]


def _args(cmd, spec, p, fmt, *elements, opts=()):
    field = "rational" if p is None else f"fp:{p}"
    argv = [cmd, "--form", spec, "--field", field, "--format", fmt, *opts]
    # "--" ends the options, so an element printed with a leading minus is
    # read as an element.
    return argv + ["--", *elements] if elements else argv


def _num(text, p):
    return oracles.parse_scalar(text, p)


def check_cli_workload(rng: Random, tiny: bool) -> Workload:
    ops = []
    forms = [f for f in _CLI_FORMS if not tiny or len(_cli_form_diag(f[0])) <= 4]
    for fmt in ("text", "json"):
        js = fmt == "json"
        for spec, p in forms:
            alg = _Algebra(spec, p)
            n = alg.n
            x, y = alg.random(rng, 3), alg.random(rng, 3)
            prod = alg.mul(x, y)

            def v_product(o, alg=alg, prod=prod):
                got = alg.read(o["result"] if isinstance(o, dict) else o.strip())
                return None if got == prod else "product differs from the word oracle"

            argv = _args("product", spec, p, fmt, alg.text(x), alg.text(y))
            ops.append(Op(f"product/{fmt}/{spec}", n, lambda a=argv: run_cli(a),
                          check_cli(argv, v_product, js)))

            kind = rng.choice(["grade", "reverse", "conj"])
            want = alg.norm(_sign_apply(kind, x))

            def v_involute(o, alg=alg, want=want):
                got = alg.read(o["result"] if isinstance(o, dict) else o.strip())
                return None if got == want else "involution differs from the grade signs"

            argv = _args("involute", spec, p, fmt, alg.text(x), opts=("--kind", kind))
            ops.append(Op(f"involute/{fmt}/{spec}", n, lambda a=argv: run_cli(a),
                          check_cli(argv, v_involute, js)))

            # A unit: a + b e_B with a^2 - b^2 e_B^2 nonzero.  B has grade 2,
            # so the work per command is the same from seed to seed.
            mask = rng.choice([m for m in range(1 << n) if m.bit_count() == 2])
            sq = oracles.blade_square(alg.diag, mask, Fraction(1))
            while True:
                a, b = rng.randint(1, 5), rng.randint(1, 5)
                norm = a * a - b * b * sq
                if (norm % p) if p else norm:
                    break
            unit = {0: a, mask: b}

            def v_invert(o, alg=alg, unit=unit):
                inv = alg.read(o["inverse"] if isinstance(o, dict) else o.strip())
                if alg.mul(unit, inv) != {0: 1} or alg.mul(inv, unit) != {0: 1}:
                    return "printed inverse is not a two-sided inverse"
                return None

            argv = _args("invert", spec, p, fmt, alg.text(unit))
            ops.append(Op(f"invert/{fmt}/{spec}", n, lambda a=argv: run_cli(a),
                          check_cli(argv, v_invert, js)))

            def v_info(o, alg=alg, unit=unit):
                if not isinstance(o, dict):
                    return None if o.startswith(f"n: {alg.n}\n") else "text info has the wrong rank"
                one = Fraction(1) if alg.p is None else 1
                if o["n"] != alg.n or o["dim"] != 1 << alg.n:
                    return "info has the wrong rank or dimension"
                vol = oracles.blade_square(alg.diag, (1 << alg.n) - 1, one)
                if _num(o["volume_square"], alg.p) != alg.scalar(vol):
                    return "volume square differs from the closed form"
                gram = [alg.scalar(oracles.gram(alg.diag, m, one)) for m in range(1 << alg.n)]
                if [_num(g, alg.p) for g in o["gram"]] != gram:
                    return "Gram diagonal differs from the closed form"
                el = o["element"]
                selfp = sum(c * c * gram[m] for m, c in unit.items())
                if _num(el["self_pairing"], alg.p) != alg.scalar(selfp):
                    return "self pairing differs from the Gram closed form"
                rows = [[_num(v, alg.p) for v in row] for row in el["left_matrix"]["entries"]]
                lm = alg.form.multivector({m: c for m, c in unit.items()})
                want_rows = [[alg.scalar(v.residue if alg.p else v) for v in row]
                             for row in oracles.left_matrix(lm)]
                if rows != want_rows:
                    return "left matrix differs from the word oracle"
                if _num(el["left_det"], alg.p) != oracles.determinant(rows, alg.p):
                    return "left determinant differs from Gaussian elimination"
                if el["zero_divisor"] is not False:
                    return "a unit is reported as a zero divisor"
                return None

            argv = _args("info", spec, p, fmt, alg.text(unit))
            ops.append(Op(f"info/{fmt}/{spec}", n, lambda a=argv: run_cli(a),
                          check_cli(argv, v_info, js)))

            def v_center(o, n=n):
                if not isinstance(o, dict):
                    return None if o.startswith(f"center: dim {2 if n % 2 else 1},") else \
                        "text center has the wrong dimension"
                if o["center"]["dim"] != (2 if n % 2 else 1):
                    return "algebra center has the wrong dimension"
                if o["lie_center"]["dim"] != (1 if n % 4 == 1 else 0):
                    return "Lie center has the wrong dimension"
                if o["methods_agree"] is not True:
                    return "closed form and solve disagree"
                return None

            argv = _args("center", spec, p, fmt)
            ops.append(Op(f"center/{fmt}/{spec}", n, lambda a=argv: run_cli(a),
                          check_cli(argv, v_center, js)))

            member = all(m.bit_count() % 4 in (1, 2) for m in x)

            def v_lie(o, n=n, member=member):
                if not isinstance(o, dict):
                    return None if o.startswith(f"lie dimension: {oracles.lie_dimension(n)}\n") \
                        else "text Lie dimension is wrong"
                if o["lie_dim"] != oracles.lie_dimension(n) or len(o["blades"]) != o["lie_dim"]:
                    return "Lie dimension differs from the binomial sum"
                if o["member"] is not member:
                    return "membership differs from the grades of the element"
                return None

            argv = _args("lie", spec, p, fmt, alg.text(x))
            ops.append(Op(f"lie/{fmt}/{spec}", n, lambda a=argv: run_cli(a),
                          check_cli(argv, v_lie, js)))

            def v_killing(o, alg=alg):
                if not isinstance(o, dict):
                    lines = o.splitlines()
                    return None if len(lines) == oracles.lie_dimension(alg.n) else \
                        "text Killing output has the wrong number of lines"
                return _check_killing_json(o["killing"], alg)

            argv = _args("killing", spec, p, fmt)
            ops.append(Op(f"killing/{fmt}/{spec}", n, lambda a=argv: run_cli(a),
                          check_cli(argv, v_killing, js)))

            def v_decompose(o, alg=alg):
                if not isinstance(o, dict):
                    return None if "bracket closed: yes" in o else "text decompose not closed"
                n = alg.n
                if o["lie_dim"] != oracles.lie_dimension(n):
                    return "Lie dimension differs from the binomial sum"
                codim = 1 if n % 4 == 1 else 0
                if o["decomposition"] != {"ideal_dim": o["lie_dim"] - codim, "center_dim": codim}:
                    return "decomposition dimensions are wrong"
                bad = _check_killing_json(o["killing"], alg)
                if bad:
                    return bad
                nondeg = all(_num(r["B"], alg.p) for r in o["killing"]
                             if not (codim and r["blade"] == _top_blade(n)))
                if o["killing_nondegenerate_on_ideal"] is not nondeg or not o["bracket_closed"]:
                    return "decomposition flags disagree with the Killing entries"
                return None

            argv = _args("decompose", spec, p, fmt)
            ops.append(Op(f"decompose/{fmt}/{spec}", n, lambda a=argv: run_cli(a),
                          check_cli(argv, v_decompose, js)))

            # An isometry: a product of unit blades (their conjugates invert them).
            # One unit blade of grade 1 and one of grade 2, where the form has them.
            g = {0: 1}
            for grade in (1, 2):
                units = [m for m in range(1, 1 << n) if m.bit_count() == grade
                         and oracles.gram(alg.diag, m, Fraction(1)) in (1, -1)]
                if units:
                    g = alg.mul(g, {rng.choice(units): 1})
            gc = alg.norm(_sign_apply("conj", g))
            iso = alg.mul(g, gc) == {0: 1} and alg.mul(gc, g) == {0: 1}

            def v_isometry(o, iso=iso):
                if not isinstance(o, dict):
                    return None if o.startswith(f"isometry: {'yes' if iso else 'no'}\n") else \
                        "text isometry verdict is wrong"
                if o["isometry"] is not iso or not o["evidence"]["consistent"]:
                    return "isometry verdict differs from g * conj(g) by the word oracle"
                return None

            argv = _args("isometry", spec, p, fmt, alg.text(g))
            ops.append(Op(f"isometry/{fmt}/{spec}", n, lambda a=argv: run_cli(a),
                          check_cli(argv, v_isometry, js)))
        for n in ((1, 3, 4) if tiny else (1, 3, 4, 6, 8)):
            def v_classify(o, n=n):
                if not isinstance(o, dict):
                    return None if o.rstrip().endswith("pass: yes") else "text classify did not pass"
                c = o["checks"]
                if not o["pass"] or c["lie_dim"]["got"] != oracles.lie_dimension(n):
                    return "classification Lie dimension is wrong"
                if c["center_dim"]["got"] != (1 if n % 4 == 1 else 0):
                    return "classification center dimension is wrong"
                if c["algebra_dim"]["expected"] != 1 << n or not c["killing_definite"]:
                    return "classification algebra dimension or definiteness is wrong"
                return None

            argv = ["classify", "--n", str(n), "--format", fmt]
            ops.append(Op(f"classify/{fmt}/r{n}", n, lambda a=argv: run_cli(a),
                          check_cli(argv, v_classify, js)))
        for spec, p in _CHECK_FORMS[: 3 if tiny else None]:
            n = len(_cli_form_diag(spec))
            seed = rng.randrange(1000)

            def v_check(o):
                if isinstance(o, dict):
                    if o["failed"] != 0 or not all(r["passed"] for r in o["results"]):
                        return "a check failed"
                    return None
                return None if o.rstrip().endswith("all checks passed") else "checks failed"

            argv = _args("check", spec, p, fmt, opts=("--seed", str(seed)))
            ops.append(Op(f"check/{fmt}/{spec}", n, lambda a=argv: run_cli(a),
                          check_cli(argv, v_check, js)))
    for op in ops:
        op.stdout = True
    return Workload(ops, 4 if tiny else 6)


def _top_blade(n: int) -> str:
    idx = range(1, n + 1)
    return "e" + ("".join(map(str, idx)) if n <= 9 else "{" + ",".join(map(str, idx)) + "}")


def _check_killing_json(records: list, alg) -> Optional[str]:
    n = alg.n
    if len(records) != oracles.lie_dimension(n):
        return "Killing record count differs from the Lie dimension"
    one = Fraction(1)
    for r in records:
        mask = oracles.parse_blade(r["blade"])
        m = oracles.killing_count(n, mask.bit_count())
        s = oracles.blade_square(alg.diag, mask, one)
        if r["m"] != m:
            return f"blade {r['blade']}: count {r['m']}, grade formula {m}"
        if _num(r["B"], alg.p) != alg.scalar(4 * m * s):
            return f"blade {r['blade']}: Killing entry {r['B']}, 4 m s differs"
    return None


WORKLOADS = {
    "algebra_mix": algebra_mix,
    "inverse_solve": inverse_solve,
    "structure_scan": structure_scan,
    "check_cli": check_cli_workload,
}
