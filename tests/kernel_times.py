"""Median times of the multivector kernel, as a check on the roadmap's
dense-product targets: at n = 8, at most 5 ms over F_101 and 20 ms over Q;
at n = 16, at most 10 s over F_101, set-up included, for a product and for
an inverse.

Run by hand with the package importable, like ``python tests/test_size.py``:

    python tests/kernel_times.py [--repeat R] [--json]

Each row is the median of R timed calls (default 5) on seeded dense
operands: products at n = 6, 7 and 8 on a signature form and on a
fractional diagonal over Q, and on the signature form over F_101; then
``pair``, ``involute`` and ``+`` at n = 8; then, over F_101 on the
signature form, products at n = 10 and 16, and ``inverse`` (its two-sided
check included), ``is_zero_divisor`` and ``translation_determinants`` of
a dense unit at n = 8, 10 and 16, each with the time to build the form's
split representation printed and added to the total; then, at n = 16 over
Q and F_101, ``+``, a scalar multiple, ``commutator`` and
``AlgebraMap.apply`` on 6-term operands, the map a rotation in the plane
of e1 and e2; last, over Q, the trace route of ``killing_form`` at n = 8
and 10, ``check_killing`` (its sampled trace entries) at n = 16 and
``ad_matrix`` of a 6-term Lie element at n = 8 on the fractional diagonal,
``center(method="solve")`` at n = 10 and 14 over Q and F_7, and the pair
of ``pairing_uniqueness_report`` calls that ``check_uniqueness`` makes
(without and with parity invariance) at n = 3 and 4 on sig:n,0 over Q and
F_7, the n = 4 row with ``caps.UNIQUENESS_SOLVE`` lifted for its own call.  Every
dense F_101 product row runs on the split matrix route
(``core.SplitAlgebra``), and every Q row on the tuple kernel: the Q
targets wait for the route's Q half.  Times include the boxing of
coefficients as ``Fp`` and ``Fraction``.

With ``--json`` each row prints as one JSON object per line, with the keys
``name``, ``n``, ``field``, ``form``, ``median_ms`` and ``setup_ms`` (0 for
a row without a set-up), so that two runs can be compared by a script.
pytest does not collect this file.
"""
import argparse
import json
import timeit
from fractions import Fraction
from random import Random
from statistics import median

from cliffex import caps, checks, core, operators, structure
from cliffex.core import QuadraticForm
from cliffex.field import FieldSpec
from cliffex.reference import random_multivector, random_nonzero_element

Q, F7, F101 = FieldSpec.rational(), FieldSpec.prime(7), FieldSpec.prime(101)
FRACTIONAL = ("1/2", "2", "-3", "1", "-1/3", "3", "-2", "1/2")


def signature(n: int) -> str:
    return f"sig:{(n + 1) // 2},{n // 2}"


def fractional(n: int) -> str:
    return "diag:" + ",".join(FRACTIONAL[:n])


def cases():
    """(name, form text, field, operation on two dense operands)."""
    mul = lambda x, y: x * y
    for n in (6, 7, 8):
        yield "product", signature(n), Q, mul
        yield "product", fractional(n), Q, mul
        yield "product", signature(n), F101, mul
    for field in (Q, F101):
        yield "pair", signature(8), field, lambda x, y: x.pair(y)
        yield "involute", signature(8), field, lambda x, y: x.involute()
        yield "sum", signature(8), field, lambda x, y: x + y


def routed_cases():
    """(name, n, operation on two dense operands) of the rows with a set-up."""
    for n in (10, 16):
        yield "product", n, lambda x, y: x * y
    for n in (8, 10, 16):
        for name in ("inverse", "is_zero_divisor", "translation_determinants"):
            yield name, n, lambda x, y, f=getattr(operators, name): f(x)


def rotation(form, masks) -> operators.AlgebraMap:
    """The map of e1 -> 3/5 e1 + 4/5 e2, e2 -> -4/5 e1 + 3/5 e2 on a form
    whose first two entries are 1, holding the images of ``masks`` only: at
    n = 16 all 2^16 images would not fit in memory."""
    n = form.n
    t = [[form.field.element(int(i == j)) for j in range(n)] for i in range(n)]
    t[0][0], t[0][1], t[1][0], t[1][1] = (form.field.element(Fraction(v, 5)) for v in (3, -4, 4, 3))
    gens = [form.vector([t[i][j] for i in range(n)]) for j in range(n)]
    images = {}
    for mask in masks:
        images[mask] = form.one()
        for j in range(n):
            if mask >> j & 1:
                images[mask] = images[mask] * gens[j]
    return operators.AlgebraMap(form, form, t, images)


def sparse_cases():
    """(name, form text, field, operation) on 6-term operands at n = 16."""
    for field in (Q, F101):
        form = QuadraticForm.from_text(signature(16), field)
        rng = Random(20170)
        x, y = random_multivector(rng, form, 6), random_multivector(rng, form, 6)
        s, amap = random_nonzero_element(rng, field), rotation(form, x.support())
        yield "sum 6-term", signature(16), field, lambda: x + y
        yield "scalar multiple 6-term", signature(16), field, lambda: x * s
        yield "commutator 6-term", signature(16), field, lambda: x.commutator(y)
        yield "AlgebraMap.apply 6-term", signature(16), field, lambda: amap.apply(x)


def structure_cases():
    """(name, form text, field, operation) of the structure rows: the
    Killing trace on sig:n,0 over Q, ``ad_matrix``, the centre solve and
    the uniqueness pair."""
    for n in (8, 10):
        form = QuadraticForm.from_text(f"sig:{n},0", Q)
        yield "killing_form trace", f"sig:{n},0", Q, lambda f=form: structure.killing_form(f, "trace")
    form = QuadraticForm.from_text("sig:16,0", Q)
    yield "check_killing", "sig:16,0", Q, lambda: checks.check_killing(form)
    form = QuadraticForm.from_text(fractional(8), Q)
    rng = Random(20170)
    xi = form.multivector({m: random_nonzero_element(rng, Q)
                           for m in rng.sample(structure.lie_blades(form), 6)})
    yield "ad_matrix", fractional(8), Q, lambda: structure.ad_matrix(xi)
    for n in (10, 14):
        for field in (Q, F7):
            form = QuadraticForm.from_text(signature(n), field)
            yield "center solve", signature(n), field, lambda f=form: structure.center(f, method="solve")
    for n in (3, 4):
        for field in (Q, F7):
            form = QuadraticForm.from_text(f"sig:{n},0", field)
            yield "uniqueness pair", f"sig:{n},0", field, lambda f=form: uniqueness_pair(f)


def uniqueness_pair(form):
    """Both reports of ``check_uniqueness``, with the cap lifted to the rank
    for this call only."""
    cap = caps.UNIQUENESS_SOLVE
    caps.UNIQUENESS_SOLVE = max(cap, form.n)
    try:
        return [operators.pairing_uniqueness_report(form, parity) for parity in (False, True)]
    finally:
        caps.UNIQUENESS_SOLVE = cap


def operands(form):
    rng = Random(20170)
    return random_multivector(rng, form), random_multivector(rng, form)


def rows(repeat: int):
    """Each row as a dict: name, n, field, form, median_ms, setup_ms."""
    def row(name, text, field, run, setup=0.0):
        return {"name": name, "n": QuadraticForm.from_text(text).n, "field": field.to_text(),
                "form": text, "median_ms": run * 1e3, "setup_ms": setup * 1e3}

    def timed(op, number=1):
        return median(timeit.repeat(op, number=number, repeat=repeat)) / number

    for name, text, field, op in cases():
        x, y = operands(QuadraticForm.from_text(text, field))
        yield row(name, text, field, timed(lambda: op(x, y), 1 if name == "product" else 20))
    for name, n, op in routed_cases():
        form = QuadraticForm.from_text(signature(n), F101)
        x, y = operands(form)
        setup = timeit.timeit(lambda: core.SplitAlgebra(form), number=1)
        form.split()  # builds the form's own split representation
        yield row(name, signature(n), F101, timed(lambda: op(x, y)), setup)
    for name, text, field, op in sparse_cases():
        yield row(name, text, field, timed(op, 3))
    for name, text, field, op in structure_cases():
        yield row(name, text, field, timed(op))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--json", action="store_true", help="one JSON object per row")
    args = parser.parse_args()
    for r in rows(args.repeat):
        if args.json:
            print(json.dumps(r), flush=True)
            continue
        label = f"{r['name']:<24} n={r['n']:<2} {r['field']:<8} {r['form']}"
        total = r["median_ms"] + r["setup_ms"]
        split = f"  (set-up {r['setup_ms']:.3f} ms + {r['median_ms']:.3f} ms)" if r["setup_ms"] else ""
        print(f"{label:<60} {total:10.3f} ms{split}", flush=True)


if __name__ == "__main__":
    main()
