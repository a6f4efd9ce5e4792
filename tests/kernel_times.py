"""Median times of the multivector kernel, as a check on the roadmap's
dense-product targets: at n = 8, at most 5 ms over F_101 and 20 ms over Q;
at n = 16, at most 10 s over F_101, set-up included, for a product and for
an inverse.

Run by hand with the package importable, like ``python tests/test_size.py``:

    python tests/kernel_times.py [--repeat R]

Each row is the median of R timed calls (default 5) on seeded dense
operands: products at n = 6, 7 and 8 on a signature form and on a
fractional diagonal over Q, and on the signature form over F_101; then
``pair``, ``involute`` and ``+`` at n = 8; then, over F_101 on the
signature form, products at n = 10 and 16, and ``inverse`` (its two-sided
check included), ``is_zero_divisor`` and ``translation_determinants`` of
a dense unit at n = 8, 10 and 16, each with the time to build the form's
split representation printed and added to the total; last, over Q, the
trace route of ``killing_form`` at n = 8 and 10, ``check_killing``
(its sampled trace entries) at n = 16 and ``ad_matrix`` of a 6-term Lie
element at n = 8 on the fractional diagonal, and ``center(method="solve")``
at n = 10 and 14 over Q and F_7.  Every F_101 row
runs on the split matrix route (``core.SplitAlgebra``), and every Q row on
the tuple kernel: the Q targets wait for the route's Q half.
Times include the boxing of coefficients as ``Fp`` and ``Fraction``.
pytest does not collect this file.
"""
import argparse
import timeit
from random import Random
from statistics import median

from cliffex import checks, core, operators, structure
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
    """(label, form, operation on two dense operands)."""
    mul = lambda x, y: x * y
    for n in (6, 7, 8):
        yield f"product  n={n} Q    {signature(n)}", QuadraticForm.from_text(signature(n), Q), mul
        yield f"product  n={n} Q    {fractional(n)}", QuadraticForm.from_text(fractional(n), Q), mul
        yield f"product  n={n} F101 {signature(n)}", QuadraticForm.from_text(signature(n), F101), mul
    for field, tag in ((Q, "Q   "), (F101, "F101")):
        form = QuadraticForm.from_text(signature(8), field)
        yield f"pair     n=8 {tag} {signature(8)}", form, lambda x, y: x.pair(y)
        yield f"involute n=8 {tag} {signature(8)}", form, lambda x, y: x.involute()
        yield f"sum      n=8 {tag} {signature(8)}", form, lambda x, y: x + y


def routed_cases():
    """(name, n, operation on two dense operands) of the rows with a set-up."""
    for n in (10, 16):
        yield "product", n, lambda x, y: x * y
    for n in (8, 10, 16):
        for name in ("inverse", "is_zero_divisor", "translation_determinants"):
            yield name, n, lambda x, y, f=getattr(operators, name): f(x)


def structure_cases():
    """(label, operation) of the structure rows: the Killing trace on sig:n,0
    over Q, ``ad_matrix`` and the centre solve."""
    for n in (8, 10):
        form = QuadraticForm.from_text(f"sig:{n},0", Q)
        yield (f"killing_form trace n={n} Q sig:{n},0",
               lambda f=form: structure.killing_form(f, "trace"))
    form = QuadraticForm.from_text("sig:16,0", Q)
    yield "check_killing n=16 Q sig:16,0", lambda: checks.check_killing(form)
    form = QuadraticForm.from_text(fractional(8), Q)
    rng = Random(20170)
    xi = form.multivector({m: random_nonzero_element(rng, Q)
                           for m in rng.sample(structure.lie_blades(form), 6)})
    yield f"ad_matrix n=8 Q {fractional(8)}", lambda: structure.ad_matrix(xi)
    for n in (10, 14):
        for field, tag in ((Q, "Q "), (F7, "F7")):
            form = QuadraticForm.from_text(signature(n), field)
            yield (f"center solve n={n} {tag} {signature(n)}",
                   lambda f=form: structure.center(f, method="solve"))


def operands(form):
    rng = Random(20170)
    return random_multivector(rng, form), random_multivector(rng, form)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    for label, form, op in cases():
        x, y = operands(form)
        number = 1 if label.startswith("product") else 20
        runs = timeit.repeat(lambda: op(x, y), number=number, repeat=args.repeat)
        print(f"{label:<48} {median(runs) / number * 1e3:10.3f} ms")
    for name, n, op in routed_cases():
        form = QuadraticForm.from_text(signature(n), F101)
        x, y = operands(form)
        setup = timeit.timeit(lambda: core.SplitAlgebra(form), number=1)
        form.split()  # builds the form's own split representation
        run = median(timeit.repeat(lambda: op(x, y), number=1, repeat=args.repeat))
        label = f"{name:<8} n={n} F101 {signature(n)}"
        print(f"{label:<48} {(setup + run) * 1e3:10.3f} ms"
              f"  (set-up {setup * 1e3:.3f} ms + {name} {run * 1e3:.3f} ms)")
    for label, op in structure_cases():
        run = median(timeit.repeat(op, number=1, repeat=args.repeat))
        print(f"{label:<48} {run * 1e3:10.3f} ms")


if __name__ == "__main__":
    main()
