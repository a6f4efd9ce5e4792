"""Command line interface.

One subcommand per area of the library; every exported operation runs
under the one subcommand that ``OPERATION_COMMAND`` names for it, except
``reorder_sign``, which no command needs (its entry is None).
Output is plain text by default and JSON with ``--format json``; identical
invocations produce byte-identical output.  Exit codes: 0 for success,
1 for a domain error (reported as ``ErrorName: message`` on stderr), and
2 for a usage error (argparse's convention).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import classify, operators, structure
from .checks import _same_blades, run_checks
from .core import QuadraticForm, pairing
from .errors import CliffexError
from .field import FieldSpec

# Exported operation -> the one subcommand under which it runs.  The test
# suite audits this table against the package's public functions, and runs
# each subcommand to see that its operations are called.
OPERATION_COMMAND = {
    "parse_multivector": "product",
    "format_multivector": "product",
    "parse_blade": "product",
    "format_blade": "product",
    "reorder_sign": None,
    "inverse": "invert",
    "left_matrix": "info",
    "right_matrix": "info",
    "translation_determinants": "info",
    "pairing": "info",
    "center": "center",
    "lie_center": "center",
    "lie_blades": "lie",
    "lie_dimension": "lie",
    "lie_algebra_basis": "lie",
    "in_lie_algebra": "lie",
    "is_lie_blade": "lie",
    "killing_form": "killing",
    "killing_count": "killing",
    "killing_entry": "check",
    "ad_matrix": "check",
    "anticommute_parity": "check",
    "decompose": "decompose",
    "matrix_algebra_of": "classify",
    "isometry_group_of": "classify",
    "verify_classification": "classify",
    "expected_lie_center_dim": "classify",
    "isometry_evidence": "isometry",
    "run_checks": "check",
    "blade_product": "check",
    "is_zero_divisor": "check",
    "is_invertible": "check",
    "is_isometry": "check",
    "volume_commutation_report": "check",
    "definiteness_report": "check",
    "equivalence_isomorphism": "check",
    "pairing_uniqueness_report": "check",
    "pairing_adjoint": "check",
    "basis_change": "check",
    "coordinates_in_basis": "check",
    "hermitian_pairing": "check",
    "to_quaternion": "check",
    "from_quaternion": "check",
    "parse_quaternion": "check",
    "format_quaternion": "check",
}


def _add_common(sub):
    sub.add_argument("--form", required=True, help="form literal: diag:1,1,-1 or sig:r,s")
    sub.add_argument("--field", default="rational", help="field literal: rational or fp:P")
    sub.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")


def _yes(flag) -> str:
    return "yes" if flag else "no"


def _center_obj(desc) -> dict:
    return {"dim": desc.dimension, "basis": [str(b) for b in desc.basis]}


def _killing_records_obj(records, field) -> list:
    return [
        {
            "blade": r.blade,
            "m": r.anticommuting,
            "square": field.format(r.square),
            "B": field.format(r.value),
        }
        for r in records
    ]


def _matrix_obj(rows, field) -> dict:
    return {
        "dim": len(rows),
        "entries": [[field.format(v) for v in row] for row in rows],
        "field": field.to_text(),
    }


# -- handlers ------------------------------------------------------------
# Each takes the parsed arguments and the form of --form over --field (None
# for classify) and returns (text lines, JSON object), plus an exit code for
# check; main prints one of the two.


def _cmd_product(args, form):
    result = form.parse(args.x) * form.parse(args.y)
    obj = {"form": form.to_text(), "field": form.field.to_text(), "result": str(result)}
    return [str(result)], obj


def _cmd_involute(args, form):
    result = form.parse(args.x).involution(args.kind)
    return [str(result)], {"form": form.to_text(), "kind": args.kind, "result": str(result)}


def _cmd_invert(args, form):
    x = form.parse(args.x)
    inv = operators.inverse(x)
    return [str(inv)], {"form": form.to_text(), "input": str(x), "inverse": str(inv)}


def _cmd_info(args, form):
    f = form.field
    obj = {
        "n": form.n,
        "dim": form.dim,
        "field": f.to_text(),
        "diag": [f.format(q) for q in form.diag],
        "volume_square": f.format(form.volume_square()),
        "gram": [f.format(g) for g in form.gram_diagonal()],
    }
    lines = [
        f"n: {form.n}",
        f"dim: {form.dim}",
        f"field: {obj['field']}",
        "diag: " + ", ".join(obj["diag"]),
        f"volume square: {obj['volume_square']}",
        "gram diagonal: " + ", ".join(obj["gram"]),
    ]
    if args.x is not None:
        x = form.parse(args.x)
        if x.is_zero():
            obj["element"] = {"input": str(x), "zero": True}
            lines.append("element: 0 (the zero element)")
        else:
            dl, dr = operators.translation_determinants(x)
            elem = obj["element"] = {
                "input": str(x),
                "grades": sorted(x.grades()),
                "self_pairing": f.format(pairing(x, x)),
                "left_det": f.format(dl),
                "right_det": f.format(dr),
                "zero_divisor": not dl,
            }
            if args.fmt == "json":
                # The text report prints no matrices, so only json builds them.
                elem["left_matrix"] = _matrix_obj(operators.left_matrix(x), f)
                elem["right_matrix"] = _matrix_obj(operators.right_matrix(x), f)
            lines += [
                f"element: {elem['input']}",
                "grades: " + ", ".join(str(g) for g in elem["grades"]),
                f"self pairing: {elem['self_pairing']}",
                f"left det: {elem['left_det']}",
                f"right det: {elem['right_det']}",
                f"zero divisor: {_yes(elem['zero_divisor'])}",
            ]
    return lines, obj


def _cmd_center(args, form):
    closed = structure.center(form, method="closed_form")
    lie_closed = structure.lie_center(form, method="closed_form")
    agree = None
    if args.method in ("solve", "both"):
        solved = structure.center(form, method="solve")
        lie_solved = structure.lie_center(form, method="solve")
        agree = _same_blades(solved, closed) and _same_blades(lie_solved, lie_closed)
        if args.method == "solve":
            closed, lie_closed = solved, lie_solved
    obj = {
        "n": form.n,
        "center": _center_obj(closed),
        "lie_center": _center_obj(lie_closed),
        "methods_agree": agree,
    }
    lines = [
        f"{label}: dim {desc.dimension}, basis [" + ", ".join(str(b) for b in desc.basis) + "]"
        for label, desc in (("center", closed), ("lie center", lie_closed))
    ]
    if agree is not None:
        lines.append(f"methods agree: {_yes(agree)}")
    return lines, obj


def _cmd_lie(args, form):
    obj = {
        "n": form.n,
        "lie_dim": structure.lie_dimension(form.n),
        "blades": [str(b) for b in structure.lie_algebra_basis(form)],
    }
    lines = [f"lie dimension: {obj['lie_dim']}", "blades: " + " ".join(obj["blades"])]
    if args.x is not None:
        obj["member"] = structure.in_lie_algebra(form.parse(args.x))
        lines.append(f"member: {_yes(obj['member'])}")
    return lines, obj


def _cmd_killing(args, form):
    records = structure.killing_form(form, method=args.method)
    f = form.field
    obj = {
        "n": form.n,
        "diag": [f.format(q) for q in form.diag],
        "method": args.method,
        "killing": _killing_records_obj(records, f),
    }
    lines = [
        f"{r.blade}: m={r.anticommuting} square={f.format(r.square)} B={f.format(r.value)}"
        for r in records
    ]
    return lines, obj


def _cmd_decompose(args, form):
    f = form.field
    dec = structure.decompose(form)
    center_desc = structure.center(form, method="closed_form")
    lie_center_desc = structure.lie_center(form, method="closed_form")
    obj = None
    if args.fmt == "json":
        # The text report prints no Killing entries, so only json builds them.
        records = structure.killing_form(form, method="count")
        obj = {
            "n": form.n,
            "diag": [f.format(q) for q in form.diag],
            "lie_dim": dec.lie_dim,
            "center": _center_obj(center_desc),
            "lie_center": _center_obj(lie_center_desc),
            "killing": _killing_records_obj(records, f),
            "decomposition": {
                "ideal_dim": len(dec.ideal_masks),
                "center_dim": len(dec.center_basis),
            },
            "bracket_closed": dec.bracket_closed,
            "killing_nondegenerate_on_ideal": dec.killing_nondegenerate_on_ideal,
        }
    lines = [
        f"n: {form.n}",
        f"lie dimension: {dec.lie_dim}",
        f"center: dim {center_desc.dimension}",
        f"lie center: dim {lie_center_desc.dimension}",
        f"ideal dimension: {len(dec.ideal_masks)}",
        f"bracket closed: {_yes(dec.bracket_closed)}",
        f"killing nondegenerate on ideal: {_yes(dec.killing_nondegenerate_on_ideal)}",
    ]
    return lines, obj


def _cmd_classify(args, form):
    rep = classify.verify_classification(args.n)
    pairs = {"lie_dim": rep.lie_dim, "center_dim": rep.center_dim, "algebra_dim": rep.algebra_dim}
    obj = {
        "n": rep.n,
        "algebra": rep.algebra.describe(),
        "group": rep.group.describe(),
        "checks": {
            **{key: {"expected": c.expected, "got": c.got} for key, c in pairs.items()},
            "killing_definite": rep.killing_definite,
        },
        "pass": rep.passed,
    }
    lines = [
        f"n: {rep.n}",
        f"algebra: {rep.algebra.describe()}",
        f"group: {rep.group.describe()}",
        *(f"{key.replace('_', ' ')}: expected {c.expected}, got {c.got}"
          for key, c in pairs.items()),
        f"killing definite: {_yes(rep.killing_definite)}",
        f"pass: {_yes(rep.passed)}",
    ]
    return lines, obj


def _cmd_isometry(args, form):
    g = form.parse(args.x)
    ev = structure.isometry_evidence(g)
    obj = {
        "form": form.to_text(),
        "candidate": str(g),
        "isometry": ev.isometry,
        "evidence": {
            "left_unit": ev.left_unit,
            "right_unit": ev.right_unit,
            "left_gram_preserved": ev.left_gram_preserved,
            "right_gram_preserved": ev.right_gram_preserved,
            "consistent": ev.consistent,
        },
    }
    lines = [f"isometry: {_yes(ev.isometry)}"]
    # The text report names each piece of evidence as the json does, with
    # the Gram checks only when they ran.
    for key, value in obj["evidence"].items():
        if value is not None:
            lines.append(f"{key.replace('_', ' ')}: {_yes(value)}")
    return lines, obj


def _cmd_check(args, form):
    results = run_checks(form, seed=args.seed)
    failed = [r for r in results if not r.passed]
    obj = {
        "form": form.to_text(),
        "field": form.field.to_text(),
        "seed": args.seed,
        "results": [
            {
                "name": r.name,
                "passed": r.passed,
                "skipped": r.skipped,
                "detail": r.detail,
            }
            for r in results
        ],
        "failed": len(failed),
    }
    lines = []
    for r in results:
        tag = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
        suffix = f" ({r.detail})" if r.detail else ""
        lines.append(f"{tag} {r.name}{suffix}")
    lines.append(
        "all checks passed" if not failed else f"{len(failed)} checks failed"
    )
    return lines, obj, 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffex",
        description="Exact Clifford algebra computations over the rationals and odd prime fields.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("product", help="multiply two multivectors")
    _add_common(p)
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(handler=_cmd_product)

    p = subs.add_parser("involute", help="apply an involution")
    _add_common(p)
    p.add_argument("--kind", choices=("grade", "reverse", "conj"), required=True)
    p.add_argument("x")
    p.set_defaults(handler=_cmd_involute)

    p = subs.add_parser("invert", help="invert an element")
    _add_common(p)
    p.add_argument("x")
    p.set_defaults(handler=_cmd_invert)

    p = subs.add_parser("info", help="facts about a form, optionally an element")
    _add_common(p)
    p.add_argument("x", nargs="?", default=None)
    p.set_defaults(handler=_cmd_info)

    p = subs.add_parser("center", help="centers of the algebra and its Lie algebra")
    _add_common(p)
    p.add_argument("--method", choices=("closed_form", "solve", "both"), default="both")
    p.set_defaults(handler=_cmd_center)

    p = subs.add_parser("lie", help="the isometry Lie algebra, or membership")
    _add_common(p)
    p.add_argument("x", nargs="?", default=None)
    p.set_defaults(handler=_cmd_lie)

    p = subs.add_parser("killing", help="diagonal Killing form entries")
    _add_common(p)
    p.add_argument("--method", choices=("count", "trace"), default="count")
    p.set_defaults(handler=_cmd_killing)

    p = subs.add_parser("decompose", help="full structure report")
    _add_common(p)
    p.set_defaults(handler=_cmd_decompose)

    p = subs.add_parser("classify", help="period-8 table entry, verified")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
    p.set_defaults(handler=_cmd_classify)

    p = subs.add_parser("isometry", help="test an element for isometry")
    _add_common(p)
    p.add_argument("x")
    p.set_defaults(handler=_cmd_isometry)

    p = subs.add_parser("check", help="run the invariant suite on a form")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command: build its form, call its handler, print its output."""
    args = _parser().parse_args(argv)
    try:
        form = None
        if "form" in args:
            form = QuadraticForm.from_text(args.form, FieldSpec.from_text(args.field))
        lines, obj, *code = args.handler(args, form)
    except CliffexError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.fmt == "json":
        print(json.dumps(obj))
    else:
        for line in lines:
            print(line)
    return code[0] if code else 0


if __name__ == "__main__":
    sys.exit(main())
