"""CLI output pinned by digest: stdout, stderr and exit code of each invocation.

``cli_digests.json`` holds one sha256 per invocation of the structure
commands (``center``, ``lie``, ``killing``, ``decompose``, ``info`` without
an element and on 0, and ``check``), in text and json, over Q, F_3 and F_7 at
ranks 1-6 plus forms with rational diagonals, ``check`` also at ranks 7 and
8 (ranks 5-8 reach every sampling tier of ``checks.py``) and with
``--seed 5`` at ranks 5 and 7, and ``center --method solve`` at ranks 7-10
over the same three fields, and of the element commands ``invert`` and
``info`` over Q and F_7 at ranks 1-6 and over F_101 at ranks 7 and 8, on
sparse units, a sparse zero divisor and a dense element (at rank 1 the
blades past e1 are refused), and of
``product``, ``involute`` (each kind), ``isometry`` (a rotor and a non-unit)
and ``lie`` with a member and a non-member over Q and F_7 at ranks 1-6, and
of the exact routes at the top rank 16 (``center --method solve``,
``classify``) and two refusals above a cap.  A change that is meant to keep
the CLI byte-identical must leave every digest as it is.  After a
deliberate change of output, regenerate the file with
``python tests/test_cli_digests.py`` (with the package importable): it
prints each invocation whose digest changed, was added or was removed
before it writes, so the extent of the change shows.
"""
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

DIGESTS = Path(__file__).with_name("cli_digests.json")

CHECK_RANK = 8
RATIONAL_DIAGONALS = ("diag:1/2,3,-2/5", "diag:-3/4,5,2/7,-1,1/3")


def _forms():
    for field in ("rational", "fp:3", "fp:7"):
        for n in range(1, 7):
            # A signature with about a third of the entries negative.
            yield field, f"sig:{n - n // 3},{n // 3}", n
    for text in RATIONAL_DIAGONALS:
        yield "rational", text, text.count(",") + 1


def _blade(mask: int) -> str:
    return "e" + "".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def _elements(n: int) -> list:
    """Three sparse units, the zero divisor 1 + e_n where e_n squares to 1
    (n >= 3), and a dense element with 8 of every 9 coefficients nonzero."""
    top = _blade((1 << n) - 1)
    dense = " ".join(
        f"{'-' if c < 0 else '+'} {abs(c)}*{_blade(m)}" if m else str(c)
        for m in range(1 << n)
        for c in [(5 * m + 2) % 9 - 4]
        if c
    )
    return ["1 + e12", f"2 + e12 + e{n}", f"2 + e1 + {top}", f"1 + e{n}", dense]


def _element_pairs(n: int) -> list:
    """A sparse element and the dense one of :func:`_elements`, and a
    second factor; all valid at every rank n >= 1."""
    top = _blade((1 << n) - 1)
    return [f"1 + 2*e1 - {top}", _elements(n)[-1]], f"3*e{n} - 1/2 + {top}"


def _lie_elements(n: int) -> list:
    """A Lie member on the Lie blades among e1, e12, e_n and the top
    blade, and that member plus a blade of grade 0 or 3 (a non-member)."""
    picks = {1, 3 if n > 1 else 1, 1 << (n - 1)}
    if n % 4 in (1, 2):
        picks.add((1 << n) - 1)
    member = " - ".join(_blade(m) for m in sorted(picks))
    return [member, member + (" + 3*e123" if n > 2 else " + 1")]


def invocations() -> list:
    out = []
    for field, form, n in _forms():
        base = ["--form", form, "--field", field]
        commands = [
            ["center", *base],
            ["lie", *base],
            ["killing", *base],
            ["killing", *base, "--method", "trace"],
            ["decompose", *base],
            ["info", *base],
            ["info", *base, "0"],
            ["check", *base],
        ]
        out += commands
    out += [["classify", "--n", str(n)] for n in range(1, 7)]
    # The sampling tiers of the checks, and a second seed.
    for field in ("rational", "fp:3", "fp:7"):
        for n in range(7, CHECK_RANK + 1):
            out.append(["check", "--form", f"sig:{n - n // 3},{n // 3}", "--field", field])
        for n in (5, 7):
            out.append(["check", "--form", f"sig:{n - n // 3},{n // 3}", "--field", field,
                        "--seed", "5"])
    for field in ("rational", "fp:7"):
        for n in range(1, 7):
            base = ["--form", f"sig:{n - n // 3},{n // 3}", "--field", field]
            out += [[cmd, *base, x] for x in _elements(n) for cmd in ("invert", "info")]
    # The element commands over a large prime field at ranks 7 and 8.
    for n in (7, 8):
        base = ["--form", f"sig:{n - n // 3},{n // 3}", "--field", "fp:101"]
        out += [[cmd, *base, x] for x in _elements(n) for cmd in ("invert", "info")]
    for field in ("rational", "fp:7"):
        for n in range(1, 7):
            base = ["--form", f"sig:{n - n // 3},{n // 3}", "--field", field]
            xs, y = _element_pairs(n)
            out += [["product", *base, x, y] for x in xs]
            out += [["involute", *base, "--kind", kind, x]
                    for kind in ("grade", "reverse", "conj") for x in xs]
            rotor = "3/5 + 4/5*e12" if n > 1 else "-1"
            out += [["isometry", *base, g] for g in (rotor, "2 + e1")]
            out += [["lie", *base, x] for x in _lie_elements(n)]
    # The exact centre solves past the ranks of the structure commands above.
    for field in ("rational", "fp:3", "fp:7"):
        for n in range(7, 11):
            out.append(["center", "--form", f"sig:{n - n // 3},{n // 3}", "--field", field,
                        "--method", "solve"])
    # The exact routes at the top rank, and refusals above a cap, which are
    # part of the surface too.
    out += [
        ["center", "--form", "sig:16,0", "--method", "solve"],
        ["classify", "--n", "16"],
        ["killing", "--form", "sig:11,0", "--method", "trace"],
        ["classify", "--n", "17"],
    ]
    return [argv + fmt for argv in out for fmt in ([], ["--format", "json"])]


def digest(argv: list) -> str:
    """sha256 of the exit code, stdout and stderr of ``cliffex.cli.main(argv)``."""
    from cliffex.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def test_cli_output_matches_the_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    keys = [" ".join(argv) for argv in invocations()]
    assert sorted(recorded) == sorted(keys)
    changed = [key for key, argv in zip(keys, invocations()) if digest(argv) != recorded[key]]
    assert not changed, f"{len(changed)} invocations changed output, first: {changed[:5]}"


if __name__ == "__main__":
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table = {" ".join(argv): digest(argv) for argv in invocations()}
    for kind, keys in (
        ("changed", [k for k in table if k in recorded and table[k] != recorded[k]]),
        ("added", [k for k in table if k not in recorded]),
        ("removed", [k for k in recorded if k not in table]),
    ):
        for key in sorted(keys):
            print(f"{kind}: {key}")
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
