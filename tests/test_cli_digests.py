"""CLI output pinned by digest: stdout, stderr and exit code of each invocation.

``cli_digests.json`` holds one sha256 per invocation of the structure
commands (``center``, ``lie``, ``killing``, ``decompose``, ``classify``, and
``check`` up to rank 4), in text and json, over Q, F_3 and F_7 at ranks 1-6
plus forms with rational diagonals, and of the element commands ``invert``
and ``info`` over Q and F_7 at ranks 2-6, on sparse units, a sparse zero
divisor and a dense element.  A change that is meant to keep the CLI
byte-identical must leave every digest as it is.  After a deliberate change
of output, regenerate the file with ``python tests/test_cli_digests.py``
(with the package importable) and review the diff.
"""
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

DIGESTS = Path(__file__).with_name("cli_digests.json")

CHECK_RANK = 4
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
        ]
        if n <= CHECK_RANK:
            commands.append(["check", *base])
        out += commands
    out += [["classify", "--n", str(n)] for n in range(1, 7)]
    for field in ("rational", "fp:7"):
        for n in range(2, 7):
            base = ["--form", f"sig:{n - n // 3},{n // 3}", "--field", field]
            out += [[cmd, *base, x] for x in _elements(n) for cmd in ("invert", "info")]
    # Refusals above a cap are part of the surface too.
    out += [
        ["center", "--form", "sig:11,0", "--method", "solve"],
        ["killing", "--form", "sig:9,0", "--method", "trace"],
        ["classify", "--n", "11"],
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
    table = {" ".join(argv): digest(argv) for argv in invocations()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
