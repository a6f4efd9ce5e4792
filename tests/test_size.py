"""The size of the package, as a check: aim 2 of the roadmap counts lines.

``size()`` returns the physical lines of ``src/cliffex/*.py`` and the code
lines among them: lines that hold a token outside docstrings and comments,
counted with ``tokenize``.  A docstring is a string that stands alone as a
statement.  The physical count must stay at or under the ceiling of the
roadmap's code-diet item.  Print both counts with
``python tests/test_size.py`` (with the package importable).
"""
import io
import tokenize
from pathlib import Path

import cliffex

SRC = Path(cliffex.__file__).parent
CEILING = 4438  # physical lines of src/cliffex/*.py

_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
_LAYOUT = _STATEMENT_START | {tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The lines of ``text`` that hold a token other than a comment or a
    docstring."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and (i == 0 or tokens[i - 1].type in _STATEMENT_START)
                and tokens[i + 1].type == tokenize.NEWLINE):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def size(src: Path = SRC) -> tuple:
    """``(physical, code)`` lines of the ``*.py`` files in ``src``."""
    texts = [path.read_text() for path in sorted(src.glob("*.py"))]
    return sum(len(text.splitlines()) for text in texts), sum(map(code_lines, texts))


def test_the_package_stays_under_the_line_ceiling():
    physical, _ = size()
    assert physical <= CEILING


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    text = ('"""Module."""\n\nimport os  # a comment\n\n\ndef f():\n    """Doc\n    string."""\n'
            '    # alone\n    s = """two\n    lines"""\n    return s\n')
    assert code_lines(text) == 5


if __name__ == "__main__":
    physical, code = size()
    print(f"src/cliffex/*.py: {physical} lines, {code} code lines")
