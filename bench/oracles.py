"""Independent routes that the benchmark checks the program's outputs against.

Nothing here calls the fast path it is used to check.  Blade squares, the
Gram diagonal, the Killing counts and the Lie dimension come from closed
formulas written out below; products use the word-sorting oracle
``cliffex.reference.blade_word_product``; determinants use a plain
Gaussian elimination over ``Fraction`` or residues; CLI output is read by
a parser of the output grammar written here, not by ``parse_multivector``.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from cliffex.reference import blade_word_product, mask_to_word


def _is_lie_grade(k: int) -> bool:
    return k % 4 in (1, 2)


def lie_dimension(n: int) -> int:
    """Sum of C(n, k) over k = 1, 2 (mod 4)."""
    return sum(comb(n, k) for k in range(n + 1) if _is_lie_grade(k))


def killing_count(n: int, k: int) -> int:
    """Lie blades anticommuting with one blade of grade k, by the grade formula.

    A blade of grade k and one of grade j that share i indices anticommute
    when k*j - i is odd, and there are C(k, i) * C(n - k, j - i) blades of
    grade j sharing exactly i indices with a given blade of grade k.
    """
    total = 0
    for j in range(n + 1):
        if not _is_lie_grade(j):
            continue
        for i in range(min(k, j) + 1):
            if (k * j - i) % 2:
                total += comb(k, i) * comb(n - k, j - i)
    return total


def involution_sign(kind: str, k: int) -> int:
    """Sign of an involution on grade k: grade (-1)^k, reverse, conj."""
    if kind == "grade":
        e = k
    elif kind == "reverse":
        e = k * (k - 1) // 2
    elif kind == "conj":
        e = k * (k + 1) // 2
    else:
        raise ValueError(kind)
    return -1 if e % 2 else 1


def blade_square(diag, mask: int, one):
    """e_I * e_I = (-1)^(k(k-1)/2) * prod(-q_i) over i in I."""
    val = one
    k = 0
    for i, q in enumerate(diag):
        if mask >> i & 1:
            val = val * (-q)
            k += 1
    return -val if (k * (k - 1) // 2) % 2 else val


def gram(diag, mask: int, one):
    """The pairing of e_I with itself: prod(q_i) over i in I."""
    val = one
    for i, q in enumerate(diag):
        if mask >> i & 1:
            val = val * q
    return val


def pairing(x, y):
    """Canonical pairing from the Gram closed form, on coefficient tuples."""
    diag = x.form.diag
    total = x.form.field.zero
    for m, (a, b) in enumerate(zip(x.coeffs, y.coeffs)):
        if a and b:
            total = total + a * b * gram(diag, m, x.form.field.one)
    return total


def product_coeff(x, y, k: int):
    """Coefficient of e_k in x * y, blade by blade through the word oracle."""
    form = x.form
    total = form.field.zero
    for i, a in enumerate(x.coeffs):
        b = y.coeffs[i ^ k]
        if a and b:
            coef, mask = blade_word_product(mask_to_word(i), mask_to_word(i ^ k), form)
            if mask != k:
                raise AssertionError("word oracle landed on the wrong blade")
            total = total + a * b * coef
    return total


def product(x, y) -> list:
    """Every coefficient of x * y through the word oracle (small ranks only)."""
    return [product_coeff(x, y, k) for k in range(x.form.dim)]


def determinant(rows, p=None):
    """Determinant by Gaussian elimination with row swaps.

    Over the rationals (``p`` None) entries become ``Fraction``; over F_p
    they become ints in [0, p) and pivots are inverted with ``pow``.
    """
    if p is None:
        a = [[Fraction(v) for v in row] for row in rows]
    else:
        a = [[residue(v) % p for v in row] for row in rows]
    n = len(a)
    det = Fraction(1) if p is None else 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0) if p is None else 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        pv = a[c][c]
        det = det * pv
        inv = 1 / pv if p is None else pow(pv, -1, p)
        for r in range(c + 1, n):
            f = a[r][c]
            if f:
                f = f * inv
                row, top = a[r], a[c]
                for j in range(c, n):
                    row[j] = row[j] - f * top[j]
                    if p is not None:
                        row[j] %= p
    return det if p is None else det % p


def residue(v) -> int:
    """An Fp as its residue, an integer-valued entry as an int."""
    return v.residue if hasattr(v, "residue") else int(v)


def left_matrix(x) -> list:
    """Matrix of y -> x * y, column j holding x * e_j, through the word oracle."""
    form = x.form
    dim = form.dim
    rows = [[form.field.zero] * dim for _ in range(dim)]
    for i, a in enumerate(x.coeffs):
        if not a:
            continue
        for j in range(dim):
            coef, k = blade_word_product(mask_to_word(i), mask_to_word(j), form)
            rows[k][j] = rows[k][j] + a * coef
    return rows


# -- reading CLI output -----------------------------------------------------

_BLADE = re.compile(r"^e(?:\{([0-9,]+)\}|([0-9]+))$")


def parse_blade(text: str) -> int:
    m = _BLADE.match(text)
    if not m:
        raise ValueError(f"not a blade: {text!r}")
    idx = m.group(1).split(",") if m.group(1) else list(m.group(2))
    mask = 0
    for i in idx:
        mask |= 1 << (int(i) - 1)
    return mask


def parse_scalar(text: str, p=None):
    text = text.strip()
    if p is None:
        return Fraction(text)
    if text.endswith(f" mod {p}"):
        text = text[: -len(f" mod {p}")]
    return int(text) % p


def parse_mv(text: str, p=None) -> dict:
    """Read the printed form ``c*eI + eJ - c`` into {mask: value}.

    Rational values come back as ``Fraction``; residues as ints in [0, p).
    """
    text = text.strip()
    out: dict = {}
    if text == "0":
        return out
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = re.split(r" ([+-]) ", text)
    terms = [(sign, pieces[0])]
    for op, body in zip(pieces[1::2], pieces[2::2]):
        terms.append((1 if op == "+" else -1, body))
    for s, body in terms:
        if "*" in body:
            c, b = body.split("*", 1)
            coef, mask = parse_scalar(c, p), parse_blade(b)
        elif body.startswith("e"):
            coef, mask = (Fraction(1) if p is None else 1), parse_blade(body)
        else:
            coef, mask = parse_scalar(body, p), 0
        out[mask] = out.get(mask, 0) + coef * s
    if p is not None:
        out = {m: c % p for m, c in out.items()}
    return {m: c for m, c in out.items() if c}


def format_mv(coeffs: dict, n: int, p=None) -> str:
    """Write {mask: value} in the input grammar, for building CLI arguments."""
    parts = []
    for mask in sorted(coeffs):
        c = coeffs[mask]
        idx = [i + 1 for i in range(n) if mask >> i & 1]
        blade = "e" + ("".join(map(str, idx)) if n <= 9 else "{" + ",".join(map(str, idx)) + "}")
        if p is not None:
            c = int(c) % p
        neg = p is None and c < 0
        mag = -c if neg else c
        body = str(mag) if mask == 0 else f"{mag}*{blade}"
        parts.append(("-" if neg else "+", body))
    if not parts:
        return "0"
    first = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return first + "".join(f" {s} {b}" for s, b in parts[1:])
