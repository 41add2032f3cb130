"""Pinned outcomes of the expression parser on seeded random inputs.

Each input concatenates 1 to 9 pieces drawn from PIECES: declared fields,
valid and invalid jets, declared and undeclared symbols, D(...) forms,
applied-symbol calls, numbers, operators, parentheses, commas, blanks,
newlines, stray characters and one deeply nested opening.  Most inputs are
invalid, so the corpus pins the parser's error messages and their
`line:col` positions as well as the `to_text` of what it accepts.
parse_golden.json lists each input with its outcome: the `to_text` of the
parsed expression, or the exception's class and message.

    PYTHONPATH=src python3 tests/test_parse_golden.py --record

Recording is for a change that alters the grammar or a message on purpose; a
refactor of the parser must leave the file alone.
"""
from __future__ import annotations

import json
import os
import random
import re
import sys

from liukit.expr import ParseContext, parse, to_text
from liukit.jet import JetVariable

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "parse_golden.json")
SEED = 2023
COUNT = 4000

RHO, EPS = JetVariable("rho", 0, 0), JetVariable("eps", 0, 0)
RHO_X, V_X, EPS_X, RHO_XX = (JetVariable(f, 0, n) for f, n in (("rho", 1), ("v", 1), ("eps", 1), ("rho", 2)))

PIECES = (
    # declared fields and jets, valid and invalid
    "rho", "v", "eps", "rho_x", "rho_xx", "rho_t", "rho_tx", "v_x", "eps_xx",
    "rho_xt", "rho_y", "u_x",
    # declared and undeclared symbols
    "s0", "q1", "T", "zeta", "Q",
    # D(...) forms, with and without variables
    "D(s0, rho)", "D(s0, rho, eps)", "D(T, rho_x, rho_xx)", "D(s0)", "D(s0, v)",
    "D(s0, u)", "D(zeta, rho)", "D(1, rho)", "D", "D(",
    # applied-symbol calls
    "s0(rho, eps)", "s0(eps, rho)", "T(rho, eps, rho_x, v_x, eps_x, rho_xx)",
    "s0(rho)", "s0(rho, eps, eps)", "s0(1)", "Q(rho)", "q1()", "s0(",
    # numbers
    "0", "1", "2", "1.5", "(rho - rho)", "/0", "(v - v)^-1",
    # operators, parentheses and commas
    "+", "-", "*", "/", "^", " + ", " - ", " * ", " / ", "^-1", "^(2)", "(", "(", ")", ")", ",",
    # blanks and newlines
    " ", "  ", "\n", " \n  ",
    # stray characters
    "@", ".", "_", "#",
    # deeper than any recursion limit the parser runs under
    "(" * 400,
)


def context() -> ParseContext:
    return ParseContext(
        fields=("rho", "v", "eps"),
        syms={"s0": (RHO, EPS), "q1": (), "T": (RHO, EPS, RHO_X, V_X, EPS_X, RHO_XX)},
    )


def inputs(seed: int = SEED, count: int = COUNT) -> list[str]:
    """The corpus; drawn with `random()` alone, whose sequence per seed Python keeps stable."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = 1 + int(rng.random() * 9)
        out.append("".join(PIECES[int(rng.random() * len(PIECES))] for _ in range(n)))
    return out


def outcome(text: str, ctx: ParseContext) -> str:
    try:
        return "text: " + to_text(parse(text, ctx))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def load() -> list[list[str]]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_parse_outcomes_are_pinned():
    ctx = context()
    for text, want in load():
        got = outcome(text, ctx)
        assert got == want, f"input {text!r}: recorded {want!r}, now {got!r}"


# Every message the parser raises, with its position where it has one.
TEMPLATES = (
    r"\d+:\d+: unexpected character '.'",
    r"\d+:\d+: invalid jet suffix in '\w+'",
    r"\d+:\d+: expected '[(),]', found '.+'",
    r"\d+:\d+: expected '[(),]', found 'end of input'",
    r"\d+:\d+: unexpected '.+'",
    r"\d+:\d+: unexpected 'end of input'",
    r"\d+:\d+: exponent must be an integer",
    r"\d+:\d+: expected a variable name",
    r"\d+:\d+: undeclared field '\w+'",
    r"\d+:\d+: undeclared function symbol '\w+'",
    r"\d+:\d+: undeclared identifier '\w+'",
    r"\d+:\d+: arguments of '\w+' do not match its declared dependencies",
    r"\d+:\d+: D\(\.\.\.\) needs a declared function symbol, found '.*'",
    r"\d+:\d+: '\w+' does not depend on \w+",
    r"\d+:\d+: D\(\.\.\.\) needs at least one differentiation variable",
    r"division by a zero expression",
    r"zero raised to a negative power",
    r"expression nests too deeply",
    r"[2-9]:\d+: .*",
)


def test_corpus_covers_every_message():
    outcomes = [want for _, want in load()]
    assert any(o.startswith("text: ") for o in outcomes)
    for template in TEMPLATES:
        pattern = re.compile("ParseError: " + template)
        assert any(pattern.fullmatch(o) for o in outcomes), template


def record() -> None:
    ctx = context()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump([[text, outcome(text, ctx)] for text in inputs()], fh, indent=0, ensure_ascii=False)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        print("usage: python3 tests/test_parse_golden.py --record", file=sys.stderr)
        sys.exit(2)
    record()
