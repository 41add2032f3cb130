"""Seeded mutations of the shipped model and solution files, run through the CLI.

Each mutant deletes, duplicates or swaps a line, or corrupts a section
header, an entry key or one token of a line.  Whatever the damage, the
command ends in exit 0, 1, 2 or 4 without a traceback (a damaged file is an
input fault, never a failed engine invariant, exit 3), and every error exit
prints exactly one stderr line starting with `error:`.  The mutants come
from a fixed seed, so a failure names a mutant that reproduces.
"""
from __future__ import annotations

import random
import re

import pytest

from liukit.cli import main
from liukit.models import _read

SEED = 20
MUTANTS_PER_FILE = 30
KINDS = ("delete", "duplicate", "swap", "header", "key", "token")
TOKEN_RE = re.compile(r"[A-Za-z0-9_.]+|\S")
JUNK = ("", "(", ")", "*", "^", "=", ":", ",", "..", "0", "-1", "1e999", "nan", "rho", "x", "D", "T", "s0", "[", "]", "#")


def _corrupt(word: str, rng: random.Random) -> str:
    """`word` with one character dropped, doubled or replaced."""
    i = rng.randrange(len(word))
    op = rng.randrange(3)
    if op == 0:
        return word[:i] + word[i + 1:]
    if op == 1:
        return word[:i] + word[i] + word[i:]
    return word[:i] + rng.choice("az_0([") + word[i + 1:]


def _mutant(text: str, rng: random.Random) -> tuple[str, str]:
    """One mutation of `text`, described, and the mutated text."""
    lines = text.splitlines()
    content = [i for i, line in enumerate(lines) if line.strip() and not line.lstrip().startswith("#")]
    headers = [i for i in content if lines[i].startswith("[")]
    entries = [i for i in content if not lines[i].startswith("[")]
    kind = rng.choice(KINDS)
    i = rng.choice(headers if kind == "header" else entries if kind == "key" else content)
    before = lines[i]
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = rng.choice(content)
        lines[i], lines[j] = lines[j], lines[i]
        before = f"{before!r} <-> line {j + 1}"
    elif kind in ("header", "key"):
        m = re.match(r"(\[?)([^]=:]+)(.*)", lines[i])
        lines[i] = m.group(1) + _corrupt(m.group(2), rng) + m.group(3)
    else:
        t = rng.choice(list(TOKEN_RE.finditer(lines[i])))
        lines[i] = lines[i][: t.start()] + rng.choice(JUNK) + lines[i][t.end():]
    after = lines[i] if kind in ("header", "key", "token") else ""
    return f"{kind} line {i + 1}: {before!r} -> {after!r}", "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "name, target",
    [("grade2", "model"), ("grade2", "solution"), ("korteweg", "model"), ("korteweg", "solution")],
    ids=lambda v: v,
)
def test_mutated_shipped_files_end_in_a_documented_exit(tmp_path, capsys, name, target):
    rng = random.Random(f"{SEED}:{name}.{target}")
    texts = {"model": _read(name + ".model"), "solution": _read(name + ".solution")}
    paths = {key: tmp_path / f"{name}.{key}" for key in texts}
    problems, codes = [], set()
    for _ in range(MUTANTS_PER_FILE):
        what, text = _mutant(texts[target], rng)
        for key, path in paths.items():
            path.write_text(text if key == target else texts[key])
        if target == "model":
            argv = ["derive", str(paths["model"])]
        else:
            argv = ["check", str(paths["model"]), str(paths["solution"]), "--samples", "8"]
        try:
            code = main(argv)
        except Exception as exc:  # an exception out of main is the failure reported
            problems.append(f"{what}: raised {exc!r}")
            continue
        err = capsys.readouterr().err
        codes.add(code)
        if code not in (0, 1, 2, 4):
            problems.append(f"{what}: exit {code}")
        elif code != 0 and code != 4 and (err.count("\n") != 1 or not err.startswith("error:")):
            problems.append(f"{what}: exit {code} with stderr {err!r}")
        elif "Traceback" in err:
            problems.append(f"{what}: traceback {err!r}")
    assert problems == []
    # The mutants reach past the parser: some still parse and run.
    assert 1 in codes and len(codes) > 1
