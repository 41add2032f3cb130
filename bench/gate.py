"""Correctness gate of the benchmark, run outside the timed region.

* Every derive input: the SHA-256 of its JSON, text and LaTeX report bytes
  equals the reference in references.json, recorded when the benchmark was
  added.
* Stress fixtures: the pruned and the --all-extensions constraint sets emit
  the same restrictions (`liu.same_restrictions`), an oracle independent of
  the references.
* Check inputs: the verdicts hold at the solution files' own seeds: the
  check is ok, every equality is identical or conditional, the scenarios
  declared `expect = violate` find violations and the others none.  The
  timed runs check the same verdicts at the workload seed.

    python3 bench/gate.py --record   # rewrite references.json from src/

Recording is for a change that alters report bytes on purpose; a change
that claims a speed-up must leave the references alone.
"""
from __future__ import annotations

import hashlib
import json
import sys

from inputs import CHECK_SAMPLES, DERIVE_INPUTS, REFERENCES, SRC, VIOLATING_SCENARIOS, Input, other_mode

FORMATS = ("json", "text", "latex")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_hashes(report) -> dict[str, str]:
    from liukit._util import stable_json
    from liukit.liu import report_json_dict, report_latex, report_text

    return {
        "json": _sha(stable_json(report_json_dict(report))),
        "text": _sha(report_text(report)),
        "latex": _sha(report_latex(report)),
    }


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def verdict_misses(inp: Input, data: dict) -> list[str]:
    """Ways a check report (as `check_json_dict` gives it) has a wrong verdict."""
    misses = []
    if data.get("ok") is not True:
        misses.append(f"check {inp.name}: not ok: {data.get('failures')}")
    for eq in data.get("equalities", ()):
        if eq["status"] not in ("identical", "conditional"):
            misses.append(f"check {inp.name}: equality [{eq['label']}] is {eq['status']}")
    violating = VIOLATING_SCENARIOS[inp.model]
    names = {s["name"] for s in data.get("scenarios", ())}
    for name in violating:
        if name not in names:
            misses.append(f"check {inp.name}: scenario {name} missing")
    for s in data.get("scenarios", ()):
        want = s["name"] in violating
        if (s["violations"] > 0) != want or not s["asExpected"]:
            misses.append(f"check {inp.name}: scenario {s['name']} has {s['violations']} violations")
    return misses


def _derive(inp: Input, model=None):
    from liukit.liu import derive

    if model is None:
        model, _ = inp.load()
    return derive(model, mode=inp.mode)


def gate(inputs: tuple[Input, ...]) -> tuple[int, list[str]]:
    """Run every check that applies to `inputs`; return (attempted, misses).

    Each miss is one failed check, described in one line.
    """
    refs = load_references()
    attempted = 0
    misses: list[str] = []
    for inp in inputs:
        try:
            checks, found = _gate_one(inp, refs)
        except Exception as exc:  # the program under test crashed: a miss, not a benchmark error
            checks, found = 1, [f"{inp.metric}: raised {type(exc).__name__}: {exc}"]
        attempted += checks
        misses += found
    return attempted, misses


def _gate_one(inp: Input, refs: dict) -> tuple[int, list[str]]:
    from liukit._util import stable_json
    from liukit.checker import check, check_json_dict
    from liukit.liu import same_restrictions

    misses: list[str] = []
    model, solution = inp.load()
    report = _derive(inp, model)
    if inp.command == "derive":
        got = report_hashes(report)
        misses += [
            f"{inp.metric}: {fmt} bytes differ from the reference"
            for fmt in FORMATS
            if got[fmt] != refs[inp.name][fmt]
        ]
        if inp.builtin:
            return len(FORMATS), misses
        if not same_restrictions(report.restrictions, _derive(other_mode(inp)).restrictions):
            misses.append(f"{inp.metric}: pruned and all constraint sets disagree")
        return len(FORMATS) + 1, misses
    result = check(model, report, solution, samples=CHECK_SAMPLES)
    wrong = verdict_misses(inp, json.loads(stable_json(check_json_dict(result))))
    if wrong:
        misses.append("at the solution's own seeds: " + "; ".join(wrong))
    return 1, misses


def record() -> None:
    refs = {inp.name: report_hashes(_derive(inp)) for inp in DERIVE_INPUTS}
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        print("usage: python3 bench/gate.py --record", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    record()
