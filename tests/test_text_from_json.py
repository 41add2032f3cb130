"""Every text report is printed from its JSON record and nothing else.

Each record goes through `stable_json` and back before it is printed, so a
text line that needed anything the JSON does not carry would fail here.  The
derive texts are also pinned to the benchmark's reference hashes.
"""
from __future__ import annotations

import hashlib
import json
import os

import pytest

from liukit._util import stable_json
from liukit.checker import (
    CheckResult,
    ConcavityResult,
    ScenarioResult,
    check,
    check_json_dict,
    check_text,
    format_check,
)
from liukit.cli import main
from liukit.fdb import expansion_json_dict, format_expansion
from liukit.liu import derive, format_report, report_json_dict, report_text
from liukit.models import load_builtin, load_builtin_solution

REFERENCES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "references.json"
)


def _round_trip(record: dict) -> dict:
    return json.loads(stable_json(record))


@pytest.mark.parametrize("mode", ["pruned", "all"])
@pytest.mark.parametrize("name", ["grade2", "korteweg"])
def test_derive_text(name, mode):
    report = derive(load_builtin(name), mode=mode)
    text = format_report(_round_trip(report_json_dict(report)))
    assert text == report_text(report)
    with open(REFERENCES, encoding="utf-8") as fh:
        want = json.load(fh)[name if mode == "pruned" else name + "-all"]["text"]
    assert hashlib.sha256(text.encode()).hexdigest() == want


@pytest.mark.parametrize("name", ["grade2", "korteweg"])
def test_check_text(name):
    model = load_builtin(name)
    result = check(model, derive(model), load_builtin_solution(name, model))
    assert result.ok
    assert format_check(_round_trip(check_json_dict(result))) == check_text(result)


def test_failed_check_text(korteweg_model, korteweg_report, korteweg_solution):
    # A sign condition that the scenarios break at their first point leaves
    # an infinite minimum residual, which JSON writes as Infinity.
    flipped = korteweg_solution._replace(
        conditions=tuple(
            c._replace(kind="ge") if c.name == "maxent" else c
            for c in korteweg_solution.conditions
        )
    )
    result = check(korteweg_model, korteweg_report, flipped, samples=8)
    assert not result.ok
    text = format_check(_round_trip(check_json_dict(result)))
    assert text == check_text(result)
    assert "minResidual=inf" in text and "failures:" in text


def test_check_text_without_points():
    scenario = ScenarioResult("s", "pass", 0, 3, float("nan"), None, 0, False, "too many")
    result = CheckResult(
        "m", (), (scenario,), ConcavityResult("confirmed", "-"), (("T", "rho_x"),), ("too many",)
    )
    text = format_check(_round_trip(check_json_dict(result)))
    assert text == check_text(result)
    assert "minResidual=nan FAILED" in text and "worstMinor" not in text


def test_fdb_text(capsys):
    record = _round_trip(expansion_json_dict(3, 2, verify=True))
    assert main(["fdb", "--m", "3", "--s", "2", "--verify"]) == 0
    assert format_expansion(record) == capsys.readouterr().out
    assert main(["fdb", "--m", "3", "--s", "2", "--verify", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == record
