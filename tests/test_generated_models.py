"""Seeded well-formed models as standing oracles of the derivation.

Each seed draws 1-3 fields, state order 1 or 2, a random subset of the jets
up to that order (one of them at the top order), a material or divergence
entropy and optional productions.  On every model the pruned and the full
constraint sets give the same restrictions, substituting the solved
multipliers into the constrained inequality in one pass gives the reduced
inequality, and `derive --verify` exits 0.  Two processes with different
hash seeds print the same reports of every seed, byte for byte.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from liukit.cli import main
from liukit.liu import (
    DERIVE_MAX_MINOR_TERMS,
    constrained_inequality,
    decouple,
    derive,
    multiplier_symbol,
    same_restrictions,
    select_constraints,
    solve_multipliers,
)
from liukit.modelfile import parse_model

SEEDS = range(48)
# The seeds whose principal minors are too large to print in text or JSON.
UNPRINTABLE = {15: 1442842658182, 29: 30678839517, 31: 9572326296}


def _jet(field: str, k: int) -> str:
    return field + ("_" + "x" * k if k else "")


def generated_model(seed: int) -> str:
    """The text of a well-formed model drawn from `seed`."""
    rng = random.Random(f"model:{seed}")
    fields = ["rho", "v", "eps"][: rng.randint(1, 3)]
    order = rng.randint(1, 2)
    jets = [_jet(f, k) for f in fields for k in range(order + 1)]
    top = [_jet(f, order) for f in fields]
    state = {rng.choice(top)} | {j for j in jets if rng.random() < 0.5}
    state_vars = ", ".join(j for j in jets if j in state)
    material = rng.random() < 0.5
    velocity = rng.choice(fields) if material or rng.random() < 0.5 else None
    weight = fields[0]

    unknowns = ["s", "Js"]
    laws = []
    for i, f in enumerate(fields):
        # The first field may weight the density of a later one, so the time
        # Jacobian is lower triangular with pivots 1 or rho.
        density = f if i == 0 or rng.random() < 0.5 else f"{weight}*{f}"
        flux = f"J{i}" + (f" + {density}*{velocity}" if velocity else "")
        unknowns.append(f"J{i}")
        law = f"[balance law{i}]\ndensity = {density}\nflux = {flux}\n"
        if rng.random() < 0.4:
            unknowns.append(f"P{i}")
            law += f"production = P{i}\n"
        laws.append(law)

    entropy = "[entropy]\n"
    entropy += f"form = material\nweight = {weight}\n" if material else "form = divergence\n"
    entropy += "density = s\nflux = Js\n"
    return "\n".join([
        f"[fields]\nfields = {', '.join(fields)}\n" + (f"velocity = {velocity}\n" if velocity else ""),
        f"[state]\norder = {order}\nvars = {state_vars}\n",
        "[unknowns]\n" + "".join(f"{u}({state_vars})\n" for u in unknowns),
        *laws,
        entropy,
    ])


def test_generator_varies_what_it_promises():
    texts = [generated_model(seed) for seed in SEEDS]
    assert len(set(texts)) >= 40
    for needle in ("fields = rho\n", "fields = rho, v, eps\n", "order = 1\n", "order = 2\n",
                   "form = material", "form = divergence", "production = "):
        assert any(needle in t for t in texts), needle


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_model(seed, tmp_path, capsys):
    text = generated_model(seed)
    model = parse_model(text, f"generated-{seed}")
    pruned, full = derive(model, "pruned"), derive(model, "all")
    assert same_restrictions(pruned.restrictions, full.restrictions)

    dec = decouple(model)
    for mode in ("pruned", "all"):
        selection = select_constraints(model, mode)
        ineq = constrained_inequality(model, dec, selection)
        sol = solve_multipliers(model, dec, selection, ineq)
        assert ineq.subs({multiplier_symbol(i, k): v for i, k, v in sol.values}) == sol.reduced

    form = pruned.restrictions.quadratic
    terms = 0 if form is None else form.minor_terms()
    assert UNPRINTABLE.get(seed, terms) == terms
    assert (terms > DERIVE_MAX_MINOR_TERMS) == (seed in UNPRINTABLE)

    # LaTeX expands no principal minor; text and JSON expand all 63 of the
    # six-jet forms that three fields at order 2 give, seconds per model.
    path = tmp_path / f"generated-{seed}.model"
    path.write_text(text)
    assert main(["derive", str(path), "--verify", "--format", "latex"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("seed", sorted(UNPRINTABLE))
def test_unprintable_minors_are_refused_before_expanding(seed, fmt, tmp_path, capsys, minor_calls):
    path = tmp_path / f"generated-{seed}.model"
    path.write_text(generated_model(seed))
    assert main(["derive", str(path), "--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert out == "" and minor_calls == []
    assert err == (
        f"error: the quadratic form's principal minors expand to at most {UNPRINTABLE[seed]} terms, "
        f"more than the supported maximum {DERIVE_MAX_MINOR_TERMS}; --format latex prints the form without them\n"
    )


def generic_closure(seed: int) -> str:
    """A solution for `generated_model(seed)` that binds each unknown to an ansatz of the same dependencies.

    The ansatz keeps every unknown generic, so the quadratic form that
    `check` prepares is as large as the one `derive` would print.
    """
    model = parse_model(generated_model(seed), f"generated-{seed}")
    ansatz = "".join(f"a{u.name}({', '.join(d.text() for d in u.deps)})\n" for u in model.unknowns)
    bindings = "".join(f"{u.name} = a{u.name}\n" for u in model.unknowns)
    return f"[ansatz]\n{ansatz}\n[bindings]\n{bindings}\n[scenario generic]\nsamples = 4\n"


@pytest.mark.parametrize("seed", sorted(UNPRINTABLE))
def test_check_refuses_unprintable_minors_before_expanding(seed, tmp_path, capsys, minor_calls):
    model, solution = tmp_path / f"generated-{seed}.model", tmp_path / f"generated-{seed}.solution"
    model.write_text(generated_model(seed))
    solution.write_text(generic_closure(seed))
    assert main(["check", str(model), str(solution)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and minor_calls == []
    assert err == (
        f"error: the quadratic form's principal minors expand to at most {UNPRINTABLE[seed]} terms, "
        f"more than the supported maximum {DERIVE_MAX_MINOR_TERMS}\n"
    )


# LaTeX reports of every seed, and JSON reports of the seeds whose quadratic
# form has at most 4 variables: the 63 expanded minors of a six-jet form run
# to tens of megabytes.
_REPORTS_DIGEST = f"""
import hashlib, sys
sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})
from test_generated_models import SEEDS, generated_model
from liukit._util import stable_json
from liukit.liu import derive, report_json_dict, report_latex
from liukit.modelfile import parse_model
digest = hashlib.sha256()
for seed in SEEDS:
    report = derive(parse_model(generated_model(seed), f"generated-{{seed}}"), "pruned")
    digest.update(report_latex(report).encode())
    form = report.restrictions.quadratic
    if form is None or len(form.variables) <= 4:
        digest.update(stable_json(report_json_dict(report)).encode())
print(digest.hexdigest())
"""


def test_reports_do_not_depend_on_the_hash_seed():
    def run(hash_seed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        return subprocess.run([sys.executable, "-c", _REPORTS_DIGEST], capture_output=True, text=True,
                              env=env, check=True).stdout

    first = run("0")
    assert len(first.strip()) == 64
    assert first == run("4242")
