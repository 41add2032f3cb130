"""Seeded well-formed models as standing oracles of the derivation.

Each seed draws 1-3 fields, state order 1 or 2, a random subset of the jets
up to that order (one of them at the top order), a material or divergence
entropy and optional productions.  On every model the pruned and the full
constraint sets give the same restrictions, substituting the solved
multipliers into the constrained inequality in one pass gives the reduced
inequality, and `derive --verify` exits 0.
"""
from __future__ import annotations

import random

import pytest

from liukit.cli import main
from liukit.liu import (
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

    # LaTeX expands no principal minor; text and JSON expand all 63 of the
    # six-jet forms that three fields at order 2 give, seconds per model.
    path = tmp_path / f"generated-{seed}.model"
    path.write_text(text)
    assert main(["derive", str(path), "--verify", "--format", "latex"]) == 0
    assert capsys.readouterr().err == ""
