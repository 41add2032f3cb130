"""Metamorphic relations: the restrictions depend on the system of laws, not on how it is written.

Each relation derives a model and a rewritten copy of it and compares what
the two emit: the equality labels and expressions (up to sign), the
quadratic form's entries by variable pair, the even forms and the residual.

(a) Reversing the fields and the laws together keeps the restrictions, and
    so does reversing the fields alone.
(b) Doubling the entropy's density and flux doubles every restriction.
(c) Replacing the last law by itself plus 2 x the first keeps them, and so
    does replacing `korteweg`'s mass law by mass + energy, whose decoupling
    divides by pivots that are not monomials (restrictions only: the side
    conditions depend on the pivots).
(d) Writing a material entropy in divergence form, density `weight*s` and
    flux `weight*s*v + Js`, keeps them, and the mass multiplier `Lam[1,0]`
    grows by exactly `s`.  Its premise is a first law `w_t + (w v)_x = 0`
    for the weight w, which the generated models do not have: their first
    flux carries an unknown.
"""
from __future__ import annotations

import os

import pytest

from liukit.balance import BalanceLaw, EntropyDeclaration
from liukit.expr import ONE, ZERO, Expression
from liukit.jet import JetVariable
from liukit.liu import derive
from liukit.modelfile import load_model, parse_model
from liukit.models import load_builtin

from test_generated_models import SEEDS, generated_model

INPUTS = ("grade2", "korteweg", "bench/fixtures/korteweg-eps2.model", "bench/fixtures/korteweg-o3.model")
MODES = ("pruned", "all")


def _load(name: str):
    if name.startswith("generated-"):
        return parse_model(generated_model(int(name.split("-")[1])), name)
    if name.endswith(".model"):
        return load_model(os.path.join(os.path.dirname(__file__), os.pardir, name))
    return load_builtin(name)


def _restrictions(report, scale: int = 1) -> tuple:
    """What `report` emits, each expression times `scale`, keyed so that two reports compare."""
    c = Expression.number(scale)
    r = report.restrictions
    q = r.quadratic
    return (
        {e.label: frozenset((c * e.expr, -c * e.expr)) for e in r.equalities},
        {} if q is None else {(q.variables[i], q.variables[j]): c * v for i, j, v in q.entries},
        [(f.degree, f.variables, [(idx, c * v) for idx, v in f.entries]) for f in r.even_forms],
        c * r.residual,
    )


def _reverse_both(m):
    return m._replace(fields=m.fields[::-1], laws=m.laws[::-1])


def _reverse_fields(m):
    return m._replace(fields=m.fields[::-1])


def _recombine(m):
    first, last = m.laws[0], m.laws[-1]
    two = Expression.number(2)
    law = BalanceLaw(
        last.name,
        last.density + two * first.density,
        last.flux + two * first.flux,
        last.production + two * first.production,
    )
    return m._replace(laws=m.laws[:-1] + (law,))


def _first_plus_last(m):
    first, last = m.laws[0], m.laws[-1]
    law = BalanceLaw(
        first.name,
        first.density + last.density,
        first.flux + last.flux,
        first.production + last.production,
    )
    return m._replace(laws=(law,) + m.laws[1:])


def _double_entropy(m):
    two = Expression.number(2)
    return m._replace(entropy=m.entropy._replace(density=two * m.entropy.density, flux=two * m.entropy.flux))


def _divergence(m):
    e = m.entropy
    ws = e.weight * e.density
    v = Expression.jet(JetVariable(m.velocity))
    return m._replace(entropy=EntropyDeclaration("divergence", ws, ws * v + e.flux, ONE))


KEEPING = {"reverse fields and laws": _reverse_both, "reverse fields": _reverse_fields,
           "last law plus 2 x first": _recombine}
ALL_INPUTS = INPUTS + tuple(f"generated-{seed}" for seed in SEEDS)


@pytest.mark.parametrize("name", ALL_INPUTS)
def test_rewrites_keep_the_restrictions(name):
    model = _load(name)
    for mode in MODES:
        report = derive(model, mode)
        for label, rewrite in KEEPING.items():
            assert _restrictions(derive(rewrite(model), mode)) == _restrictions(report), label
        assert _restrictions(derive(_double_entropy(model), mode)) == _restrictions(report, 2)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", INPUTS)
def test_divergence_form_keeps_the_restrictions(name, mode):
    model = _load(name)
    assert model.entropy.form == "material"
    material, divergence = derive(model, mode), derive(_divergence(model), mode)
    assert _restrictions(divergence) == _restrictions(material)
    s = model.entropy.density
    assert [(i, k) for i, k, _ in divergence.multipliers] == [(i, k) for i, k, _ in material.multipliers]
    for (i, k, a), (_, _, b) in zip(material.multipliers, divergence.multipliers):
        assert b - a == (s if (i, k) == (1, 0) else ZERO)


def test_mass_plus_energy_keeps_the_restrictions():
    model = load_builtin("korteweg")
    assert [law.name for law in model.laws] == ["mass", "momentum", "energy"]
    assert _restrictions(derive(_first_plus_last(model))) == _restrictions(derive(model))
