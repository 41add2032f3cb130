"""Built-in fixture models: shapes, round-trips, and residual identities.

The residual identities are the substantive ones: binding the shipped
candidate solutions must collapse the residual production to the conductive
quadratic form in the gradients, and the cross-coupling equality must turn
the density/energy block of that form into a perfect square.
"""
from __future__ import annotations

import os
import subprocess
import sys

import pytest

import liukit

from liukit.jet import JetVariable
from liukit.liu import model_hash
from liukit.modelfile import load_model
from liukit.models import _read, builtin_names, load_builtin, load_builtin_solution
from liukit.expr import ZERO, parse
from liukit.solution import parse_solution

from conftest import model_ctx

RHO_X = JetVariable("rho", 0, 1)
EPS_X = JetVariable("eps", 0, 1)
V_X = JetVariable("v", 0, 1)

PRODUCTION_FORM = (
    "(q1*eps_x + q2*rho_x + q3*v_x)"
    "*(D(s0, rho, eps)*rho_x + D(s0, eps, eps)*eps_x)"
    " + tau1*D(s0, eps)*v_x^2"
)


def _bound_residual(report, solution, *condition_names):
    bound = report.restrictions.residual.subs(solution.binding_substitution)
    for name in condition_names:
        cond = next(c for c in solution.conditions if c.name == name)
        atom = next(iter(cond.lhs.atoms()))
        bound = bound.subs({atom: cond.rhs})
    return bound


class TestBuiltins:
    def test_names(self):
        assert builtin_names() == ("grade2", "korteweg")

    def test_unknown_model_name(self):
        with pytest.raises(KeyError):
            load_builtin("nosuch")

    def test_unknown_solution_name(self):
        with pytest.raises(KeyError):
            load_builtin_solution("nosuch")

    def test_solution_loads_without_explicit_model(self):
        sol = load_builtin_solution("grade2")
        assert {sym.name for sym, _ in sol.bindings} == {"T", "q", "Jg", "s", "Js"}


class TestGrade2Shape:
    def test_fields_and_velocity(self, grade2_model):
        assert grade2_model.fields == ("rho", "v", "eps", "gamma")
        assert grade2_model.velocity == "v"

    def test_state_space(self, grade2_model):
        assert grade2_model.space.order == 1
        members = {w.text() for w in grade2_model.space.members}
        assert members == {
            "rho", "eps", "gamma", "rho_x", "v_x", "eps_x", "gamma_x"
        }

    def test_laws_and_unknowns(self, grade2_model):
        assert [law.name for law in grade2_model.laws] == [
            "mass", "momentum", "energy", "internal"
        ]
        assert {u.name for u in grade2_model.unknowns} == {"T", "q", "Jg", "s", "Js"}

    def test_entropy_declaration(self, grade2_model):
        assert grade2_model.entropy.form == "material"
        assert grade2_model.entropy.weight == parse("rho", model_ctx(grade2_model))

    def test_solution_inventory(self, grade2_solution):
        assert {a.name for a in grade2_solution.ansatz} == {
            "s0", "s1", "tau1", "q1", "q2", "q3", "f", "k"
        }
        assert {c.name for c in grade2_solution.conditions} == {"entropyflux", "maxent"}
        assert {s.name for s in grade2_solution.scenarios} == {"fourier", "counterflow"}


class TestKortewegShape:
    def test_fields_and_velocity(self, korteweg_model):
        assert korteweg_model.fields == ("rho", "v", "eps")
        assert korteweg_model.velocity == "v"

    def test_state_space(self, korteweg_model):
        assert korteweg_model.space.order == 2
        members = {w.text() for w in korteweg_model.space.members}
        assert members == {"rho", "eps", "rho_x", "v_x", "eps_x", "rho_xx"}

    def test_laws_and_unknowns(self, korteweg_model):
        assert [law.name for law in korteweg_model.laws] == ["mass", "momentum", "energy"]
        assert {u.name for u in korteweg_model.unknowns} == {"T", "q", "s", "Js"}

    def test_solution_inventory(self, korteweg_solution):
        assert {a.name for a in korteweg_solution.ansatz} == {
            "s0", "s1", "tau1", "q1", "q2", "q3"
        }
        assert {c.name for c in korteweg_solution.conditions} == {
            "heatcoupling", "maxent", "conduction", "compress", "shear"
        }
        assert {s.name for s in korteweg_solution.scenarios} == {
            "fourier", "coupled", "bigshear"
        }


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["grade2", "korteweg"])
    def test_model_survives_reload(self, name, tmp_path):
        model = load_builtin(name)
        path = tmp_path / f"{name}.model"
        path.write_text(_read(f"{name}.model"), encoding="utf-8")
        again = load_model(str(path))
        assert again.name == name
        assert model_hash(again) == model_hash(model)

    @pytest.mark.parametrize("name", ["grade2", "korteweg"])
    def test_solution_parse_is_stable(self, name):
        model = load_builtin(name)
        a = load_builtin_solution(name, model)
        b = load_builtin_solution(name, model)
        assert a == b

    def test_distinct_models_have_distinct_hashes(self, grade2_model, korteweg_model):
        assert model_hash(grade2_model) != model_hash(korteweg_model)


class TestGrade2ResidualIdentity:
    def test_bound_residual_is_the_conductive_form(
        self, grade2_model, grade2_report, grade2_solution
    ):
        bound = _bound_residual(grade2_report, grade2_solution, "entropyflux")
        ctx = model_ctx(grade2_model, *grade2_solution.ansatz)
        assert (bound - parse(PRODUCTION_FORM, ctx)).is_zero

    def test_flux_condition_is_needed(self, grade2_model, grade2_report, grade2_solution):
        bound = _bound_residual(grade2_report, grade2_solution)
        ctx = model_ctx(grade2_model, *grade2_solution.ansatz)
        assert not (bound - parse(PRODUCTION_FORM, ctx)).is_zero


class TestKortewegResidualIdentity:
    def test_bound_residual_is_the_conductive_form(
        self, korteweg_model, korteweg_report, korteweg_solution
    ):
        bound = _bound_residual(korteweg_report, korteweg_solution)
        ctx = model_ctx(korteweg_model, *korteweg_solution.ansatz)
        assert (bound - parse(PRODUCTION_FORM, ctx)).is_zero

    def test_cross_coupling_makes_the_density_energy_block_a_square(
        self, korteweg_model, korteweg_report, korteweg_solution
    ):
        bound = _bound_residual(korteweg_report, korteweg_solution)
        grads = (RHO_X, EPS_X, V_X)
        coeffs = bound.collect(grads)
        a, b, c = (coeffs.get(exps, ZERO) for exps in ((2, 0, 0), (1, 1, 0), (0, 2, 0)))
        disc = b * b - a * c * 4
        assert not disc.is_zero
        coupling = next(c for c in korteweg_solution.conditions if c.name == "heatcoupling")
        atom = next(iter(coupling.lhs.atoms()))
        assert disc.subs({atom: coupling.rhs}).is_zero

    def test_pure_shear_coefficient(self, korteweg_model, korteweg_report, korteweg_solution):
        bound = _bound_residual(korteweg_report, korteweg_solution)
        ctx = model_ctx(korteweg_model, *korteweg_solution.ansatz)
        shear = bound.collect((RHO_X, EPS_X, V_X)).get((0, 0, 2), ZERO)
        assert (shear - parse("tau1*D(s0, eps)", ctx)).is_zero


_DERIVE_BUILTIN = """
import contextlib, io, sys
from liukit import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["derive", "--builtin", "korteweg"])
print(code, "importlib.resources" in sys.modules)
"""


def test_builtins_are_read_without_importlib_resources():
    # -S keeps `site` and its .pth hooks from importing the package first.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(liukit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _DERIVE_BUILTIN], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == ["0", "False"]


def test_readme_library_example_prints_what_its_comments_say(capsys):
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    want = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert want and capsys.readouterr().out.splitlines() == want
