"""Balance laws, gradient extensions, model validation, entropy production."""
from __future__ import annotations

import pytest

from liukit.balance import (
    BalanceLaw,
    EntropyDeclaration,
    ModelError,
    ModelSpec,
    entropy_production,
)
from liukit.expr import Expression, ParseContext, ZERO, parse
from liukit.fdb import extension_leibniz
from liukit.jet import JetVariable, StateSpace

from conftest import model_ctx

RHO = JetVariable("rho")
V = JetVariable("v")


def _ctx() -> ParseContext:
    ctx = ParseContext(fields=("rho", "v"))
    ctx.declare_sym("T", (RHO,))
    ctx.declare_sym("s", (RHO,))
    ctx.declare_sym("Js", (RHO,))
    return ctx


def _tiny_model(entropy_form: str = "material") -> ModelSpec:
    ctx = _ctx()
    e = lambda t: parse(t, ctx)
    space = StateSpace(0, (RHO,))
    laws = (
        BalanceLaw("mass", e("rho"), e("rho*v")),
        BalanceLaw("momentum", e("rho*v"), e("rho*v^2 + T")),
    )
    entropy = EntropyDeclaration(entropy_form, e("s"), e("Js"), e("rho"))
    unknowns = (ctx.sym("T"), ctx.sym("s"), ctx.sym("Js"))
    return ModelSpec("tiny", ("rho", "v"), "v", space, laws, entropy, unknowns)


class TestBalanceLaw:
    def test_mass_residual(self):
        ctx = ParseContext(fields=("rho", "v"))
        e = lambda t: parse(t, ctx)
        law = BalanceLaw("mass", e("rho"), e("rho*v"))
        assert law.residual() == e("rho_t + rho_x*v + rho*v_x")

    def test_production_enters_negatively(self):
        ctx = ParseContext(fields=("u",))
        e = lambda t: parse(t, ctx)
        law = BalanceLaw("relax", e("u"), e("u^2"), production=e("-u"))
        assert law.residual() == e("u_t + 2*u*u_x + u")

    def test_extension_zero_is_residual(self):
        ctx = ParseContext(fields=("rho", "v"))
        e = lambda t: parse(t, ctx)
        law = BalanceLaw("mass", e("rho"), e("rho*v"))
        assert law.extension(0) == law.residual()

    def test_first_extension_of_mass_law(self):
        ctx = ParseContext(fields=("rho", "v"))
        e = lambda t: parse(t, ctx)
        law = BalanceLaw("mass", e("rho"), e("rho*v"))
        assert law.extension(1) == e("rho_tx + rho_xx*v + 2*rho_x*v_x + rho*v_xx")

    def test_extension_iterates_total_x(self):
        ctx = ParseContext(fields=("rho", "v"))
        e = lambda t: parse(t, ctx)
        law = BalanceLaw("mass", e("rho"), e("rho*v"))
        assert law.extension(2) == law.extension(1).total_x()


class TestExtensionLeibniz:
    def test_matches_iteration_for_polynomial_flux(self):
        ctx = ParseContext(fields=("rho", "v"))
        e = lambda t: parse(t, ctx)
        law = BalanceLaw("mass", e("rho"), e("rho*v"))
        for k in range(4):
            alt = extension_leibniz(law, k, ("rho", "v"), (RHO, V))
            assert (alt - law.extension(k)).is_zero

    def test_matches_iteration_with_constitutive_flux(self, grade2_model):
        # The momentum flux depends on the velocity, which is not a state
        # variable, so the dependency list passed to the binomial expansion
        # is the state space plus the base field jets.
        deps = tuple(grade2_model.space.sorted_members()) + tuple(
            JetVariable(f) for f in grade2_model.fields
            if JetVariable(f) not in grade2_model.space.members
        )
        for law in grade2_model.laws:
            for k in (0, 1, 2):
                alt = extension_leibniz(law, k, grade2_model.fields, deps)
                assert (alt - law.extension(k)).is_zero

    def test_production_term_is_differentiated(self):
        ctx = ParseContext(fields=("u",))
        e = lambda t: parse(t, ctx)
        law = BalanceLaw("relax", e("u"), ZERO, production=e("u^2"))
        alt = extension_leibniz(law, 1, ("u",), (JetVariable("u"),))
        assert (alt - law.extension(1)).is_zero


class TestModelValidation:
    def test_tiny_model_builds(self):
        m = _tiny_model()
        assert m.fields == ("rho", "v")
        assert m.unknown("T").name == "T"
        with pytest.raises(ModelError):
            m.unknown("nope")

    def test_system_must_be_square(self):
        ctx = _ctx()
        e = lambda t: parse(t, ctx)
        space = StateSpace(0, (RHO,))
        entropy = EntropyDeclaration("material", e("s"), e("Js"), e("rho"))
        with pytest.raises(ModelError) as ei:
            ModelSpec(
                "bad", ("rho", "v"), "v", space,
                (BalanceLaw("mass", e("rho"), e("rho*v")),),
                entropy, (ctx.sym("T"), ctx.sym("s"), ctx.sym("Js")),
            )
        assert "square" in str(ei.value)

    def test_velocity_must_be_declared(self):
        ctx = _ctx()
        e = lambda t: parse(t, ctx)
        space = StateSpace(0, (RHO,))
        laws = (
            BalanceLaw("mass", e("rho"), e("rho*v")),
            BalanceLaw("momentum", e("rho*v"), e("rho*v^2 + T")),
        )
        entropy = EntropyDeclaration("material", e("s"), e("Js"), e("rho"))
        unknowns = (ctx.sym("T"), ctx.sym("s"), ctx.sym("Js"))
        with pytest.raises(ModelError):
            ModelSpec("bad", ("rho", "v"), "w", space, laws, entropy, unknowns)

    def test_material_form_needs_velocity(self):
        ctx = _ctx()
        e = lambda t: parse(t, ctx)
        space = StateSpace(0, (RHO,))
        laws = (
            BalanceLaw("mass", e("rho"), e("rho*v")),
            BalanceLaw("momentum", e("rho*v"), e("rho*v^2 + T")),
        )
        entropy = EntropyDeclaration("material", e("s"), e("Js"), e("rho"))
        unknowns = (ctx.sym("T"), ctx.sym("s"), ctx.sym("Js"))
        with pytest.raises(ModelError):
            ModelSpec("bad", ("rho", "v"), None, space, laws, entropy, unknowns)

    def test_unknown_entropy_form_rejected(self):
        with pytest.raises(ModelError):
            _tiny_model(entropy_form="weird")

    def test_density_must_be_field_only(self):
        ctx = _ctx()
        e = lambda t: parse(t, ctx)
        space = StateSpace(1, (RHO, RHO.dx()))
        laws = (
            BalanceLaw("mass", e("rho_x"), e("rho*v")),
            BalanceLaw("momentum", e("rho*v"), e("rho*v^2 + T")),
        )
        entropy = EntropyDeclaration("material", e("s"), e("Js"), e("rho"))
        unknowns = (ctx.sym("T"), ctx.sym("s"), ctx.sym("Js"))
        with pytest.raises(ModelError) as ei:
            ModelSpec("bad", ("rho", "v"), "v", space, laws, entropy, unknowns)
        assert "density" in str(ei.value)

    def test_flux_jets_must_be_known(self):
        ctx = _ctx()
        e = lambda t: parse(t, ctx)
        space = StateSpace(0, (RHO,))
        laws = (
            BalanceLaw("mass", e("rho"), e("rho*v + rho_x")),
            BalanceLaw("momentum", e("rho*v"), e("rho*v^2 + T")),
        )
        entropy = EntropyDeclaration("material", e("s"), e("Js"), e("rho"))
        unknowns = (ctx.sym("T"), ctx.sym("s"), ctx.sym("Js"))
        with pytest.raises(ModelError) as ei:
            ModelSpec("bad", ("rho", "v"), "v", space, laws, entropy, unknowns)
        assert "rho_x" in str(ei.value)

    def test_flux_symbols_must_be_unknowns(self):
        ctx = _ctx()
        e = lambda t: parse(t, ctx)
        space = StateSpace(0, (RHO,))
        laws = (
            BalanceLaw("mass", e("rho"), e("rho*v")),
            BalanceLaw("momentum", e("rho*v"), e("rho*v^2 + T")),
        )
        entropy = EntropyDeclaration("material", e("s"), e("Js"), e("rho"))
        unknowns = (ctx.sym("s"), ctx.sym("Js"))  # T missing
        with pytest.raises(ModelError) as ei:
            ModelSpec("bad", ("rho", "v"), "v", space, laws, entropy, unknowns)
        assert "T" in str(ei.value)

    def test_unknown_deps_must_be_state_vars(self):
        ctx = ParseContext(fields=("rho", "v"))
        T = ctx.declare_sym("T", (V,))
        ctx.declare_sym("s", (RHO,))
        ctx.declare_sym("Js", (RHO,))
        e = lambda t: parse(t, ctx)
        space = StateSpace(0, (RHO,))
        laws = (
            BalanceLaw("mass", e("rho"), e("rho*v")),
            BalanceLaw("momentum", e("rho*v"), e("rho*v^2 + T")),
        )
        entropy = EntropyDeclaration("material", e("s"), e("Js"), e("rho"))
        with pytest.raises(ModelError) as ei:
            ModelSpec(
                "bad", ("rho", "v"), "v", space, laws, entropy,
                (T, ctx.sym("s"), ctx.sym("Js")),
            )
        assert "depends on v" in str(ei.value)

    def test_entropy_must_close_over_state(self):
        ctx = _ctx()
        e = lambda t: parse(t, ctx)
        space = StateSpace(0, (RHO,))
        laws = (
            BalanceLaw("mass", e("rho"), e("rho*v")),
            BalanceLaw("momentum", e("rho*v"), e("rho*v^2 + T")),
        )
        entropy = EntropyDeclaration("material", e("s + v"), e("Js"), e("rho"))
        unknowns = (ctx.sym("T"), ctx.sym("s"), ctx.sym("Js"))
        with pytest.raises(ModelError) as ei:
            ModelSpec("bad", ("rho", "v"), "v", space, laws, entropy, unknowns)
        assert "entropy density" in str(ei.value)

    def test_state_vars_must_name_fields(self):
        ctx = _ctx()
        e = lambda t: parse(t, ctx)
        space = StateSpace(0, (JetVariable("w"),))
        laws = (
            BalanceLaw("mass", e("rho"), e("rho*v")),
            BalanceLaw("momentum", e("rho*v"), e("rho*v^2 + T")),
        )
        entropy = EntropyDeclaration("material", e("s"), e("Js"), e("rho"))
        unknowns = (ctx.sym("T"), ctx.sym("s"), ctx.sym("Js"))
        with pytest.raises(ModelError):
            ModelSpec("bad", ("rho", "v"), "v", space, laws, entropy, unknowns)


class TestEntropyProduction:
    def test_material_form(self):
        m = _tiny_model("material")
        e = lambda t: parse(t, model_ctx(m))
        got = entropy_production(m)
        want = e("rho*(D(s, rho)*rho_t + v*D(s, rho)*rho_x) + D(Js, rho)*rho_x")
        assert (got - want).is_zero

    def test_divergence_form(self):
        m = _tiny_model("divergence")
        e = lambda t: parse(t, model_ctx(m))
        got = entropy_production(m)
        want = e("D(s, rho)*rho_t + D(Js, rho)*rho_x")
        assert (got - want).is_zero

    def test_fixture_production_contains_time_jets(self, grade2_model):
        p = entropy_production(grade2_model)
        tjets = {a for a in p.jets() if a.t_order}
        assert JetVariable("rho", 1, 0) in tjets
        assert JetVariable("rho", 1, 1) in tjets
