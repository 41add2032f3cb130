"""Balance laws, gradient extensions, model validation, entropy production."""
from __future__ import annotations

import math
from typing import Iterable

import pytest

from liukit.balance import (
    BalanceLaw,
    EntropyDeclaration,
    ModelError,
    ModelSpec,
    entropy_production,
)
from liukit.expr import Expression, ParseContext, ZERO, parse
from liukit.jet import JetVariable, StateSpace
from liukit.liu import constraint_extensions, decouple, select_constraints
from liukit.modelfile import parse_model

from conftest import model_ctx

RHO = JetVariable("rho")
V = JetVariable("v")


def _ctx() -> ParseContext:
    ctx = ParseContext(fields=("rho", "v"))
    ctx.declare_sym("T", (RHO,))
    ctx.declare_sym("s", (RHO,))
    ctx.declare_sym("Js", (RHO,))
    return ctx


def extension(law: BalanceLaw, k: int) -> Expression:
    """The order-k gradient extension of `law`: its residual differentiated k times in x."""
    e = law.residual()
    for _ in range(k):
        e = e.total_x()
    return e


def extension_leibniz(
    law: BalanceLaw, k: int, fields: Iterable[str], state_vars: Iterable[JetVariable]
) -> Expression:
    """The same extension by binomial (Leibniz) expansion instead of iteration.

    Valid when the density depends on the fields alone and the flux and
    production close over `state_vars`: D^k(a * w_x) is the sum over h of
    C(k, h) * D^h(a) * D^(k-h)(w_x), for each field's time jet and each
    state variable's space jet.
    """
    out = -law.production
    for _ in range(k):
        out = out.total_x()
    terms = [(law.density.diff(JetVariable(f)), JetVariable(f, 1, 0)) for f in fields]
    terms += [(law.flux.diff(z), z.dx()) for z in state_vars]
    for coeff, w in terms:
        if coeff.is_zero:
            continue
        for h in range(k + 1):
            c = coeff
            for _ in range(h):
                c = c.total_x()
            out = out + Expression.number(math.comb(k, h)) * c * Expression.jet(w.dx(k - h))
    return out


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
        assert extension_leibniz(law, 0, ("rho", "v"), (RHO, V)) == law.residual()

    def test_first_extension_of_mass_law(self):
        ctx = ParseContext(fields=("rho", "v"))
        e = lambda t: parse(t, ctx)
        law = BalanceLaw("mass", e("rho"), e("rho*v"))
        want = e("rho_tx + rho_xx*v + 2*rho_x*v_x + rho*v_xx")
        assert extension(law, 1) == want
        assert extension_leibniz(law, 1, ("rho", "v"), (RHO, V)) == want

    def test_extension_iterates_total_x(self):
        ctx = ParseContext(fields=("rho", "v"))
        e = lambda t: parse(t, ctx)
        law = BalanceLaw("mass", e("rho"), e("rho*v"))
        one, two = (extension_leibniz(law, k, ("rho", "v"), (RHO, V)) for k in (1, 2))
        assert two == one.total_x()


class TestExtensionLeibniz:
    def test_matches_iteration_for_polynomial_flux(self):
        ctx = ParseContext(fields=("rho", "v"))
        e = lambda t: parse(t, ctx)
        law = BalanceLaw("mass", e("rho"), e("rho*v"))
        for k in range(4):
            alt = extension_leibniz(law, k, ("rho", "v"), (RHO, V))
            assert (alt - extension(law, k)).is_zero

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
                assert (alt - extension(law, k)).is_zero

    def test_production_term_is_differentiated(self):
        ctx = ParseContext(fields=("u",))
        e = lambda t: parse(t, ctx)
        law = BalanceLaw("relax", e("u"), ZERO, production=e("u^2"))
        alt = extension_leibniz(law, 1, ("u",), (JetVariable("u"),))
        assert (alt - extension(law, 1)).is_zero

    def test_matches_the_constraints_derive_appends(self):
        # One field: decoupling leaves the law as it is, so the constraint
        # set that `derive` appends holds the law's own extensions.
        model = parse_model(
            "[fields]\nfields = u\n\n[state]\norder = 1\nvars = u, u_x\n\n"
            "[unknowns]\nJ(u, u_x)\nP(u, u_x)\ns(u, u_x)\nJs(u, u_x)\n\n"
            "[balance relax]\ndensity = u\nflux = J + u^2*u_x\nproduction = P\n\n"
            "[entropy]\nform = divergence\ndensity = s\nflux = Js\n",
            "one-field",
        )
        (law,) = model.laws
        selection = select_constraints(model, "all", max_order=3)
        exts = constraint_extensions(decouple(model), selection)
        assert sorted(exts) == [(1, k) for k in range(4)]
        for (_, k), ext in exts.items():
            assert (extension_leibniz(law, k, model.fields, model.space.sorted_members()) - ext).is_zero


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
        entropy = EntropyDeclaration("material", e("s + v_xx"), e("Js"), e("rho"))
        unknowns = (ctx.sym("T"), ctx.sym("s"), ctx.sym("Js"))
        with pytest.raises(ModelError) as ei:
            ModelSpec("bad", ("rho", "v"), "v", space, laws, entropy, unknowns)
        assert str(ei.value) == "entropy density uses v_xx, which is neither a field nor a state variable"

    def test_entropy_may_use_the_bare_fields(self):
        # As a law's flux may: the divergence form's flux carries the velocity.
        ctx = _ctx()
        e = lambda t: parse(t, ctx)
        m = _tiny_model("divergence")
        entropy = EntropyDeclaration("divergence", e("rho*s"), e("rho*s*v + Js"), e("rho + v"))
        assert m._replace(entropy=entropy).entropy == entropy

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
