"""Derivation engine: decoupling, constraint selection, multiplier elimination,
restriction emission, diagnostics and serialization."""
from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import liukit
from liukit import expr as expr_mod
from liukit.balance import BalanceLaw, EntropyDeclaration, ModelError, ModelSpec
from liukit.expr import Expression, ParseContext, ZERO, parse, to_text
from liukit.jet import JetVariable, StateSpace, classify
from liukit.liu import (
    EngineError,
    EvenForm,
    LiuReport,
    QuadraticForm,
    constrained_inequality,
    decouple,
    derive,
    emit_restrictions,
    format_report,
    model_hash,
    multiplier_symbol,
    report_json_dict,
    report_latex,
    report_text,
    same_restrictions,
    select_constraints,
    solve_multipliers,
)
from liukit.modelfile import parse_model
from liukit.models import _read, load_builtin
from liukit._util import stable_json

from conftest import model_ctx
from test_generated_models import SEEDS, generated_model

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _local_model() -> ModelSpec:
    """One conservation law on a gradient-free state space."""
    u = JetVariable("u")
    ctx = ParseContext(fields=("u",))
    ctx.declare_sym("s", (u,))
    ctx.declare_sym("Js", (u,))
    e = lambda t: parse(t, ctx)
    return ModelSpec(
        "local", ("u",), None, StateSpace(0, (u,)),
        (BalanceLaw("mass", e("u"), e("1/2*u^2")),),
        EntropyDeclaration("divergence", e("s"), e("Js"), e("1")),
        (ctx.sym("s"), ctx.sym("Js")),
    )


class TestDecoupling:
    def test_grade2_time_jacobian_is_diagonalized(self, grade2_model):
        dec = decouple(grade2_model)
        fields = grade2_model.fields
        assert tuple(row.field for row in dec.rows) == fields
        for i, row in enumerate(dec.rows):
            for j, f in enumerate(fields):
                coeff = row.residual.diff(JetVariable(f, 1, 0))
                if i == j:
                    assert coeff == row.pivot
                else:
                    assert coeff.is_zero

    def test_grade2_pivots(self, grade2_model):
        dec = decouple(grade2_model)
        e = lambda t: parse(t, model_ctx(grade2_model))
        assert [to_text(row.pivot) for row in dec.rows] == ["1", "rho", "rho", "rho"]
        assert dec.rows[0].residual == e("rho_t + rho_x*v + rho*v_x")
        assert dec.rows[0].law_name == "mass"

    def test_nonconstant_pivots_recorded(self, grade2_model):
        dec = decouple(grade2_model)
        e = lambda t: parse(t, model_ctx(grade2_model))
        assert e("rho") in dec.nonzero

    def test_singular_jacobian_rejected(self):
        ctx = ParseContext(fields=("a", "b"))
        ctx.declare_sym("s", (JetVariable("a"),))
        ctx.declare_sym("Js", (JetVariable("a"),))
        e = lambda t: parse(t, ctx)
        m = ModelSpec(
            "singular", ("a", "b"), None, StateSpace(0, (JetVariable("a"),)),
            (
                BalanceLaw("one", e("a"), ZERO),
                BalanceLaw("two", e("2*a"), ZERO),
            ),
            EntropyDeclaration("divergence", e("s"), e("Js"), e("1")),
            (ctx.sym("s"), ctx.sym("Js")),
        )
        with pytest.raises(ModelError, match="^time Jacobian is singular: no law evolves field 'b'$"):
            decouple(m)


class TestSelection:
    def test_grade2_pruned_takes_all_first_order(self, grade2_model):
        sel = select_constraints(grade2_model)
        assert sel.entries == tuple((i, k) for i in (1, 2, 3, 4) for k in (0, 1))

    def test_korteweg_pruned_has_one_second_order_entry(self, korteweg_model):
        sel = select_constraints(korteweg_model)
        assert sel.entries == ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0), (3, 1))
        second = [(i, k) for i, k in sel.entries if k == 2]
        assert second == [(1, 2)]

    def test_second_order_entry_is_the_mass_law(self, korteweg_model, korteweg_report):
        assert korteweg_report.decoupled.rows[0].law_name == "mass"
        assert [k for i, k in korteweg_report.selection.entries if i == 1] == [0, 1, 2]

    def test_all_mode_takes_the_full_grid(self, korteweg_model):
        sel = select_constraints(korteweg_model, mode="all")
        assert sel.entries == tuple((i, k) for i in (1, 2, 3) for k in (0, 1, 2))

    def test_all_mode_order_cap(self, korteweg_model):
        sel = select_constraints(korteweg_model, mode="all", max_order=1)
        assert sel.entries == tuple((i, k) for i in (1, 2, 3) for k in (0, 1))

    def test_local_model_selects_base_laws_only(self):
        sel = select_constraints(_local_model())
        assert sel.entries == ((1, 0),)

    def test_order_cap_requires_all_mode(self, korteweg_model):
        with pytest.raises(EngineError):
            select_constraints(korteweg_model, mode="pruned", max_order=1)

    def test_negative_order_cap_rejected(self, korteweg_model):
        # The CLI rejects it first (exit 2); library callers get the engine's check.
        with pytest.raises(EngineError, match="nonnegative"):
            select_constraints(korteweg_model, mode="all", max_order=-1)

    def test_unknown_mode_rejected(self, korteweg_model):
        with pytest.raises(EngineError):
            select_constraints(korteweg_model, mode="some")


class TestGrade2Multipliers:
    """The eight eliminated multipliers of the first-order gradient fluid."""

    @pytest.mark.parametrize(
        "i,k,expected",
        [
            (1, 0, "rho*D(s, rho)"),
            (2, 0, "-rho_x*D(s, v_x)/rho"),
            (3, 0, "D(s, eps) - rho_x*D(s, eps_x)/rho"),
            (4, 0, "D(s, gamma) - rho_x*D(s, gamma_x)/rho"),
            (1, 1, "rho*D(s, rho_x)"),
            (2, 1, "D(s, v_x)"),
            (3, 1, "D(s, eps_x)"),
            (4, 1, "D(s, gamma_x)"),
        ],
    )
    def test_multiplier_normal_forms(self, grade2_model, grade2_report, i, k, expected):
        want = parse(expected, model_ctx(grade2_model))
        assert grade2_report.multiplier(i, k) == want

    def test_multiplier_accessor_raises_on_missing(self, grade2_report):
        with pytest.raises(KeyError):
            grade2_report.multiplier(1, 2)

    def test_multipliers_are_state_functions(self, grade2_model, grade2_report):
        state = set(grade2_model.space.members)
        for _i, _k, v in grade2_report.multipliers:
            assert set(v.jets()) <= state


class TestGrade2Equalities:
    def test_equality_labels(self, grade2_report):
        labels = {e.label for e in grade2_report.restrictions.equalities}
        assert labels == {
            "coefficient of rho_xxx",
            "coefficient of v_xxx",
            "coefficient of eps_xxx",
            "coefficient of gamma_xxx",
            "coefficient of rho_xx",
            "coefficient of v_xx",
            "coefficient of eps_xx",
            "coefficient of gamma_xx",
        }

    @pytest.mark.parametrize("slot", ["rho_x", "v_x", "eps_x", "gamma_x"])
    def test_flux_equalities(self, grade2_model, grade2_report, slot):
        # The coefficient of the third gradient in slot direction z is the
        # cross-constitutive combination s_{v_x} T_z - s_{eps_x} q_z -
        # s_{gamma_x} Jg_z, fixed up to overall sign normalization.
        label = f"coefficient of {slot.split('_')[0]}_xxx"
        expr = next(
            e.expr for e in grade2_report.restrictions.equalities if e.label == label
        )
        t = parse(
            f"D(s, v_x)*D(T, {slot}) - D(s, eps_x)*D(q, {slot}) - D(s, gamma_x)*D(Jg, {slot})",
            model_ctx(grade2_model),
        )
        assert expr == t or expr == -t


class TestKortewegDerivation:
    """Second-order density gradients: the capillary fluid setting."""

    def test_multiplier_values(self, korteweg_model, korteweg_report):
        e = lambda t: parse(t, model_ctx(korteweg_model))
        assert korteweg_report.multiplier(1, 0) == e("rho*D(s, rho)")
        assert korteweg_report.multiplier(2, 0) == e("-rho_x*D(s, v_x)/rho")
        assert korteweg_report.multiplier(3, 0) == e(
            "D(s, eps) - rho_x*D(s, eps_x)/rho"
        )
        assert korteweg_report.multiplier(1, 1) == e("rho*D(s, rho_x)")
        assert korteweg_report.multiplier(2, 1) == e("D(s, v_x)")
        assert korteweg_report.multiplier(3, 1) == e("D(s, eps_x)")
        # The single second-order multiplier pairs the entropy's dependence on
        # the second density gradient with the twice-extended mass law.
        assert korteweg_report.multiplier(1, 2) == e("rho*D(s, rho_xx)")

    def test_elimination_annihilates_every_time_jet(self, korteweg_model):
        dec = decouple(korteweg_model)
        sel = select_constraints(korteweg_model)
        ineq = constrained_inequality(korteweg_model, dec, sel)
        sol = solve_multipliers(korteweg_model, dec, sel, ineq)
        assert not any(a.t_order for a in sol.reduced.jets())

    def test_substituting_multipliers_reproduces_reduction(self, korteweg_model):
        dec = decouple(korteweg_model)
        sel = select_constraints(korteweg_model)
        ineq = constrained_inequality(korteweg_model, dec, sel)
        sol = solve_multipliers(korteweg_model, dec, sel, ineq)
        bind = {multiplier_symbol(i, k): v for i, k, v in sol.values}
        assert (ineq.subs(bind) - sol.reduced).is_zero

    def test_multipliers_are_state_functions(self, korteweg_model, korteweg_report):
        state = set(korteweg_model.space.members)
        for _i, _k, v in korteweg_report.multipliers:
            assert set(v.jets()) <= state

    def test_equality_labels_are_the_higher_band(self, korteweg_report):
        labels = {e.label for e in korteweg_report.restrictions.equalities}
        assert labels == {
            "coefficient of v_xx",
            "coefficient of v_xxx",
            "coefficient of eps_xx",
            "coefficient of eps_xxx",
            "coefficient of rho_xxx",
            "coefficient of rho_xxxx",
        }

    def test_no_banned_jets_in_restrictions(self, korteweg_report):
        banned = set(korteweg_report.classification.highest) | set(
            korteweg_report.classification.higher
        )
        r = korteweg_report.restrictions
        exprs = [e.expr for e in r.equalities] + [r.residual]
        if r.quadratic is not None:
            exprs += [e for _, _, e in r.quadratic.entries]
            exprs += [d for _, d in r.quadratic.minors]
        for f in r.even_forms:
            exprs += [c for _, c in f.entries]
        for expr in exprs:
            assert not (expr.jets() & banned)

    def test_full_extension_grid_spends_extra_multipliers_on_zero(
        self, korteweg_report, korteweg_report_all
    ):
        pruned_keys = {(i, k) for i, k, _ in korteweg_report.multipliers}
        extra = [
            (i, k, v)
            for i, k, v in korteweg_report_all.multipliers
            if (i, k) not in pruned_keys
        ]
        assert {(i, k) for i, k, _ in extra} == {(2, 2), (3, 2)}
        assert all(v.is_zero for _, _, v in extra)

    def test_pruning_is_conservative(self, korteweg_report, korteweg_report_all):
        assert same_restrictions(
            korteweg_report.restrictions, korteweg_report_all.restrictions
        )


def _model_named(name: str) -> ModelSpec:
    if name in liukit.builtin_names():
        return liukit.load_builtin(name)
    if name in RATIONAL_INPUTS:
        file, line, replacement = RATIONAL_INPUTS[name][:3]
        return parse_model(_read(file).replace(line, replacement), name)
    if name.startswith("generated-"):
        return parse_model(generated_model(int(name.rpartition("-")[2])), name)
    return liukit.load_model(os.path.join(ROOT, "bench", "fixtures", name + ".model"))


@pytest.mark.parametrize(
    "name",
    ["grade2", "korteweg", "korteweg-eps2", "korteweg-o3", *(f"generated-{s}" for s in SEEDS)],
)
def test_equality_expressions_are_jet_poor(name):
    # Every derivative outside the state space is free, so no restriction
    # keeps one: at every extension order, and pruned, each emitted
    # expression holds state variables and bare fields only.
    model = _model_named(name)
    allowed = set(model.space.members) | {JetVariable(f) for f in model.fields}
    pruned = derive(model)
    reports = [derive(model, "all", k) for k in range(model.space.order + 1)] + [pruned]
    for report in reports:
        r = report.restrictions
        exprs = [e.expr for e in r.equalities] + [r.residual]
        if r.quadratic is not None:
            exprs += [e for _, _, e in r.quadratic.entries]
        for f in r.even_forms:
            exprs += [c for _, c in f.entries]
        for expr in exprs:
            assert expr.jets() <= allowed, (report.mode, report.selection.entries, to_text(expr))
    # Pruning keeps every multiplier the solve needs: no time jet goes unreached.
    time_labels = {f"coefficient of {z.text()}" for z in pruned.classification.highest if z.t_order}
    assert not time_labels & {e.label for e in pruned.restrictions.equalities}


class TestMultiplierSolve:
    """Decoupling leaves one order-k multiplier in each mixed time-jet coefficient."""

    @pytest.mark.parametrize("mode", ["pruned", "all"])
    @pytest.mark.parametrize("name", ["grade2", "korteweg", "korteweg-eps2", "korteweg-o3"])
    def test_each_coefficient_holds_its_own_multiplier_times_minus_the_pivot(self, name, mode):
        model = _model_named(name)
        dec = decouple(model)
        sel = select_constraints(model, mode)
        ineq = constrained_inequality(model, dec, sel)
        for i, k in sel.entries:
            level = [multiplier_symbol(ii, kk) for ii, kk in sel.entries if kk == k]
            own = tuple(int(lam == multiplier_symbol(i, k)) for lam in level)
            eq = ineq.collect([JetVariable(model.fields[i - 1], 1, k)])[(1,)]
            buckets = eq.collect(level)
            assert buckets[own] == -dec.rows[i - 1].pivot
            assert all(sum(idx) == 0 or idx == own for idx in buckets)

    @pytest.mark.parametrize(
        "extra, message",
        [
            (lambda lam, rho_t: rho_t**2, "constrained inequality is not linear in a mixed time jet"),
            (lambda lam, rho_t: lam(1, 0) ** 2 * rho_t, "coefficient equation is not affine in the multipliers"),
            (lambda lam, rho_t: lam(2, 0) * rho_t, "elimination left a coupled equation behind"),
        ],
        ids=["nonlinear-jet", "nonaffine", "coupled"],
    )
    def test_invariant_failures(self, korteweg_model, extra, message):
        dec = decouple(korteweg_model)
        sel = select_constraints(korteweg_model)
        ineq = constrained_inequality(korteweg_model, dec, sel)
        term = extra(lambda i, k: Expression.sym(multiplier_symbol(i, k)), Expression.jet(JetVariable("rho", 1, 0)))
        with pytest.raises(EngineError, match=f"^{re.escape(message)}$"):
            solve_multipliers(korteweg_model, dec, sel, ineq + term)

    def test_unreached_time_jet_is_emitted_as_an_equality(self, korteweg_model):
        # The pruned selection has no order-2 multiplier for eps, so the solve
        # leaves eps_txx alone and the one highest-jet split emits it.
        dec = decouple(korteweg_model)
        sel = select_constraints(korteweg_model)
        ineq = constrained_inequality(korteweg_model, dec, sel)
        sol = solve_multipliers(korteweg_model, dec, sel, ineq + parse("eps_txx", ParseContext(korteweg_model.fields)))
        cls = classify(korteweg_model.space, korteweg_model.fields)
        equalities = emit_restrictions(korteweg_model, cls, sol.reduced).equalities
        assert ("coefficient of eps_txx", "1") in [(e.label, to_text(e.expr)) for e in equalities]

    def test_missing_multiplier(self, korteweg_model):
        dec = decouple(korteweg_model)
        sel = select_constraints(korteweg_model)
        name = re.escape(multiplier_symbol(1, 2).name)
        with pytest.raises(EngineError, match=f"^no equation determines {name}$"):
            solve_multipliers(korteweg_model, dec, sel, Expression.jet(JetVariable("rho", 1, 2)))


class TestDiagnostics:
    def test_grade2(self, grade2_report):
        d = dict(grade2_report.diagnostics)
        assert d["zetaDegree"] == 1
        assert d["etaDegree"] == 2
        assert d["etaDegreeBound"] == 2
        assert d["constraintCount"] == 8
        assert d["equalityCount"] == 8
        assert d["highestCount"] == 12
        assert d["higherCount"] == 4
        assert d["classical"] is False

    def test_korteweg_pruned(self, korteweg_report):
        d = dict(korteweg_report.diagnostics)
        assert d["zetaDegree"] == 1
        assert d["etaDegree"] == 2
        assert d["etaDegreeBound"] == 3
        assert d["constraintCount"] == 7
        assert d["highestCount"] == 12
        assert d["higherCount"] == 6

    def test_korteweg_full_grid_attains_the_degree_bound(self, korteweg_report_all):
        d = dict(korteweg_report_all.diagnostics)
        assert d["etaDegree"] == 3
        assert d["etaDegreeBound"] == 3
        assert d["constraintCount"] == 9

    @pytest.mark.parametrize("name", ["grade2", "korteweg"])
    def test_two_parses_give_equal_reports_with_equal_hashes(self, name):
        # The diagnostics are (key, value) pairs in key order, so a report
        # hashes by value like every record it holds.
        a, b = (derive(load_builtin(name)) for _ in range(2))
        assert a.model is not b.model
        assert a == b and hash(a) == hash(b)
        assert [k for k, _ in a.diagnostics] == sorted(k for k, _ in a.diagnostics)


class TestLocalStateSpace:
    def test_degenerates_to_classical_procedure(self):
        m = _local_model()
        r = derive(m)
        e = lambda t: parse(t, model_ctx(m))
        assert dict(r.diagnostics)["classical"] is True
        assert r.multiplier(1, 0) == e("D(s, u)")
        assert len(r.restrictions.equalities) == 1
        eq = r.restrictions.equalities[0]
        assert eq.label == "coefficient of u_x"
        t = e("D(Js, u) - u*D(s, u)")
        assert eq.expr == t or eq.expr == -t
        assert r.restrictions.residual.is_zero
        assert r.restrictions.quadratic is None
        assert "classical" in report_text(r)


class TestSameRestrictions:
    def test_grade2_modes_agree(self, grade2_model, grade2_report):
        other = derive(grade2_model, mode="all")
        assert same_restrictions(grade2_report.restrictions, other.restrictions)

    def test_different_models_disagree(self, grade2_report, korteweg_report):
        assert not same_restrictions(
            grade2_report.restrictions, korteweg_report.restrictions
        )

    def test_forms_compare_by_their_entry_sets(self, korteweg_report):
        r = korteweg_report.restrictions
        q = r.quadratic
        assert same_restrictions(r, r._replace(quadratic=q._replace(entries=q.entries[::-1])))
        assert not same_restrictions(r, r._replace(quadratic=q._replace(entries=q.entries[1:])))
        assert not same_restrictions(r, r._replace(quadratic=None))
        assert not same_restrictions(r._replace(quadratic=None), r)


class TestQuadraticForm:
    """A form is its entries: its minors are expanded where they are read."""

    def test_holds_only_its_entries(self):
        assert QuadraticForm._fields == ("variables", "entries")
        assert not hasattr(QuadraticForm, "matrix")

    @pytest.mark.parametrize("name", ["grade2", "korteweg", "korteweg-eps2", "korteweg-o3"])
    def test_derive_expands_no_minor(self, name, minor_calls):
        report = derive(_model_named(name))
        assert report.restrictions.quadratic is not None
        assert minor_calls == []

    def test_minors_run_over_the_named_indices_in_report_order(self):
        c = lambda t: parse(t, ParseContext())
        jets = tuple(JetVariable("u", 0, k) for k in range(1, 4))
        q = QuadraticForm(jets, ((0, 0, c("2")), (0, 2, c("1")), (2, 2, c("3"))))
        assert q.minors == (((0,), c("2")), ((2,), c("3")), ((0, 2), c("5")))
        # A zero entry names its index too: the subsets run over it.
        zero_row = q._replace(entries=q.entries + ((1, 1, ZERO),))
        assert [sub for sub, _ in zero_row.minors] == [
            (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)
        ]
        assert [d for _, d in zero_row.minors] == [c(t) for t in ("2", "0", "3", "0", "5", "0", "0")]
        assert QuadraticForm(jets, ()).minors == ()

    def test_minor_terms_bound_the_expansion(self):
        # Rows (2, 1) and (1, 3) terms: the 2x2 minor forms 3 * 4 products.
        c = lambda t: parse(t, ParseContext(fields=("u", "w")))
        jets = tuple(JetVariable("u", 0, k) for k in range(1, 3))
        q = QuadraticForm(jets, ((0, 0, c("u + w")), (0, 1, c("u/w")), (1, 1, c("1 + u + w"))))
        assert q.minor_terms() == 2 + 3 + 3 * 4
        assert QuadraticForm(jets, ()).minor_terms() == 0

    @pytest.mark.parametrize("name", ["grade2", "korteweg", "korteweg-eps2"])
    def test_minor_terms_bound_the_printed_minors(self, name, minor_calls):
        q = derive(_model_named(name)).restrictions.quadratic
        bound = q.minor_terms()
        assert minor_calls == []
        assert sum(len(d._n) for _, d in q.minors) <= bound


class TestModelHash:
    def test_stable_and_distinct(self, grade2_model, korteweg_model):
        h1 = model_hash(grade2_model)
        assert h1 == model_hash(grade2_model)
        assert h1 != model_hash(korteweg_model)
        assert len(h1) == 64 and all(c in "0123456789abcdef" for c in h1)


class TestSerialization:
    def test_json_dict_schema(self, grade2_report):
        d = report_json_dict(grade2_report)
        assert set(d) == {
            "model", "hash", "mode", "fields", "velocity", "state",
            "classification", "selection", "decoupling", "multipliers",
            "equalities", "quadraticForm", "evenForms", "residual",
            "sideConditions", "diagnostics",
        }
        cls = d["classification"]
        assert set(cls) == {"state", "highest", "higher", "hatZ"}
        assert cls["hatZ"] == ["eps_x", "gamma_x", "rho_x", "v_x"]
        assert cls["state"] == [
            "eps", "eps_x", "gamma", "gamma_x", "rho", "rho_x", "v_x",
        ]
        assert len(d["multipliers"]) == 8
        assert d["mode"] == "pruned"
        assert d["diagnostics"]["classical"] is False

    def test_json_is_stable_and_parsable(self, grade2_report):
        blob = stable_json(report_json_dict(grade2_report))
        assert blob == stable_json(report_json_dict(grade2_report))
        back = json.loads(blob)
        assert back["model"] == "grade2"

    def test_classification_lists_match_report(self, korteweg_report):
        d = report_json_dict(korteweg_report)
        assert d["classification"]["highest"] == [
            w.text() for w in korteweg_report.classification.sorted_highest()
        ]
        assert d["classification"]["higher"] == [
            w.text() for w in korteweg_report.classification.sorted_higher()
        ]

    def test_text_report_sections(self, grade2_report):
        txt = report_text(grade2_report)
        assert "model grade2" in txt
        assert "multipliers:" in txt
        assert "equalities:" in txt
        assert "residual production" in txt

    def test_latex_report(self, grade2_report):
        lat = report_latex(grade2_report)
        assert r"\Lambda" in lat
        assert r"\rho" in lat

    def test_even_forms_in_every_format(self, korteweg_report):
        # No built-in derivation has an even form of degree 4 or more.
        ctx = model_ctx(korteweg_report.model)
        form = EvenForm(
            4,
            (JetVariable("eps", 0, 1), JetVariable("rho", 0, 1)),
            (((0, 4), parse("rho", ctx)), ((2, 2), parse("-2*D(s, rho_x)", ctx))),
        )
        plain = korteweg_report.restrictions
        report = korteweg_report._replace(restrictions=plain._replace(even_forms=(form,)))
        record = report_json_dict(report)
        assert record["evenForms"] == [
            {
                "degree": 4,
                "entries": [
                    {"monomial": "rho_x^4", "value": "rho"},
                    {"monomial": "eps_x^2*rho_x^2", "value": "-2*D(s, rho_x)"},
                ],
            }
        ]
        text = report_text(report)
        assert text == format_report(json.loads(stable_json(record)))
        assert "even form of degree 4:\n  coeff[rho_x^4] = rho\n" in text
        assert "  coeff[eps_x^2*rho_x^2] = -2*D(s, rho_x)\n" in text
        lat = report_latex(report)
        assert (
            "\\subsection*{Even forms}\n\\begin{align*}\n"
            "c^{(4)}_{\\rho_{,x}^{4}} &= \\rho \\\\\n"
            "c^{(4)}_{\\varepsilon_{,x}^{2}\\,\\rho_{,x}^{2}} &= "
            "-2 \\, \\frac{\\partial s}{\\partial \\rho_{,x}} \\\\\n"
            "\\end{align*}\n\\subsection*{Residual production}"
        ) in lat
        assert "Even forms" not in report_latex(korteweg_report)

    def test_json_does_not_depend_on_atom_creation_order(self, korteweg_report):
        # A fresh process derives korteweg once to learn its atoms; a second
        # one creates them in reverse canonical order before deriving.
        atoms = _python(_LIST_ATOMS)
        blob = _python(_DERIVE_AFTER_ATOMS, atoms)
        assert blob.decode() == stable_json(report_json_dict(korteweg_report))


# The only known inputs whose derive calls poly_gcd, built from the shipped
# files as CI's "Rational input" step builds them: grade2 with a rational
# production added to its internal balance, and korteweg with its mass law
# replaced by mass + energy.  SHA-256 of the pruned JSON and LaTeX reports.
_GRADE2_FLUX = "flux = rho*gamma*v + Jg\n"
_KORTEWEG_MASS = "density = rho\nflux = rho*v\n"
RATIONAL_INPUTS = {
    "rational grade2": (
        "grade2.model", _GRADE2_FLUX, _GRADE2_FLUX + "production = gamma/(1 + rho)\n",
        "e749c59d8d9e01eab68822973d3eeff7f41b8255ee71e0bb0aeaedf6e7f1b0fb",
        "04f08f410ddacb3ddc5993743e0a214004fa0d0ac17e1192510c332245c61938",
    ),
    "korteweg, mass + energy": (
        "korteweg.model", _KORTEWEG_MASS,
        "density = rho + rho*eps + 1/2*rho*v^2\nflux = rho*v + (rho*eps + 1/2*rho*v^2)*v - T*v + q\n",
        "806a710c94526360af470590b16dacc49f5df1402c28740de803895535eb3553",
        "0f4a6833ed3f8af810435681b0600e8ef3a741f05e92202d458bf6d949bd9fe7",
    ),
}


@pytest.mark.parametrize("name", sorted(RATIONAL_INPUTS))
def test_rational_input_reports_are_pinned(name, monkeypatch):
    file, line, replacement, json_sha, latex_sha = RATIONAL_INPUTS[name]
    text = _read(file)
    assert line in text
    calls = []
    gcd = expr_mod.poly_gcd
    monkeypatch.setattr(expr_mod, "poly_gcd", lambda p, q: calls.append(1) or gcd(p, q))
    report = derive(parse_model(text.replace(line, replacement), name))
    assert calls
    assert hashlib.sha256(stable_json(report_json_dict(report)).encode()).hexdigest() == json_sha
    assert hashlib.sha256(report_latex(report).encode()).hexdigest() == latex_sha


def _assembled(model: ModelSpec, mode: str) -> LiuReport:
    """The report as `bench/probe.py`'s traced run assembles it, phase by phase.

    It builds the whole constrained inequality, solves the multipliers on it
    with `solve_multipliers` and reads both degrees from it; `derive` works
    on the inequality's pieces instead.
    """
    cls = classify(model.space, model.fields)
    dec = decouple(model)
    selection = select_constraints(model, mode=mode)
    ineq = constrained_inequality(model, dec, selection)
    sol = solve_multipliers(model, dec, selection, ineq)
    higher = cls.sorted_higher()
    restrictions = emit_restrictions(model, cls, sol.reduced)
    diagnostics = {
        "zetaDegree": ineq.degree_in(cls.sorted_highest()) if cls.highest else 0,
        "etaDegree": ineq.degree_in(higher) if higher else 0,
        "etaDegreeBound": model.space.order + 1,
        "constraintCount": len(selection.entries),
        "equalityCount": len(restrictions.equalities),
        "highestCount": len(cls.highest),
        "higherCount": len(cls.higher),
        "classical": all(k == 0 for _, k in selection.entries),
    }
    return LiuReport(model, selection.mode, cls, selection, dec, sol.values, restrictions, sol.nonzero,
                     tuple(sorted(diagnostics.items())))


@pytest.mark.parametrize(
    "name, mode",
    [(name, mode) for name in ("grade2", "korteweg", "korteweg-eps2", "korteweg-o3", *(f"generated-{s}" for s in SEEDS))
     for mode in ("pruned", "all")] + [(name, "pruned") for name in sorted(RATIONAL_INPUTS)],
)
def test_derive_equals_the_phase_by_phase_assembly(name, mode):
    # The benchmark's traced run hashes the assembled report against the
    # plain one, so the two paths must agree on every input.  The rational
    # inputs run pruned only: assembling mass + energy's full inequality
    # takes about 10 s.
    model = _model_named(name)
    assert derive(model, mode) == _assembled(model, mode)


def _python(code: str, stdin: bytes = b"") -> bytes:
    """Run code in a fresh interpreter that imports this liukit."""
    src = os.path.dirname(os.path.dirname(liukit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


_LIST_ATOMS = """
import pickle, sys
from liukit.jet import ATOMS
from liukit.liu import derive
from liukit.models import load_builtin

derive(load_builtin("korteweg"))
keys = [(a.field, a.t_order, a.x_order) if a.atom_key[0] == 0 else (a.name, [d.sort_key() for d in a.deps], a.orders)
        for a in sorted(ATOMS, key=lambda a: a.atom_key, reverse=True)]
sys.stdout.buffer.write(pickle.dumps(keys))
"""

_DERIVE_AFTER_ATOMS = """
import pickle, sys
from liukit.expr import FuncSym
from liukit.jet import ATOMS, JetVariable
from liukit.liu import derive, report_json_dict
from liukit.models import load_builtin
from liukit._util import stable_json

for key in pickle.loads(sys.stdin.buffer.read()):
    if isinstance(key[1], int):
        JetVariable(*key)
    else:
        name, deps, orders = key
        FuncSym(name, [JetVariable(*d) for d in deps], orders)
syms = [a for a in ATOMS if isinstance(a, FuncSym)]
assert syms == sorted(syms, key=lambda a: a.atom_key, reverse=True)
sys.stdout.write(stable_json(report_json_dict(derive(load_builtin("korteweg")))))
"""
