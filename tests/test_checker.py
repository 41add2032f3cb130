"""Candidate verification: equalities, numeric scenarios, equilibrium concavity."""
from __future__ import annotations

import hashlib
import json
import os

import pytest

from liukit.balance import BalanceLaw, EntropyDeclaration, ModelSpec
from liukit.checker import (
    CandidateSolution,
    CheckError,
    Condition,
    NumericScenario,
    binding_singularities,
    check,
    check_equalities,
    check_json_dict,
    check_text,
    max_entropy_at_equilibrium,
    run_scenario,
    validate_solution,
)
from liukit.cli import main
from liukit.expr import Expression, FuncSym, ParseContext, Substitution, ZERO, parse, principal_minors
from liukit.jet import JetVariable, StateSpace
from liukit.liu import EvenForm, Restrictions, derive, quadratic_form

RHO_X = JetVariable("rho", 0, 1)


def _replace_binding(solution: CandidateSolution, name: str, value) -> CandidateSolution:
    bindings = tuple(
        (sym, value if sym.name == name else expr) for sym, expr in solution.bindings
    )
    return solution._replace(bindings=bindings)


def _solution_ctx(model, solution) -> ParseContext:
    """Parsing context covering the model symbols plus the solution ansatz."""
    ctx = ParseContext(fields=model.ctx.fields, syms=dict(model.ctx.syms))
    for a in solution.ansatz:
        ctx.declare_sym(a.name, a.deps)
    return ctx


def _let_atom(scenario: NumericScenario, name: str):
    for atom, _value in scenario.lets:
        if getattr(atom, "name", None) == name:
            return atom
    raise KeyError(name)


def _scenario(solution: CandidateSolution, name: str) -> NumericScenario:
    for sc in solution.scenarios:
        if sc.name == name:
            return sc
    raise KeyError(name)


def _local_setup():
    u = JetVariable("u")
    ctx = ParseContext(fields=("u",))
    ctx.declare_sym("s", (u,))
    ctx.declare_sym("Js", (u,))
    ctx.declare_sym("a", (u,))
    ctx.declare_sym("c", (u,))
    e = lambda t: parse(t, ctx)
    model = ModelSpec(
        "local", ("u",), None, StateSpace(0, (u,)),
        (BalanceLaw("mass", e("u"), e("1/2*u^2")),),
        EntropyDeclaration("divergence", e("s"), e("Js"), e("1")),
        (ctx.sym("s"), ctx.sym("Js")), ctx,
    )
    return model, ctx, e


class TestValidateSolution:
    def test_fixture_solutions_validate(self, grade2_model, grade2_solution):
        validate_solution(grade2_model, grade2_solution)

    def test_unknown_binding_target(self, grade2_model, grade2_solution):
        bad = grade2_solution._replace(
            bindings=grade2_solution.bindings
            + ((grade2_model.ctx.declare_sym("extra", ()), ZERO),),
        )
        with pytest.raises(CheckError) as ei:
            validate_solution(grade2_model, bad)
        assert "not a model unknown" in str(ei.value)

    def test_missing_binding(self, grade2_model, grade2_solution):
        bad = grade2_solution._replace(bindings=grade2_solution.bindings[:-1])
        with pytest.raises(CheckError) as ei:
            validate_solution(grade2_model, bad)
        assert "unbound" in str(ei.value)

    def test_double_binding(self, grade2_model, grade2_solution):
        bad = grade2_solution._replace(
            bindings=grade2_solution.bindings + grade2_solution.bindings[-1:]
        )
        with pytest.raises(CheckError) as ei:
            validate_solution(grade2_model, bad)
        assert "bound twice" in str(ei.value)

    def test_derivative_binding_rejected(self, grade2_model, grade2_solution):
        sym = grade2_model.unknown("s")
        deriv = sym.bump(sym.deps[0])
        bad = grade2_solution._replace(
            bindings=grade2_solution.bindings[:-1] + ((deriv, ZERO),)
        )
        with pytest.raises(CheckError) as ei:
            validate_solution(grade2_model, bad)
        assert "base symbol" in str(ei.value)

    def test_dependency_mismatch_rejected(self, grade2_model, grade2_solution):
        narrow = FuncSym("Js", (JetVariable("rho"),))
        bindings = tuple(
            (narrow, expr) if sym.name == "Js" else (sym, expr)
            for sym, expr in grade2_solution.bindings
        )
        bad = grade2_solution._replace(bindings=bindings)
        with pytest.raises(CheckError) as ei:
            validate_solution(grade2_model, bad)
        assert "declared dependencies" in str(ei.value)


class TestCheckEqualities:
    def test_fixture_equalities_all_identical(self, grade2_report, grade2_solution):
        statuses, failures = check_equalities(grade2_report, grade2_solution)
        assert failures == []
        assert len(statuses) == 8
        assert all(st.status == "identical" for st in statuses)
        assert all(st.remainder.is_zero for st in statuses)

    def test_korteweg_equalities_all_identical(self, korteweg_report, korteweg_solution):
        statuses, failures = check_equalities(korteweg_report, korteweg_solution)
        assert failures == []
        assert len(statuses) == 6
        assert all(st.status == "identical" for st in statuses)

    def test_sign_flip_breaks_equalities(self, grade2_report, grade2_solution):
        flipped = None
        for sym, expr in grade2_solution.bindings:
            if sym.name == "Js":
                flipped = -expr
        bad = _replace_binding(grade2_solution, "Js", flipped)
        statuses, failures = check_equalities(grade2_report, bad)
        assert failures
        assert any(st.status == "failed" for st in statuses)
        assert any(not st.remainder.is_zero for st in statuses)

    def test_conditional_status_uses_declared_equality(self):
        model, ctx, e = _local_setup()
        report = derive(model)
        cond = Condition("fluxrate", "eq", e("D(c, u)"), e("u*D(a, u)"))
        sol = CandidateSolution(
            ansatz=(ctx.sym("a"), ctx.sym("c")),
            bindings=((ctx.sym("s"), e("a")), (ctx.sym("Js"), e("c"))),
            conditions=(cond,),
            scenarios=(),
        )
        statuses, failures = check_equalities(report, sol)
        assert failures == []
        assert len(statuses) == 1
        assert statuses[0].status == "conditional"
        assert statuses[0].conditions_used == ("fluxrate",)

    def test_failed_without_the_condition(self):
        model, ctx, e = _local_setup()
        report = derive(model)
        sol = CandidateSolution(
            ansatz=(ctx.sym("a"), ctx.sym("c")),
            bindings=((ctx.sym("s"), e("a")), (ctx.sym("Js"), e("c"))),
            conditions=(),
            scenarios=(),
        )
        statuses, failures = check_equalities(report, sol)
        assert statuses[0].status == "failed"
        assert failures and "does not vanish" in failures[0]


class TestRunScenario:
    def test_fourier_scenario_passes(self, grade2_model, grade2_report, grade2_solution):
        res = run_scenario(
            grade2_model, grade2_report, grade2_solution, _scenario(grade2_solution, "fourier")
        )
        assert res.as_expected and res.failure is None
        assert res.points == 64
        assert res.violations == 0
        assert res.min_residual >= -1e-9
        assert res.worst_minor is None  # the quadratic form vanishes when bound

    def test_violate_scenario_finds_witness(self, grade2_model, grade2_report, grade2_solution):
        res = run_scenario(
            grade2_model, grade2_report, grade2_solution, _scenario(grade2_solution, "counterflow")
        )
        assert res.expect == "violate"
        assert res.violations > 0
        assert res.as_expected and res.failure is None

    def test_deterministic_for_fixed_seed(self, grade2_model, grade2_report, grade2_solution):
        sc = _scenario(grade2_solution, "fourier")
        a = run_scenario(grade2_model, grade2_report, grade2_solution, sc)
        b = run_scenario(grade2_model, grade2_report, grade2_solution, sc)
        assert a == b

    def test_sample_count_override(self, grade2_model, grade2_report, grade2_solution):
        sc = _scenario(grade2_solution, "fourier")
        res = run_scenario(grade2_model, grade2_report, grade2_solution, sc, samples=16)
        assert res.points == 16

    def test_expected_violation_missing_is_a_failure(
        self, korteweg_model, korteweg_report, korteweg_solution
    ):
        sc = _scenario(korteweg_solution, "fourier")._replace(expect="violate")
        res = run_scenario(korteweg_model, korteweg_report, korteweg_solution, sc)
        assert not res.as_expected
        assert "expected a violation" in res.failure

    def test_declared_condition_violation_fails_hard(
        self, korteweg_model, korteweg_report, korteweg_solution
    ):
        sc = _scenario(korteweg_solution, "fourier")
        q2 = _let_atom(sc, "q2")
        lets = tuple((a, v) for a, v in sc.lets if a != q2) + (
            (q2, Expression.number(-1)),
        )
        bad = sc._replace(lets=lets)
        res = run_scenario(korteweg_model, korteweg_report, korteweg_solution, bad)
        assert res.failure is not None and "fails at sample" in res.failure
        assert not res.as_expected

    def test_missing_let_is_reported(self, grade2_model, grade2_report, grade2_solution):
        sc = _scenario(grade2_solution, "fourier")
        q1 = _let_atom(sc, "q1")
        pruned = sc._replace(lets=tuple((a, v) for a, v in sc.lets if a != q1))
        with pytest.raises(CheckError) as ei:
            run_scenario(grade2_model, grade2_report, grade2_solution, pruned)
        assert str(ei.value) == "scenario 'fourier' leaves q1 without a value; bind it with a let line"

    def test_unknown_range_variable_rejected(self, grade2_model, grade2_report, grade2_solution):
        sc = _scenario(grade2_solution, "fourier")._replace(
            ranges=((JetVariable("w"), 0.0, 1.0),),
        )
        with pytest.raises(CheckError) as ei:
            run_scenario(grade2_model, grade2_report, grade2_solution, sc)
        assert "unknown variable" in str(ei.value)

    def test_everywhere_singular_sampling_gives_up(
        self, grade2_model, grade2_report, grade2_solution
    ):
        sc = _scenario(grade2_solution, "fourier")
        q1 = _let_atom(sc, "q1")
        lets = tuple((a, v) for a, v in sc.lets if a != q1) + (
            (q1, parse("1/(rho_x - 1)", grade2_model.ctx)),
        )
        stuck = sc._replace(lets=lets, ranges=((RHO_X, 1.0, 1.0),))
        res = run_scenario(grade2_model, grade2_report, grade2_solution, stuck)
        assert res.failure is not None and "singular" in res.failure
        assert res.points == 0

    def test_even_forms_are_sampled(self, grade2_model, grade2_report):
        eps_xx = JetVariable("eps", 0, 2)
        empty = CandidateSolution((), (), (), ())

        def with_form(sign: int):
            form = EvenForm(4, (eps_xx,), (((4,), Expression.number(sign)),))
            restr = Restrictions((), None, (form,), ZERO)
            return grade2_report._replace(restrictions=restr)

        pos = run_scenario(
            grade2_model, with_form(1), empty,
            NumericScenario("quartic", 32, 11, 1e-9, "pass", (), ()),
        )
        assert pos.as_expected and pos.violations == 0
        assert pos.worst_minor is not None and pos.worst_minor >= 0.0
        neg = run_scenario(
            grade2_model, with_form(-1), empty,
            NumericScenario("quartic", 32, 11, 1e-9, "violate", (), ()),
        )
        assert neg.as_expected and neg.violations > 0
        assert neg.worst_minor < 0.0

    def test_quadratic_form_minors_are_sampled(self, grade2_model, grade2_report):
        # The shipped closures make every entry of the form vanish, so only
        # this case samples a nonzero minor through a whole scenario.
        jets = (JetVariable("rho", 0, 2), JetVariable("eps", 0, 2))
        empty = CandidateSolution((), (), (), ())
        e = lambda t: parse(t, grade2_model.ctx)

        def with_form(m11: str, m12: str, m22: str):
            # The cross coefficient is 2*M12: quadratic_form halves it.
            items = [((2, 0), e(m11)), ((1, 1), e(f"2*({m12})")), ((0, 2), e(m22))]
            restr = Restrictions((), quadratic_form(jets, items), (), ZERO)
            return grade2_report._replace(restrictions=restr)

        # Minors 1 + rho_x^2, 1 and 1: positive definite everywhere.
        psd = run_scenario(
            grade2_model, with_form("1 + rho_x^2", "rho_x", "1"), empty,
            NumericScenario("psd", 32, 11, 1e-9, "pass", (), ()),
        )
        assert psd.as_expected and psd.failure is None
        assert psd.points == 32 and psd.violations == 0
        assert psd.worst_minor is not None and psd.worst_minor >= 0.0
        # The determinant rho^2 - 4 is negative on the default range of rho.
        indefinite = run_scenario(
            grade2_model, with_form("rho", "2", "rho"), empty,
            NumericScenario("indefinite", 32, 11, 1e-9, "violate", (), ()),
        )
        assert indefinite.as_expected and indefinite.failure is None
        assert indefinite.violations > 0
        assert indefinite.worst_minor < 0.0


class TestNonFiniteSamples:
    """Overflowing or NaN values are singular points, never silent passes."""

    RHO = JetVariable("rho")
    EPS = JetVariable("eps")

    def _run(self, report, residual: str, ranges=()):
        restr = Restrictions((), None, (), parse(residual, report.model.ctx))
        return run_scenario(
            report.model,
            report._replace(restrictions=restr),
            CandidateSolution((), (), (), ()),
            NumericScenario("huge", 32, 11, 1e-9, "pass", tuple(ranges), ()),
        )

    def test_overflow_is_resampled(self, grade2_report):
        # rho^2000 overflows a float for rho above about 1.43.
        res = self._run(grade2_report, "rho^2000")
        assert res.as_expected and res.failure is None
        assert res.points == 32
        assert res.resamples > 0

    def test_nan_residual_does_not_pass(self, grade2_report):
        # Both monomials are inf at every point of the range, so the float
        # sum is inf - inf = nan; the true value is negative.
        res = self._run(
            grade2_report,
            "rho^1000*eps^1000 - rho^1001*eps^1000",
            ((self.RHO, 1.9, 2.0), (self.EPS, 1.9, 2.0)),
        )
        assert not res.as_expected
        assert res.points == 0
        assert "singular" in res.failure

    def test_nan_condition_does_not_pass(self, korteweg_model, korteweg_report, korteweg_solution):
        sc = _scenario(korteweg_solution, "fourier")
        s1 = _let_atom(sc, "s1")
        lets = tuple((a, v) for a, v in sc.lets if a != s1) + (
            (s1, parse("rho^1000*eps^1000 - rho^1001*eps^1000", korteweg_model.ctx)),
        )
        bad = sc._replace(lets=lets, ranges=((self.RHO, 1.9, 2.0), (self.EPS, 1.9, 2.0)))
        res = run_scenario(korteweg_model, korteweg_report, korteweg_solution, bad)
        assert not res.as_expected
        assert res.points == 0

    def test_out_of_range_coefficient_fails_at_once(self, korteweg_model, korteweg_report, korteweg_solution):
        # No sample point can give 10^400 a float value: fail, do not resample.
        sc = _scenario(korteweg_solution, "fourier")
        tau1 = _let_atom(sc, "tau1")
        lets = tuple((a, Expression.number(10**400) if a == tau1 else v) for a, v in sc.lets)
        bad = sc._replace(lets=lets)
        res = run_scenario(korteweg_model, korteweg_report, korteweg_solution, bad)
        assert not res.as_expected
        assert (res.points, res.resamples) == (0, 0)
        assert res.failure == "scenario 'fourier': a coefficient is outside the float range"


class TestMaxEntropyAtEquilibrium:
    def test_fixture_confirmed(self, grade2_model, grade2_solution):
        res = max_entropy_at_equilibrium(grade2_model, grade2_solution)
        assert res.outcome == "confirmed"
        assert "negative semidefinite" in res.detail

    def test_wrong_sign_condition_refutes(self, grade2_model, grade2_solution):
        flipped_conditions = tuple(
            Condition(c.name, "ge", c.lhs, c.rhs) if c.name == "maxent" else c
            for c in grade2_solution.conditions
        )
        sol = grade2_solution._replace(conditions=flipped_conditions)
        res = max_entropy_at_equilibrium(grade2_model, sol)
        assert res.outcome == "refuted"
        assert "wrong sign" in res.detail

    def test_missing_sign_condition_is_undetermined(self, grade2_model, grade2_solution):
        kept = tuple(c for c in grade2_solution.conditions if c.name != "maxent")
        sol = grade2_solution._replace(conditions=kept)
        res = max_entropy_at_equilibrium(grade2_model, sol)
        assert res.outcome == "undetermined"
        assert "not decided" in res.detail

    def test_gradient_linear_entropy_refuted(self, grade2_model, grade2_solution):
        e = lambda t: parse(t, _solution_ctx(grade2_model, grade2_solution))
        sol = _replace_binding(grade2_solution, "s", e("s0 + s1*rho_x"))
        res = max_entropy_at_equilibrium(grade2_model, sol)
        assert res.outcome == "refuted"
        assert "not stationary" in res.detail

    def test_cubic_gradient_entropy_undetermined(self, grade2_model, grade2_solution):
        e = lambda t: parse(t, _solution_ctx(grade2_model, grade2_solution))
        sol = _replace_binding(grade2_solution, "s", e("s0 + s1*rho_x^3"))
        res = max_entropy_at_equilibrium(grade2_model, sol)
        assert res.outcome == "undetermined"
        assert "degree 3" in res.detail

    @pytest.mark.parametrize(
        "entropy, jet",
        [
            ("s0 + s1*rho_x^3 + eps_x", "eps_x"),
            ("s0 + s1*eps_x^3 + rho_x", "rho_x"),
            ("s0 + s1*rho_x^4 + eps_x", "eps_x"),
            ("s0 + s1*eps_x^4 + rho_x", "rho_x"),
        ],
    )
    def test_gradient_linear_term_refutes_whatever_else_is_present(
        self, grade2_model, grade2_solution, entropy, jet
    ):
        # The verdict does not depend on which gradient name sorts first.
        e = lambda t: parse(t, _solution_ctx(grade2_model, grade2_solution))
        sol = _replace_binding(grade2_solution, "s", e(entropy))
        res = max_entropy_at_equilibrium(grade2_model, sol)
        assert res == (
            "refuted",
            f"entropy has a gradient-linear term ({jet}): uniform states are not stationary",
        )

    def test_lowest_degree_above_two_is_named(self, grade2_model, grade2_solution):
        e = lambda t: parse(t, _solution_ctx(grade2_model, grade2_solution))
        sol = _replace_binding(grade2_solution, "s", e("s0 + s1*rho_x^4 + s1*eps_x^3"))
        res = max_entropy_at_equilibrium(grade2_model, sol)
        assert res == (
            "undetermined",
            "entropy has a gradient term of degree 3; only quadratic corrections are decided",
        )

    def test_minors_are_decided_smallest_first(self, grade2_model, grade2_solution):
        # The 2x2 minor over (eps_x, gamma_x) is undecided, but the 1x1 minor
        # over rho_x has the wrong sign and comes first in report order.
        e = lambda t: parse(t, _solution_ctx(grade2_model, grade2_solution))
        entropy = e("s0 + s1*eps_x^2 + s1*gamma_x^2 + k*eps_x*gamma_x - s1*rho_x^2")
        sol = _replace_binding(grade2_solution, "s", entropy)
        res = max_entropy_at_equilibrium(grade2_model, sol)
        assert res == (
            "refuted",
            "minor over (rho_x) has the wrong sign: -s1 with the declared conditions",
        )

    def test_constant_minor_of_the_wrong_sign_refutes(self, grade2_model, grade2_solution):
        e = lambda t: parse(t, _solution_ctx(grade2_model, grade2_solution))
        sol = _replace_binding(grade2_solution, "s", e("s0 + rho_x^2"))
        res = max_entropy_at_equilibrium(grade2_model, sol)
        assert res == (
            "refuted",
            "minor over (rho_x) has the wrong sign: 1 with the declared conditions",
        )

    def test_identically_zero_minor_is_decided(self, grade2_model, grade2_solution):
        # The 1x1 minors are -1; the 2x2 minor over (eps_x, rho_x) is 1 - 1 = 0.
        e = lambda t: parse(t, _solution_ctx(grade2_model, grade2_solution))
        sol = _replace_binding(grade2_solution, "s", e("s0 - (rho_x + eps_x)^2"))
        res = max_entropy_at_equilibrium(grade2_model, sol)
        assert res == ("confirmed", "gradient quadratic form is negative semidefinite")

    def test_sign_condition_with_a_nonconstant_ratio_is_skipped(self, grade2_model, grade2_solution):
        # k/s1 is not constant, so maxent cannot decide the minor k; the
        # second condition does.
        e = lambda t: parse(t, _solution_ctx(grade2_model, grade2_solution))
        sol = _replace_binding(grade2_solution, "s", e("s0 + k*rho_x^2"))
        maxent = Condition("maxent", "le", e("s1"), ZERO)
        kneg = Condition("kneg", "le", e("k"), ZERO)
        res = max_entropy_at_equilibrium(grade2_model, sol._replace(conditions=(maxent, kneg)))
        assert res == ("confirmed", "gradient quadratic form is negative semidefinite")
        res = max_entropy_at_equilibrium(grade2_model, sol._replace(conditions=(maxent,)))
        assert res.outcome == "undetermined"

    def test_gradient_free_entropy_confirmed(self, grade2_model, grade2_solution):
        e = lambda t: parse(t, _solution_ctx(grade2_model, grade2_solution))
        sol = _replace_binding(grade2_solution, "s", e("s0"))
        res = max_entropy_at_equilibrium(grade2_model, sol)
        assert res.outcome == "confirmed"
        assert "no gradient dependence" in res.detail

    def test_nonpolynomial_entropy_undetermined(self, grade2_model, grade2_solution):
        e = lambda t: parse(t, _solution_ctx(grade2_model, grade2_solution))
        sol = _replace_binding(grade2_solution, "s", e("s0/(1 + rho_x)"))
        res = max_entropy_at_equilibrium(grade2_model, sol)
        assert res.outcome == "undetermined"
        assert "not polynomial" in res.detail

    def test_local_state_space_vacuous(self):
        model, ctx, e = _local_setup()
        sol = CandidateSolution(
            ansatz=(ctx.sym("a"),),
            bindings=((ctx.sym("s"), e("a")), (ctx.sym("Js"), e("u*a"))),
            conditions=(),
            scenarios=(),
        )
        res = max_entropy_at_equilibrium(model, sol)
        assert res.outcome == "confirmed"
        assert "no gradient variables" in res.detail


class TestBindingSingularities:
    def test_grade2_records_the_gradient_flux(self, grade2_solution):
        assert binding_singularities(grade2_solution) == (("Jg", "rho_x"),)

    def test_korteweg_has_none(self, korteweg_solution):
        assert binding_singularities(korteweg_solution) == ()


class TestCheckDriver:
    def test_grade2_passes(self, grade2_model, grade2_report, grade2_solution):
        res = check(grade2_model, grade2_report, grade2_solution)
        assert res.ok
        assert res.failures == ()
        assert {s.name for s in res.scenarios} == {"fourier", "counterflow"}
        assert res.concavity.outcome == "confirmed"
        assert res.singularities == (("Jg", "rho_x"),)

    def test_korteweg_passes(self, korteweg_model, korteweg_report, korteweg_solution):
        res = check(korteweg_model, korteweg_report, korteweg_solution)
        assert res.ok
        assert {s.name for s in res.scenarios} == {"fourier", "coupled", "bigshear"}

    def test_broken_candidate_fails(self, grade2_model, grade2_report, grade2_solution):
        flipped = None
        for sym, expr in grade2_solution.bindings:
            if sym.name == "Js":
                flipped = -expr
        bad = _replace_binding(grade2_solution, "Js", flipped)
        res = check(grade2_model, grade2_report, bad)
        assert not res.ok
        assert any("does not vanish" in f for f in res.failures)

    def test_sample_override_reaches_scenarios(
        self, grade2_model, grade2_report, grade2_solution
    ):
        res = check(grade2_model, grade2_report, grade2_solution, samples=8)
        assert all(s.points == 8 for s in res.scenarios)


class TestCheckSerialization:
    def test_json_shape(self, grade2_model, grade2_report, grade2_solution):
        res = check(grade2_model, grade2_report, grade2_solution)
        d = check_json_dict(res)
        assert set(d) == {
            "model", "ok", "equalities", "scenarios", "concavity",
            "singularities", "failures",
        }
        assert d["ok"] is True
        sc = d["scenarios"][0]
        assert set(sc) == {
            "name", "expect", "points", "resamples", "minResidual",
            "worstMinor", "violations", "asExpected", "failure",
        }
        assert d["singularities"] == [{"unknown": "Jg", "jets": "rho_x"}]

    def test_text_rendering(self, grade2_model, grade2_report, grade2_solution):
        res = check(grade2_model, grade2_report, grade2_solution)
        txt = check_text(res)
        assert "check of model grade2: ok" in txt
        assert "singular binding: Jg is undefined where rho_x vanishes" in txt
        assert "scenario fourier" in txt
        assert "equilibrium concavity: confirmed" in txt

    def test_text_reports_failures(self, grade2_model, grade2_report, grade2_solution):
        flipped = None
        for sym, expr in grade2_solution.bindings:
            if sym.name == "Js":
                flipped = -expr
        bad = _replace_binding(grade2_solution, "Js", flipped)
        res = check(grade2_model, grade2_report, bad)
        txt = check_text(res)
        assert "FAILED" in txt
        assert "failures:" in txt


# -- golden check output and the minors of prepared entries -----------------

# SHA-256 of the CLI's stdout for the built-in checks.  They pin the rounding
# of every sampled value, so a change to point evaluation must keep them.
with open(os.path.join(os.path.dirname(__file__), "check_golden.json"), encoding="utf-8") as _fh:
    CHECK_GOLDEN = json.load(_fh)


@pytest.mark.parametrize("command", sorted(CHECK_GOLDEN))
def test_check_output_bytes_are_pinned(command, capsys):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_GOLDEN[command]


def _entry_minors(quadratic, prepare):
    """The minors as `run_scenario` builds them: from the prepared entries."""
    return principal_minors(quadratic.matrix(prepare), [sub for sub, _ in quadratic.minors])


def _prepare(solution: CandidateSolution, scenario: NumericScenario):
    lets = Substitution(dict(scenario.lets))
    return lambda e: e.subs(solution.binding_substitution).subs(solution.condition_substitution).subs(lets)


@pytest.mark.parametrize("name", ["grade2", "korteweg"])
def test_prepared_minors_equal_prepared_dets(name, request):
    report = request.getfixturevalue(f"{name}_report")
    solution = request.getfixturevalue(f"{name}_solution")
    quadratic = report.restrictions.quadratic
    for sc in solution.scenarios:
        prepare = _prepare(solution, sc)
        assert _entry_minors(quadratic, prepare) == [prepare(d) for _, d in quadratic.minors]


# Values for the function atoms of a form's entries, so its minors stay nonzero
# (the shipped closures make every entry vanish).  Denominators are monomials:
# sums in two atoms make the kernel's gcd take seconds.
_ENTRY_VALUES = ("rho", "eps_x^2 - rho", "rho*eps + 2", "2*eps - 1", "rho_x*eps", "3", "1/rho", "eps/2")


@pytest.mark.parametrize("name", ["grade2", "korteweg"])
def test_prepared_minors_equal_prepared_dets_when_nonzero(name, request):
    model = request.getfixturevalue(f"{name}_model")
    quadratic = request.getfixturevalue(f"{name}_report").restrictions.quadratic
    atoms = sorted({a for _, _, e in quadratic.entries for a in e.syms()}, key=lambda a: a.text())
    values = [parse(_ENTRY_VALUES[k % len(_ENTRY_VALUES)], model.ctx) for k in range(len(atoms))]
    sub = Substitution(dict(zip(atoms, values)))
    got = _entry_minors(quadratic, lambda e: e.subs(sub))
    assert got == [d.subs(sub) for _, d in quadratic.minors]
    assert not any(d.is_zero for d in got)
