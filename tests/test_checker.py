"""Candidate verification: equalities, numeric scenarios, equilibrium concavity."""
from __future__ import annotations

import hashlib
import json
import os
import random
from functools import lru_cache
from itertools import combinations
from math import copysign, inf, nan, prod

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from liukit.balance import BalanceLaw, EntropyDeclaration, ModelSpec
from liukit.checker import (
    DEFAULT_FIELD_RANGE,
    DEFAULT_GRADIENT_RANGE,
    CandidateSolution,
    CheckError,
    Condition,
    NumericScenario,
    ScenarioResult,
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
from liukit.expr import (
    CoefficientRangeError,
    EvaluationError,
    Expression,
    FuncSym,
    ParseContext,
    Substitution,
    ZERO,
    compile_source,
    float_body,
    parse,
    principal_minors,
)
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
            + ((FuncSym("extra", ()), ZERO),),
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
        # The witness: seed, point and the condition's value there, q2 - 0 with q2 = -1.
        assert res.failure == (
            "scenario 'fourier': condition 'heatcoupling' fails at sample 1 (seed 4242): "
            "its value is -1 at eps = 1.79368, eps_x = -0.168613, v_x = -0.943097"
        )
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

    def test_equality_condition_never_rewrites_a_jet(self, korteweg_model, korteweg_solution):
        # Built in code, the condition passes no parser; rewriting rho_x as 0
        # would leave the entropy without the gradient term maxent refutes.
        conditions = tuple(
            Condition(c.name, "ge", c.lhs, c.rhs) if c.name == "maxent" else c
            for c in korteweg_solution.conditions
        )
        sol = korteweg_solution._replace(
            conditions=conditions + (Condition("flat", "eq", Expression.jet(RHO_X), ZERO),)
        )
        assert RHO_X not in sol.condition_substitution.bind
        res = max_entropy_at_equilibrium(korteweg_model, sol)
        assert res == ("refuted", "minor over (rho_x) has the wrong sign: s1 with the declared conditions")

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
    """The minors as `run_scenario` reads them: those of the form with prepared entries."""
    prepared = quadratic._replace(entries=tuple((i, j, prepare(e)) for i, j, e in quadratic.entries))
    return [d for _, d in prepared.minors]


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


@pytest.mark.parametrize("name, calls", [("grade2", 3), ("korteweg", 4)])
def test_check_expands_minors_once_per_scenario_and_for_concavity(name, calls, request, minor_calls):
    # The derivation the command runs first expands none.
    solution = request.getfixturevalue(f"{name}_solution")
    minor_calls.clear()
    assert main(["check", "--builtin", name]) == 0
    assert len(minor_calls) == len(solution.scenarios) + 1 == calls


def test_prepared_row_that_vanishes_keeps_the_report_subsets_and_labels(grade2_model, grade2_report):
    # Row v_xx prepares to zero.  Its index stays in the support, so the
    # minors keep the report's subsets, and a failure names the report's jets.
    jets = (JetVariable("rho", 0, 2), JetVariable("v", 0, 2), JetVariable("eps", 0, 2))
    ctx = ParseContext(grade2_model.ctx.fields, {**grade2_model.ctx.syms, "a": ()})
    a = ctx.sym("a")
    e = lambda t: parse(t, ctx)
    items = [((2, 0, 0), e("1")), ((1, 1, 0), e("2*a")), ((0, 2, 0), e("a")), ((0, 1, 1), e("2*a")), ((0, 0, 2), e("rho - 2"))]
    q = quadratic_form(jets, items)
    zero = Substitution({a: ZERO})
    prepared = q._replace(entries=tuple((i, j, d.subs(zero)) for i, j, d in q.entries))
    assert [sub for sub, _ in prepared.minors] == [sub for sub, _ in q.minors] == [
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)
    ]
    assert [d for _, d in prepared.minors] == [d.subs(zero) for _, d in q.minors] == [
        e(t) for t in ("1", "0", "rho - 2", "0", "rho - 2", "0", "0")
    ]
    report = grade2_report._replace(restrictions=Restrictions((), q, (), ZERO))
    res = run_scenario(
        grade2_model, report, CandidateSolution((), (), (), ()),
        NumericScenario("row", 8, 11, 1e-9, "pass", (), ((a, ZERO),)),
    )
    assert res.failure == (
        "scenario 'row': a restriction is negative at 8 of 8 samples; first at sample 1 (seed 11): "
        "minor over (eps_xx) = -0.821431 at rho = 1.17857; its worst value is -1.22301"
    )


# -- the compiled sampling loop against the per-point loop ---------------------

def _reference_run_scenario(model, report, solution, scenario, samples=None, seed=None, tol=None):
    """The sampler as a per-point loop: uniform draws, one compiled call per point, judged in Python.

    A scenario expected to pass that fails keeps only its count in the
    failure text; the compiled loop adds the witness to it.  A failed
    condition names its value and the point, as the compiled loop does.
    """
    bindings = solution.binding_substitution
    cond_subs = solution.condition_substitution
    lets = Substitution(dict(scenario.lets))
    n = samples if samples is not None else scenario.samples
    sd = seed if seed is not None else scenario.seed
    tl = tol if tol is not None else scenario.tol

    def prepare(e):
        return e.subs(bindings).subs(cond_subs).subs(lets)

    restr = report.restrictions
    forms = []
    if restr.quadratic is not None:
        # Its own matrix and subsets, independent of `QuadraticForm.minors`.
        q = restr.quadratic
        mat = [[ZERO] * len(q.variables) for _ in q.variables]
        for i, j, e in q.entries:
            mat[i][j] = mat[j][i] = prepare(e)
        support = sorted({k for i, j, _ in q.entries for k in (i, j)})
        forms += principal_minors(mat, [s for k in range(1, len(support) + 1) for s in combinations(support, k)])
    for f in restr.even_forms:
        forms.append(sum(
            (prepare(c) * prod(Expression.jet(v) ** e for v, e in zip(f.variables, idx))
             for idx, c in f.entries),
            ZERO,
        ))
    forms = [d for d in forms if not d.is_zero]
    residual = prepare(restr.residual)
    conds = [c.as_zero().subs(bindings).subs(lets) for c in solution.conditions]
    targets = conds + [residual] + forms

    atoms = sorted({a for t in targets for a in t.atoms()}, key=lambda a: a.atom_key)
    unbound = [a.text() for a in atoms if not isinstance(a, JetVariable)]
    if unbound:
        them = "it with a let line" if len(unbound) == 1 else "them with let lines"
        raise CheckError(
            f"scenario {scenario.name!r} leaves {', '.join(unbound)} without a value; bind {them}"
        )
    ranges = {j: (lo, hi) for j, lo, hi in scenario.ranges}
    for j in ranges:
        if j not in atoms and j.field not in model.fields:
            raise CheckError(f"scenario {scenario.name!r} ranges unknown variable {j.text()}")
    default = lambda j: DEFAULT_FIELD_RANGE if j.t_order == 0 and j.x_order == 0 else DEFAULT_GRADIENT_RANGE
    bounds = [ranges.get(a, default(a)) for a in atoms]
    values = _float_function(targets, atoms)
    intervals = []
    for c in solution.conditions:
        lim = max(tl, 1e-9 if c.kind == "eq" else 1e-12)
        intervals.append((c.name, -inf if c.kind == "le" else -lim, inf if c.kind == "ge" else lim))

    rng = random.Random(sd)
    produced = resamples = violations = 0
    min_res = inf
    worst_minor = None if not forms else inf
    failure = None
    while produced < n:
        if produced + resamples >= n * 50:
            failure = f"scenario {scenario.name!r}: too many singular sample points"
            break
        point = [rng.uniform(lo, hi) for lo, hi in bounds]
        try:
            out = values(point)
        except (EvaluationError, OverflowError):
            resamples += 1
            continue
        except CoefficientRangeError as exc:
            failure = f"scenario {scenario.name!r}: {exc}"
            break
        produced += 1
        bad = next(((name, v) for (name, lo, hi), v in zip(intervals, out) if not lo <= v <= hi), None)
        if bad is not None:
            where = ", ".join(f"{a.text()} = {x:.6g}" for a, x in zip(atoms, point))
            failure = (
                f"scenario {scenario.name!r}: condition {bad[0]!r} fails at sample {produced} "
                f"(seed {sd}): its value is {bad[1]:.6g}" + (f" at {where}" if where else "")
            )
            break
        rv, fvals = out[len(conds)], out[len(conds) + 1:]
        min_res = min(min_res, rv)
        if fvals:
            worst_minor = min(worst_minor, *fvals)
        if rv < -tl or any(v < -tl for v in fvals):
            violations += 1
    as_expected = failure is None and (violations > 0) == (scenario.expect == "violate")
    if failure is None and not as_expected:
        if scenario.expect == "violate":
            failure = (
                f"scenario {scenario.name!r}: expected a violation but all "
                f"{produced} samples satisfy the restrictions"
            )
        else:
            failure = f"negative at {violations} of {produced} samples"
    return ScenarioResult(
        scenario.name, scenario.expect, produced, resamples,
        min_res if produced else nan, worst_minor, violations, as_expected, failure,
    )


def _float_function(targets, atoms):
    """f(point) -> [value of each target]: the statements of `float_body`, compiled once."""
    names = [f"r{k}" for k in range(len(targets))]
    lines = ["def f(v):", *(f"    x{k} = v[{k}]" for k in range(len(atoms)))]
    lines += [f"    {line}" for line in float_body(list(zip(names, targets)), atoms)]
    lines.append(f"    return [{', '.join(names)}]")
    return compile_source("\n".join(lines), "<reference floats>")["f"]


def _bits(x):
    return x.hex() if isinstance(x, float) else x


@lru_cache(maxsize=None)
def _sampling_setup():
    """The grade2 model and report, and a context with three ansatz functions."""
    from liukit.models import load_builtin

    model = load_builtin("grade2")
    ctx = ParseContext(fields=model.ctx.fields, syms=dict(model.ctx.syms))
    rho, eps = JetVariable("rho"), JetVariable("eps")
    ansatz = (ctx.declare_sym("f", (rho, eps)), ctx.declare_sym("g", (rho,)), ctx.declare_sym("h", (rho,)))
    return model, derive(model), ctx, ansatz


# Targets over rho, eps, rho_x, eps_x and the ansatz functions.  1/rho_x^400
# underflows to a vanishing denominator near rho_x = 0, rho^2000 overflows
# above about 1.43, and 10^400 has no float value.  At rho = 1, rho - 1 is
# 0.0 and (rho - 1)/(eps_x - 2) is -0.0, so a minimum keeps the first zero.
_TARGET_TEXTS = (
    "0", "1", "-1", "rho - 1", "eps_x^2 - rho_x^2", "rho*eps_x^2 + f", "g*rho_x^2 - h",
    "1/(rho_x - 1)", "1/rho_x^400 - 1", "rho^2000 - 1", "f/(rho - eps)", "h^2", "rho_x^2 + 1",
    "(rho - 1)/(eps_x - 2)",
)
_LET_TEXTS = ("rho*eps", "1", "-1", "0", "eps - 2", "1/(rho - 1)", "rho_x^2", "rho + 1", "10^400")
_RANGES = {
    "rho": [(0.5, 2.0), (1.0, 1.0), (1.5, 1.6), (-1, 3)],
    "rho_x": [(-1.0, 1.0), (1.0, 1.0), (0.0, 0.0), (-0.01, 0.01)],
    "eps": [(0.5, 2.0), (2.0, 3.0)],
}
_texts = st.sampled_from(_TARGET_TEXTS)


@st.composite
def sampling_cases(draw):
    model, base, ctx, (f, g, h) = _sampling_setup()
    e = lambda t: parse(t, ctx)
    # f is bound to an expression in g; h is fixed by an equality condition
    # when one is declared, and g always by a let.
    bindings = ((f, e(draw(st.sampled_from(("g*rho", "g + eps", "g/rho_x^2"))))),) if draw(st.booleans()) else ()
    conditions = []
    if draw(st.booleans()):
        conditions.append(Condition("hfix", "eq", e("h"), e(draw(st.sampled_from(_LET_TEXTS)))))
    for k in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("eq", "ge", "ge", "le")))
        conditions.append(Condition(f"c{k}", kind, e(draw(_texts)), e(draw(st.sampled_from(("0", "1", "-1"))))))
    lets = [(g, e(draw(st.sampled_from(_LET_TEXTS[:-1]))))]
    for sym in (f, h):
        if draw(st.booleans()) or sym is h:
            lets.append((sym, e(draw(st.sampled_from(_LET_TEXTS)))))
    quadratic = None
    if draw(st.booleans()):
        jets = (JetVariable("rho", 0, 2), JetVariable("eps", 0, 2))
        items = [(idx, e(draw(_texts))) for idx in ((2, 0), (1, 1), (0, 2))]
        quadratic = quadratic_form(jets, items)
    even = ()
    if draw(st.booleans()):
        even = (EvenForm(4, (JetVariable("eps", 0, 2),), (((4,), e(draw(_texts))),)),)
    report = base._replace(restrictions=Restrictions((), quadratic, even, e(draw(_texts))))
    ranges = tuple(
        (_jet(name), *draw(st.sampled_from(choices)))
        for name, choices in _RANGES.items() if draw(st.booleans())
    )
    scenario = NumericScenario(
        "s", draw(st.integers(1, 40)), draw(st.integers(0, 10**6)),
        draw(st.sampled_from((0.0, 1e-9, 0.25))), draw(st.sampled_from(("pass", "violate"))),
        ranges, tuple(lets),
    )
    solution = CandidateSolution((f, g, h), bindings, tuple(conditions), (scenario,))
    return model, report, solution, scenario


def _jet(name: str) -> JetVariable:
    field, _, xs = name.partition("_")
    return JetVariable(field, 0, len(xs))


SAMPLING_CASES: dict[str, int] = {}


def _compare_sampling(model, report, solution, scenario) -> None:
    """The compiled loop and the reference give the same result, floats bit for bit."""
    try:
        want = _reference_run_scenario(model, report, solution, scenario)
    except CheckError as exc:
        with pytest.raises(CheckError) as ei:
            run_scenario(model, report, solution, scenario)
        assert str(ei.value) == str(exc)
        SAMPLING_CASES["check error"] = SAMPLING_CASES.get("check error", 0) + 1
        return
    got = run_scenario(model, report, solution, scenario)
    assert [_bits(x) for x in got[:-1]] == [_bits(x) for x in want[:-1]]
    if want.failure is not None and want.failure.startswith("negative at"):
        assert f"a restriction is {want.failure}; first at sample " in got.failure
    else:
        assert got.failure == want.failure
    kinds = {
        "resamples": want.resamples > 0 and want.points == scenario.samples,
        "range": want.failure is not None and "float range" in want.failure,
        "singular": want.failure is not None and "singular" in want.failure,
        "condition": want.failure is not None and "condition" in want.failure,
        "violations": want.violations > 0,
        "tol 0": scenario.tol == 0.0 and want.points > 0,
        "forms": want.worst_minor is not None and want.points > 0,
        "passed": want.failure is None and want.as_expected,
    }
    for kind, hit in kinds.items():
        SAMPLING_CASES[kind] = SAMPLING_CASES.get(kind, 0) + hit


@settings(
    max_examples=250, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=sampling_cases())
def check_sampling_loop(case):
    _compare_sampling(*case)


def test_compiled_sampling_loop_matches_the_per_point_loop():
    SAMPLING_CASES.clear()
    check_sampling_loop()
    for kind in ("resamples", "range", "singular", "condition", "violations", "tol 0", "forms", "passed"):
        assert SAMPLING_CASES.get(kind, 0) >= 3, (kind, SAMPLING_CASES)


def _sampling_case(residual, conditions=(), ranges=(), tol=1e-9, expect="pass"):
    model, base, ctx, ansatz = _sampling_setup()
    e = lambda t: parse(t, ctx)
    report = base._replace(restrictions=Restrictions((), None, (), e(residual)))
    conds = tuple(Condition(f"c{k}", kind, e(lhs), ZERO) for k, (kind, lhs) in enumerate(conditions))
    scenario = NumericScenario(
        "s", 40, 7, tol, expect, tuple((_jet(name), lo, hi) for name, lo, hi in ranges), ()
    )
    return model, report, CandidateSolution(ansatz, (), conds, (scenario,)), scenario


@pytest.mark.parametrize("case, expected", [
    # A denominator that underflows to zero near rho_x = 0: some points are drawn again.
    (dict(residual="1/rho_x^400 - 1"), dict(points=40, resamples=lambda r: r > 0)),
    # rho^2000 overflows above about 1.43.
    (dict(residual="rho^2000 - 1"), dict(points=40, resamples=lambda r: r > 0)),
    # The condition is evaluated, or drawn again, before the residual's coefficient fails.
    (dict(residual="10^400*rho", conditions=[("ge", "1/rho_x^400")], ranges=[("rho_x", -0.2, 0.2)]),
     dict(points=0, resamples=lambda r: r > 0, failure="scenario 's': a coefficient is outside the float range")),
    (dict(residual="rho_x^2", conditions=[("ge", "1"), ("eq", "0"), ("le", "-1")]),
     dict(points=40, failure=None)),
    (dict(residual="rho_x^2", conditions=[("ge", "rho"), ("le", "1")]),
     dict(points=1, failure="scenario 's': condition 'c1' fails at sample 1 (seed 7): its value is 1 "
                          "at rho = 0.985749, rho_x = -0.698302")),
    (dict(residual="1/(rho_x - 1)", ranges=[("rho_x", 1.0, 1.0)]),
     dict(points=0, resamples=lambda r: r == 2000, failure="scenario 's': too many singular sample points")),
    (dict(residual="eps_x^2 - rho_x^2", tol=0.0), dict(points=40, violations=lambda v: 0 < v < 40)),
    (dict(residual="rho_x^2*0 + 0", tol=0.0), dict(points=40, violations=lambda v: v == 0)),
])
def test_compiled_sampling_loop_fixed_cases(case, expected):
    args = _sampling_case(**case)
    _compare_sampling(*args)
    res = run_scenario(*args)
    for field, want in expected.items():
        got = getattr(res, field)
        assert want(got) if callable(want) else got == want, (field, got)


def test_failed_pass_scenario_names_the_target_and_its_witness(grade2_model, grade2_report):
    # The residual is zero; the 2x2 minor rho^2 - 4 is negative for rho < 2.
    jets = (JetVariable("rho", 0, 2), JetVariable("eps", 0, 2))
    e = lambda t: parse(t, grade2_model.ctx)
    items = [((2, 0), e("rho")), ((1, 1), e("4")), ((0, 2), e("rho"))]
    report = grade2_report._replace(restrictions=Restrictions((), quadratic_form(jets, items), (), ZERO))
    res = run_scenario(
        grade2_model, report, CandidateSolution((), (), (), ()),
        NumericScenario("indefinite", 32, 11, 1e-9, "pass", (), ()),
    )
    assert (res.points, res.violations, res.min_residual) == (32, 32, 0.0)
    assert res.failure == (
        "scenario 'indefinite': a restriction is negative at 32 of 32 samples; first at sample 1 "
        "(seed 11): minor over (rho_xx, eps_xx) = -2.61097 at rho = 1.17857; "
        f"its worst value is {res.worst_minor:.6g}"
    )
    assert f"{res.worst_minor:.6g}" == "-3.72699"


def test_constant_residual_is_folded_from_its_exact_value():
    # float(-1/10^400) is -0.0; the statements of float_body sum it onto 0.0.
    res = run_scenario(*_sampling_case(residual="-1/10^400"))
    assert (res.points, res.min_residual, copysign(1.0, res.min_residual)) == (40, 0.0, 1.0)


@pytest.mark.parametrize("change, failure, points, resamples", [
    (dict(ranges=((JetVariable("eps", 0, 1), -inf, inf),)), "too many singular sample points", 0, 400),
])
def test_non_finite_numbers_built_in_code_reach_the_sampler(
    change, failure, points, resamples, korteweg_model, korteweg_report, korteweg_solution
):
    sc = _scenario(korteweg_solution, "fourier")._replace(**change)
    res = run_scenario(korteweg_model, korteweg_report, korteweg_solution, sc, samples=8, seed=1)
    assert (res.failure, res.points, res.resamples) == (f"scenario 'fourier': {failure}", points, resamples)


@pytest.mark.parametrize("change, override, problem", [
    (dict(samples=0), {}, "samples must be at least 1, got 0"),
    (dict(samples=-2), {}, "samples must be at least 1, got -2"),
    ({}, dict(samples=0), "samples must be at least 1, got 0"),
    (dict(tol=nan), {}, "tol must be finite and nonnegative, got nan"),
    ({}, dict(tol=-1.0), "tol must be finite and nonnegative, got -1.0"),
])
def test_unusable_samples_or_tol_is_an_error(
    change, override, problem, grade2_model, grade2_report, grade2_solution
):
    # No samples would pass any scenario, and a NaN tolerance fails every condition test.
    sc = _scenario(grade2_solution, "fourier")._replace(**change)
    with pytest.raises(CheckError) as ei:
        run_scenario(grade2_model, grade2_report, grade2_solution, sc, **override)
    assert str(ei.value) == f"scenario 'fourier': {problem}"


def test_each_scenario_compiles_once(monkeypatch, korteweg_model, korteweg_report, korteweg_solution):
    import liukit.checker
    import liukit.expr

    real, compiled = liukit.expr.compile_source, []

    def counting(src, filename):
        compiled.append(filename)
        return real(src, filename)

    monkeypatch.setattr(liukit.expr, "compile_source", counting)
    monkeypatch.setattr(liukit.checker, "compile_source", counting)
    result = check(korteweg_model, korteweg_report, korteweg_solution)
    assert result.ok
    assert len(korteweg_solution.scenarios) == 3
    assert compiled == ["<liukit sampler>"] * 3
