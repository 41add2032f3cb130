"""Exact rational expression kernel: algebra, calculus, structure, parsing."""
from __future__ import annotations

import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import liukit
from liukit.expr import (
    BindingError,
    CoefficientRangeError,
    CollectError,
    EvaluationError,
    ExprError,
    Expression,
    FuncSym,
    ONE,
    ParseContext,
    ParseError,
    Substitution,
    ZERO,
    parse,
    to_latex,
    to_text,
)
from liukit.jet import JetVariable

RHO = JetVariable("rho")
EPS = JetVariable("eps")
RHO_X = RHO.dx()
EPS_X = EPS.dx()
V_X = JetVariable("v", 0, 1)


@pytest.fixture()
def ctx() -> ParseContext:
    c = ParseContext(fields=("rho", "v", "eps"))
    c.declare_sym("s0", (RHO, EPS))
    c.declare_sym("q1", (RHO, EPS))
    c.declare_sym("c0", ())
    return c


def e(text: str, ctx: ParseContext) -> Expression:
    return parse(text, ctx)


class TestConstructionAndNormalForm:
    def test_number_constants(self):
        assert Expression.number(0).is_zero
        assert Expression.number(2).as_fraction() == 2
        assert Expression.number(Fraction(1, 3)).as_fraction() == Fraction(1, 3)
        assert ZERO.is_zero and ONE.as_fraction() == 1

    def test_equality_is_normal_form_equality(self, ctx):
        assert e("(rho + 1)^2", ctx) == e("rho^2 + 2*rho + 1", ctx)
        assert e("(rho^2 - eps^2)/(rho - eps)", ctx) == e("rho + eps", ctx)
        assert e("rho/rho", ctx) == ONE

    def test_common_factor_cancellation(self, ctx):
        a = e("rho*eps_x/(rho*v_x)", ctx)
        assert a == e("eps_x/v_x", ctx)

    def test_zero_numerator_collapses(self, ctx):
        assert (e("rho", ctx) - e("rho", ctx)).is_zero
        assert e("(rho - rho)/(eps + 1)", ctx).is_zero

    def test_as_fraction_none_for_nonconstant(self, ctx):
        assert e("rho + 1", ctx).as_fraction() is None
        assert e("2/3", ctx).as_fraction() == Fraction(2, 3)

    def test_atom_views(self, ctx):
        expr = e("D(s0, rho)*rho_x + q1*eps_x", ctx)
        assert {a.text() for a in expr.jets()} == {"rho_x", "eps_x"}
        assert {a.name for a in expr.syms()} == {"s0", "q1"}


class TestArithmetic:
    def test_field_ops(self, ctx):
        a, b = e("rho", ctx), e("eps", ctx)
        assert a + b == e("rho + eps", ctx)
        assert a - b == e("rho - eps", ctx)
        assert a * b == e("rho*eps", ctx)
        assert a / b == e("rho/eps", ctx)
        assert a ** 3 == e("rho^3", ctx)
        assert -a == e("-rho", ctx)

    def test_python_number_mixing(self, ctx):
        a = e("rho", ctx)
        assert 1 + a == e("rho + 1", ctx)
        assert 2 * a == e("2*rho", ctx)
        assert 1 - a == e("1 - rho", ctx)
        assert 6 / e("2", ctx) == Expression.number(3)

    def test_division_by_zero_rejected(self, ctx):
        with pytest.raises(ExprError):
            e("rho", ctx) / ZERO
        with pytest.raises(ExprError):
            ZERO ** (-1)

    def test_nonint_power_rejected(self, ctx):
        with pytest.raises(ExprError):
            e("rho", ctx) ** 1.5  # type: ignore[operator]

    def test_power_zero_is_one(self, ctx):
        assert e("rho + eps", ctx) ** 0 == ONE

    def test_negative_power_inverts(self, ctx):
        assert e("rho", ctx) ** (-2) == e("1/rho^2", ctx)

    def test_fraction_arithmetic_is_exact(self, ctx):
        total = ZERO
        for _ in range(3):
            total = total + e("1/3", ctx)
        assert total == ONE


class TestCalculus:
    def test_jet_partial(self, ctx):
        expr = e("rho^2*v_x", ctx)
        assert expr.diff(RHO) == e("2*rho*v_x", ctx)
        assert expr.diff(V_X) == e("rho^2", ctx)
        assert expr.diff(EPS).is_zero

    def test_sym_partial_bumps_orders(self, ctx):
        s0 = ctx.sym("s0")
        expr = Expression.sym(s0)
        assert expr.diff(RHO) == e("D(s0, rho)", ctx)
        assert expr.diff(RHO).diff(EPS) == e("D(s0, rho, eps)", ctx)
        # mixed partials commute by construction
        assert expr.diff(EPS).diff(RHO) == e("D(s0, rho, eps)", ctx)

    def test_quotient_rule(self, ctx):
        expr = e("rho/eps", ctx)
        assert expr.diff(EPS) == e("-rho/eps^2", ctx)

    def test_total_x_on_jets(self, ctx):
        assert e("rho", ctx).total_x() == e("rho_x", ctx)
        assert e("rho_x", ctx).total_x() == e("rho_xx", ctx)
        assert e("rho_t", ctx).total_x() == e("rho_tx", ctx)

    def test_total_t_on_jets(self, ctx):
        assert e("rho_x", ctx).total_t() == e("rho_tx", ctx)

    def test_total_x_chain_rule_on_sym(self, ctx):
        got = e("s0", ctx).total_x()
        assert got == e("D(s0, rho)*rho_x + D(s0, eps)*eps_x", ctx)

    def test_total_t_chain_rule_on_sym(self, ctx):
        got = e("s0", ctx).total_t()
        want = Expression.sym(ctx.sym("s0").bump(RHO)) * Expression.jet(RHO.dt()) + \
            Expression.sym(ctx.sym("s0").bump(EPS)) * Expression.jet(EPS.dt())
        assert got == want

    def test_dep_free_symbol_is_constant(self, ctx):
        assert e("c0", ctx).total_x().is_zero
        assert e("c0", ctx).total_t().is_zero

    def test_leibniz_product(self, ctx):
        a, b = e("rho^2*s0", ctx), e("q1*eps_x", ctx)
        lhs = (a * b).total_x()
        rhs = a.total_x() * b + a * b.total_x()
        assert (lhs - rhs).is_zero

    def test_quotient_total_derivative(self, ctx):
        a = e("rho/eps", ctx)
        lhs = a.total_x()
        rhs = (e("rho_x", ctx) * e("eps", ctx) - e("rho", ctx) * e("eps_x", ctx)) / e("eps^2", ctx)
        assert (lhs - rhs).is_zero

    def test_mixed_totals_commute(self, ctx):
        expr = e("rho^2*s0/eps + q1*v_x", ctx)
        assert (expr.total_t().total_x() - expr.total_x().total_t()).is_zero


class TestStructure:
    def test_collect_buckets(self, ctx):
        expr = e("q1*rho_x^2 + 2*s0*rho_x*eps_x + rho*eps_x + 5", ctx)
        buckets = expr.collect([RHO_X, EPS_X])
        assert buckets[(2, 0)] == e("q1", ctx)
        assert buckets[(1, 1)] == e("2*s0", ctx)
        assert buckets[(0, 1)] == e("rho", ctx)
        assert buckets[(0, 0)] == e("5", ctx)
        assert set(buckets) == {(2, 0), (1, 1), (0, 1), (0, 0)}

    def test_collect_reconstruction(self, ctx):
        expr = e("(q1*rho_x^2 + s0*eps_x + rho)/(1 + eps^2)", ctx)
        buckets = expr.collect([RHO_X, EPS_X])
        rebuilt = ZERO
        for idx, coeff in buckets.items():
            term = coeff
            for v, k in zip((RHO_X, EPS_X), idx):
                term = term * Expression.jet(v) ** k
            rebuilt = rebuilt + term
        assert (rebuilt - expr).is_zero

    def test_collect_rejects_duplicates(self, ctx):
        with pytest.raises(CollectError):
            e("rho_x", ctx).collect([RHO_X, RHO_X])

    def test_collect_rejects_denominator_involvement(self, ctx):
        with pytest.raises(CollectError):
            e("rho/rho_x", ctx).collect([RHO_X])

    def test_coefficient(self, ctx):
        expr = e("3*rho_x^2*eps + rho_x*v_x", ctx)
        assert expr.coefficient([RHO_X], (2,)) == e("3*eps", ctx)
        assert expr.coefficient([RHO_X, V_X], (1, 1)) == ONE
        assert expr.coefficient([RHO_X], (5,)).is_zero

    def test_degree_in(self, ctx):
        expr = e("rho_x^3*eps_x + rho_x*eps_x^2 + rho", ctx)
        assert expr.degree_in([RHO_X, EPS_X]) == 4
        assert expr.degree_in([RHO_X]) == 3
        assert expr.degree_in([V_X]) == 0


class TestSubstitution:
    def test_sym_binding_closes_over_derivatives(self, ctx):
        s0 = ctx.sym("s0")
        bound = e("D(s0, eps) + D(s0, rho, eps)", ctx).subs({s0: e("rho^2*eps", ctx)})
        assert bound == e("rho^2 + 2*rho", ctx)

    def test_partial_derivative_binding_closes_upward(self, ctx):
        target = e("D(s0, eps, eps)", ctx)
        got = target.subs({ctx.sym("s0").bump(EPS): e("1/eps", ctx)})
        assert got == e("-1/eps^2", ctx)

    def test_field_jet_binding_closes_over_totals(self, ctx):
        expr = e("v_x + v", ctx)
        got = expr.subs({JetVariable("v"): e("rho^2", ctx)})
        assert got == e("2*rho*rho_x + rho^2", ctx)

    def test_chained_bindings_reach_fixed_point(self, ctx):
        q1, s0 = ctx.sym("q1"), ctx.sym("s0")
        got = e("q1 + 1", ctx).subs({q1: Expression.sym(s0), s0: e("eps", ctx)})
        assert got == e("eps + 1", ctx)

    def test_cyclic_bindings_rejected(self, ctx):
        q1, s0 = ctx.sym("q1"), ctx.sym("s0")
        with pytest.raises(BindingError):
            e("q1", ctx).subs({q1: Expression.sym(s0), s0: Expression.sym(q1)})

    def test_self_cycle_rejected(self, ctx):
        q1 = ctx.sym("q1")
        with pytest.raises(BindingError):
            e("q1", ctx).subs({q1: Expression.sym(q1) + ONE})

    def test_empty_bindings_identity(self, ctx):
        expr = e("rho + eps", ctx)
        assert expr.subs({}) is expr

    def test_binding_in_denominator(self, ctx):
        got = e("rho/q1", ctx).subs({ctx.sym("q1"): e("eps^2", ctx)})
        assert got == e("rho/eps^2", ctx)

    def test_shared_substitution_derives_each_atom_once(self, ctx, monkeypatch):
        s0 = ctx.sym("s0")
        value = e("rho^3*eps/(1 + eps^2)", ctx)
        targets = [
            e(t, ctx)
            for t in ("D(s0, rho, rho, eps)", "D(s0, rho, eps) + D(s0, rho)", "D(s0, rho, rho, eps)*D(s0, eps)")
        ]
        want = [t.subs({s0: value}) for t in targets]
        calls = []
        diff = Expression.diff
        monkeypatch.setattr(Expression, "diff", lambda self, v: calls.append(v) or diff(self, v))
        sub = Substitution({s0: value})
        assert [t.subs(sub) for t in targets] == want
        # One diff for each of D(s0, rho, rho, eps), D(s0, rho, eps), D(s0, eps)
        # and D(s0, rho): every derivative comes from its next-lower one.
        assert len(calls) == 4

    def test_bound_jet_does_not_shortcut_its_field(self, ctx):
        # rho_xx follows the binding of rho, not the separate one of rho_x.
        got = e("rho_xx + rho_x", ctx).subs({RHO: e("eps^2", ctx), RHO_X: e("eps", ctx)})
        assert got == e("2*eps_x^2 + 2*eps*eps_xx + eps", ctx)


class TestEvaluation:
    def test_point_evaluation(self, ctx):
        expr = e("rho^2 + 1/2*eps_x", ctx)
        val = expr.evaluate({RHO: 2.0, EPS_X: 4.0})
        assert val == pytest.approx(6.0)

    def test_missing_atom_raises(self, ctx):
        with pytest.raises(EvaluationError):
            e("rho + eps", ctx).evaluate({RHO: 1.0})

    def test_zero_denominator_raises(self, ctx):
        with pytest.raises(EvaluationError):
            e("rho/eps_x", ctx).evaluate({RHO: 1.0, EPS_X: 0.0})

    def test_sym_atoms_evaluate(self, ctx):
        expr = e("D(s0, eps)*eps_x", ctx)
        sym = ctx.sym("s0").bump(EPS)
        assert expr.evaluate({sym: 3.0, EPS_X: 0.5}) == pytest.approx(1.5)

    def test_out_of_range_coefficient_is_not_a_point_failure(self, ctx):
        expr = e("10^400*rho + 1", ctx)
        with pytest.raises(CoefficientRangeError):
            expr.evaluate({RHO: 1.0})
        assert not issubclass(CoefficientRangeError, EvaluationError)


def _python(code: str, stdin: bytes = b"") -> bytes:
    """Run code in a fresh interpreter that imports this liukit."""
    src = os.path.dirname(os.path.dirname(liukit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


_ROUND_TRIP = """
import pickle, sys
from liukit.expr import FuncSym, to_text
from liukit.jet import JetVariable

# Atoms created in an order unlike the sending process's, so their ids differ.
for f in ("v", "eps", "rho"):
    JetVariable(f, 0, 2)
    FuncSym("q1", (JetVariable("rho"), JetVariable(f)) if f != "rho" else (JetVariable(f),))
e = pickle.loads(sys.stdin.buffer.read())
sys.stdout.buffer.write(pickle.dumps((to_text(e), to_text(e.total_x()), e * e)))
"""


class TestProcessIndependence:
    def test_pickle_round_trip_in_a_fresh_process(self, ctx):
        expr = e("(s0*rho_x^2 - 3/2*D(s0, eps))/(q1 + eps^2) + v_x", ctx)
        text, dx_text, square = pickle.loads(_python(_ROUND_TRIP, pickle.dumps(expr)))
        assert text == to_text(expr)
        assert dx_text == to_text(expr.total_x())
        assert square == expr * expr


class TestParsing:
    def test_precedence_and_unary(self, ctx):
        assert e("-rho + 2*eps^2", ctx) == 2 * e("eps", ctx) ** 2 - e("rho", ctx)
        assert e("rho - eps - 1", ctx) == e("(rho - eps) - 1", ctx)
        assert e("rho/eps/2", ctx) == e("rho/(2*eps)", ctx)
        assert e("2^3", ctx) == Expression.number(8)
        assert e("rho^-1", ctx) == ONE / e("rho", ctx)

    def test_jets_parse(self, ctx):
        assert e("rho_tx", ctx) == Expression.jet(JetVariable("rho", 1, 1))
        assert e("v_xx", ctx) == Expression.jet(JetVariable("v", 0, 2))

    def test_derivative_atoms_parse(self, ctx):
        got = e("D(s0, rho, rho, eps)", ctx)
        want = Expression.sym(FuncSym("s0", (RHO, EPS), (2, 1)))
        assert got == want

    def test_applied_symbol_syntax(self, ctx):
        assert e("s0(rho, eps)", ctx) == e("s0", ctx)
        with pytest.raises(ParseError):
            e("s0(rho)", ctx)

    def test_undeclared_names_rejected(self, ctx):
        with pytest.raises(ParseError):
            e("zeta", ctx)
        with pytest.raises(ParseError):
            e("w_x", ctx)
        with pytest.raises(ParseError):
            e("D(zeta, rho)", ctx)

    def test_derivative_errors(self, ctx):
        with pytest.raises(ParseError):
            e("D(s0)", ctx)  # no differentiation variable
        with pytest.raises(ParseError):
            e("D(s0, v)", ctx)  # not a dependency

    def test_bad_suffix_rejected(self, ctx):
        with pytest.raises(ParseError):
            e("rho_xy", ctx)
        with pytest.raises(ParseError):
            e("rho_xt", ctx)  # suffix order is t's then x's

    def test_unexpected_character_rejected(self, ctx):
        with pytest.raises(ParseError):
            e("rho @ eps", ctx)

    def test_fractional_exponent_rejected(self, ctx):
        with pytest.raises(ParseError):
            e("rho^1.5", ctx)

    def test_trailing_garbage_rejected(self, ctx):
        with pytest.raises(ParseError):
            e("rho eps", ctx)

    def test_decimal_literals(self, ctx):
        assert e("0.25", ctx).as_fraction() == Fraction(1, 4)

    def test_context_declaration_conflicts(self):
        c = ParseContext(fields=("rho",))
        with pytest.raises(ParseError):
            c.declare_sym("rho", ())
        c.declare_sym("s0", (RHO,))
        with pytest.raises(ParseError):
            c.declare_field("s0")
        with pytest.raises(ParseError):
            c.declare_sym("D", ())
        with pytest.raises(ParseError):
            c.declare_sym("s0", (RHO, EPS))  # different dependencies


class TestPrinting:
    @pytest.mark.parametrize(
        "text",
        [
            "rho",
            "rho_x + eps_x",
            "2*rho*eps - 1/2*v_x",
            "(rho + 1)/(eps - 2)",
            "D(s0, rho, eps)*rho_x^2",
            "q1/rho_x",
            "-rho^3/(rho + eps)",
        ],
    )
    def test_text_round_trip(self, ctx, text):
        expr = e(text, ctx)
        assert parse(to_text(expr), ctx) == expr

    def test_zero_prints_as_zero(self):
        assert to_text(ZERO) == "0"

    def test_latex_smoke(self, ctx):
        assert to_latex(ZERO) == "0"
        assert r"\rho" in to_latex(e("rho", ctx))
        assert r"\frac" in to_latex(e("rho/eps", ctx))
        fx = to_latex(e("D(s0, rho)", ctx))
        assert r"\partial" in fx
        assert to_latex(e("rho_tx", ctx)) == r"\rho_{,tx}"
