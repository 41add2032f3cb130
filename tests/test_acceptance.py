"""Acceptance gates.

Nine end-to-end criteria covering the derivative-expansion oracle, the two
golden derivations, candidate checking, the reduced-production identity with
its numeric samplers, the equilibrium concavity gate, byte-identical output
from two separate processes, the randomized expression-kernel suites, and
the paper's contrast: the classical procedure refutes the gradient entropy
that the extended one admits.  Each test emits
one ``criterion N PASS/FAIL`` line through the reporter hook in conftest.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time

from liukit.checker import (
    Condition, check, check_equalities, max_entropy_at_equilibrium, run_scenario,
)
from liukit.cli import main
from liukit.expr import Expression, FuncSym, parse, to_text
from liukit.fdb import chain_terms, partition_count, total_x_power
from liukit.jet import JetVariable
from liukit.liu import decouple, derive, select_constraints
from liukit.models import load_builtin, load_builtin_solution

from conftest import model_ctx
from test_expr_properties import run_all_suites

J = JetVariable


def _jets(*names: str) -> set[JetVariable]:
    out = set()
    for name in names:
        base, _, suffix = name.partition("_")
        out.add(J(base, suffix.count("t"), suffix.count("x")))
    return out


def _flip_to_nonnegative(solution, name: str):
    conditions = tuple(
        Condition(c.name, "ge", c.lhs, c.rhs) if c.name == name else c
        for c in solution.conditions
    )
    return solution._replace(conditions=conditions)


def test_criterion_1_derivative_expansion_oracle():
    start = time.monotonic()
    for s in (1, 2, 3):
        names = ("w",) if s == 1 else tuple(f"w{j + 1}" for j in range(s))
        sym = FuncSym("F", tuple(J(n) for n in names))
        for m in range(1, 6):
            expansion = total_x_power(sym, m)
            iterated = Expression.sym(sym)
            for _ in range(m):
                iterated = iterated.total_x()
            assert (expansion - iterated).is_zero, (m, s)
    for m, count in zip(range(1, 6), (1, 2, 3, 5, 7)):
        assert len(chain_terms(m, 1)) == count
        assert partition_count(m) == count
    assert time.monotonic() - start < 10.0


def test_criterion_2_first_order_fluid_golden_derivation():
    start = time.monotonic()
    model = load_builtin("grade2")
    report = derive(model)

    cls = report.classification
    assert cls.highest == frozenset(_jets(
        "rho_t", "v_t", "eps_t", "gamma_t",
        "rho_tx", "v_tx", "eps_tx", "gamma_tx",
        "rho_xxx", "v_xxx", "eps_xxx", "gamma_xxx",
    ))
    assert cls.higher == frozenset(_jets("rho_xx", "v_xx", "eps_xx", "gamma_xx"))

    e = lambda t: parse(t, model_ctx(model))
    expected_multipliers = {
        (1, 0): e("rho*D(s, rho)"),
        (2, 0): e("-rho_x*D(s, v_x)/rho"),
        (3, 0): e("D(s, eps) - rho_x*D(s, eps_x)/rho"),
        (4, 0): e("D(s, gamma) - rho_x*D(s, gamma_x)/rho"),
        (1, 1): e("rho*D(s, rho_x)"),
        (2, 1): e("D(s, v_x)"),
        (3, 1): e("D(s, eps_x)"),
        (4, 1): e("D(s, gamma_x)"),
    }
    assert {(i, k) for i, k, _ in report.multipliers} == set(expected_multipliers)
    for i, k, value in report.multipliers:
        assert value == expected_multipliers[(i, k)], (i, k)

    for slot in ("rho_x", "v_x", "eps_x", "gamma_x"):
        label = f"coefficient of {slot.split('_')[0]}_xxx"
        expr = next(
            q.expr for q in report.restrictions.equalities if q.label == label
        )
        want = e(
            f"D(s, v_x)*D(T, {slot}) - D(s, eps_x)*D(q, {slot})"
            f" - D(s, gamma_x)*D(Jg, {slot})"
        )
        assert expr == want or expr == -want, label
    assert time.monotonic() - start < 60.0


def test_criterion_3_capillary_fluid_golden_derivation():
    start = time.monotonic()
    model = load_builtin("korteweg")
    report = derive(model)

    cls = report.classification
    assert cls.highest == frozenset(_jets(
        "rho_t", "v_t", "eps_t",
        "rho_tx", "v_tx", "eps_tx",
        "rho_txx", "v_txx", "eps_txx",
        "rho_xxxxx", "v_xxxx", "eps_xxxx",
    ))
    assert cls.higher == frozenset(_jets(
        "v_xx", "eps_xx", "rho_xxx", "v_xxx", "eps_xxx", "rho_xxxx"
    ))

    diag = report.diagnostics
    assert diag["zetaDegree"] == 1
    assert diag["etaDegreeBound"] == 3
    full = derive(model, mode="all")
    assert full.diagnostics["etaDegree"] == 3

    sel = select_constraints(model)
    second_order = [(i, k) for i, k in sel.entries if k == 2]
    assert second_order == [(1, 2)]
    assert decouple(model).rows[0].law_name == "mass"
    assert time.monotonic() - start < 120.0


def test_criterion_4_candidate_checks_pass_end_to_end():
    for name in ("grade2", "korteweg"):
        model = load_builtin(name)
        solution = load_builtin_solution(name, model)
        result = check(model, derive(model), solution)
        assert result.ok, result.failures
        for status in result.equalities:
            assert status.status in ("identical", "conditional"), status
        assert main(["check", "--builtin", name]) == 0


def test_criterion_5_reduced_production_identity_and_sampling():
    model = load_builtin("grade2")
    report = derive(model)
    solution = load_builtin_solution("grade2", model)

    bound = report.restrictions.residual.subs(solution.binding_substitution)
    flux_rule = next(c for c in solution.conditions if c.name == "entropyflux")
    atom = next(iter(flux_rule.lhs.atoms()))
    bound = bound.subs({atom: flux_rule.rhs})
    want = parse(
        "(q1*eps_x + q2*rho_x + q3*v_x)"
        "*(D(s0, rho, eps)*rho_x + D(s0, eps, eps)*eps_x)"
        " + tau1*D(s0, eps)*v_x^2",
        model_ctx(model, *solution.ansatz),
    )
    assert (bound - want).is_zero

    scenarios = {sc.name: sc for sc in solution.scenarios}
    satisfying = run_scenario(model, report, solution, scenarios["fourier"], samples=1000)
    assert satisfying.points == 1000
    assert satisfying.min_residual >= -1e-12
    assert satisfying.violations == 0
    violating = run_scenario(model, report, solution, scenarios["counterflow"], samples=1000)
    assert violating.violations >= 1


def test_criterion_6_equilibrium_concavity_gate():
    for name in ("grade2", "korteweg"):
        model = load_builtin(name)
        solution = load_builtin_solution(name, model)
        assert max_entropy_at_equilibrium(model, solution).outcome == "confirmed"
        positive = _flip_to_nonnegative(solution, "maxent")
        assert max_entropy_at_equilibrium(model, positive).outcome == "refuted"


def test_criterion_7_hash_seed_determinism():
    # What could vary between processes is the order of hashed sets and
    # dicts, so the hash seed is varied.
    def run(hash_seed: str, argv: list[str]) -> bytes:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "liukit.cli", *argv],
            capture_output=True,
            env=env,
            check=True,
        )
        return proc.stdout

    for derive_argv in (
        ["derive", "--builtin", "grade2", "--format", "json"],
        ["derive", "--builtin", "korteweg", "--all-extensions", "--order", "0", "--format", "json"],
    ):
        assert run("0", derive_argv) == run("4242", derive_argv)
    check_argv = ["check", "--builtin", "korteweg", "--format", "json"]
    assert run("0", check_argv) == run("4242", check_argv)


def test_criterion_8_randomized_expression_suites():
    counts = run_all_suites()
    assert set(counts) == {"round_trip", "ring", "leibniz", "commute", "collect"}
    for name, count in counts.items():
        assert count >= 1000, name


def test_criterion_9_classical_procedure_refutes_the_gradient_entropy():
    # The paper's contrast.  Without gradient extensions (order 0) the free
    # jet rho_tx forces D(s, rho_x) = 0, which the shipped closure's
    # s1*rho_x^2 entropy breaks; from order 1 on, the extensions admit it.
    model = load_builtin("korteweg")
    solution = load_builtin_solution("korteweg")
    for order in (0, 1, 2):
        statuses, _ = check_equalities(derive(model, "all", max_order=order), solution)
        failed = {st.label: to_text(st.remainder) for st in statuses if st.status == "failed"}
        if order == 0:
            assert set(failed) == {"coefficient of rho_tx", "coefficient of v_xx"}
            assert failed["coefficient of rho_tx"] == "2*rho*rho_x*s1"
        else:
            assert failed == {}, order
