"""Verification of candidate constitutive equations against derived restrictions.

A candidate binds every constitutive unknown of a model to an explicit
expression over the state space and auxiliary ansatz functions.  Checking has
three parts:

* equalities: each derived equality must vanish identically after binding;
  when it does not, declared equality conditions are substituted (closing
  over derivatives) and the equality passes conditionally if the result is
  zero.
* numeric scenarios: seeded sampling of the residual production and the
  semidefiniteness minors over declared or default ranges, after scenario
  "let" bindings give values to the remaining free functions.
* equilibrium concavity: the bound entropy, as a quadratic form in the
  gradient state variables, must be negative semidefinite so that uniform
  states maximize it; the decision uses the declared sign conditions.
"""
from __future__ import annotations

import math
import random
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

from .jet import Frozen, JetVariable
from .expr import (
    Atom,
    CoefficientRangeError,
    EvaluationError,
    Expression,
    ExprError,
    FuncSym,
    Substitution,
    ZERO,
    atom_text,
    principal_minors,
    to_text,
)
from .balance import ModelSpec
from .liu import LiuReport

DEFAULT_SAMPLES = 64
DEFAULT_TOL = 1e-9
DEFAULT_FIELD_RANGE = (0.5, 2.0)
DEFAULT_GRADIENT_RANGE = (-1.0, 1.0)
_MAX_RESAMPLE_FACTOR = 50


class CheckError(ValueError):
    """The candidate file is malformed or incomplete for this model."""


class Condition(NamedTuple):
    name: str
    kind: str  # "eq", "ge" (expr >= 0) or "le" (expr <= 0)
    lhs: Expression
    rhs: Expression

    def as_zero(self) -> Expression:
        """eq: lhs - rhs; ge/le: the signed expression itself."""
        if self.kind == "eq":
            return self.lhs - self.rhs
        return self.lhs


def sampling_error(samples: int | None, tol: float | None) -> str | None:
    """Why a sample count or tolerance is unusable, or None.

    Zero samples would pass any scenario, and a NaN tolerance makes every
    violation test false.
    """
    if samples is not None and samples < 1:
        return f"samples must be at least 1, got {samples}"
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        return f"tol must be finite and nonnegative, got {tol}"
    return None


class NumericScenario(NamedTuple):
    name: str
    samples: int
    seed: int
    tol: float
    expect: str  # "pass" or "violate"
    ranges: tuple[tuple[JetVariable, float, float], ...]
    lets: tuple[tuple[Atom, Expression], ...]


class _SolutionFields(NamedTuple):
    ansatz: tuple[FuncSym, ...]
    bindings: tuple[tuple[FuncSym, Expression], ...]
    conditions: tuple[Condition, ...]
    scenarios: tuple[NumericScenario, ...]


class CandidateSolution(_SolutionFields, Frozen):
    # Not slotted: the cached substitutions below live in the instance `__dict__`.

    def binding_map(self) -> dict[FuncSym, Expression]:
        return {k: v for k, v in self.bindings}

    # Built once per candidate and shared by every part of a check, so each
    # derivative atom of a bound symbol is derived once.
    @cached_property
    def binding_substitution(self) -> Substitution:
        return Substitution(self.binding_map())

    @cached_property
    def condition_substitution(self) -> Substitution:
        """Equality conditions whose left side is a single atom, as bindings."""
        return Substitution(_condition_substitutions(self.conditions))

    def condition(self, name: str) -> Condition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


class EqualityStatus(NamedTuple):
    label: str
    status: str  # "identical", "conditional", "failed"
    conditions_used: tuple[str, ...]
    remainder: Expression  # ZERO unless failed


class ScenarioResult(NamedTuple):
    name: str
    expect: str
    points: int
    resamples: int
    min_residual: float
    worst_minor: float | None
    violations: int
    as_expected: bool
    failure: str | None


class ConcavityResult(NamedTuple):
    outcome: str  # "confirmed", "refuted", "undetermined"
    detail: str


class CheckResult(NamedTuple):
    model_name: str
    equalities: tuple[EqualityStatus, ...]
    scenarios: tuple[ScenarioResult, ...]
    concavity: ConcavityResult
    singularities: tuple[tuple[str, str], ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def binding_singularities(solution: CandidateSolution) -> tuple[tuple[str, str], ...]:
    """Bindings whose denominator contains jet variables.

    Such a closure is undefined where the denominator vanishes; the pairs
    (unknown name, offending jets) are recorded so the report states the
    excluded locus, and scenario sampling stays away from it (resampling
    on evaluation failure, or through declared ranges).
    """
    out: list[tuple[str, str]] = []
    for sym, expr in solution.bindings:
        den_jets = sorted(expr.denominator().jets(), key=JetVariable.sort_key)
        if den_jets:
            out.append((sym.name, ", ".join(j.text() for j in den_jets)))
    return tuple(out)


def _condition_substitutions(conditions: Sequence[Condition]) -> dict[Atom, Expression]:
    subs: dict[Atom, Expression] = {}
    for c in conditions:
        if c.kind != "eq":
            continue
        atoms = c.lhs.atoms()
        if len(atoms) == 1 and c.lhs == Expression.atom(next(iter(atoms))):
            subs[next(iter(atoms))] = c.rhs
    return subs


def _substitute(expr: Expression, *subs: Substitution) -> Expression:
    """expr with each substitution applied in turn; empty ones are skipped."""
    for sub in subs:
        if sub.bind:
            expr = expr.subs(sub)
    return expr


def check_equalities(
    report: LiuReport, solution: CandidateSolution
) -> tuple[list[EqualityStatus], list[str]]:
    statuses: list[EqualityStatus] = []
    failures: list[str] = []
    for eq in report.restrictions.equalities:
        bound = _substitute(eq.expr, solution.binding_substitution)
        if bound.is_zero:
            statuses.append(EqualityStatus(eq.label, "identical", (), ZERO))
            continue
        after = _substitute(bound, solution.condition_substitution)
        if after.is_zero:
            used = _conditions_touching(bound, solution.conditions)
            statuses.append(EqualityStatus(eq.label, "conditional", used, ZERO))
        else:
            statuses.append(EqualityStatus(eq.label, "failed", (), after))
            failures.append(
                f"equality [{eq.label}] does not vanish; remainder: {to_text(after)}"
            )
    return statuses, failures


def _conditions_touching(
    expr: Expression, conditions: Sequence[Condition]
) -> tuple[str, ...]:
    names = []
    expr_names = {a.name for a in expr.syms()}
    for c in conditions:
        if c.kind != "eq":
            continue
        lhs_names = {a.name for a in c.lhs.syms()}
        if lhs_names & expr_names:
            names.append(c.name)
    return tuple(names)


# -- numeric sampling -------------------------------------------------------


def _default_range(j: JetVariable) -> tuple[float, float]:
    if j.t_order == 0 and j.x_order == 0:
        return DEFAULT_FIELD_RANGE
    return DEFAULT_GRADIENT_RANGE


def _sample_env(
    atoms: Sequence[JetVariable],
    ranges: Mapping[JetVariable, tuple[float, float]],
    rng: random.Random,
) -> dict:
    env = {}
    for a in atoms:
        lo, hi = ranges.get(a, _default_range(a))
        env[a] = rng.uniform(lo, hi)
    return env


def run_scenario(
    model: ModelSpec,
    report: LiuReport,
    solution: CandidateSolution,
    scenario: NumericScenario,
    samples: int | None = None,
    seed: int | None = None,
    tol: float | None = None,
) -> ScenarioResult:
    """Sample the residual production, minors and even forms at seeded points.

    One random stream drives all targets: each point consumes exactly one
    value per free jet, in canonical atom order, so results are reproducible
    for a given seed regardless of which targets are evaluated.  Quartic and
    higher even forms have no finite minor criterion, so their polynomials
    are sampled directly alongside the quadratic minors.
    """
    bindings = solution.binding_substitution
    cond_subs = solution.condition_substitution
    lets = Substitution(dict(scenario.lets))
    n = samples if samples is not None else scenario.samples
    sd = seed if seed is not None else scenario.seed
    tl = tol if tol is not None else scenario.tol

    def prepare(e: Expression) -> Expression:
        return _substitute(e, bindings, cond_subs, lets)

    residual = prepare(report.restrictions.residual)
    minors: list[tuple[str, Expression]] = []
    if report.restrictions.quadratic is not None:
        q = report.restrictions.quadratic
        for sub, det in q.minors:
            d = prepare(det)
            if not d.is_zero:
                label = ",".join(q.variables[i].text() for i in sub)
                minors.append((label, d))
    for f in report.restrictions.even_forms:
        poly = ZERO
        for idx, coeff in f.entries:
            term = prepare(coeff)
            for v, e in zip(f.variables, idx):
                if e:
                    term = term * Expression.jet(v) ** e
            poly = poly + term
        if not poly.is_zero:
            minors.append((f"degree-{f.degree} form", poly))
    conds: list[tuple[Condition, Expression]] = []
    for c in solution.conditions:
        conds.append((c, _substitute(c.as_zero(), bindings, lets)))

    targets = [residual] + [d for _, d in minors] + [e for _, e in conds]
    free: set[JetVariable] = set()
    for t in targets:
        for a in t.atoms():
            if isinstance(a, JetVariable):
                free.add(a)
            else:
                raise CheckError(
                    f"scenario {scenario.name!r} leaves {atom_text(a)} without a value; "
                    "bind it with a let line"
                )
    atoms = sorted(free, key=JetVariable.sort_key)
    ranges = {j: (lo, hi) for j, lo, hi in scenario.ranges}
    for j in ranges:
        if j not in free and not _is_known_jet(j, model):
            raise CheckError(f"scenario {scenario.name!r} ranges unknown variable {j.text()}")

    rng = random.Random(sd)
    resamples = 0
    min_res = float("inf")
    worst_minor = None if not minors else float("inf")
    violations = 0
    failure = None
    produced = 0
    budget = n * _MAX_RESAMPLE_FACTOR
    attempts = 0
    while produced < n:
        attempts += 1
        if attempts > budget:
            failure = f"scenario {scenario.name!r}: too many singular sample points"
            break
        env = _sample_env(atoms, ranges, rng)
        try:
            cvals = [(c, e.evaluate(env)) for c, e in conds]
            rv = residual.evaluate(env)
            mvals = [(lbl, d.evaluate(env)) for lbl, d in minors]
        except EvaluationError:
            resamples += 1
            continue
        except CoefficientRangeError as exc:
            # A property of the bound targets: no other point can help.
            failure = f"scenario {scenario.name!r}: {exc}"
            break
        produced += 1
        bad = _condition_violation(cvals, tl)
        if bad is not None:
            failure = (
                f"scenario {scenario.name!r}: condition {bad!r} fails at sample {produced}"
            )
            break
        min_res = min(min_res, rv)
        if mvals:
            wm = min(v for _, v in mvals)
            worst_minor = wm if worst_minor is None else min(worst_minor, wm)
        if rv < -tl or any(v < -tl for _, v in mvals):
            violations += 1
    if failure is not None:
        return ScenarioResult(
            scenario.name, scenario.expect, produced, resamples,
            min_res if produced else float("nan"), worst_minor, violations, False, failure,
        )
    if scenario.expect == "violate":
        as_expected = violations > 0
        if not as_expected:
            failure = (
                f"scenario {scenario.name!r}: expected a violation but all "
                f"{produced} samples satisfy the restrictions"
            )
    else:
        as_expected = violations == 0
        if not as_expected:
            failure = (
                f"scenario {scenario.name!r}: residual production or a minor is "
                f"negative at {violations} of {produced} samples (min residual {min_res:.6g})"
            )
    return ScenarioResult(
        scenario.name, scenario.expect, produced, resamples,
        min_res, worst_minor, violations, as_expected, failure,
    )


def _is_known_jet(j: JetVariable, model: ModelSpec) -> bool:
    return j.field in model.fields


def _condition_violation(cvals, tol: float) -> str | None:
    for c, v in cvals:
        if c.kind == "eq":
            if abs(v) > max(tol, 1e-9):
                return c.name
        elif c.kind == "ge":
            if v < -max(tol, 1e-12):
                return c.name
        elif c.kind == "le":
            if v > max(tol, 1e-12):
                return c.name
    return None


# -- equilibrium concavity --------------------------------------------------


def _decide_sign(expr: Expression, conditions: Sequence[Condition]) -> str:
    """Return "nonneg", "nonpos", "zero" or "unknown" for expr under conditions."""
    f = expr.as_fraction()
    if f is not None:
        if f == 0:
            return "zero"
        return "nonneg" if f > 0 else "nonpos"
    for c in conditions:
        if c.kind not in ("ge", "le"):
            continue
        try:
            ratio = (expr / c.lhs).as_fraction()
        except ExprError:
            ratio = None
        if ratio is None or ratio == 0:
            continue
        positive_base = c.kind == "ge"
        ratio_positive = ratio > 0
        return "nonneg" if positive_base == ratio_positive else "nonpos"
    return "unknown"


def max_entropy_at_equilibrium(
    model: ModelSpec, solution: CandidateSolution
) -> ConcavityResult:
    """Uniform states must maximize the bound entropy over the gradients.

    The entropy is expanded in the gradient state variables; the linear part
    must vanish (stationarity) and the quadratic form must be negative
    semidefinite, decided through the declared sign conditions.  A candidate
    whose conditions fail to imply semidefiniteness is refuted: it admits
    parameter values for which uniform states are not entropy maxima.
    """
    s_expr = _substitute(
        model.entropy.density, solution.binding_substitution, solution.condition_substitution
    )
    grads = [w for w in model.space.sorted_members() if w.x_order >= 1]
    if not grads:
        return ConcavityResult("confirmed", "state space has no gradient variables")
    try:
        buckets = s_expr.collect(grads)
    except ExprError as exc:
        return ConcavityResult("undetermined", f"entropy is not polynomial in the gradients: {exc}")
    n = len(grads)
    mat = [[ZERO] * n for _ in range(n)]
    support: set[int] = set()
    for idx, coeff in buckets.items():
        d = sum(idx)
        if d == 0 or coeff.is_zero:
            continue
        if d == 1:
            return ConcavityResult(
                "refuted",
                f"entropy has a gradient-linear term ({_idx_label(grads, idx)}): "
                "uniform states are not stationary",
            )
        if d == 2:
            pos = [i for i, e in enumerate(idx) if e]
            if len(pos) == 1:
                mat[pos[0]][pos[0]] = coeff
            else:
                i, j = pos
                mat[i][j] = coeff / 2
                mat[j][i] = coeff / 2
            support.update(pos)
        else:
            return ConcavityResult(
                "undetermined",
                f"entropy has a gradient term of degree {d}; only quadratic "
                "corrections are decided",
            )
    if not support:
        return ConcavityResult("confirmed", "entropy has no gradient dependence")
    sup = sorted(support)
    subsets = [
        [sup[i] for i in range(len(sup)) if mask & (1 << i)] for mask in range(1, 1 << len(sup))
    ]
    for sub, minor in zip(subsets, principal_minors(mat, subsets)):
        required_sign = -1 if len(sub) % 2 else 1
        target = minor if required_sign > 0 else -minor
        verdict = _decide_sign(target, solution.conditions)
        label = ", ".join(grads[i].text() for i in sub)
        if verdict in ("nonneg", "zero"):
            continue
        if verdict == "nonpos":
            return ConcavityResult(
                "refuted",
                f"minor over ({label}) has the wrong sign: "
                f"{to_text(minor)} with the declared conditions",
            )
        return ConcavityResult(
            "undetermined",
            f"sign of minor over ({label}) = {to_text(minor)} is not decided "
            "by the declared conditions",
        )
    return ConcavityResult("confirmed", "gradient quadratic form is negative semidefinite")


def _idx_label(grads: Sequence[JetVariable], idx: tuple[int, ...]) -> str:
    parts = []
    for g, e in zip(grads, idx):
        if e:
            parts.append(g.text() if e == 1 else f"{g.text()}^{e}")
    return "*".join(parts)


# -- driver ------------------------------------------------------------------


def validate_solution(model: ModelSpec, solution: CandidateSolution) -> None:
    unames = {u.name: u for u in model.unknowns}
    bound = set()
    for sym, _expr in solution.bindings:
        if sym.name not in unames:
            raise CheckError(f"binding target {sym.name!r} is not a model unknown")
        if sym.orders != (0,) * len(sym.orders):
            raise CheckError(f"bind the base symbol {sym.name!r}, not a derivative")
        if sym.deps != unames[sym.name].deps:
            raise CheckError(
                f"binding for {sym.name!r} does not match its declared dependencies"
            )
        if sym.name in bound:
            raise CheckError(f"{sym.name!r} is bound twice")
        bound.add(sym.name)
    missing = sorted(set(unames) - bound)
    if missing:
        raise CheckError("unbound constitutive unknowns: " + ", ".join(missing))


def check(
    model: ModelSpec,
    report: LiuReport,
    solution: CandidateSolution,
    samples: int | None = None,
    seed: int | None = None,
    tol: float | None = None,
) -> CheckResult:
    problem = sampling_error(samples, tol)
    if problem is not None:
        raise CheckError(problem)
    validate_solution(model, solution)
    statuses, failures = check_equalities(report, solution)
    scen_results: list[ScenarioResult] = []
    for sc in solution.scenarios:
        res = run_scenario(model, report, solution, sc, samples=samples, seed=seed, tol=tol)
        scen_results.append(res)
        if res.failure is not None:
            failures.append(res.failure)
    concavity = max_entropy_at_equilibrium(model, solution)
    if concavity.outcome != "confirmed":
        failures.append(f"equilibrium concavity {concavity.outcome}: {concavity.detail}")
    return CheckResult(
        model.name,
        tuple(statuses),
        tuple(scen_results),
        concavity,
        binding_singularities(solution),
        tuple(failures),
    )


def check_json_dict(result: CheckResult) -> dict:
    return {
        "model": result.model_name,
        "ok": result.ok,
        "equalities": [
            {
                "label": e.label,
                "status": e.status,
                "conditions": list(e.conditions_used),
                "remainder": to_text(e.remainder),
            }
            for e in result.equalities
        ],
        "scenarios": [
            {
                "name": s.name,
                "expect": s.expect,
                "points": s.points,
                "resamples": s.resamples,
                "minResidual": s.min_residual,
                "worstMinor": s.worst_minor,
                "violations": s.violations,
                "asExpected": s.as_expected,
                "failure": s.failure,
            }
            for s in result.scenarios
        ],
        "concavity": {
            "outcome": result.concavity.outcome,
            "detail": result.concavity.detail,
        },
        "singularities": [
            {"unknown": name, "jets": jets} for name, jets in result.singularities
        ],
        "failures": list(result.failures),
    }


def check_text(result: CheckResult) -> str:
    lines = [f"check of model {result.model_name}: {'ok' if result.ok else 'FAILED'}"]
    lines.append("equalities:")
    for e in result.equalities:
        extra = ""
        if e.status == "conditional":
            extra = " (using " + ", ".join(e.conditions_used) + ")"
        elif e.status == "failed":
            extra = f" (remainder {to_text(e.remainder)})"
        lines.append(f"  [{e.label}] {e.status}{extra}")
    for s in result.scenarios:
        lines.append(
            f"scenario {s.name}: expect={s.expect} points={s.points} "
            f"resamples={s.resamples} violations={s.violations} "
            f"minResidual={s.min_residual:.6g}"
            + (f" worstMinor={s.worst_minor:.6g}" if s.worst_minor is not None else "")
            + (" ok" if s.as_expected and s.failure is None else " FAILED")
        )
    lines.append(f"equilibrium concavity: {result.concavity.outcome} ({result.concavity.detail})")
    for name, jets in result.singularities:
        lines.append(f"singular binding: {name} is undefined where {jets} vanishes")
    if result.failures:
        lines.append("failures:")
        for f in result.failures:
            lines.append(f"  - {f}")
    return "\n".join(lines) + "\n"
