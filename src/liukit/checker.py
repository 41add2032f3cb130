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
  "let" bindings give values to the remaining free functions.  The minors
  are built from the prepared entries of the quadratic form, not prepared
  one by one.  Each scenario compiles its targets once into one float
  function over the sampled jets (`expr.compile_floats`); every value
  rounds as the term-by-term sum over the printed normal form does.
* equilibrium concavity: the bound entropy, as a quadratic form in the
  gradient state variables, must be negative semidefinite so that uniform
  states maximize it; the decision uses the declared sign conditions.
"""
from __future__ import annotations

import random
from typing import Callable, NamedTuple, Sequence

from .jet import JetVariable
from .expr import (
    CoefficientRangeError,
    CollectError,
    EvaluationError,
    Expression,
    ExprError,
    Substitution,
    ZERO,
    compile_floats,
    principal_minors,
    to_text,
)
from .balance import ModelSpec
from .liu import LiuReport, QuadraticForm, _by_degree, _mono_label, quadratic_form

# The solution records are defined beside their parser and stay importable from here.
from .modelfile import (  # noqa: F401
    DEFAULT_SAMPLES,
    DEFAULT_TOL,
    CandidateSolution,
    CheckError,
    Condition,
    NumericScenario,
    sampling_error,
)

DEFAULT_FIELD_RANGE = (0.5, 2.0)
DEFAULT_GRADIENT_RANGE = (-1.0, 1.0)
_MAX_RESAMPLE_FACTOR = 50


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


def check_equalities(
    report: LiuReport, solution: CandidateSolution
) -> tuple[list[EqualityStatus], list[str]]:
    statuses: list[EqualityStatus] = []
    failures: list[str] = []
    for eq in report.restrictions.equalities:
        bound = eq.expr.subs(solution.binding_substitution)
        if bound.is_zero:
            statuses.append(EqualityStatus(eq.label, "identical", (), ZERO))
            continue
        after = bound.subs(solution.condition_substitution)
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


def prepared_minors(
    quadratic: QuadraticForm, prepare: Callable[[Expression], Expression]
) -> list[Expression]:
    """The form's principal minors, in report order, built from its prepared entries.

    Only the n(n+1)/2 entries go through `prepare`, not the 2^n - 1 expanded
    minors.  A determinant commutes with substitution and the normal form is
    canonical, so each result is structurally equal to prepare(det).
    """
    return principal_minors(quadratic.matrix(prepare), [sub for sub, _ in quadratic.minors])


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
        return e.subs(bindings).subs(cond_subs).subs(lets)

    residual = prepare(report.restrictions.residual)
    minors: list[Expression] = []
    quadratic = report.restrictions.quadratic
    if quadratic is not None:
        minors = [d for d in prepared_minors(quadratic, prepare) if not d.is_zero]
    for f in report.restrictions.even_forms:
        poly = ZERO
        for idx, coeff in f.entries:
            term = prepare(coeff)
            for v, e in zip(f.variables, idx):
                if e:
                    term = term * Expression.jet(v) ** e
            poly = poly + term
        if not poly.is_zero:
            minors.append(poly)
    conds = [c.as_zero().subs(bindings).subs(lets) for c in solution.conditions]

    targets = [residual] + minors + conds
    free: set[JetVariable] = set()
    for t in targets:
        for a in t.atoms():
            if isinstance(a, JetVariable):
                free.add(a)
            else:
                raise CheckError(
                    f"scenario {scenario.name!r} leaves {a.text()} without a value; "
                    "bind it with a let line"
                )
    atoms = sorted(free, key=JetVariable.sort_key)
    ranges = {j: (lo, hi) for j, lo, hi in scenario.ranges}
    for j in ranges:
        if j not in free and j.field not in model.fields:
            raise CheckError(f"scenario {scenario.name!r} ranges unknown variable {j.text()}")
    bounds = [ranges.get(a, _default_range(a)) for a in atoms]
    # Conditions first, then the residual, then the minors: a point fails on
    # the first target that cannot be evaluated there.
    values = compile_floats(conds + [residual] + minors, atoms)
    nc = len(conds)
    # (name, kind, allowed deviation) per condition: the tolerance, floored.
    limits = [
        (c.name, c.kind, max(tl, 1e-9 if c.kind == "eq" else 1e-12)) for c in solution.conditions
    ]

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
        try:
            out = values([rng.uniform(lo, hi) for lo, hi in bounds])
        except EvaluationError:
            resamples += 1
            continue
        except CoefficientRangeError as exc:
            # A property of the bound targets: no other point can help.
            failure = f"scenario {scenario.name!r}: {exc}"
            break
        produced += 1
        bad = _condition_violation(limits, out)
        if bad is not None:
            failure = (
                f"scenario {scenario.name!r}: condition {bad!r} fails at sample {produced}"
            )
            break
        rv = out[nc]
        mvals = out[nc + 1:]
        min_res = min(min_res, rv)
        if mvals:
            worst_minor = min(worst_minor, *mvals)
        if rv < -tl or any(v < -tl for v in mvals):
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


def _condition_violation(limits: list[tuple[str, str, float]], values) -> str | None:
    for (name, kind, lim), v in zip(limits, values):
        if kind == "eq":
            if abs(v) > lim:
                return name
        elif kind == "ge":
            if v < -lim:
                return name
        elif kind == "le":
            if v > lim:
                return name
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

    The entropy is split by degree in the gradient state variables, as
    `derive` splits its restrictions.  A linear part refutes (no
    stationarity) whatever else is present; a term of degree 3 or more leaves
    the test undetermined.  The quadratic form must be negative semidefinite:
    its minors are decided in report order through the declared sign
    conditions.  A candidate whose conditions fail to imply semidefiniteness
    is refuted: it admits parameter values for which uniform states are not
    entropy maxima.
    """
    s_expr = model.entropy.density.subs(solution.binding_substitution).subs(
        solution.condition_substitution
    )
    grads = [w for w in model.space.sorted_members() if w.x_order >= 1]
    if not grads:
        return ConcavityResult("confirmed", "state space has no gradient variables")
    try:
        parts = _by_degree(s_expr, grads)
    except CollectError as exc:
        return ConcavityResult("undetermined", f"entropy is not polynomial in the gradients: {exc}")
    if 1 in parts:
        return ConcavityResult(
            "refuted",
            f"entropy has a gradient-linear term ({_mono_label(grads, parts[1][0][0])}): "
            "uniform states are not stationary",
        )
    degree = min((d for d in parts if d > 2), default=None)
    if degree is not None:
        return ConcavityResult(
            "undetermined",
            f"entropy has a gradient term of degree {degree}; only quadratic "
            "corrections are decided",
        )
    if 2 not in parts:
        return ConcavityResult("confirmed", "entropy has no gradient dependence")
    for sub, minor in quadratic_form(grads, parts[2]).minors:
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
    return format_check(check_json_dict(result))


def format_check(record: dict) -> str:
    """The text report: the record of `check_json_dict`, printed."""
    lines = [f"check of model {record['model']}: {'ok' if record['ok'] else 'FAILED'}"]
    lines.append("equalities:")
    for e in record["equalities"]:
        extra = ""
        if e["status"] == "conditional":
            extra = " (using " + ", ".join(e["conditions"]) + ")"
        elif e["status"] == "failed":
            extra = f" (remainder {e['remainder']})"
        lines.append(f"  [{e['label']}] {e['status']}{extra}")
    for s in record["scenarios"]:
        lines.append(
            f"scenario {s['name']}: expect={s['expect']} points={s['points']} "
            f"resamples={s['resamples']} violations={s['violations']} "
            f"minResidual={s['minResidual']:.6g}"
            + (f" worstMinor={s['worstMinor']:.6g}" if s["worstMinor"] is not None else "")
            + (" ok" if s["asExpected"] and s["failure"] is None else " FAILED")
        )
    c = record["concavity"]
    lines.append(f"equilibrium concavity: {c['outcome']} ({c['detail']})")
    for s in record["singularities"]:
        lines.append(f"singular binding: {s['unknown']} is undefined where {s['jets']} vanishes")
    if record["failures"]:
        lines.append("failures:")
        lines += [f"  - {f}" for f in record["failures"]]
    return "\n".join(lines) + "\n"
