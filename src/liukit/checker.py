"""Verification of candidate constitutive equations against derived restrictions.

A candidate binds every constitutive unknown of a model to an explicit
expression over the state space and auxiliary ansatz functions.  Checking has
three parts:

* equalities: each derived equality must vanish identically after binding;
  when it does not, declared equality conditions are substituted (closing
  over derivatives) and the equality passes conditionally if the result is
  zero.
* numeric scenarios: seeded sampling over declared or default ranges, after
  scenario "let" bindings give values to the remaining free functions.
  `run_scenario` is one straight path: list the conditions, each with the
  closed interval around zero its value must lie in, and the judged
  restrictions, each with its label (the residual production, then the
  minors of the quadratic form with prepared entries, expanded here, and
  the even forms that do not vanish); check that only jets are left; compile
  the whole sampling loop, with one running minimum per judged
  restriction, into one generated function (the scenario's only compile);
  run it; and judge.  The bindings and the condition substitution are
  applied once per candidate (`CandidateSolution.bind`); each scenario
  applies only its "let" values.  The loop draws each jet as `uniform`
  does and evaluates the targets through the statements of
  `expr.float_body`, bit for bit as `Expression.evaluate` gives them; a
  target without jets is folded from its exact value.  A scenario expected
  to pass that does not names the first judged restriction below -tol at
  the first violating point, that point and its worst value.  A minimum
  that is not finite is written as null in the JSON record.
* equilibrium concavity: the bound entropy, as a quadratic form in the
  gradient state variables, must be negative semidefinite so that uniform
  states maximize it; the decision uses the declared sign conditions.
"""
from __future__ import annotations

import random
from math import inf, isfinite, nan, prod
from typing import NamedTuple, Sequence

from .jet import JetVariable
from .expr import (
    CollectError,
    Expression,
    ExprError,
    Substitution,
    ZERO,
    compile_source,
    float_body,
    to_text,
)
from .balance import ModelSpec
from .liu import LiuReport, _by_degree, _mono_label, quadratic_form

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
    lets = Substitution(dict(scenario.lets))
    n = samples if samples is not None else scenario.samples
    sd = seed if seed is not None else scenario.seed
    tl = tol if tol is not None else scenario.tol
    problem = sampling_error(n, tl)
    if problem is not None:
        raise CheckError(f"scenario {scenario.name!r}: {problem}")

    def prepare(e: Expression) -> Expression:
        return solution.bind(e).subs(lets)

    # The judged restrictions, each with the label a failure names it by: the
    # residual, then the minors and the even forms that do not vanish.  The
    # minors are those of the form with its n(n+1)/2 entries prepared: a
    # determinant commutes with substitution and the normal form is
    # canonical, so each equals prepare(det).  A zero entry keeps its index,
    # so the subsets and labels are the report's.
    restr = report.restrictions
    judged = [(prepare(restr.residual), "residual production")]
    if restr.quadratic is not None:
        q = restr.quadratic
        judged += [
            (d, f"minor over ({', '.join(q.variables[i].text() for i in sub)})")
            for sub, d in q._replace(entries=tuple((i, j, prepare(e)) for i, j, e in q.entries)).minors
        ]
    for f in restr.even_forms:
        form = sum(
            (prepare(c) * prod(Expression.jet(v) ** e for v, e in zip(f.variables, idx))
             for idx, c in f.entries),
            ZERO,
        )
        judged.append((form, f"even form of degree {f.degree} over ({', '.join(v.text() for v in f.variables)})"))
    judged[1:] = [(d, label) for d, label in judged[1:] if not d.is_zero]
    # Each condition with the closed interval its value must lie in: tol, floored.
    conds = []
    for c, e in zip(solution.conditions, solution.bound_conditions):
        lim = max(tl, 1e-9 if c.kind == "eq" else 1e-12)
        conds.append((e.subs(lets), -inf if c.kind == "le" else -lim, inf if c.kind == "ge" else lim))

    atoms = sorted({a for t, *_ in conds + judged for a in t.atoms()}, key=lambda a: a.atom_key)
    unbound = [a.text() for a in atoms if not isinstance(a, JetVariable)]
    if unbound:
        them = "it with a let line" if len(unbound) == 1 else "them with let lines"
        raise CheckError(
            f"scenario {scenario.name!r} leaves {', '.join(unbound)} without a value; bind {them}"
        )
    ranges = {j: (lo, hi) for j, lo, hi in scenario.ranges}
    for j in ranges:
        if j in atoms:
            continue
        if j.field not in model.fields:
            raise CheckError(f"scenario {scenario.name!r} ranges unknown variable {j.text()}")
        if j not in model.space and j not in report.classification.higher:
            raise CheckError(
                f"scenario {scenario.name!r} ranges {j.text()}, which is neither sampled,"
                " a state variable nor a higher derivative"
            )
    bounds = [ranges.get(a, _default_range(a)) for a in atoms]
    sample = _sampler(conds, judged, atoms, bounds, n, n * _MAX_RESAMPLE_FACTOR, -tl)
    stop, produced, resamples, violations, mins, witness = sample(random.Random(sd).random)

    def at(point: Sequence[float]) -> str:
        where = ", ".join(f"{a.text()} = {x:.6g}" for a, x in zip(atoms, point))
        return f" at {where}" if where else ""

    if stop is None:
        failure = None
    elif isinstance(stop, tuple):
        # The witness: the condition's value at the point where it fails.
        k, point, value = stop
        failure = (
            f"scenario {scenario.name!r}: condition {solution.conditions[k].name!r} fails at sample "
            f"{produced} (seed {sd}): its value is {value:.6g}" + at(point)
        )
    else:
        failure = f"scenario {scenario.name!r}: {stop}"
    as_expected = failure is None and (violations > 0) == (scenario.expect == "violate")
    if failure is None and not as_expected:
        if scenario.expect == "violate":
            failure = (
                f"scenario {scenario.name!r}: expected a violation but all "
                f"{produced} samples satisfy the restrictions"
            )
        else:
            # The witness: the first target below -tol at the first violating sample.
            index, point, values = witness
            k = next(k for k, v in enumerate(values) if v < -tl)
            failure = (
                f"scenario {scenario.name!r}: a restriction is negative at {violations} of "
                f"{produced} samples; first at sample {index} (seed {sd}): {judged[k][1]} = "
                f"{values[k]:.6g}" + at(point) + f"; its worst value is {mins[k]:.6g}"
            )
    return ScenarioResult(
        scenario.name, scenario.expect, produced, resamples,
        mins[0] if produced else nan, min(mins[1:], default=None), violations, as_expected, failure,
    )


def _sampler(
    conds: Sequence[tuple[Expression, float, float]],
    judged: Sequence[tuple[Expression, str]],
    atoms: Sequence[JetVariable],
    bounds: Sequence[tuple[float, float]],
    n: int,
    cap: int,
    ntl: float,
):
    """Compile a scenario's whole sampling loop into one function, sample(random).

    `conds` are (target, lo, hi): each condition with the closed interval
    its value must lie in.  `judged` are (target, label), the residual
    first: the restrictions a value below `ntl` (-tol) violates, each with
    one running minimum.  `n` points are wanted and at most `cap` are
    drawn.  Every number is written into the source as its repr.  The
    function returns (stop, produced, resamples, violations, mins, witness).
    `stop` is None when n points were produced, (index, point, value) of
    the first condition outside its interval at the last point, or the
    failure text when the cap or a coefficient without a float value ends
    the loop.  The witness is (index, point, judged values) at the first
    violating point.

    Each atom is drawn as lo + (hi - lo)*random(), which is `uniform(lo,
    hi)` on CPython, in atom order, and the targets run through the
    statements of `expr.float_body`, so every value is the one that
    `Expression.evaluate` gives at the same point.  A point at which a target
    raises EvaluationError or overflows is drawn again.  A target without
    atoms is folded from its exact value, 0.0 + float(value), which is what
    those statements compute; one whose value overflows a float stays in
    the loop.  A condition that always holds is not tested.
    """
    # Conditions first, then the judged restrictions: a point fails on the
    # first target that cannot be evaluated there.
    targets = [t for t, _, _ in conds] + [t for t, _ in judged]
    names = [f"r{k}" for k in range(len(targets))]
    folded: dict[int, float] = {}
    for k, t in enumerate(targets):
        if not t.atoms():
            try:
                folded[k] = 0.0 + float(t.as_fraction())
            except OverflowError:
                pass
    body = float_body([(names[k], t) for k, t in enumerate(targets) if k not in folded], atoms)

    values = names[len(conds):]
    mins = [f"m{j}" for j in range(len(judged))]
    xs = "".join(f"x{k}, " for k in range(len(atoms)))
    state = f"produced, resamples, violations, [{', '.join(mins)}], witness"
    judge = []
    for k, (_, lo, hi) in enumerate(conds):
        if k in folded and lo <= folded[k] <= hi:
            continue
        # A finite value always lies within an infinite side of an interval.
        test = " <= ".join(
            ([repr(lo)] if lo != -inf else []) + [names[k]] + ([repr(hi)] if hi != inf else [])
        )
        if test != names[k]:
            judge.append(f"if not {test}: return ({k}, ({xs}), {names[k]}), {state}")
    judge += [f"if {v} < {m}: {m} = {v}" for v, m in zip(values, mins)]
    judge += [
        "if " + " or ".join(f"{v} < {ntl!r}" for v in values) + ":",
        "    violations += 1",
        "    if witness is None:",
        f"        witness = produced, ({xs}), [{', '.join(values)}]",
    ]
    lines = [
        "def sample(r):",
        *(f"    {names[k]} = {v!r}" for k, v in folded.items()),
        "    produced = resamples = violations = 0",
        f"    {' = '.join(mins)} = inf",
        "    witness = None",
        "    try:",
        f"        while produced < {n!r}:",
        f"            if produced + resamples >= {cap!r}:",
        f"                return 'too many singular sample points', {state}",
        *(f"            x{k} = {lo!r} + {hi - lo!r}*r()" for k, (lo, hi) in enumerate(bounds)),
        "            try:",
        *(f"                {line}" for line in body or ["pass"]),
        "            except (_E, OverflowError):",
        "                resamples += 1",
        "                continue",
        "            produced += 1",
        *(f"            {line}" for line in judge),
        "    except _R as exc:",
        f"        return str(exc), {state}",
        f"    return None, {state}",
    ]
    return compile_source("".join(line + "\n" for line in lines), "<liukit sampler>")["sample"]


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
    s_expr = solution.bind(model.entropy.density)
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
                "minResidual": _json_float(s.min_residual),
                "worstMinor": _json_float(s.worst_minor),
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


def _json_float(x: float | None) -> float | None:
    """JSON has no NaN or infinity (RFC 8259): a non-finite value is written as null."""
    return x if x is not None and isfinite(x) else None


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
            f"resamples={s['resamples']} violations={s['violations']}"
            + (f" minResidual={s['minResidual']:.6g}" if s["minResidual"] is not None else "")
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
