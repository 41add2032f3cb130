"""Child process of the benchmark: set-up probe, untraced and traced pipeline.

    python3 bench/probe.py setup  INPUT_INDEX WORKLOAD
    python3 bench/probe.py plain  INPUT_INDEX WORKLOAD SEED
    python3 bench/probe.py traced INPUT_INDEX WORKLOAD SEED

Each mode runs in a fresh process and prints one JSON object.

* setup  - import liukit the way the CLI does and load the input's model
           (and solution); reports the time this took.
* plain  - the real entry points (`liu.derive`, `checker.check`) and the
           JSON rendering, untraced.
* traced - the same work driven phase by phase, with kernel counters
           wrapped around public functions of `liukit.expr`.  The program
           itself is not instrumented: spans and counters exist only in
           this process.  The report hash it prints must equal the plain
           one, so the per-layer split cannot drift from the real pipeline.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402

from inputs import CHECK_SAMPLES, WORKLOADS, Input  # noqa: E402


class Tracer:
    """Span self times and call counts, kept in memory."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._child = [0.0]  # time covered by child spans, per open span

    def _enter(self) -> float:
        self._child.append(0.0)
        return time.perf_counter()

    def _exit(self, name: str, t0: float) -> None:
        dt = time.perf_counter() - t0
        child = self._child.pop()
        self._child[-1] += dt
        self.self_s[name] = self.self_s.get(name, 0.0) + dt - child

    @contextmanager
    def span(self, name: str):
        t0 = self._enter()
        try:
            yield
        finally:
            self._exit(name, t0)

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, t0)

        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the kernel's public entry points in this process."""
        from liukit import expr

        cls = expr.Expression
        cls.subs = self.timed("expr.subs", cls.subs)
        cls.total_x = self.timed("expr.total_x", cls.total_x)
        cls.evaluate = self.timed("expr.evaluate", cls.evaluate)
        # Called through module globals inside expr, so rebinding them there
        # reaches every internal call.
        expr.poly_gcd = self.timed("expr.poly_gcd", expr.poly_gcd)
        expr.p_mul = self.counted("expr.p_mul", expr.p_mul)
        calls = self.calls

        def counting_new(klass, *args, **kwargs):
            calls["expr.expressions"] = calls.get("expr.expressions", 0) + 1
            return object.__new__(klass)

        cls.__new__ = staticmethod(counting_new)


def _terms(e) -> int:
    """Monomials in numerator and denominator; a denominator of 1 counts none."""
    return len(e.num_poly()) + (0 if e.den_is_one else len(e.den_poly()))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- untraced -----------------------------------------------------------------


def plain(inp: Input, seed: int) -> dict:
    from liukit._util import stable_json
    from liukit.checker import check, check_json_dict
    from liukit.liu import derive, report_json_dict

    t0 = time.perf_counter()
    model, solution = inp.load()
    if inp.command == "derive":
        text = stable_json(report_json_dict(derive(model, mode=inp.mode)))
    else:
        report = derive(model, mode=inp.mode)
        result = check(model, report, solution, samples=CHECK_SAMPLES, seed=seed)
        text = stable_json(check_json_dict(result))
    data = text.encode()
    return {"total_s": time.perf_counter() - t0, "sha256": _sha(data)}


# -- traced -------------------------------------------------------------------


def _traced_derive(tr: Tracer, model, mode: str, sizes: dict):
    """`liu.derive`, one phase per span."""
    from liukit import liu
    from liukit.jet import classify

    with tr.span("liu.decouple"):
        cls = classify(model.space, model.fields)
        dec = liu.decouple(model)
    with tr.span("liu.assemble"):
        selection = liu.select_constraints(model, mode=mode)
        ineq = liu.constrained_inequality(model, dec, selection)
    with tr.span("liu.solve"):
        sol = liu.solve_multipliers(model, dec, selection, ineq)
    with tr.span("liu.emit"):
        higher = cls.sorted_higher()
        restrictions = liu.emit_restrictions(model, cls, sol.reduced)
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
        report = liu.LiuReport(
            model=model,
            mode=selection.mode,
            classification=cls,
            selection=selection,
            decoupled=dec,
            multipliers=sol.values,
            restrictions=restrictions,
            nonzero=sol.nonzero,
            diagnostics=diagnostics,
        )
    minors = restrictions.quadratic.minors if restrictions.quadratic is not None else ()
    sizes["liu.constraints"] += len(selection.entries)
    sizes["liu.ineq_terms"] += _terms(ineq)
    sizes["liu.reduced_terms"] += _terms(sol.reduced)
    sizes["liu.minors"] += len(minors)
    sizes["liu.minor_terms"] += sum(_terms(d) for _, d in minors)
    sizes["liu.equalities"] += len(restrictions.equalities)
    return report


def _traced_check(tr: Tracer, model, solution, report, seed: int, sizes: dict):
    """`checker.check`, one phase per span."""
    from liukit import checker

    with tr.span("checker.equalities"):
        checker.validate_solution(model, solution)
        statuses, failures = checker.check_equalities(report, solution)
    with tr.span("checker.scenario"):
        scenarios = []
        for sc in solution.scenarios:
            res = checker.run_scenario(model, report, solution, sc, samples=CHECK_SAMPLES, seed=seed)
            scenarios.append(res)
            if res.failure is not None:
                failures.append(res.failure)
    with tr.span("checker.concavity"):
        concavity = checker.max_entropy_at_equilibrium(model, solution)
        if concavity.outcome != "confirmed":
            failures.append(f"equilibrium concavity {concavity.outcome}: {concavity.detail}")
    sizes["checker.points"] += sum(s.points for s in scenarios)
    sizes["checker.resamples"] += sum(s.resamples for s in scenarios)
    sizes["checker.violations"] += sum(s.violations for s in scenarios)
    return checker.CheckResult(
        model.name,
        tuple(statuses),
        tuple(scenarios),
        concavity,
        checker.binding_singularities(solution),
        tuple(failures),
    )


SIZE_KEYS = (
    "liu.constraints", "liu.ineq_terms", "liu.reduced_terms", "liu.minors",
    "liu.minor_terms", "liu.equalities", "liu.report_bytes",
    "checker.points", "checker.resamples", "checker.violations",
)
SPANS = (
    "modelfile.parse", "liu.decouple", "liu.assemble", "liu.solve", "liu.emit",
    "liu.render", "checker.equalities", "checker.scenario", "checker.concavity",
    "checker.render", "expr.subs", "expr.total_x", "expr.evaluate", "expr.poly_gcd",
)
CALLS = {
    "expr.subs": "expr.subs_calls",
    "expr.total_x": "expr.total_x_calls",
    "expr.evaluate": "expr.evaluate_calls",
    "expr.poly_gcd": "expr.poly_gcd_calls",
    "expr.p_mul": "expr.p_mul_calls",
    "expr.expressions": "expr.expressions",
}


def traced(inp: Input, seed: int) -> dict:
    from liukit._util import stable_json
    from liukit.checker import check_json_dict
    from liukit.liu import report_json_dict

    tr = Tracer()
    tr.install()
    sizes = dict.fromkeys(SIZE_KEYS, 0)
    t0 = time.perf_counter()
    with tr.span("modelfile.parse"):
        model, solution = inp.load()
    report = _traced_derive(tr, model, inp.mode, sizes)
    if inp.command == "derive":
        with tr.span("liu.render"):
            data = stable_json(report_json_dict(report)).encode()
        sizes["liu.report_bytes"] += len(data)
    else:
        result = _traced_check(tr, model, solution, report, seed, sizes)
        with tr.span("checker.render"):
            data = stable_json(check_json_dict(result)).encode()
    total = time.perf_counter() - t0
    return {
        "total_s": total,
        "sha256": _sha(data),
        "self_s": {name: tr.self_s.get(name, 0.0) for name in SPANS},
        "counts": {**sizes, **{metric: tr.calls.get(name, 0) for name, metric in CALLS.items()}},
    }


# -- set-up ---------------------------------------------------------------------


def setup(inp: Input) -> dict:
    """Import the CLI's module graph and load the input, as `liukit` does first."""
    import liukit
    import liukit.cli  # noqa: F401

    inp.load()
    return {"setup_s": time.perf_counter() - T_START, "liukit": liukit.__file__}


def main(argv: list[str]) -> int:
    mode, index, workload = argv[0], int(argv[1]), argv[2]
    inp = WORKLOADS[workload][index]
    if mode == "setup":
        out = setup(inp)
    elif mode == "plain":
        out = plain(inp, int(argv[3]))
    elif mode == "traced":
        out = traced(inp, int(argv[3]))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
