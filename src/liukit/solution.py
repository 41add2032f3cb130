"""Candidate solution files and the records they parse into.

A solution file binds every constitutive unknown of a model to an explicit
expression and says how `check` judges the result.  It is read by the
section and entry readers of `liukit.modelfile`; the grammar and the records
live here, because only `check` reads a solution file, and a `derive`
process then compiles none of this module.

Solution sections::

    [ansatz]            s0(rho, eps)   tau1(rho, eps)   s1
    [bindings]          T = rho^2*D(s0, rho)/D(s0, eps) + tau1*v_x
    [conditions]        name: lhs = rhs   |   name: expr >= 0   |   name: expr <= 0
    [scenario NAME]     samples = 64  seed = 7  tol = 1e-9  expect = pass
                        range eps_x = -1 .. 1
                        let D(s0, eps) = 1/eps
"""
from __future__ import annotations

import math
import re
from functools import cached_property
from typing import NamedTuple, Sequence

from .jet import Frozen, JetVariable
from .expr import Atom, Expression, FuncSym, ParseContext, ZERO
from .balance import ModelError, ModelSpec
from .modelfile import (
    FileFormatError,
    _NAME_RE,
    _grouped,
    _key_values,
    _number,
    _parse_decl,
    _parse_expr,
    _read_text,
    parse_jet_name,
)
from .subst import Substitution


DEFAULT_SAMPLES = 64
DEFAULT_TOL = 1e-9


class Condition(NamedTuple):
    name: str
    kind: str  # "eq" (lhs = rhs), "ge" (lhs >= rhs) or "le" (lhs <= rhs)
    lhs: Expression
    rhs: Expression

    def as_zero(self) -> Expression:
        """lhs - rhs, which the kind compares with 0."""
        return self.lhs - self.rhs


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

    # Built once per candidate and shared by every part of a check, so each
    # derivative atom of a bound symbol is derived once.
    @cached_property
    def binding_substitution(self) -> Substitution:
        return Substitution(dict(self.bindings))

    @cached_property
    def condition_substitution(self) -> Substitution:
        """Equality conditions whose left side is a function-symbol atom, as bindings."""
        return Substitution(_condition_substitutions(self.conditions))

    @cached_property
    def bound_conditions(self) -> tuple[Expression, ...]:
        """Each condition's `as_zero` expression with the bindings substituted."""
        return tuple(c.as_zero().subs(self.binding_substitution) for c in self.conditions)

    @cached_property
    def _bound(self) -> dict[Expression, Expression]:
        return {}

    def bind(self, e: Expression) -> Expression:
        """e with the bindings, then the condition substitution, substituted.

        Kept per candidate, so every scenario of a check applies only its
        own `let` values to an expression that was bound once.
        """
        out = self._bound.get(e)
        if out is None:
            out = self._bound[e] = e.subs(self.binding_substitution).subs(self.condition_substitution)
        return out


def _condition_substitutions(conditions: Sequence[Condition]) -> dict[Atom, Expression]:
    subs: dict[Atom, Expression] = {}
    for c in conditions:
        atoms = c.lhs.atoms()
        if c.kind == "eq" and len(atoms) == 1:
            (a,) = atoms
            # A jet is the state the candidate is judged on: never rewritten.
            if isinstance(a, FuncSym) and c.lhs == Expression.atom(a):
                subs[a] = c.rhs
    return subs


def _atom_of(expr: Expression, lineno: int):
    atoms = expr.atoms()
    if len(atoms) == 1:
        a = next(iter(atoms))
        if expr == Expression.atom(a):
            return a
    raise FileFormatError(f"line {lineno}: left side must be a single variable or D(...) atom")


_RANGE_RE = re.compile(r"^range\s+(\S+)\s*=\s*(\S+)\s*\.\.\s*(\S+)$")
_LET_RE = re.compile(r"^let\s+(.+?)\s*=\s*(.+)$")
_SOLUTION_SECTIONS = {"ansatz": "optional", "bindings": "optional", "conditions": "optional", "scenario": "named"}


def parse_solution(text: str, model: ModelSpec) -> CandidateSolution:
    groups = _grouped(text, _SOLUTION_SECTIONS, "solution")
    ctx = ParseContext(model.fields, {u.name: u.deps for u in model.unknowns})
    fieldset = set(model.fields)
    # The ansatz and an unknown of the same name would be one symbol.
    taken = {u.name: f"ansatz {u.name!r} is a constitutive unknown of the model" for u in model.unknowns}
    ansatz: list[FuncSym] = []
    for lineno, line in groups["ansatz"][1]:
        a = _parse_decl(line, lineno, fieldset, ctx, taken)
        taken[a.name] = f"ansatz {a.name!r} is declared twice"
        ansatz.append(a)
    bindings: list[tuple[FuncSym, Expression]] = []
    for key, (lineno, value) in _key_values(groups["bindings"][1], "bindings").items():
        try:
            target = model.unknown(key)
        except ModelError:
            raise FileFormatError(f"line {lineno}: {key!r} is not a constitutive unknown of the model")
        bindings.append((target, _parse_expr(value, ctx, lineno)))
    conditions: list[Condition] = []
    for cname, (lineno, stmt) in _key_values(groups["conditions"][1], "conditions", sep=":").items():
        if not _NAME_RE.match(cname):
            raise FileFormatError(f"line {lineno}: bad condition name {cname!r}")
        conditions.append(_parse_condition(cname, stmt, ctx, lineno))
    return CandidateSolution(
        ansatz=tuple(ansatz),
        bindings=tuple(bindings),
        conditions=tuple(conditions),
        scenarios=tuple(_parse_scenario(label, lines, ctx, model) for label, _, lines in groups["scenario"]),
    )


def _parse_condition(name: str, stmt: str, ctx: ParseContext, lineno: int) -> Condition:
    for op, kind in ((">=", "ge"), ("<=", "le")):
        if op in stmt:
            lhs_text, rhs_text = stmt.split(op, 1)
            rhs = _parse_expr(rhs_text, ctx, lineno)
            if not rhs.is_zero:
                raise FileFormatError(
                    f"line {lineno}: sign conditions must compare against 0"
                )
            return Condition(name, kind, _parse_expr(lhs_text, ctx, lineno), ZERO)
    if "=" in stmt:
        lhs_text, rhs_text = stmt.split("=", 1)
        lhs = _parse_expr(lhs_text, ctx, lineno)
        # Equality conditions rewrite a single function symbol, never the state.
        if isinstance(atom := _atom_of(lhs, lineno), JetVariable):
            raise FileFormatError(
                f"line {lineno}: equality condition {name!r} rewrites the jet {atom.text()};"
                " its left side must be a function symbol"
            )
        return Condition(name, "eq", lhs, _parse_expr(rhs_text, ctx, lineno))
    raise FileFormatError(f"line {lineno}: condition needs '=', '>= 0' or '<= 0'")


def _parse_scenario(
    name: str, lines: list[tuple[int, str]], ctx: ParseContext, model: ModelSpec
) -> NumericScenario:
    where = f"scenario {name}"
    ranges: dict[JetVariable, tuple[float, float]] = {}
    lets: dict[Atom, Expression] = {}
    entries: list[tuple[int, str]] = []
    for lineno, line in lines:
        if rm := _RANGE_RE.match(line):
            j = parse_jet_name(rm.group(1), set(model.fields), lineno)
            if j in ranges:
                raise FileFormatError(f"line {lineno}: duplicate range for {j.text()} in [{where}]")
            try:
                lo, hi = float(rm.group(2)), float(rm.group(3))
            except ValueError:
                raise FileFormatError(f"line {lineno}: malformed range bounds")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                # Every point of such a range samples to NaN or inf.
                raise FileFormatError(f"line {lineno}: range bounds for {j.text()} must be finite")
            if hi < lo:
                raise FileFormatError(f"line {lineno}: empty range for {j.text()}")
            if not math.isfinite(hi - lo):
                # lo + (hi - lo)*random() is then inf or NaN at every point.
                raise FileFormatError(f"line {lineno}: range width for {j.text()} overflows a float")
            ranges[j] = (lo, hi)
        elif lm := _LET_RE.match(line):
            atom = _atom_of(_parse_expr(lm.group(1), ctx, lineno), lineno)
            if isinstance(atom, FuncSym) and any(u.name == atom.name for u in model.unknowns):
                # The bindings replace every unknown before a scenario's lets apply.
                raise FileFormatError(
                    f"line {lineno}: let for {atom.text()} rewrites the constitutive unknown"
                    f" {atom.name!r}, which its binding replaces first"
                )
            if atom in lets:
                raise FileFormatError(f"line {lineno}: duplicate let for {atom.text()} in [{where}]")
            lets[atom] = _parse_expr(lm.group(2), ctx, lineno)
        else:
            entries.append((lineno, line))
    kv = _key_values(entries, where, ("samples", "seed", "tol", "expect"))
    samples = _number(kv, "samples", int, DEFAULT_SAMPLES)
    seed = _number(kv, "seed", int, 0)
    tol = _number(kv, "tol", float, DEFAULT_TOL)
    for key, problem in (("samples", sampling_error(samples, None)), ("tol", sampling_error(None, tol))):
        if problem is not None:
            raise FileFormatError(f"line {kv[key][0]}: {problem}")
    lineno, expect = kv.get("expect", (0, "pass"))
    if expect not in ("pass", "violate"):
        raise FileFormatError(f"line {lineno}: expect must be 'pass' or 'violate'")
    return NumericScenario(
        name=name,
        samples=samples,
        seed=seed,
        tol=tol,
        expect=expect,
        ranges=tuple((j, lo, hi) for j, (lo, hi) in ranges.items()),
        lets=tuple(lets.items()),
    )


def load_solution(path: str, model: ModelSpec) -> CandidateSolution:
    return parse_solution(_read_text(path), model)
