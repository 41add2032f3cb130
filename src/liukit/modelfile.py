"""Line-oriented input formats for models and candidate solutions.

A file is a sequence of sections started by a bracketed header.  Inside a
section each logical line is one entry; lines beginning with whitespace
continue the previous entry, `#` starts a comment, blank lines separate
nothing.  Model files declare the fields, the gradient state space, the
balance laws, the entropy and the constitutive unknowns.  Solution files
declare ansatz functions, bind every unknown, state named conditions and
define numeric sampling scenarios; they parse into the `CandidateSolution`
record defined here.  An entry or section that a format does not know is
an error, not ignored.

Model sections::

    [fields]            fields = rho, v, eps      velocity = v
    [state]             order = 1                 vars = rho, eps, rho_x, ...
    [unknowns]          T(rho, eps, rho_x, ...)   one declaration per line
    [balance NAME]      density = ...  flux = ...  production = ...
    [entropy]           form = material|divergence  weight = ...  density = ...  flux = ...

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
import os
import re
from functools import cached_property
from typing import NamedTuple, Sequence

from .jet import Frozen, JetVariable, StateSpace
from .expr import Atom, Expression, FuncSym, ONE, ParseContext, ParseError, Substitution, ZERO, parse
from .balance import BalanceLaw, EntropyDeclaration, ModelSpec


class FileFormatError(ValueError):
    pass


_HEADER_RE = re.compile(r"^\[([A-Za-z]+)(?:\s+([A-Za-z][A-Za-z0-9]*))?\]$")
_DECL_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)\s*(?:\(([^)]*)\))?$")
_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")


def _logical_lines(text: str) -> list[tuple[int, str]]:
    out: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line[0].isspace():
            if not out:
                raise FileFormatError(f"line {lineno}: continuation with nothing to continue")
            prev_no, prev = out[-1]
            out[-1] = (prev_no, prev + " " + line.strip())
        else:
            out.append((lineno, line))
    return out


def _sections(text: str) -> list[tuple[str, str | None, int, list[tuple[int, str]]]]:
    sections: list[tuple[str, str | None, int, list[tuple[int, str]]]] = []
    current: list[tuple[int, str]] | None = None
    for lineno, line in _logical_lines(text):
        if line.startswith("["):
            m = _HEADER_RE.match(line)
            if not m:
                raise FileFormatError(f"line {lineno}: malformed section header {line!r}")
            current = []
            sections.append((m.group(1), m.group(2), lineno, current))
        else:
            if current is None:
                raise FileFormatError(f"line {lineno}: content before any section header")
            current.append((lineno, line))
    return sections


def _key_values(
    lines: list[tuple[int, str]], where: str, known: tuple[str, ...] | None = None
) -> dict[str, tuple[int, str]]:
    out: dict[str, tuple[int, str]] = {}
    for lineno, line in lines:
        if "=" not in line:
            raise FileFormatError(f"line {lineno}: expected 'key = value' in [{where}]")
        key, value = line.split("=", 1)
        key = key.strip()
        if known is not None and key not in known:
            raise FileFormatError(f"line {lineno}: unknown entry {key!r} in [{where}]")
        if key in out:
            raise FileFormatError(f"line {lineno}: duplicate key {key!r} in [{where}]")
        out[key] = (lineno, value.strip())
    return out


def parse_jet_name(name: str, fields: set[str], lineno: int) -> JetVariable:
    base, _, suffix = name.partition("_")
    if base not in fields:
        raise FileFormatError(f"line {lineno}: {base!r} is not a declared field")
    if suffix and set(suffix) != {"x"}:
        raise FileFormatError(
            f"line {lineno}: state variables carry only spatial suffixes, got {name!r}"
        )
    return JetVariable(base, 0, len(suffix))


def _parse_expr(text: str, ctx: ParseContext, lineno: int) -> Expression:
    try:
        return parse(text, ctx)
    except ParseError as exc:
        raise FileFormatError(f"line {lineno}: {exc}") from exc


def _entry_expr(kv: dict, key: str, ctx: ParseContext, default: Expression = ZERO) -> Expression:
    """The expression of entry `key`, or `default` when the section omits it."""
    return _parse_expr(kv[key][1], ctx, kv[key][0]) if key in kv else default


def _split_list(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def _parse_decl(
    line: str, lineno: int, fields: set[str]
) -> tuple[str, tuple[JetVariable, ...]]:
    m = _DECL_RE.match(line)
    if not m:
        raise FileFormatError(f"line {lineno}: malformed declaration {line!r}")
    name = m.group(1)
    if m.group(2) is None or not m.group(2).strip():
        return name, ()
    deps = tuple(parse_jet_name(d, fields, lineno) for d in _split_list(m.group(2)))
    return name, deps


def parse_model(text: str, name: str = "model") -> ModelSpec:
    sections = _sections(text)
    by_kind: dict[str, list] = {}
    for kind, label, lineno, lines in sections:
        if kind not in ("fields", "state", "unknowns", "balance", "entropy"):
            raise FileFormatError(f"line {lineno}: unknown section [{kind}] in a model file")
        by_kind.setdefault(kind, []).append((label, lineno, lines))

    def sole(kind: str) -> tuple[str | None, int, list[tuple[int, str]]]:
        entries = by_kind.get(kind, [])
        if len(entries) != 1:
            raise FileFormatError(f"expected exactly one [{kind}] section, found {len(entries)}")
        return entries[0]

    _, f_line, f_lines = sole("fields")
    fkv = _key_values(f_lines, "fields", ("fields", "velocity"))
    if "fields" not in fkv:
        raise FileFormatError(f"line {f_line}: [fields] needs a 'fields' entry")
    field_names = _split_list(fkv["fields"][1])
    for fname in field_names:
        if not _NAME_RE.match(fname):
            raise FileFormatError(
                f"line {fkv['fields'][0]}: field name {fname!r} must be a plain identifier"
            )
    velocity = None
    if "velocity" in fkv:
        velocity = fkv["velocity"][1]
        if velocity not in field_names:
            raise FileFormatError(
                f"line {fkv['velocity'][0]}: velocity {velocity!r} is not a field"
            )
    ctx = ParseContext()
    for fname in field_names:
        ctx.declare_field(fname)
    fieldset = set(field_names)

    _, s_line, s_lines = sole("state")
    skv = _key_values(s_lines, "state", ("order", "vars"))
    if "order" not in skv or "vars" not in skv:
        raise FileFormatError(f"line {s_line}: [state] needs 'order' and 'vars'")
    try:
        order = int(skv["order"][1])
    except ValueError:
        raise FileFormatError(f"line {skv['order'][0]}: order must be an integer")
    members = [
        parse_jet_name(v, fieldset, skv["vars"][0]) for v in _split_list(skv["vars"][1])
    ]
    space = StateSpace(order, members)

    unknowns: list[FuncSym] = []
    _, _, u_lines = sole("unknowns")
    for lineno, line in u_lines:
        uname, deps = _parse_decl(line, lineno, fieldset)
        if not deps:
            raise FileFormatError(
                f"line {lineno}: constitutive unknown {uname!r} needs state dependencies"
            )
        unknowns.append(ctx.declare_sym(uname, deps))

    laws: list[BalanceLaw] = []
    for label, lineno, lines in by_kind.get("balance", []):
        if label is None:
            raise FileFormatError(f"line {lineno}: balance sections need a name")
        kv = _key_values(lines, f"balance {label}", ("density", "flux", "production"))
        if "density" not in kv:
            raise FileFormatError(f"line {lineno}: [balance {label}] needs a density")
        density = _entry_expr(kv, "density", ctx)
        flux = _entry_expr(kv, "flux", ctx)
        production = _entry_expr(kv, "production", ctx)
        laws.append(BalanceLaw(label, density, flux, production))

    _, e_line, e_lines = sole("entropy")
    ekv = _key_values(e_lines, "entropy", ("form", "weight", "density", "flux"))
    form = ekv.get("form", (e_line, "divergence"))[1]
    if "density" not in ekv:
        raise FileFormatError(f"line {e_line}: [entropy] needs a density")
    density = _entry_expr(ekv, "density", ctx)
    eflux = _entry_expr(ekv, "flux", ctx)
    weight = _entry_expr(ekv, "weight", ctx, ONE)
    entropy = EntropyDeclaration(form=form, density=density, flux=eflux, weight=weight)

    return ModelSpec(
        name=name,
        fields=tuple(field_names),
        velocity=velocity,
        space=space,
        laws=tuple(laws),
        entropy=entropy,
        unknowns=tuple(unknowns),
        ctx=ctx,
        source_text=text,
    )


# -- solutions ---------------------------------------------------------------


DEFAULT_SAMPLES = 64
DEFAULT_TOL = 1e-9


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

    # Built once per candidate and shared by every part of a check, so each
    # derivative atom of a bound symbol is derived once.
    @cached_property
    def binding_substitution(self) -> Substitution:
        return Substitution(dict(self.bindings))

    @cached_property
    def condition_substitution(self) -> Substitution:
        """Equality conditions whose left side is a single atom, as bindings."""
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
        if c.kind != "eq":
            continue
        atoms = c.lhs.atoms()
        if len(atoms) == 1 and c.lhs == Expression.atom(next(iter(atoms))):
            subs[next(iter(atoms))] = c.rhs
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


def parse_solution(text: str, model: ModelSpec) -> CandidateSolution:
    sections = _sections(text)
    ctx = ParseContext(fields=model.ctx.fields, syms=dict(model.ctx.syms))
    fieldset = set(model.fields)
    ansatz: list[FuncSym] = []
    bindings: list[tuple[FuncSym, Expression]] = []
    conditions: list[Condition] = []
    scenarios: list[NumericScenario] = []
    seen = {"ansatz": 0, "bindings": 0, "conditions": 0}

    for kind, label, s_lineno, lines in sections:
        if kind == "ansatz":
            seen["ansatz"] += 1
            for lineno, line in lines:
                aname, deps = _parse_decl(line, lineno, fieldset)
                ansatz.append(ctx.declare_sym(aname, deps))
        elif kind == "bindings":
            seen["bindings"] += 1
            for lineno, line in lines:
                if "=" not in line:
                    raise FileFormatError(f"line {lineno}: expected 'unknown = expression'")
                key, value = line.split("=", 1)
                key = key.strip()
                try:
                    target = model.unknown(key)
                except Exception:
                    raise FileFormatError(
                        f"line {lineno}: {key!r} is not a constitutive unknown of the model"
                    )
                bindings.append((target, _parse_expr(value, ctx, lineno)))
        elif kind == "conditions":
            seen["conditions"] += 1
            for lineno, line in lines:
                if ":" not in line:
                    raise FileFormatError(f"line {lineno}: expected 'name: statement'")
                cname, stmt = line.split(":", 1)
                cname = cname.strip()
                if not _NAME_RE.match(cname):
                    raise FileFormatError(f"line {lineno}: bad condition name {cname!r}")
                conditions.append(_parse_condition(cname, stmt.strip(), ctx, lineno))
        elif kind == "scenario":
            if label is None:
                raise FileFormatError(f"line {s_lineno}: scenario sections need a name")
            scenarios.append(_parse_scenario(label, lines, ctx, fieldset))
        else:
            raise FileFormatError(f"line {s_lineno}: unknown section [{kind}] in a solution file")

    for key, count in seen.items():
        if count > 1:
            raise FileFormatError(f"more than one [{key}] section")
    return CandidateSolution(
        ansatz=tuple(ansatz),
        bindings=tuple(bindings),
        conditions=tuple(conditions),
        scenarios=tuple(scenarios),
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
        _atom_of(lhs, lineno)  # equality conditions rewrite a single symbol
        return Condition(name, "eq", lhs, _parse_expr(rhs_text, ctx, lineno))
    raise FileFormatError(f"line {lineno}: condition needs '=', '>= 0' or '<= 0'")


def _parse_scenario(
    name: str, lines: list[tuple[int, str]], ctx: ParseContext, fields: set[str]
) -> NumericScenario:
    samples = DEFAULT_SAMPLES
    seed = 0
    tol = DEFAULT_TOL
    expect = "pass"
    ranges: list[tuple[JetVariable, float, float]] = []
    lets: list[tuple[object, Expression]] = []
    seen: set[str] = set()

    def once(what: str, lineno: int) -> None:
        # A repeated entry would silently override the first one.
        if what in seen:
            raise FileFormatError(f"line {lineno}: duplicate {what} in [scenario {name}]")
        seen.add(what)

    for lineno, line in lines:
        rm = _RANGE_RE.match(line)
        if rm:
            j = parse_jet_name(rm.group(1), fields, lineno)
            once(f"range for {j.text()}", lineno)
            try:
                lo, hi = float(rm.group(2)), float(rm.group(3))
            except ValueError:
                raise FileFormatError(f"line {lineno}: malformed range bounds")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                # Every point of such a range samples to NaN or inf.
                raise FileFormatError(f"line {lineno}: range bounds for {j.text()} must be finite")
            if hi < lo:
                raise FileFormatError(f"line {lineno}: empty range for {j.text()}")
            ranges.append((j, lo, hi))
            continue
        lm = _LET_RE.match(line)
        if lm:
            atom = _atom_of(_parse_expr(lm.group(1), ctx, lineno), lineno)
            once(f"let for {atom.text()}", lineno)
            lets.append((atom, _parse_expr(lm.group(2), ctx, lineno)))
            continue
        if "=" not in line:
            raise FileFormatError(f"line {lineno}: malformed scenario line {line!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        once(f"key {key!r}", lineno)
        try:
            if key == "samples":
                samples = int(value)
            elif key == "seed":
                seed = int(value)
            elif key == "tol":
                tol = float(value)
        except ValueError:
            raise FileFormatError(f"line {lineno}: bad number for {key!r}")
        if key in ("samples", "seed", "tol"):
            problem = sampling_error(samples, tol)
            if problem is not None:
                raise FileFormatError(f"line {lineno}: {problem}")
        elif key == "expect":
            if value not in ("pass", "violate"):
                raise FileFormatError(f"line {lineno}: expect must be 'pass' or 'violate'")
            expect = value
        else:
            raise FileFormatError(f"line {lineno}: unknown scenario entry {key!r}")
    return NumericScenario(
        name=name,
        samples=samples,
        seed=seed,
        tol=tol,
        expect=expect,
        ranges=tuple(ranges),
        lets=tuple(lets),
    )


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise FileFormatError(f"{path}: not UTF-8 text") from None


def load_model(path: str, name: str | None = None) -> ModelSpec:
    return parse_model(_read_text(path), name or os.path.splitext(os.path.basename(path))[0])


def load_solution(path: str, model: ModelSpec) -> CandidateSolution:
    return parse_solution(_read_text(path), model)
