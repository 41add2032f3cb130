"""Line-oriented input formats for models and candidate solutions.

A file is a sequence of sections started by a bracketed header.  Inside a
section each logical line is one entry; lines beginning with whitespace
continue the previous entry, `#` starts a comment, blank lines separate
nothing.  Model files declare the fields, the gradient state space, the
balance laws, the entropy and the constitutive unknowns.  Solution files
declare ansatz functions, bind every unknown, state named conditions and
define numeric sampling scenarios; they parse into the `CandidateSolution`
record defined here.

`_grouped` reads both formats through one table each, which says how often
a section kind appears: `one` (no name, exactly once), `optional` (no name,
at most once) or `named` (`[kind NAME]`, each name once).  Every entry but a
scenario's `range` and `let` lines is read by `_key_values`, as `key = value`
or, under `[conditions]`, `name: statement`.  An unknown section or entry, a
missing or unexpected name and a repeated section or key are line errors.

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
from .balance import BalanceLaw, EntropyDeclaration, ModelError, ModelSpec


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


_MODEL_SECTIONS = {"fields": "one", "state": "one", "unknowns": "one", "balance": "named", "entropy": "one"}
_SOLUTION_SECTIONS = {"ansatz": "optional", "bindings": "optional", "conditions": "optional", "scenario": "named"}


def _grouped(text: str, kinds: dict[str, str], what: str) -> dict:
    """The sections of a `what` file, checked against the table `kinds`.

    A `named` kind maps to a list of (name, header line, entries) in file
    order; any other kind to its (header line, entries), which is (0, []) for
    an absent `optional` section.
    """
    groups: dict = {kind: [] if how == "named" else (0, []) for kind, how in kinds.items()}
    first: dict[str, int] = {}
    entries: list[tuple[int, str]] | None = None
    for lineno, line in _logical_lines(text):
        if not line.startswith("["):
            if entries is None:
                raise FileFormatError(f"line {lineno}: content before any section header")
            entries.append((lineno, line))
            continue
        m = _HEADER_RE.match(line)
        if not m:
            raise FileFormatError(f"line {lineno}: malformed section header {line!r}")
        kind, label = m.groups()
        how = kinds.get(kind)
        if how is None:
            raise FileFormatError(f"line {lineno}: unknown section [{kind}] in a {what} file")
        if (how == "named") != (label is not None):
            need = f"{kind} sections need a name" if label is None else f"[{kind}] takes no name, got {label!r}"
            raise FileFormatError(f"line {lineno}: {need}")
        header = kind if label is None else f"{kind} {label}"
        if header in first:
            raise FileFormatError(f"line {lineno}: second [{header}] section, after line {first[header]}")
        first[header] = lineno
        entries = []
        if how == "named":
            groups[kind].append((label, lineno, entries))
        else:
            groups[kind] = (lineno, entries)
    for kind, how in kinds.items():
        if how == "one" and kind not in first:
            raise FileFormatError(f"expected exactly one [{kind}] section, found 0")
    return groups


def _key_values(
    lines: list[tuple[int, str]], where: str, known: tuple[str, ...] | None = None, sep: str = "="
) -> dict[str, tuple[int, str]]:
    """The `key = value` (or `key: value`, by `sep`) entries of [where] by key, in file order."""
    out: dict[str, tuple[int, str]] = {}
    for lineno, line in lines:
        key, found, value = line.partition(sep)
        if not found:
            shape = "key = value" if sep == "=" else "name: statement"
            raise FileFormatError(f"line {lineno}: expected '{shape}' in [{where}]")
        key = key.strip()
        if known is not None and key not in known:
            raise FileFormatError(f"line {lineno}: unknown entry {key!r} in [{where}]")
        if key in out:
            raise FileFormatError(f"line {lineno}: duplicate key {key!r} in [{where}]")
        out[key] = (lineno, value.strip())
    return out


def _names(entry: tuple[int, str], what: str) -> list[str]:
    """The comma-separated names of entry (line, value), each at most once."""
    lineno, value = entry
    names = [part.strip() for part in value.split(",") if part.strip()]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise FileFormatError(f"line {lineno}: {what} {name!r} is declared twice")
    return names


def parse_jet_name(name: str, fields: set[str], lineno: int) -> JetVariable:
    base, _, suffix = name.partition("_")
    if base not in fields:
        raise FileFormatError(f"line {lineno}: {base!r} is not a declared field")
    if suffix and set(suffix) != {"x"}:
        raise FileFormatError(
            f"line {lineno}: state variables carry only spatial suffixes, got {name!r}"
        )
    return JetVariable(base, 0, len(suffix))


def _at(lineno: int, call, *args):
    """call(*args), with its ParseError raised as an error of line `lineno`."""
    try:
        return call(*args)
    except ParseError as exc:
        raise FileFormatError(f"line {lineno}: {exc}") from exc


def _parse_expr(text: str, ctx: ParseContext, lineno: int) -> Expression:
    return _at(lineno, parse, text, ctx)


def _entry_expr(kv: dict, key: str, ctx: ParseContext, default: Expression = ZERO) -> Expression:
    """The expression of entry `key`, or `default` when the section omits it."""
    return _parse_expr(kv[key][1], ctx, kv[key][0]) if key in kv else default


def _parse_decl(
    line: str, lineno: int, fields: set[str], ctx: ParseContext, taken: dict[str, str]
) -> FuncSym:
    """Declare in `ctx` the symbol of `line`; `taken` maps names it may not declare to why."""
    m = _DECL_RE.match(line)
    if not m:
        raise FileFormatError(f"line {lineno}: malformed declaration {line!r}")
    name = m.group(1)
    deps = tuple(parse_jet_name(d, fields, lineno) for d in _names((lineno, m.group(2) or ""), "dependency"))
    if name in taken:
        raise FileFormatError(f"line {lineno}: {taken[name]}")
    return _at(lineno, ctx.declare_sym, name, deps)


def parse_model(text: str, name: str = "model") -> ModelSpec:
    groups = _grouped(text, _MODEL_SECTIONS, "model")
    f_line, f_lines = groups["fields"]
    fkv = _key_values(f_lines, "fields", ("fields", "velocity"))
    if "fields" not in fkv:
        raise FileFormatError(f"line {f_line}: [fields] needs a 'fields' entry")
    field_names = _names(fkv["fields"], "field")
    ctx = ParseContext()
    for fname in field_names:
        if not _NAME_RE.match(fname):
            raise FileFormatError(
                f"line {fkv['fields'][0]}: field name {fname!r} must be a plain identifier"
            )
        _at(fkv["fields"][0], ctx.declare_field, fname)
    velocity = fkv.get("velocity", (0, None))[1]
    if velocity is not None and velocity not in field_names:
        raise FileFormatError(f"line {fkv['velocity'][0]}: velocity {velocity!r} is not a field")
    fieldset = set(field_names)

    s_line, s_lines = groups["state"]
    skv = _key_values(s_lines, "state", ("order", "vars"))
    if "order" not in skv or "vars" not in skv:
        raise FileFormatError(f"line {s_line}: [state] needs 'order' and 'vars'")
    order = _number(skv, "order", int, None)
    members = [parse_jet_name(v, fieldset, skv["vars"][0]) for v in _names(skv["vars"], "state variable")]
    space = StateSpace(order, members)

    unknowns: list[FuncSym] = []
    taken: dict[str, str] = {}
    for lineno, line in groups["unknowns"][1]:
        u = _parse_decl(line, lineno, fieldset, ctx, taken)
        if not u.deps:
            raise FileFormatError(
                f"line {lineno}: constitutive unknown {u.name!r} needs state dependencies"
            )
        taken[u.name] = f"constitutive unknown {u.name!r} is declared twice"
        unknowns.append(u)

    laws: list[BalanceLaw] = []
    for label, lineno, lines in groups["balance"]:
        kv = _key_values(lines, f"balance {label}", ("density", "flux", "production"))
        if "density" not in kv:
            raise FileFormatError(f"line {lineno}: [balance {label}] needs a density")
        density = _entry_expr(kv, "density", ctx)
        flux = _entry_expr(kv, "flux", ctx)
        production = _entry_expr(kv, "production", ctx)
        laws.append(BalanceLaw(label, density, flux, production))

    e_line, e_lines = groups["entropy"]
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


def parse_solution(text: str, model: ModelSpec) -> CandidateSolution:
    groups = _grouped(text, _SOLUTION_SECTIONS, "solution")
    ctx = ParseContext(fields=model.ctx.fields, syms=dict(model.ctx.syms))
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


def _number(kv: dict, key: str, kind: type, default):
    """Entry `key` read as a `kind`, or `default` when the section omits it."""
    if key not in kv:
        return default
    lineno, value = kv[key]
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise FileFormatError(f"line {lineno}: {key} must be {noun}") from None


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
