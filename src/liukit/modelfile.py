"""Line-oriented input formats for models and candidate solutions.

A file is a sequence of sections started by a bracketed header.  Inside a
section each logical line is one entry; lines beginning with whitespace
continue the previous entry, `#` starts a comment, blank lines separate
nothing.  Model files declare the fields, the gradient state space, the
balance laws, the entropy and the constitutive unknowns.  Solution files
declare ansatz functions, bind every unknown, state named conditions and
define numeric sampling scenarios.

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

import os
import re
from typing import TYPE_CHECKING

from .jet import JetVariable, StateSpace
from .expr import Expression, FuncSym, ParseContext, ParseError, ZERO, parse
from .balance import BalanceLaw, EntropyDeclaration, ModelSpec

if TYPE_CHECKING:
    from .checker import CandidateSolution, Condition, NumericScenario


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


def _key_values(lines: list[tuple[int, str]], where: str) -> dict[str, tuple[int, str]]:
    out: dict[str, tuple[int, str]] = {}
    for lineno, line in lines:
        if "=" not in line:
            raise FileFormatError(f"line {lineno}: expected 'key = value' in [{where}]")
        key, value = line.split("=", 1)
        key = key.strip()
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
        by_kind.setdefault(kind, []).append((label, lineno, lines))

    def sole(kind: str) -> tuple[str | None, int, list[tuple[int, str]]]:
        entries = by_kind.get(kind, [])
        if len(entries) != 1:
            raise FileFormatError(f"expected exactly one [{kind}] section, found {len(entries)}")
        return entries[0]

    _, f_line, f_lines = sole("fields")
    fkv = _key_values(f_lines, "fields")
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
    skv = _key_values(s_lines, "state")
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
        kv = _key_values(lines, f"balance {label}")
        if "density" not in kv:
            raise FileFormatError(f"line {lineno}: [balance {label}] needs a density")
        density = _parse_expr(kv["density"][1], ctx, kv["density"][0])
        flux = _parse_expr(kv["flux"][1], ctx, kv["flux"][0]) if "flux" in kv else ZERO
        production = (
            _parse_expr(kv["production"][1], ctx, kv["production"][0])
            if "production" in kv
            else ZERO
        )
        known = {"density", "flux", "production"}
        for key, (kl, _v) in kv.items():
            if key not in known:
                raise FileFormatError(f"line {kl}: unknown balance entry {key!r}")
        laws.append(BalanceLaw(label, density, flux, production))

    _, e_line, e_lines = sole("entropy")
    ekv = _key_values(e_lines, "entropy")
    form = ekv.get("form", (e_line, "divergence"))[1]
    if "density" not in ekv:
        raise FileFormatError(f"line {e_line}: [entropy] needs a density")
    density = _parse_expr(ekv["density"][1], ctx, ekv["density"][0])
    eflux = _parse_expr(ekv["flux"][1], ctx, ekv["flux"][0]) if "flux" in ekv else ZERO
    weight = (
        _parse_expr(ekv["weight"][1], ctx, ekv["weight"][0])
        if "weight" in ekv
        else Expression.number(1)
    )
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
    # The checker is loaded here, where a solution is parsed, so that a model
    # alone (as `liukit derive` reads it) never loads it.
    from .checker import CandidateSolution

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
    from .checker import Condition

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
    from .checker import DEFAULT_SAMPLES, DEFAULT_TOL, NumericScenario, sampling_error

    samples = DEFAULT_SAMPLES
    seed = 0
    tol = DEFAULT_TOL
    expect = "pass"
    ranges: list[tuple[JetVariable, float, float]] = []
    lets: list[tuple[object, Expression]] = []
    for lineno, line in lines:
        rm = _RANGE_RE.match(line)
        if rm:
            j = parse_jet_name(rm.group(1), fields, lineno)
            try:
                lo, hi = float(rm.group(2)), float(rm.group(3))
            except ValueError:
                raise FileFormatError(f"line {lineno}: malformed range bounds")
            if hi < lo:
                raise FileFormatError(f"line {lineno}: empty range for {j.text()}")
            ranges.append((j, lo, hi))
            continue
        lm = _LET_RE.match(line)
        if lm:
            lhs = _parse_expr(lm.group(1), ctx, lineno)
            lets.append((_atom_of(lhs, lineno), _parse_expr(lm.group(2), ctx, lineno)))
            continue
        if "=" not in line:
            raise FileFormatError(f"line {lineno}: malformed scenario line {line!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
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
