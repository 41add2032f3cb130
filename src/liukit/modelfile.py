"""Line-oriented input files: the shared section reader, and model files.

A file is a sequence of sections started by a bracketed header.  Inside a
section each logical line is one entry; lines beginning with whitespace
continue the previous entry, `#` starts a comment, blank lines separate
nothing.  Model files declare the fields, the gradient state space, the
balance laws, the entropy and the constitutive unknowns.  Solution files
(`liukit.solution`) are read by the same readers; their grammar and records
live in that module, which only `check` imports, so a `derive` process
compiles none of it.

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

`FileFormatError` (a malformed file, exit 1) and `CheckError` (a candidate
incomplete for its model, exit 2) are defined here, so the CLI catches both
without importing the solution grammar.
"""
from __future__ import annotations

import os
import re

from .jet import JetVariable, StateSpace
from .expr import Expression, FuncSym, ONE, ParseContext, ParseError, ZERO, parse
from .balance import BalanceLaw, EntropyDeclaration, ModelSpec


class FileFormatError(ValueError):
    pass


class CheckError(ValueError):
    """The candidate file is malformed or incomplete for this model."""


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
    base, sep, suffix = name.partition("_")
    if base not in fields:
        raise FileFormatError(f"line {lineno}: {base!r} is not a declared field")
    if sep and set(suffix) != {"x"}:
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
