"""LaTeX printing, for `derive --format latex`: expressions and the report.

A part prints through `expr._poly_text`, as `to_text` does, so the terms
keep the canonical order and signs; only the monomial printer differs.
Greek field and symbol names print as their letters, and a derivative atom
as a partial-derivative fraction.  `report_latex` walks a `LiuReport`;
`liu.report_latex` delegates to it.  Only that delegate and the package's
`to_latex` export import this module, so a process that prints text or JSON
never compiles it.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .jet import ATOMS, JetVariable
from .expr import Atom, Expression, Mono, Number, _canonical_atoms, _frac_text, _poly_text

if TYPE_CHECKING:
    from .liu import LiuReport


_GREEK = {
    "rho": r"\rho", "eps": r"\varepsilon", "epsilon": r"\varepsilon",
    "gamma": r"\gamma", "tau": r"\tau", "theta": r"\theta", "phi": r"\varphi",
    "kappa": r"\kappa", "mu": r"\mu", "sigma": r"\sigma", "alpha": r"\alpha",
    "beta": r"\beta", "lambda": r"\lambda", "nu": r"\nu", "xi": r"\xi",
    "psi": r"\psi", "chi": r"\chi", "omega": r"\omega", "delta": r"\delta",
}


def _name_latex(name: str) -> str:
    base = name.rstrip("0123456789")
    digits = name[len(base):]
    body = _GREEK.get(base)
    if body is None:
        if len(base) == 1:
            body = base
        elif len(base) == 2 and base[0].isupper() and base[1].islower():
            body = f"{base[0]}_{{{base[1]}}}"
            if digits:
                return f"{base[0]}_{{{base[1]}{digits}}}"
        else:
            body = rf"\mathrm{{{base}}}"
    return f"{body}_{{{digits}}}" if digits else body


def _jet_latex(j: JetVariable) -> str:
    body = _name_latex(j.field)
    if j.is_field:
        return body
    return f"{body}_{{,{'t' * j.t_order}{'x' * j.x_order}}}"


def _atom_latex(a: Atom) -> str:
    if isinstance(a, JetVariable):
        return _jet_latex(a)
    if a.total_order == 0:
        return _name_latex(a.name)
    n = a.total_order
    top = rf"\partial^{{{n}}} " if n > 1 else r"\partial "
    bottom = []
    for dep, o in zip(a.deps, a.orders):
        if not o:
            continue
        piece = rf"\partial {_jet_latex(dep)}"
        if o > 1:
            piece += rf"^{{{o}}}"
        bottom.append(piece)
    return rf"\frac{{{top}{_name_latex(a.name)}}}{{{''.join(bottom)}}}"


def _mono_latex(m: Mono, c: Number, nrank: list[int]) -> str:
    parts = []
    a = abs(c)
    if a != 1 or not m:
        parts.append(_frac_text(a) if a.denominator == 1 else rf"\tfrac{{{a.numerator}}}{{{a.denominator}}}")
    for _, i, e in _canonical_atoms(m, nrank):
        t = _atom_latex(ATOMS[i])
        parts.append(t + (f"^{{{e}}}" if e > 1 else ""))
    return r" \, ".join(parts)


def to_latex(e: Expression) -> str:
    if e.is_zero:
        return "0"
    num = _poly_text(e._num, _mono_latex)
    if e.den_is_one:
        return num
    return rf"\frac{{{num}}}{{{_poly_text(e._den, _mono_latex)}}}"


def report_latex(report: LiuReport) -> str:
    """The report typeset as LaTeX: multipliers, equalities, the quadratic form's entries, even forms, residual."""
    m = report.model
    r = report.restrictions
    lines: list[str] = []
    lines.append(r"\section*{Thermodynamic restrictions: " + m.name + "}")
    lines.append(r"\subsection*{Multipliers}")
    lines.append(r"\begin{align*}")
    for i, k, v in report.multipliers:
        lines.append(rf"\Lambda^{{({k})}}_{{{i}}} &= {to_latex(v)} \\")
    lines.append(r"\end{align*}")
    lines.append(r"\subsection*{Equalities}")
    lines.append(r"\begin{align*}")
    for e in r.equalities:
        lines.append(rf"{to_latex(e.expr)} &= 0 \\")
    lines.append(r"\end{align*}")
    if r.quadratic is not None:
        q = r.quadratic
        lines.append(r"\subsection*{Quadratic form}")
        lines.append(r"\begin{align*}")
        for i, j, e in q.entries:
            vi = _jet_latex(q.variables[i])
            vj = _jet_latex(q.variables[j])
            lines.append(rf"M_{{{vi},\,{vj}}} &= {to_latex(e)} \\")
        lines.append(r"\end{align*}")
    if r.even_forms:
        lines.append(r"\subsection*{Even forms}")
        lines.append(r"\begin{align*}")
        for f in r.even_forms:
            for idx, v in f.entries:
                mono = r"\,".join(
                    _jet_latex(x) + (f"^{{{e}}}" if e > 1 else "") for x, e in zip(f.variables, idx) if e
                )
                lines.append(rf"c^{{({f.degree})}}_{{{mono}}} &= {to_latex(v)} \\")
        lines.append(r"\end{align*}")
    lines.append(r"\subsection*{Residual production}")
    lines.append(r"\begin{align*}")
    lines.append(rf"{to_latex(r.residual)} &\ge 0")
    lines.append(r"\end{align*}")
    return "\n".join(lines) + "\n"
