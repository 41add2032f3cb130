"""Exploitation of the entropy inequality with gradient-extended constraints.

The pipeline:

1. decouple     - recombine the balance laws so the time Jacobian becomes
                  diagonal; only then does each law carry the time derivative
                  of a single field, which makes the multiplier system
                  triangular.  Row combinations are unit (no row is rescaled),
                  so the resulting multipliers stay in the customary form.
2. select       - choose which gradient extensions of which law join the
                  constraint set.  The default keeps the k-th extension of a
                  law exactly when the state space contains a k-th order
                  gradient of the field that law evolves; "all" keeps every
                  extension up to the state-space order.
3. assemble     - entropy production minus multiplier-weighted constraints.
4. solve        - the coefficient of every mixed time jet must vanish; these
                  equations are affine in the multipliers and are solved level
                  by level from the top order down.
5. emit         - the surviving inequality must hold for arbitrary values of
                  the remaining underived jets: coefficients of the highest
                  spatial jets vanish, odd-degree coefficients in the higher
                  jets vanish, the quadratic part must be positive
                  semidefinite, and the jet-free remainder is the residual
                  production, constrained to be nonnegative.
"""
from __future__ import annotations

import hashlib
from typing import Iterable, NamedTuple, Sequence

from .jet import DerivativeClassification, JetVariable, classify
from .expr import Expression, FuncSym, ZERO, principal_minors, to_latex, to_text
from .balance import ModelSpec, entropy_production


class EngineError(RuntimeError):
    """An internal invariant of the derivation failed."""


class DecoupledRow(NamedTuple):
    index: int
    field: str
    law_name: str
    pivot: Expression
    residual: Expression


class DecoupledSystem(NamedTuple):
    rows: tuple[DecoupledRow, ...]
    nonzero: tuple[Expression, ...]


def decouple(model: ModelSpec) -> DecoupledSystem:
    """Diagonalize the time Jacobian by unit row combinations.

    Columns are taken in field declaration order.  Combination factors divide
    by the pivots, so every nonconstant pivot is recorded as a nonvanishing
    side condition.
    """
    n = len(model.fields)
    ujets = [JetVariable(f, 0, 0) for f in model.fields]
    a = [[law.density.diff(u) for u in ujets] for law in model.laws]
    resid = [law.residual() for law in model.laws]
    names = [law.name for law in model.laws]
    nonzero: list[Expression] = []
    for j in range(n):
        p = None
        for i in range(j, n):
            if not a[i][j].is_zero:
                p = i
                break
        if p is None:
            raise EngineError(
                f"time Jacobian is singular: no law evolves field {model.fields[j]!r}"
            )
        if p != j:
            a[p], a[j] = a[j], a[p]
            resid[p], resid[j] = resid[j], resid[p]
            names[p], names[j] = names[j], names[p]
        pivot = a[j][j]
        for i in range(n):
            if i == j or a[i][j].is_zero:
                continue
            factor = a[i][j] / pivot
            resid[i] = resid[i] - factor * resid[j]
            for jj in range(n):
                a[i][jj] = a[i][jj] - factor * a[j][jj]
        if pivot.as_fraction() is None and not _contains(nonzero, pivot):
            nonzero.append(pivot)
    rows = tuple(
        DecoupledRow(i + 1, model.fields[i], names[i], a[i][i], resid[i])
        for i in range(n)
    )
    return DecoupledSystem(rows, tuple(nonzero))


def _contains(items: list[Expression], e: Expression) -> bool:
    return any(x == e for x in items)


class ConstraintSelection(NamedTuple):
    mode: str
    entries: tuple[tuple[int, int], ...]  # (row index, extension order)

    def orders_of(self, i: int) -> tuple[int, ...]:
        return tuple(k for ii, k in self.entries if ii == i)


def select_constraints(
    model: ModelSpec, mode: str = "pruned", max_order: int | None = None
) -> ConstraintSelection:
    r = model.space.order
    entries: list[tuple[int, int]] = []
    if mode == "all":
        top = r if max_order is None else max_order
        if top < 0:
            raise EngineError("extension order must be nonnegative")
        for i in range(1, len(model.fields) + 1):
            entries.extend((i, k) for k in range(top + 1))
    elif mode == "pruned":
        if max_order is not None:
            raise EngineError("an explicit extension order implies mode 'all'")
        for i, f in enumerate(model.fields, start=1):
            mo = model.space.max_order_of(f)
            entries.extend((i, k) for k in range((mo or 0) + 1))
    else:
        raise EngineError(f"unknown selection mode {mode!r}")
    return ConstraintSelection(mode, tuple(entries))


def multiplier_symbol(i: int, k: int) -> FuncSym:
    return FuncSym(f"Lam{i}k{k}", ())


def constraint_extensions(
    dec: DecoupledSystem, selection: ConstraintSelection
) -> dict[tuple[int, int], Expression]:
    """Total space derivatives of the decoupled residuals, per selection entry."""
    tops = {}
    for i, k in selection.entries:
        tops[i] = max(k, tops.get(i, 0))

    out: dict[tuple[int, int], Expression] = {}
    for i, top in sorted(tops.items()):
        e = out[(i, 0)] = dec.rows[i - 1].residual
        for k in range(1, top + 1):
            e = out[(i, k)] = e.total_x()
    return {key: out[key] for key in selection.entries}


def constrained_inequality(
    model: ModelSpec, dec: DecoupledSystem, selection: ConstraintSelection
) -> Expression:
    p = entropy_production(model)
    exts = constraint_extensions(dec, selection)
    for (i, k), ext in exts.items():
        p = p - Expression.sym(multiplier_symbol(i, k)) * ext
    return p


class MultiplierSolution(NamedTuple):
    values: tuple[tuple[int, int, Expression], ...]  # (i, k, value)
    reduced: Expression
    nonzero: tuple[Expression, ...]

    def value(self, i: int, k: int) -> Expression:
        for ii, kk, v in self.values:
            if (ii, kk) == (i, k):
                return v
        raise KeyError((i, k))


def solve_multipliers(
    model: ModelSpec,
    dec: DecoupledSystem,
    selection: ConstraintSelection,
    inequality: Expression,
) -> MultiplierSolution:
    """Annihilate every mixed time-jet coefficient, top extension order first.

    At each order k the equations are the coefficients of u_{t,x^k} for every
    field u; they are affine in the order-k multipliers because higher orders
    have already been substituted.  Side conditions collect the nonconstant
    pivots of the elimination.
    """
    levels = sorted({k for _, k in selection.entries}, reverse=True)
    top = levels[0] if levels else -1
    work = inequality
    solved: list[tuple[int, int, Expression]] = []
    nonzero: list[Expression] = []
    for k in range(top, -1, -1):
        eq_atoms = [JetVariable(f, 1, k) for f in model.fields]
        unknowns = [
            multiplier_symbol(i, kk) for i, kk in selection.entries if kk == k
        ]
        buckets = work._collect(tuple(eq_atoms))
        eqs = []
        for idx, coeff in buckets.items():
            d = sum(idx)
            if d == 0:
                continue
            if d > 1:
                raise EngineError(
                    "constrained inequality is not linear in a mixed time jet"
                )
            eqs.append((idx.index(1), coeff))
        eqs.sort(key=lambda t: t[0])
        values, conds = _linear_solve(
            [c for _, c in eqs], unknowns, [eq_atoms[j].text() for j, _ in eqs]
        )
        nonzero.extend(c for c in conds if not _contains(nonzero, c))
        if values:
            bind = dict(values.items())
            work = work.subs(bind)
            for i, kk in selection.entries:
                if kk == k:
                    solved.append((i, kk, values[multiplier_symbol(i, kk)]))
    solved.sort(key=lambda t: (t[1], t[0]))
    for c in dec.nonzero:
        if not _contains(nonzero, c):
            nonzero.append(c)
    return MultiplierSolution(tuple(solved), work, tuple(nonzero))


def _linear_solve(
    eqs: list[Expression], unknowns: list[FuncSym], labels: list[str]
) -> tuple[dict[FuncSym, Expression], list[Expression]]:
    m = len(unknowns)
    rows = []
    for eq, label in zip(eqs, labels):
        buckets = eq._collect(tuple(unknowns))
        const = ZERO
        coeffs = [ZERO] * m
        for idx, c in buckets.items():
            d = sum(idx)
            if d == 0:
                const = c
            elif d == 1:
                coeffs[idx.index(1)] = c
            else:
                raise EngineError("coefficient equation is not affine in the multipliers")
        rows.append((coeffs, const, label))
    conds: list[Expression] = []
    pivot_of: dict[int, int] = {}
    used = set()
    for col in range(m):
        piv = None
        for ri, (coeffs, _c, _l) in enumerate(rows):
            if ri not in used and not coeffs[col].is_zero:
                piv = ri
                break
        if piv is None:
            raise EngineError(f"no equation determines {unknowns[col].name}")
        used.add(piv)
        pivot_of[col] = piv
        coeffs, const, label = rows[piv]
        pc = coeffs[col]
        if pc.as_fraction() is None and not _contains(conds, pc):
            conds.append(pc)
        coeffs = [e / pc for e in coeffs]
        const = const / pc
        rows[piv] = (coeffs, const, label)
        for ri in range(len(rows)):
            if ri == piv:
                continue
            rcoeffs, rconst, rlabel = rows[ri]
            c = rcoeffs[col]
            if c.is_zero:
                continue
            rows[ri] = (
                [rcoeffs[t] - c * coeffs[t] for t in range(m)],
                rconst - c * const,
                rlabel,
            )
    values: dict[FuncSym, Expression] = {}
    for col in range(m):
        coeffs, const, _label = rows[pivot_of[col]]
        values[unknowns[col]] = -const
    for ri, (coeffs, const, label) in enumerate(rows):
        if ri in used:
            continue
        if any(not c.is_zero for c in coeffs):
            raise EngineError("elimination left a coupled equation behind")
        if not const.is_zero:
            raise EngineError(
                f"coefficient of {label} cannot be annihilated by the multipliers"
            )
    return values, conds


class Equality(NamedTuple):
    label: str
    expr: Expression  # constrained to vanish


class QuadraticForm(NamedTuple):
    variables: tuple[JetVariable, ...]
    entries: tuple[tuple[int, int, Expression], ...]  # i <= j, coefficient M_ij
    minors: tuple[tuple[tuple[int, ...], Expression], ...]  # index subset, determinant

    def matrix(self) -> list[list[Expression]]:
        n = len(self.variables)
        m = [[ZERO] * n for _ in range(n)]
        for i, j, e in self.entries:
            m[i][j] = e
            m[j][i] = e
        return m


class EvenForm(NamedTuple):
    degree: int
    variables: tuple[JetVariable, ...]
    entries: tuple[tuple[tuple[int, ...], Expression], ...]


class Restrictions(NamedTuple):
    equalities: tuple[Equality, ...]
    quadratic: QuadraticForm | None
    even_forms: tuple[EvenForm, ...]
    residual: Expression


def _normalize_sign(e: Expression) -> Expression:
    """Flip the sign so the leading numerator coefficient is positive."""
    if e.is_zero:
        return e
    return -e if e._num[-1][1] < 0 else e


def _mono_label(variables: Sequence[JetVariable], idx: tuple[int, ...]) -> str:
    parts = []
    for v, e in zip(variables, idx):
        if e == 1:
            parts.append(v.text())
        elif e > 1:
            parts.append(f"{v.text()}^{e}")
    return "*".join(parts) if parts else "1"


def emit_restrictions(
    model: ModelSpec, cls: DerivativeClassification, reduced: Expression
) -> Restrictions:
    """Split the multiplier-free inequality into its thermodynamic content."""
    zeta_spatial = [z for z in cls.sorted_highest() if z.t_order == 0]
    equalities: list[Equality] = []
    base = reduced
    if zeta_spatial:
        buckets = reduced._collect(tuple(zeta_spatial))
        base = buckets.get((0,) * len(zeta_spatial), ZERO)
        for idx in sorted(buckets):
            d = sum(idx)
            if d == 0:
                continue
            if d > 1:
                raise EngineError(
                    "inequality is not linear in the highest spatial jets"
                )
            coeff = buckets[idx]
            if coeff.is_zero:
                continue
            label = f"coefficient of {zeta_spatial[idx.index(1)].text()}"
            equalities.append(Equality(label, _normalize_sign(coeff)))
    higher = cls.sorted_higher()
    quadratic: QuadraticForm | None = None
    even_forms: list[EvenForm] = []
    residual = base
    if higher:
        ebuckets = base._collect(tuple(higher))
        residual = ebuckets.get((0,) * len(higher), ZERO)
        by_degree: dict[int, list[tuple[tuple[int, ...], Expression]]] = {}
        for idx in sorted(ebuckets):
            d = sum(idx)
            if d == 0:
                continue
            coeff = ebuckets[idx]
            if coeff.is_zero:
                continue
            by_degree.setdefault(d, []).append((idx, coeff))
        for d in sorted(by_degree):
            items = by_degree[d]
            if d % 2 == 1:
                for idx, coeff in items:
                    label = f"coefficient of {_mono_label(higher, idx)}"
                    equalities.append(Equality(label, _normalize_sign(coeff)))
            elif d == 2:
                entries: list[tuple[int, int, Expression]] = []
                support: set[int] = set()
                for idx, coeff in items:
                    pos = [i for i, e in enumerate(idx) if e]
                    if len(pos) == 1:
                        i = pos[0]
                        entries.append((i, i, coeff))
                        support.add(i)
                    else:
                        i, j = pos
                        entries.append((i, j, coeff / 2))
                        support.update((i, j))
                minors = _principal_minors(higher, entries, sorted(support))
                quadratic = QuadraticForm(tuple(higher), tuple(entries), minors)
            else:
                even_forms.append(EvenForm(d, tuple(higher), tuple(items)))
    return Restrictions(tuple(equalities), quadratic, tuple(even_forms), residual)


def _principal_minors(
    variables: Sequence[JetVariable],
    entries: Iterable[tuple[int, int, Expression]],
    support: list[int],
) -> tuple[tuple[tuple[int, ...], Expression], ...]:
    n = len(variables)
    mat = [[ZERO] * n for _ in range(n)]
    for i, j, e in entries:
        mat[i][j] = e
        mat[j][i] = e
    subsets: list[tuple[int, ...]] = []
    m = len(support)
    for mask in range(1, 1 << m):
        subsets.append(tuple(support[i] for i in range(m) if mask & (1 << i)))
    subsets.sort(key=lambda s: (len(s), s))
    return tuple(zip(subsets, principal_minors(mat, subsets)))


class LiuReport(NamedTuple):
    model: ModelSpec
    mode: str
    classification: DerivativeClassification
    selection: ConstraintSelection
    decoupled: DecoupledSystem
    multipliers: tuple[tuple[int, int, Expression], ...]
    restrictions: Restrictions
    nonzero: tuple[Expression, ...]
    diagnostics: dict

    def multiplier(self, i: int, k: int) -> Expression:
        for ii, kk, v in self.multipliers:
            if (ii, kk) == (i, k):
                return v
        raise KeyError((i, k))

    def equality_exprs(self) -> tuple[Expression, ...]:
        return tuple(e.expr for e in self.restrictions.equalities)


def model_hash(model: ModelSpec) -> str:
    parts = [
        "fields:" + ",".join(model.fields),
        "velocity:" + (model.velocity or "-"),
        "order:" + str(model.space.order),
        "state:" + ",".join(w.text() for w in model.space.sorted_members()),
    ]
    for law in model.laws:
        parts.append(
            f"law:{law.name}|{to_text(law.density)}|{to_text(law.flux)}|{to_text(law.production)}"
        )
    parts.append(
        "entropy:"
        + "|".join(
            [
                model.entropy.form,
                to_text(model.entropy.weight),
                to_text(model.entropy.density),
                to_text(model.entropy.flux),
            ]
        )
    )
    for u in model.unknowns:
        parts.append("unknown:" + u.name + "(" + ",".join(d.text() for d in u.deps) + ")")
    blob = "\n".join(parts).encode()
    return hashlib.sha256(blob).hexdigest()


def derive(
    model: ModelSpec, mode: str = "pruned", max_order: int | None = None
) -> LiuReport:
    cls = classify(model.space, model.fields)
    dec = decouple(model)
    selection = select_constraints(model, mode=mode, max_order=max_order)
    ineq = constrained_inequality(model, dec, selection)
    sol = solve_multipliers(model, dec, selection, ineq)
    higher = cls.sorted_higher()
    restrictions = emit_restrictions(model, cls, sol.reduced)
    diagnostics = {
        "zetaDegree": ineq.degree_in(cls.sorted_highest()) if cls.highest else 0,
        "etaDegree": ineq.degree_in(higher) if higher else 0,
        "etaDegreeBound": model.space.order + 1,
        "constraintCount": len(selection.entries),
        "equalityCount": len(restrictions.equalities),
        "highestCount": len(cls.highest),
        "higherCount": len(cls.higher),
        # A purely local state space admits no gradient extensions: the
        # derivation degenerates to the classical entropy-multiplier
        # procedure, flagged here because the extended theory assumes r >= 1.
        "classical": all(k == 0 for _, k in selection.entries),
    }
    return LiuReport(
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


# -- serialization ---------------------------------------------------------


def report_json_dict(report: LiuReport) -> dict:
    m = report.model
    cls = report.classification
    r = report.restrictions
    out = {
        "model": m.name,
        "hash": model_hash(m),
        "mode": report.mode,
        "fields": list(m.fields),
        "velocity": m.velocity,
        "state": {
            "order": m.space.order,
            "vars": [w.text() for w in m.space.sorted_members()],
        },
        "classification": {
            "state": [w.text() for w in sorted(cls.state, key=JetVariable.sort_key)],
            "highest": [w.text() for w in cls.sorted_highest()],
            "higher": [w.text() for w in cls.sorted_higher()],
            "hatZ": [w.text() for w in cls.sorted_hat()],
        },
        "selection": [
            {"law": report.decoupled.rows[i - 1].law_name, "field": report.decoupled.rows[i - 1].field, "order": k}
            for i, k in report.selection.entries
        ],
        "decoupling": {
            "pivots": [
                {"law": row.law_name, "field": row.field, "pivot": to_text(row.pivot)}
                for row in report.decoupled.rows
            ],
        },
        "multipliers": [
            {
                "law": report.decoupled.rows[i - 1].law_name,
                "i": i,
                "k": k,
                "value": to_text(v),
            }
            for i, k, v in report.multipliers
        ],
        "equalities": [
            {"label": e.label, "expr": to_text(e.expr)} for e in r.equalities
        ],
        "quadraticForm": None,
        "evenForms": [
            {
                "degree": f.degree,
                "entries": [
                    {"monomial": _mono_label(f.variables, idx), "value": to_text(v)}
                    for idx, v in f.entries
                ],
            }
            for f in r.even_forms
        ],
        "residual": to_text(r.residual),
        "sideConditions": [to_text(c) for c in report.nonzero],
        "diagnostics": dict(sorted(report.diagnostics.items())),
    }
    if r.quadratic is not None:
        q = r.quadratic
        out["quadraticForm"] = {
            "variables": [v.text() for v in q.variables],
            "entries": [
                {"i": i, "j": j, "value": to_text(e)} for i, j, e in q.entries
            ],
            "minors": [
                {
                    "vars": [q.variables[i].text() for i in sub],
                    "det": to_text(d),
                }
                for sub, d in q.minors
            ],
        }
    return out


def report_text(report: LiuReport) -> str:
    m = report.model
    r = report.restrictions
    lines: list[str] = []
    lines.append(f"model {m.name}  (mode {report.mode})")
    lines.append(f"hash {model_hash(m)}")
    lines.append(f"fields: {', '.join(m.fields)}")
    lines.append(
        "state (order "
        + str(m.space.order)
        + "): "
        + ", ".join(w.text() for w in m.space.sorted_members())
    )
    cls = report.classification
    lines.append("highest jets: " + ", ".join(w.text() for w in cls.sorted_highest()))
    lines.append("higher jets:  " + ", ".join(w.text() for w in cls.sorted_higher()))
    lines.append("constraints:")
    for i, k in report.selection.entries:
        row = report.decoupled.rows[i - 1]
        lines.append(f"  {row.law_name}: extension order {k}")
    if report.diagnostics.get("classical"):
        lines.append("note: purely local state space; no gradient extensions "
                     "(classical procedure)")
    lines.append("nonvanishing: " + (", ".join(to_text(c) for c in report.nonzero) or "-"))
    lines.append("multipliers:")
    for i, k, v in report.multipliers:
        row = report.decoupled.rows[i - 1]
        lines.append(f"  L[{row.law_name}, k={k}] = {to_text(v)}")
    lines.append("equalities:")
    if not r.equalities:
        lines.append("  (none)")
    for e in r.equalities:
        lines.append(f"  [{e.label}]  {to_text(e.expr)} = 0")
    if r.quadratic is not None:
        q = r.quadratic
        lines.append("quadratic form (must be positive semidefinite) in: "
                     + ", ".join(v.text() for v in q.variables))
        for i, j, e in q.entries:
            lines.append(f"  M[{q.variables[i].text()}, {q.variables[j].text()}] = {to_text(e)}")
        lines.append("  principal minors (each must be nonnegative):")
        for sub, d in q.minors:
            vars_ = ", ".join(q.variables[i].text() for i in sub)
            lines.append(f"    det[{vars_}] = {to_text(d)}")
    for f in r.even_forms:
        lines.append(f"even form of degree {f.degree}:")
        for idx, v in f.entries:
            lines.append(f"  coeff[{_mono_label(f.variables, idx)}] = {to_text(v)}")
    lines.append("residual production (must be nonnegative):")
    lines.append("  " + to_text(r.residual))
    lines.append("diagnostics: " + ", ".join(f"{k}={v}" for k, v in sorted(report.diagnostics.items())))
    return "\n".join(lines) + "\n"


def report_latex(report: LiuReport) -> str:
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
            vi = _jet_latex_name(q.variables[i])
            vj = _jet_latex_name(q.variables[j])
            lines.append(rf"M_{{{vi},\,{vj}}} &= {to_latex(e)} \\")
        lines.append(r"\end{align*}")
    lines.append(r"\subsection*{Residual production}")
    lines.append(r"\begin{align*}")
    lines.append(rf"{to_latex(r.residual)} &\ge 0")
    lines.append(r"\end{align*}")
    return "\n".join(lines) + "\n"


def _jet_latex_name(j: JetVariable) -> str:
    from .expr import _jet_latex

    return _jet_latex(j)


def same_restrictions(a: Restrictions, b: Restrictions) -> bool:
    """Structural equality of two restriction sets, ignoring equality order.

    Used to confirm that pruning the constraint set leaves the emitted
    restrictions unchanged: the pruned-away extensions only carry multipliers
    that solve to zero.
    """
    if {e.expr for e in a.equalities} != {e.expr for e in b.equalities}:
        return False
    if (a.quadratic is None) != (b.quadratic is None):
        return False
    if a.quadratic is not None and b.quadratic is not None:
        qa, qb = a.quadratic, b.quadratic
        if qa.variables != qb.variables or set(qa.entries) != set(qb.entries):
            return False
    ea = {(f.degree, f.variables, frozenset(f.entries)) for f in a.even_forms}
    eb = {(f.degree, f.variables, frozenset(f.entries)) for f in b.even_forms}
    if ea != eb:
        return False
    return a.residual == b.residual
