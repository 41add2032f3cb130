"""Exploitation of the entropy inequality with gradient-extended constraints.

The pipeline:

1. decouple     - recombine the balance laws so the time Jacobian becomes
                  diagonal; only then does each law carry the time derivative
                  of a single field, which makes the multiplier system
                  diagonal at each extension order.  Row combinations are unit
                  (no row is rescaled), so the resulting multipliers stay in
                  the customary form.
2. select       - choose which gradient extensions of which law join the
                  constraint set.  The default keeps the k-th extension of a
                  law exactly when the state space contains a k-th order
                  gradient of the field that law evolves; "all" keeps every
                  extension up to the state-space order.
3. assemble     - entropy production minus multiplier-weighted constraints,
                  kept as its pieces: the production and, per multiplier,
                  its coefficient, the negated extension.  `derive` never
                  sums them; `constrained_inequality` does.
4. solve        - from the top selected order down, the coefficient of
                  u_{i,t x^k} is c + a*L[i,k] with one unknown, L[i,k],
                  whose factor a is minus the pivot of law i; so
                  L[i,k] = -c/a, with c read from the multiplier-free part
                  and a from L[i,k]'s piece, and value * piece joins the
                  multiplier-free part.  A field with no order-k multiplier
                  keeps its time jet, and step 5 treats it as any other
                  free jet.
5. emit         - every derivative outside the state space is free: the
                  surviving inequality is affine in the highest jets (step
                  4's leftover time jets, each field's top spatial jet),
                  whose coefficients vanish; odd-degree coefficients in the
                  higher jets vanish, the quadratic part must be positive
                  semidefinite, and the jet-free remainder is the residual
                  production, constrained to be nonnegative.
                  One degree split (`_by_degree`) serves both bands, and
                  `quadratic_form` builds the form (minors are expanded on
                  read); the checker's concavity test uses the same two.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .jet import DerivativeClassification, JetVariable, classify
from .expr import Atom, Expression, FuncSym, ZERO, minor_terms_bound, principal_minors, to_text
from .balance import ModelError, ModelSpec, entropy_production


class EngineError(RuntimeError):
    """An internal invariant of the derivation failed."""


class MinorLimitError(ModelError):
    """A quadratic form whose principal minors would expand past `DERIVE_MAX_MINOR_TERMS`."""


# Text and JSON `derive` print every principal minor of the quadratic form,
# expanded, and `check` expands those of each scenario's prepared form.
# korteweg-eps2's 63 minors bound 2.0e6 terms and print 725 KB; the largest
# bound among the printable generated models, 4.6e7, prints 6.3 MB in 0.5 s;
# a bound of 9.6e9 printed 690 MB at a 2.7 GB peak.
DERIVE_MAX_MINOR_TERMS = 10**8


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
            raise ModelError(f"time Jacobian is singular: no law evolves field {model.fields[j]!r}")
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
        if pivot.as_fraction() is None and pivot not in nonzero:
            nonzero.append(pivot)
    rows = tuple(
        DecoupledRow(i + 1, model.fields[i], names[i], a[i][i], resid[i])
        for i in range(n)
    )
    return DecoupledSystem(rows, tuple(nonzero))


class ConstraintSelection(NamedTuple):
    mode: str
    entries: tuple[tuple[int, int], ...]  # (row index, extension order)


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
    """The multiplier of law i's order-k extension, named as no model can name a symbol."""
    return FuncSym(f"Lam[{i},{k}]", ())


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


_NOT_LINEAR = "constrained inequality is not linear in a mixed time jet"
_COUPLED = "elimination left a coupled equation behind"


def solve_multipliers(
    model: ModelSpec,
    dec: DecoupledSystem,
    selection: ConstraintSelection,
    inequality: Expression,
) -> MultiplierSolution:
    """Solve the multipliers of a constrained inequality, top order first.

    The inequality is split once by the selection's multipliers into its
    multiplier-free part and the coefficient of each multiplier, which
    `_eliminate` solves; a term of degree 2 or more in the multipliers
    raises, as a coefficient equation that is not affine in them.
    """
    lams = [multiplier_symbol(i, k) for i, k in selection.entries]
    free = ZERO
    pieces: dict[tuple[int, int], Expression] = {}
    for idx, coeff in inequality.collect(lams).items():
        degree = sum(idx)
        if degree > 1:
            raise EngineError("coefficient equation is not affine in the multipliers")
        if degree:
            pieces[selection.entries[idx.index(1)]] = coeff
        else:
            free = coeff
    return _eliminate(model, dec, selection, free, pieces)


def _eliminate(
    model: ModelSpec,
    dec: DecoupledSystem,
    selection: ConstraintSelection,
    free: Expression,
    pieces: dict[tuple[int, int], Expression],
) -> MultiplierSolution:
    """Solve L[i,k] from the mixed time-jet coefficients, on the pieces of the inequality.

    The constrained inequality is `free` plus L[i,k] * pieces[i, k] summed
    over the selection; it is never assembled.  At each selected order k
    the equations are the coefficients of u_{t,x^k} for every field u.
    Higher orders are already folded into `free`, and decoupling leaves the
    order-k multiplier of law i alone in the equation of field i, so each
    equation c + a*L[i,k] = 0, with c from `free` and a from L[i,k]'s piece,
    gives L[i,k] = -c/a, and value * piece joins `free`.  A field with no
    order-k multiplier is skipped: its time jet stays in the reduced
    inequality, where `emit_restrictions` makes its coefficient an equality.
    Side conditions collect the nonconstant factors a.
    """
    top = max((k for _, k in selection.entries), default=-1)
    solved: list[tuple[int, int, Expression]] = []
    nonzero: list[Expression] = []
    n = len(model.fields)
    solved_jets: list[JetVariable] = []
    for k in range(top, -1, -1):
        jets = [JetVariable(f, 1, k) for f in model.fields]
        eqs = _linear(free, jets)
        level = {i: pieces.get((i, kk), ZERO) for i, kk in selection.entries if kk == k}
        # A piece must hold no time jet of a higher order either: the
        # elimination there did not see its multiplier.
        coeffs = {i: _linear(piece, jets + solved_jets) for i, piece in level.items()}
        if any(not c.is_zero for cs in coeffs.values() for c in cs[n:]):
            raise EngineError(_COUPLED)
        solved_jets += jets
        bind: dict[int, Expression] = {}
        for i, c in enumerate(eqs, start=1):
            if any(not cs[i - 1].is_zero for j, cs in coeffs.items() if j != i):
                raise EngineError(_COUPLED)
            if i not in level:
                continue
            a = coeffs[i][i - 1]
            if a.is_zero:
                raise EngineError(f"no equation determines {multiplier_symbol(i, k).name}")
            if a.as_fraction() is None and a not in nonzero:
                nonzero.append(a)
            bind[i] = -c / a
            solved.append((i, k, bind[i]))
        for i, value in bind.items():
            free = free + value * level[i]
    solved.sort(key=lambda t: (t[1], t[0]))
    nonzero.extend(c for c in dec.nonzero if c not in nonzero)
    return MultiplierSolution(tuple(solved), free, tuple(nonzero))


def _linear(expr: Expression, jets: Sequence[JetVariable]) -> list[Expression]:
    """The coefficient of each time jet in an equation that must be affine in them.

    Only the coefficients are built: the elimination never reads the part
    free of the jets.
    """
    coeffs = expr.linear_coefficients(jets)
    if coeffs is None:
        raise EngineError(_NOT_LINEAR)
    return coeffs


def _by_degree(
    expr: Expression, atoms: Sequence[Atom]
) -> dict[int, list[tuple[tuple[int, ...], Expression]]]:
    """The terms of `expr` as a polynomial in `atoms`, grouped by total degree.

    Each degree maps to its (exponent vector, coefficient) pairs in exponent
    order; the coefficients are free of `atoms`.  Raises CollectError when the
    denominator involves `atoms`.
    """
    parts: dict[int, list[tuple[tuple[int, ...], Expression]]] = {}
    for idx, coeff in expr.collect(atoms).items():
        parts.setdefault(sum(idx), []).append((idx, coeff))
    return parts


def _affine(
    expr: Expression, atoms: Sequence[Atom], error: str
) -> tuple[Expression, list[Expression]]:
    """Split `expr` into its part free of `atoms` and its coefficient of each atom.

    Raises EngineError(error) when `expr` has a term of degree 2 or more in `atoms`.
    """
    parts = _by_degree(expr, atoms)
    if max(parts, default=0) > 1:
        raise EngineError(error)
    coeffs = [ZERO] * len(atoms)
    for idx, coeff in parts.get(1, ()):
        coeffs[idx.index(1)] = coeff
    return _constant(parts), coeffs


def _constant(parts: dict[int, list[tuple[tuple[int, ...], Expression]]]) -> Expression:
    """The degree-0 coefficient of a `_by_degree` split."""
    return parts[0][0][1] if 0 in parts else ZERO


class Equality(NamedTuple):
    label: str
    expr: Expression  # constrained to vanish


class QuadraticForm(NamedTuple):
    variables: tuple[JetVariable, ...]
    entries: tuple[tuple[int, int, Expression], ...]  # i <= j, coefficient M_ij

    @property
    def minors(self) -> tuple[tuple[tuple[int, ...], Expression], ...]:
        return self.expand_minors()

    def expand_minors(self, text: bool = False) -> tuple[tuple[tuple[int, ...], Expression | str], ...]:
        """(index subset, determinant) of each principal minor, expanded on every call.

        The subsets run over the indices the entries name, zero or not, in
        report order: smaller subsets first, then lexicographically.  With
        `text`, each determinant is its `to_text`, printed from the expansion.
        Above `DERIVE_MAX_MINOR_TERMS` it raises `MinorLimitError` before
        expanding any minor.
        """
        terms = self.minor_terms()
        if terms > DERIVE_MAX_MINOR_TERMS:
            raise MinorLimitError(f"the quadratic form's principal minors expand to at most {terms} terms, "
                                  f"more than the supported maximum {DERIVE_MAX_MINOR_TERMS}")
        m, subsets = self._matrix_and_subsets()
        return tuple(zip(subsets, principal_minors(m, subsets, text)))

    def minor_terms(self) -> int:
        """An upper bound on the terms `expand_minors` multiplies out, computed without expanding."""
        return minor_terms_bound(*self._matrix_and_subsets())

    def _matrix_and_subsets(self) -> tuple[list[list[Expression]], list[tuple[int, ...]]]:
        support = sorted({k for i, j, _ in self.entries for k in (i, j)})
        subsets = [s for k in range(1, len(support) + 1) for s in combinations(support, k)]
        m = [[ZERO] * len(self.variables) for _ in self.variables]
        for i, j, e in self.entries:
            m[i][j] = m[j][i] = e
        return m, subsets


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


def quadratic_form(
    variables: Sequence[JetVariable],
    items: Iterable[tuple[tuple[int, ...], Expression]],
) -> QuadraticForm:
    """The symmetric form of degree-2 coefficients; its minors are expanded where read.

    `items` pairs exponent vectors over `variables` with their coefficients;
    a cross coefficient is split evenly between M_ij and M_ji.
    """
    entries: list[tuple[int, int, Expression]] = []
    for idx, coeff in items:
        pos = [i for i, e in enumerate(idx) if e]
        entries.append((pos[0], pos[-1], coeff if len(pos) == 1 else coeff / 2))
    return QuadraticForm(tuple(variables), tuple(entries))


def emit_restrictions(
    model: ModelSpec, cls: DerivativeClassification, reduced: Expression
) -> Restrictions:
    """Split the multiplier-free inequality into its thermodynamic content.

    The coefficient of each highest jet, time or spatial, is an equality.
    """
    zeta = cls.sorted_highest()
    equalities: list[Equality] = []
    base, coeffs = _affine(reduced, zeta, "inequality is not linear in the highest jets")
    # Reverse variable order: the sort order of the one-hot exponent vectors.
    for z, coeff in reversed(list(zip(zeta, coeffs))):
        if not coeff.is_zero:
            equalities.append(Equality(f"coefficient of {z.text()}", _normalize_sign(coeff)))
    higher = cls.sorted_higher()
    parts = _by_degree(base, higher)
    quadratic: QuadraticForm | None = None
    even_forms: list[EvenForm] = []
    for d, items in sorted(parts.items()):
        if d % 2 == 1:
            for idx, coeff in items:
                label = f"coefficient of {_mono_label(higher, idx)}"
                equalities.append(Equality(label, _normalize_sign(coeff)))
        elif d == 2:
            quadratic = quadratic_form(higher, items)
        elif d > 2:
            even_forms.append(EvenForm(d, tuple(higher), tuple(items)))
    return Restrictions(tuple(equalities), quadratic, tuple(even_forms), _constant(parts))


class LiuReport(NamedTuple):
    model: ModelSpec
    mode: str
    classification: DerivativeClassification
    selection: ConstraintSelection
    decoupled: DecoupledSystem
    multipliers: tuple[tuple[int, int, Expression], ...]
    restrictions: Restrictions
    nonzero: tuple[Expression, ...]
    diagnostics: tuple[tuple[str, int | bool], ...]  # (key, value) pairs in key order

    def multiplier(self, i: int, k: int) -> Expression:
        for ii, kk, v in self.multipliers:
            if (ii, kk) == (i, k):
                return v
        raise KeyError((i, k))


def model_hash(model: ModelSpec) -> str:
    # The interpreter's built-in SHA-256 (`_sha2` from 3.12, `_sha256`
    # before), tried first as random.py does: hashlib maps OpenSSL's
    # libcrypto, about 2.5 MB of resident memory for one hash of a 1-2 KB
    # blob.  The digest is the same either way.  Imported here, because only
    # derive reports hash a model.
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

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
    return sha256(blob).hexdigest()


def derive(
    model: ModelSpec, mode: str = "pruned", max_order: int | None = None
) -> LiuReport:
    cls = classify(model.space, model.fields)
    dec = decouple(model)
    selection = select_constraints(model, mode=mode, max_order=max_order)
    production = entropy_production(model)
    exts = constraint_extensions(dec, selection)
    sol = _eliminate(model, dec, selection, production, {key: -ext for key, ext in exts.items()})
    restrictions = emit_restrictions(model, cls, sol.reduced)
    # The constrained inequality's degrees, read from its pieces: distinct
    # multipliers keep them from cancelling, and their denominators hold
    # state variables only.
    pieces = (production, *exts.values())
    diagnostics = {
        "zetaDegree": max(p.degree_in(cls.highest) for p in pieces),
        "etaDegree": max(p.degree_in(cls.higher) for p in pieces),
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
        diagnostics=tuple(sorted(diagnostics.items())),
    )


# -- serialization ---------------------------------------------------------


def report_json_dict(report: LiuReport) -> dict:
    m = report.model
    cls = report.classification
    r = report.restrictions
    q = r.quadratic
    # The minors first: their expansion peaks before the other strings exist.
    minors = q.expand_minors(text=True) if q is not None else ()
    return {
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
        "quadraticForm": None if q is None else {
            "variables": [v.text() for v in q.variables],
            "entries": [{"i": i, "j": j, "value": to_text(e)} for i, j, e in q.entries],
            "minors": [
                {"vars": [q.variables[i].text() for i in sub], "det": d} for sub, d in minors
            ],
        },
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
        "diagnostics": dict(sorted(dict(report.diagnostics).items())),
    }


def report_text(report: LiuReport) -> str:
    return format_report(report_json_dict(report))


def format_report(record: dict) -> str:
    """The text report: the record of `report_json_dict`, printed."""
    r = record
    cls = r["classification"]
    lines = [
        f"model {r['model']}  (mode {r['mode']})",
        f"hash {r['hash']}",
        f"fields: {', '.join(r['fields'])}",
        f"state (order {r['state']['order']}): " + ", ".join(r["state"]["vars"]),
        "highest jets: " + ", ".join(cls["highest"]),
        "higher jets:  " + ", ".join(cls["higher"]),
        "constraints:",
    ]
    lines += [f"  {c['law']}: extension order {c['order']}" for c in r["selection"]]
    if r["diagnostics"].get("classical"):
        lines.append("note: purely local state space; no gradient extensions "
                     "(classical procedure)")
    lines.append("nonvanishing: " + (", ".join(r["sideConditions"]) or "-"))
    lines.append("multipliers:")
    lines += [f"  L[{m['law']}, k={m['k']}] = {m['value']}" for m in r["multipliers"]]
    lines.append("equalities:")
    lines += [f"  [{e['label']}]  {e['expr']} = 0" for e in r["equalities"]] or ["  (none)"]
    q = r["quadraticForm"]
    if q is not None:
        names = q["variables"]
        lines.append("quadratic form (must be positive semidefinite) in: " + ", ".join(names))
        lines += [f"  M[{names[e['i']]}, {names[e['j']]}] = {e['value']}" for e in q["entries"]]
        lines.append("  principal minors (each must be nonnegative):")
        lines += [f"    det[{', '.join(m['vars'])}] = {m['det']}" for m in q["minors"]]
    for f in r["evenForms"]:
        lines.append(f"even form of degree {f['degree']}:")
        lines += [f"  coeff[{e['monomial']}] = {e['value']}" for e in f["entries"]]
    lines.append("residual production (must be nonnegative):")
    lines.append("  " + r["residual"])
    lines.append("diagnostics: " + ", ".join(f"{k}={v}" for k, v in sorted(r["diagnostics"].items())))
    return "\n".join(lines) + "\n"


def report_latex(report: LiuReport) -> str:
    from .latex import report_latex  # only `derive --format latex` compiles the LaTeX module
    return report_latex(report)


def same_restrictions(a: Restrictions, b: Restrictions) -> bool:
    """Structural equality of two restriction sets, ignoring equality order.

    Used to confirm that pruning the constraint set leaves the emitted
    restrictions unchanged: the pruned-away extensions only carry multipliers
    that solve to zero.
    """
    def key(r: Restrictions) -> tuple:
        q = r.quadratic
        return (
            {e.expr for e in r.equalities},
            None if q is None else (q.variables, frozenset(q.entries)),
            {(f.degree, f.variables, frozenset(f.entries)) for f in r.even_forms},
            r.residual,
        )

    return key(a) == key(b)
