"""Randomized property suites for the expression kernel.

Five suites, each run over at least a thousand generated cases:

1. print/parse round-trip,
2. commutative-ring axioms (with exact division identities),
3. the Leibniz rule for total and partial derivatives,
4. commutation of the two total-derivative operators,
5. reconstruction of an expression from its collected coefficients.

The generators are derandomized, so every run exercises the same case set
and failures reproduce exactly.

A sixth suite, outside that set, checks `Expression.subs` against a
term-by-term reference substitution and against point evaluation; fixed
cases also go through sympy when it is installed.  A deterministic guard
keeps the number of normalizations per substitution independent of the
expression size.

Further suites, also outside that set, check `principal_minors` against a
cofactor expansion over expressions (and sympy), the canonical monomial
order against a reference comparator, and the printers against a reference
that sorts the terms with that comparator before printing.  Fixed cases
compare `total_x`, `poly_gcd` and the normal form with sympy when it is
installed.

The references read monomials as (atom, exponent) pairs and order atoms by
`atom_key`, so they share nothing with the kernel's ids and rank table.
"""
from __future__ import annotations

import functools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from liukit import expr as expr_mod
from liukit.expr import (
    EvaluationError,
    ExprError,
    Expression,
    FuncSym,
    ParseContext,
    Substitution,
    ZERO,
    parse,
    principal_minors,
    to_latex,
    to_text,
)
from liukit.jet import ATOMS, JetVariable
from liukit.liu import constrained_inequality, decouple, derive, multiplier_symbol, select_constraints
from liukit.models import load_builtin

RHO = JetVariable("rho")
EPS = JetVariable("eps")
RHO_X = RHO.dx()
EPS_X = EPS.dx()
V_X = JetVariable("v", 0, 1)
RHO_XX = RHO.dx(2)
RHO_T = RHO.dt()

CTX = ParseContext(fields=("rho", "v", "eps"))
S0 = CTX.declare_sym("s0", (RHO, EPS))
Q1 = CTX.declare_sym("q1", (RHO,))

_ATOMS = [
    Expression.jet(RHO),
    Expression.jet(EPS),
    Expression.jet(V_X),
    Expression.jet(RHO_X),
    Expression.jet(EPS_X),
    Expression.jet(RHO_XX),
    Expression.jet(RHO_T),
    Expression.sym(S0),
    Expression.sym(Q1),
    Expression.sym(S0.bump(EPS)),
]

_numbers = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4),
).map(Expression.number)

_leaf = st.sampled_from(_ATOMS) | _numbers


def _safe_div(pair):
    a, b = pair
    return a / b if not b.is_zero else a


def _extend(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda t: t[0] + t[1]),
        pair.map(lambda t: t[0] - t[1]),
        pair.map(lambda t: t[0] * t[1]),
        children.map(lambda a: -a),
        st.tuples(children, st.integers(0, 2)).map(lambda t: t[0] ** t[1]),
        pair.map(_safe_div),
    )


def _extend_poly(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda t: t[0] + t[1]),
        pair.map(lambda t: t[0] - t[1]),
        pair.map(lambda t: t[0] * t[1]),
        children.map(lambda a: -a),
        st.tuples(children, st.integers(0, 2)).map(lambda t: t[0] ** t[1]),
    )


exprs = st.recursive(_leaf, _extend, max_leaves=10)
poly_exprs = st.recursive(_leaf, _extend_poly, max_leaves=10)

CASES: Counter = Counter()


def _pairs(m) -> tuple:
    """A kernel monomial as (atom, exponent) pairs in canonical atom order."""
    return tuple(sorted(((ATOMS[i], e) for i, e in zip(m[::2], m[1::2])), key=lambda p: p[0].atom_key))


def mono_cmp(m1, m2) -> int:
    """Reference graded-lex comparison of two monomials given as sorted pairs."""
    d1 = sum(e for _, e in m1)
    d2 = sum(e for _, e in m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    for (a1, e1), (a2, e2) in zip(m1, m2):
        k1, k2 = a1.atom_key, a2.atom_key
        if k1 != k2:
            return 1 if k1 < k2 else -1
        if e1 != e2:
            return 1 if e1 > e2 else -1
    return (len(m1) > len(m2)) - (len(m1) < len(m2))


_REF_KEY = functools.cmp_to_key(mono_cmp)

_suite = settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.filter_too_much,
        HealthCheck.data_too_large,
    ],
)


@_suite
@given(a=exprs)
def check_round_trip(a):
    CASES["round_trip"] += 1
    assert parse(to_text(a), CTX) == a


@_suite
@given(a=exprs, b=exprs, c=exprs)
def check_ring_axioms(a, b, c):
    CASES["ring"] += 1
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert ((a * b) * c - a * (b * c)).is_zero
    assert (a * (b + c) - (a * b + a * c)).is_zero
    assert (a - a).is_zero
    assert a + ZERO == a
    assert a * 1 == a
    assert (a * 0).is_zero
    if not b.is_zero:
        assert ((a / b) * b - a).is_zero


@_suite
@given(a=exprs, b=exprs)
def check_leibniz(a, b):
    CASES["leibniz"] += 1
    prod = a * b
    assert (prod.total_x() - (a.total_x() * b + a * b.total_x())).is_zero
    assert (prod.total_t() - (a.total_t() * b + a * b.total_t())).is_zero
    assert (prod.diff(RHO) - (a.diff(RHO) * b + a * b.diff(RHO))).is_zero


@_suite
@given(a=exprs)
def check_total_derivatives_commute(a):
    CASES["commute"] += 1
    assert (a.total_t().total_x() - a.total_x().total_t()).is_zero


@_suite
@given(a=poly_exprs)
def check_collect_reconstruction(a):
    CASES["collect"] += 1
    variables = (RHO_X, EPS_X, V_X)
    buckets = a.collect(variables)
    rebuilt = ZERO
    for idx, coeff in buckets.items():
        term = coeff
        for v, k in zip(variables, idx):
            if k:
                term = term * Expression.jet(v) ** k
        rebuilt = rebuilt + term
    assert (rebuilt - a).is_zero


ALL_SUITES = {
    "round_trip": check_round_trip,
    "ring": check_ring_axioms,
    "leibniz": check_leibniz,
    "commute": check_total_derivatives_commute,
    "collect": check_collect_reconstruction,
}


def run_all_suites() -> dict[str, int]:
    """Run every property suite and return the per-suite case counts."""
    for key in ALL_SUITES:
        CASES[key] = 0
    for fn in ALL_SUITES.values():
        fn()
    return {key: CASES[key] for key in ALL_SUITES}


def _run(name: str):
    CASES[name] = 0
    ALL_SUITES[name]()
    assert CASES[name] >= 1000, f"suite {name} ran only {CASES[name]} cases"


def test_round_trip_suite():
    _run("round_trip")


def test_ring_axiom_suite():
    _run("ring")


def test_leibniz_suite():
    _run("leibniz")


def test_total_derivative_commutation_suite():
    _run("commute")


def test_collect_reconstruction_suite():
    _run("collect")


# -- substitution -------------------------------------------------------------


def _reference_subs(e: Expression, bindings) -> Expression:
    """`Expression.subs` with each pass summed one monomial at a time."""
    resolver = Substitution(bindings)

    def rebuild(part) -> Expression:
        total = ZERO
        for m, c in part:
            term = Expression.number(c)
            for a, k in _pairs(m):
                rep = resolver.resolve(a)
                term = term * (rep if rep is not None else Expression.atom(a)) ** k
            total = total + term
        return total

    for _ in range(len(resolver.bind) + 2):
        num = rebuild(e._num)
        nxt = num if e.den_is_one else num / rebuild(e._den)
        if nxt == e:
            return nxt
        e = nxt
    raise AssertionError("reference substitution did not reach a fixed point")


class _Point(dict):
    """Sample point that gives every atom, even one created by closure, a value."""

    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed

    def __contains__(self, a) -> bool:
        return True

    def __missing__(self, a) -> float:
        v = self[a] = random.Random(f"{self.seed}:{a.text()}").uniform(0.5, 1.5)
        return v


def _value(e: Expression, point: _Point, resolver: Substitution) -> float:
    """e at the point, each bound atom taking its replacement's value there."""
    env = _Point(point.seed)
    env.update(point)
    for a in e.atoms():
        rep = resolver.resolve(a)
        if rep is not None:
            env[a] = _value(rep, point, resolver)
    return e.evaluate(env)


# Binding slots in a fixed order: a value may name only the slots after its
# own, so any subset of bindings is acyclic.  Binding s0 (or D(s0, eps))
# closes over its derivative atoms; binding a field closes over its jets.
_SLOTS = (
    ("q1", (Q1,)),
    ("s0", (S0, S0.bump(EPS))),
    ("eps", (EPS,)),
    ("v", (JetVariable("v"),)),
)
# Distinct nonconstant denominators, one per slot, free of every slot name.
_DENS = ("1 + rho", "rho^2 + 2", "rho - 3", "2*rho")


def _names(e: Expression) -> set:
    return {getattr(a, "field", None) or a.name for a in e.atoms()}


def _slot_values(i: int):
    banned = {name for name, _ in _SLOTS[: i + 1]}
    leaves = [a for a in _ATOMS if not (_names(a) & banned)]
    leaf = st.sampled_from(leaves) | _numbers
    den = parse(_DENS[i], CTX)
    poly = st.recursive(leaf, _extend_poly, max_leaves=6)
    return st.one_of(
        poly,
        poly.map(lambda p: p / den),
        st.recursive(leaf, _extend, max_leaves=6),
    )


_SLOT_VALUES = [_slot_values(i) for i in range(len(_SLOTS))]


# Atoms that some slot binds or closes over.
_BOUND_ATOMS = [Expression.sym(Q1), Expression.sym(S0), Expression.sym(S0.bump(EPS)),
                Expression.jet(EPS), Expression.jet(EPS_X), Expression.jet(V_X)]


@st.composite
def substitutions(draw):
    """A binding set, and a target whose leaves lean on the atoms it binds."""
    bind = {}
    for i in sorted(draw(st.sets(st.integers(0, len(_SLOTS) - 1), min_size=1))):
        bind[draw(st.sampled_from(_SLOTS[i][1]))] = draw(_SLOT_VALUES[i])
    resolver = Substitution(bind)
    hit = tuple(
        i for i, e in enumerate(_BOUND_ATOMS) if resolver.resolve(next(iter(e.atoms()))) is not None
    )
    return draw(_targets(hit)), bind


@functools.lru_cache(maxsize=None)
def _targets(hit: tuple):
    leaf = st.sampled_from([_BOUND_ATOMS[i] for i in hit]) | _leaf
    return st.recursive(leaf, _extend, max_leaves=10)


@_suite
@given(case=substitutions(), seed=st.integers(0, 2**16))
def check_substitution(case, seed):
    a, bind = case
    CASES["subs"] += 1
    try:
        want = _reference_subs(a, bind)
    except ExprError as exc:
        with pytest.raises(type(exc)):
            a.subs(bind)
        return
    got = a.subs(bind)
    assert got == want
    assert to_text(got) == to_text(want)
    point = _Point(seed)
    try:
        direct = _value(a, point, Substitution(bind))
        value = got.evaluate(point)
    except EvaluationError:
        return
    assert math.isclose(value, direct, rel_tol=1e-7, abs_tol=1e-7)


def test_substitution_suite():
    CASES["subs"] = 0
    check_substitution()
    assert CASES["subs"] >= 1000


def _to_sympy(sympy, e: Expression):
    def sym(a):
        return sympy.Symbol(re.sub(r"\W+", "_", a.text()))

    def part(p):
        return sympy.Add(*[
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[sym(a) ** k for a, k in _pairs(m)])
            for m, c in p.items()
        ])

    return part(e.num_poly()) / part(e.den_poly())


_SUBS_CASES = [
    ("q1^2*rho + s0/(q1 - eps)", {"q1": "rho/(1 + eps)", "s0": "eps^2 + rho"}),
    ("(s0*D(s0, eps) + q1)/(rho + q1^2)", {"q1": "s0 - 1", "s0": "rho*eps^3/(2 + rho)"}),
    ("(rho + eps + q1)^5 - q1^5", {"q1": "1/(rho - eps^2)"}),
    ("q1^3/(s0^2 - 1) + D(s0, eps)", {"s0": "(rho + 1)/eps", "q1": "eps/(rho + 1)"}),
]


@pytest.mark.parametrize("text, bound", _SUBS_CASES, ids=["pair", "chain", "power", "closure"])
def test_substitution_matches_sympy(text, bound):
    sympy = pytest.importorskip("sympy")
    to_sympy = functools.partial(_to_sympy, sympy)
    bind = {CTX.sym(name): parse(value, CTX) for name, value in bound.items()}
    got = parse(text, CTX).subs(bind)
    want = to_sympy(parse(text, CTX))
    d_s0 = Expression.sym(S0.bump(EPS))
    for key in (Q1, S0):  # q1 may name s0, never the other way round
        if key in bind:
            value = to_sympy(bind[key])
            if key == S0:
                want = want.subs(to_sympy(d_s0), sympy.diff(value, to_sympy(Expression.jet(EPS))))
            want = want.subs(to_sympy(Expression.sym(key)), value)
    assert sympy.cancel(to_sympy(got) - want) == 0


# Concrete functions of x for each field and each function symbol: an
# expression's total x-derivative must be the x-derivative of its value
# along them, which sympy computes by the chain rule on its own.
_FIELD_FNS = {"rho": "1 + x + x**3/2", "eps": "2 - x**2 + x**4", "v": "3*x - x**2"}
_SYM_FNS = {"s0": "r**3*e + r/(1 + e**2)", "q1": "r**2 - 1/(2 + r)"}


def _along_x(sympy, e: Expression):
    x = sympy.Symbol("x")
    fields = {f: sympy.sympify(t, locals={"x": x}) for f, t in _FIELD_FNS.items()}

    def atom(a):
        if isinstance(a, JetVariable):
            assert a.t_order == 0
            return sympy.diff(fields[a.field], x, a.x_order)
        args = sympy.symbols("r e")[: len(a.deps)]
        fn = sympy.sympify(_SYM_FNS[a.name], locals=dict(zip("re", args)))
        for arg, o in zip(args, a.orders):
            fn = sympy.diff(fn, arg, o)
        return fn.subs({arg: atom(d) for arg, d in zip(args, a.deps)}, simultaneous=True)

    def part(p):
        return sympy.Add(*[
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[atom(a) ** k for a, k in _pairs(m)])
            for m, c in p.items()
        ])

    return part(e.num_poly()) / part(e.den_poly())


@pytest.mark.parametrize("text", [
    "rho^3*eps_x - 2*v_x*rho_xx",
    "s0*rho_x^2 + D(s0, eps)*eps_x/rho",
    "(q1 + rho_x)/(s0 - eps^2)",
    "D(s0, rho, eps)^2*v_x/(1 + q1^2)",
])
def test_total_x_matches_sympy(text):
    sympy = pytest.importorskip("sympy")
    e = parse(text, CTX)
    x = sympy.Symbol("x")
    got = _along_x(sympy, e.total_x())
    want = sympy.diff(_along_x(sympy, e), x)
    # Exact values at a few rational points: cancelling the high-degree
    # difference symbolically takes seconds per case.
    for at in (sympy.Rational(1, 3), sympy.Rational(-5, 4), sympy.Integer(2)):
        assert (got - want).subs(x, at) == 0


_GCD_CASES = [
    ("(rho + eps)^2*(rho - 2*eps_x)", "(rho + eps)*(3*rho^2 - eps)"),
    ("6*rho^2*eps - 4*rho*eps^2", "9*rho^3 - 6*rho^2*eps"),
    ("(rho^2 + 2)*(s0 - q1)^2*rho_x", "(s0 - q1)*(rho^2 + 2)*(eps + 1)^3"),
    ("(rho + 1)*(eps^2 - rho)", "(rho + 1)^2*(eps^2 + rho)"),
    ("rho^3 - 1", "2*rho^2 - 2"),
]


@pytest.mark.parametrize("left, right", _GCD_CASES)
def test_poly_gcd_and_normal_form_match_sympy(left, right):
    sympy = pytest.importorskip("sympy")
    to_sympy = functools.partial(_to_sympy, sympy)
    p, q = parse(left, CTX), parse(right, CTX)
    g = expr_mod.poly_gcd(p.num_poly(), q.num_poly())
    want = sympy.gcd(to_sympy(p), to_sympy(q))
    ratio = sympy.cancel(to_sympy(Expression(g, {(): 1})) / want)
    assert ratio.is_number and ratio != 0
    # The normal form of p/q is reduced: coprime parts of the same value.
    n = p / q
    num, den = to_sympy(Expression(n.num_poly(), {(): 1})), to_sympy(n.denominator())
    assert sympy.gcd(num, den).is_number
    assert sympy.cancel(num / den - to_sympy(p) / to_sympy(q)) == 0


def _normalizations_in_subs(n: int, monkeypatch) -> int:
    """Calls of _normalize while substituting into an n-term polynomial."""
    rho, eps, q1 = Expression.jet(RHO), Expression.jet(EPS), Expression.sym(Q1)
    poly = ZERO
    for i in range(1, n + 1):
        poly = poly + i * rho ** i * q1 ** (i % 3) + i * eps ** i
    assert len(poly.num_poly()) >= n
    bind = {Q1: parse("eps/(1 + rho)", CTX)}
    calls = Counter()
    normalize = expr_mod._normalize

    def counting(num, den):
        calls["n"] += 1
        return normalize(num, den)

    with monkeypatch.context() as patch:
        patch.setattr(expr_mod, "_normalize", counting)
        poly.subs(bind)
    return calls["n"]


def test_subs_normalizations_do_not_grow_with_size(monkeypatch):
    small = _normalizations_in_subs(10, monkeypatch)
    assert small == _normalizations_in_subs(200, monkeypatch)
    assert small <= 2


# -- principal minors ------------------------------------------------------------


def _cofactor_det(mat) -> Expression:
    """Laplace expansion along the first row over expressions."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = ZERO
    for j in range(n):
        if mat[0][j].is_zero:
            continue
        term = mat[0][j] * _cofactor_det([row[:j] + row[j + 1:] for row in mat[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def _all_subsets(n: int) -> list:
    return [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)]


# Distinct nonconstant denominators, two of them sums.  Sums in two or more
# atoms are left out: the cofactor reference and the kernel's gcd then take
# seconds on a single 5x5 case.
_ENTRY_DENS = [parse(t, CTX) for t in ("1 + rho", "1 + eps", "rho", "2*eps")]
_entry_poly = st.recursive(st.sampled_from(_ATOMS[:3]) | _numbers, _extend_poly, max_leaves=3)
_entries = st.one_of(
    st.just(ZERO),
    _numbers,
    _entry_poly,
    st.tuples(_entry_poly, st.sampled_from(_ENTRY_DENS)).map(lambda t: t[0] / t[1]),
)


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 5))
    mat = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mat[i][j] = mat[j][i] = draw(_entries)
    return mat


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(mat=symmetric_matrices())
def check_principal_minors(mat):
    CASES["minors"] += 1
    dens = {e._den for row in mat for e in row if not e.den_is_one}
    if len(mat) >= 4 and len(dens) >= 2:
        CASES["minors_mixed"] += 1
    subsets = _all_subsets(len(mat))
    got = principal_minors(mat, subsets)
    assert len(got) == len(subsets)
    for sub, minor in zip(subsets, got):
        assert minor == _cofactor_det([[mat[i][j] for j in sub] for i in sub])


def test_principal_minor_suite():
    CASES["minors"] = CASES["minors_mixed"] = 0
    check_principal_minors()
    assert CASES["minors"] >= 150
    # Large matrices that mix distinct denominators are the cases that matter.
    assert CASES["minors_mixed"] >= 20, CASES["minors_mixed"]


def _fixed_matrix(rows):
    return [[parse(t, CTX) for t in row] for row in rows]


_MINOR_CASES = [
    [["rho/(1 + rho)", "eps"], ["eps", "1/eps"]],
    [
        ["rho", "q1/(rho^2 + 2)", "0"],
        ["q1/(rho^2 + 2)", "s0/eps", "1/2"],
        ["0", "1/2", "rho - q1"],
    ],
    [
        ["1/(1 + rho)", "eps", "rho_x", "0"],
        ["eps", "s0", "0", "q1/(1 + rho)"],
        ["rho_x", "0", "eps/(rho - 3)", "1"],
        ["0", "q1/(1 + rho)", "1", "rho*eps"],
    ],
]


@pytest.mark.parametrize("rows", _MINOR_CASES, ids=["2x2", "3x3", "4x4"])
def test_principal_minors_match_sympy(rows):
    sympy = pytest.importorskip("sympy")
    mat = _fixed_matrix(rows)
    subsets = _all_subsets(len(mat))
    for sub, minor in zip(subsets, principal_minors(mat, subsets)):
        want = sympy.Matrix([[_to_sympy(sympy, mat[i][j]) for j in sub] for i in sub]).det()
        assert sympy.cancel(_to_sympy(sympy, minor) - want) == 0


@pytest.mark.parametrize("mode", ["pruned", "all"])
@pytest.mark.parametrize("name", ["grade2", "korteweg"])
def test_multiplier_solve_matches_sympy(name, mode):
    """All mixed time-jet coefficients, solved at once by sympy for every multiplier."""
    sympy = pytest.importorskip("sympy")
    model = load_builtin(name)
    dec = decouple(model)
    selection = select_constraints(model, mode)
    ineq = constrained_inequality(model, dec, selection)
    jets = sorted((a for a in ineq.jets() if a.t_order), key=JetVariable.sort_key)
    buckets = ineq._collect(jets)
    assert all(sum(idx) <= 1 for idx in buckets)
    eqs = [_to_sympy(sympy, c) for idx, c in buckets.items() if sum(idx) == 1]
    lams = [_to_sympy(sympy, Expression.sym(multiplier_symbol(i, k))) for i, k in selection.entries]
    (oracle,) = sympy.solve(eqs, lams, dict=True)
    report = derive(model, mode)
    assert len(report.multipliers) == len(lams)
    for i, k, value in report.multipliers:
        lam = _to_sympy(sympy, Expression.sym(multiplier_symbol(i, k)))
        assert sympy.cancel(oracle[lam] - _to_sympy(sympy, value)) == 0


def test_principal_minors_normalize_once_per_minor(monkeypatch):
    mat = _fixed_matrix(_MINOR_CASES[-1])
    subsets = _all_subsets(len(mat))
    calls = Counter()
    normalize = expr_mod._normalize

    def counting(num, den):
        calls["n"] += 1
        return normalize(num, den)

    monkeypatch.setattr(expr_mod, "_normalize", counting)
    minors = principal_minors(mat, subsets)
    assert calls["n"] == len(subsets) == len(minors)


# -- canonical order ------------------------------------------------------------

_FIELDS = ("rho", "eps", "v", "theta")


@st.composite
def fresh_atoms(draw):
    """Jets and symbols, many of them new to the process, drawn in any order."""
    field = st.sampled_from(_FIELDS)
    jet = st.builds(JetVariable, field, st.integers(0, 2), st.integers(0, 4))
    deps = st.lists(field, min_size=1, max_size=3, unique=True).map(lambda fs: [JetVariable(f) for f in fs])

    def sym(t):
        name, ds, orders = t
        return FuncSym(name, ds, orders[: len(ds)])

    syms = st.tuples(st.sampled_from(("s0", "q1", "psi")), deps, st.lists(st.integers(0, 2), min_size=3, max_size=3))
    return draw(st.lists(jet | syms.map(sym), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(atoms=fresh_atoms(), data=st.data())
def test_freeze_orders_as_reference_comparator(atoms, data):
    monos = data.draw(st.lists(
        st.lists(st.tuples(st.sampled_from(atoms), st.integers(1, 3)), max_size=4),
        min_size=1, max_size=12,
    ))
    poly = {expr_mod.mono_from_pairs(m): Fraction(2 * i + 2, 2) for i, m in enumerate(monos)}
    frozen = expr_mod._freeze(poly)
    assert all(type(c) is int for _, c in frozen)  # integral coefficients are stored as ints
    got = [_pairs(m) for m, _ in frozen]
    assert got == sorted(got, key=_REF_KEY)
    assert _pairs(expr_mod.p_leading(poly)[0]) == got[-1]


# -- printing ----------------------------------------------------------------


def _coef_text(c, latex: bool) -> str:
    c = Fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return rf"\tfrac{{{c.numerator}}}{{{c.denominator}}}" if latex else f"{c.numerator}/{c.denominator}"


def _ref_mono(pairs, c, latex: bool) -> str:
    parts = [_coef_text(abs(c), latex)] if abs(c) != 1 or not pairs else []
    for a, e in pairs:
        if latex:
            parts.append(expr_mod._atom_latex(a) + (f"^{{{e}}}" if e > 1 else ""))
        else:
            parts.append(a.text() + (f"^{e}" if e > 1 else ""))
    return (r" \, " if latex else "*").join(parts)


def _sorted_part(poly, latex: bool = False) -> str:
    """Terms printed from the leading monomial down, sorted afresh by the reference."""
    terms = sorted(((_pairs(m), c) for m, c in poly.items()), key=lambda t: _REF_KEY(t[0]), reverse=True)
    out = []
    for i, (pairs, c) in enumerate(terms):
        sign = ("-" if c < 0 else "") if i == 0 else (" - " if c < 0 else " + ")
        out.append(sign + _ref_mono(pairs, c, latex))
    return "".join(out)


def _reference_text(e: Expression) -> str:
    if e.is_zero:
        return "0"
    num_p, den_p = e.num_poly(), e.den_poly()
    num = _sorted_part(num_p)
    if e.den_is_one:
        return num
    den = _sorted_part(den_p)
    if len(num_p) > 1:
        num = f"({num})"
    (m, c), *more = den_p.items()
    if more or c != 1 or len(_pairs(m)) != 1:
        den = f"({den})"
    return f"{num}/{den}"


def _reference_latex(e: Expression) -> str:
    if e.is_zero:
        return "0"
    num = _sorted_part(e.num_poly(), latex=True)
    if e.den_is_one:
        return num
    return rf"\frac{{{num}}}{{{_sorted_part(e.den_poly(), latex=True)}}}"


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(a=exprs)
def test_printers_match_sorting_reference(a):
    for e in (a, -a):
        assert to_text(e) == _reference_text(e)
        assert to_latex(e) == _reference_latex(e)
