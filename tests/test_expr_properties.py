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
cofactor expansion over expressions (and sympy), and the printers against
a reference that sorts the terms before printing.
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
    ParseContext,
    ZERO,
    _Resolver,
    _check_acyclic,
    as_expression,
    parse,
    principal_minors,
    to_latex,
    to_text,
)
from liukit.jet import JetVariable

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
    bind = {k: as_expression(v) for k, v in bindings.items()}
    _check_acyclic(bind)
    resolver = _Resolver(bind)

    def rebuild(part) -> Expression:
        total = ZERO
        for m, c in part:
            term = Expression.number(c)
            for a, k in m:
                rep = resolver.resolve(a)
                term = term * (rep if rep is not None else Expression.atom(a)) ** k
            total = total + term
        return total

    for _ in range(len(bind) + 2):
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


def _value(e: Expression, point: _Point, resolver: _Resolver) -> float:
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
    resolver = _Resolver(bind)
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
        direct = _value(a, point, _Resolver(bind))
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
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[sym(a) ** k for a, k in m])
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


# -- printing ----------------------------------------------------------------


def _sorted_part(part, mono) -> str:
    """Terms printed from the leading monomial down, sorted afresh."""
    terms = sorted(part, key=lambda kv: expr_mod._MONO_KEY(kv[0]), reverse=True)
    out = []
    for i, (m, c) in enumerate(terms):
        sign = ("-" if c < 0 else "") if i == 0 else (" - " if c < 0 else " + ")
        out.append(sign + mono(m, c))
    return "".join(out)


def _reference_text(e: Expression) -> str:
    if e.is_zero:
        return "0"
    num = _sorted_part(e._num, expr_mod._mono_text)
    if e.den_is_one:
        return num
    den = _sorted_part(e._den, expr_mod._mono_text)
    if len(e._num) > 1:
        num = f"({num})"
    if not (len(e._den) == 1 and e._den[0][1] == 1 and len(e._den[0][0]) == 1):
        den = f"({den})"
    return f"{num}/{den}"


def _reference_latex(e: Expression) -> str:
    if e.is_zero:
        return "0"
    num = _sorted_part(e._num, expr_mod._mono_latex)
    if e.den_is_one:
        return num
    return rf"\frac{{{num}}}{{{_sorted_part(e._den, expr_mod._mono_latex)}}}"


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(a=exprs)
def test_printers_match_sorting_reference(a):
    for e in (a, -a):
        assert to_text(e) == _reference_text(e)
        assert to_latex(e) == _reference_latex(e)
