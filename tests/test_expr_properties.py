"""Randomized property suites for the expression kernel.

Five suites, each run over at least a thousand generated cases:

1. print/parse round-trip,
2. commutative-ring axioms (with exact division identities),
3. the Leibniz rule for total and partial derivatives,
4. commutation of the two total-derivative operators,
5. reconstruction of an expression from its collected coefficients.

The generators are derandomized, so every run exercises the same case set
and failures reproduce exactly.  This module defines the five suites but does
not collect them: acceptance criterion 8 in `test_acceptance.py` runs them
once, through `run_all_suites`, and asserts the case count of each.

A sixth suite, outside that set, checks `Expression.subs` against a
term-by-term reference substitution and against point evaluation; fixed
cases also go through sympy when it is installed.  A deterministic guard
keeps the number of normalizations per substitution independent of the
expression size.

A float suite checks `Expression.evaluate` bit for bit against a
term-by-term reference interpreter, errors included.  Another runs the
statements of `float_body` for several targets at once against the same
statements written term by term, `c*x3**2*x0**1`, with no power shared.

Further suites, also outside that set, check `principal_minors` against a
cofactor expansion over expressions (and sympy), the canonical monomial
order against a reference comparator, and the printers against a reference
that sorts the terms with that comparator before printing.  Fixed cases
compare `total_x`, `poly_gcd` and the normal form with sympy when it is
installed.  A derandomized suite draws products of factors with a common
part and requires `poly_gcd` to be sympy's gcd up to a constant, with
cofactors that divide exactly and are coprime.  A packed-minor suite uses
monomial denominators only, so every minor is finished without
`_normalize`, and requires the same parts as the cofactor expansion and as
normalizing the minor's own parts again.  Both minor suites also require
the text that `principal_minors(..., text=True)` prints for the report to
equal `to_text` of each minor and the sorting reference's text of the
cofactor expansion.

`_split` is checked against a one-atom-at-a-time reference loop, with the
atom ids given as a set and as a dict, and `degree_in` against the degrees
of the split.

Exact division by one-term divisors, constants and monomials, and by
several-term divisors whose remainders cancel, is checked against the
leading-term loop on seeded random polynomials.

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
from liukit import latex as latex_mod
from liukit.checker import CoefficientRangeError, EvaluationError, compile_source, float_body
from liukit.expr import (
    ExprError,
    Expression,
    FuncSym,
    ParseContext,
    ZERO,
    parse,
    principal_minors,
    to_text,
)
from liukit.jet import ATOMS, JetVariable
from liukit.latex import to_latex
from liukit.liu import constrained_inequality, decouple, derive, multiplier_symbol, select_constraints
from liukit.models import load_builtin
from liukit.subst import Substitution

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
    reversed_bind = dict(reversed(bind.items()))  # the same bindings, inserted in reverse
    try:
        want = _reference_subs(a, bind)
    except ExprError as exc:
        with pytest.raises(type(exc)):
            a.subs(bind)
        with pytest.raises(ExprError):
            a.subs(reversed_bind)
        return
    got = a.subs(bind)
    assert got == want
    assert to_text(got) == to_text(want)
    got = a.subs(reversed_bind)
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


# The factors of the rational inputs' denominators, and monomials.
_GCD_POOL = ["rho - eps", "rho^2 + 2", "v^2 + 2*eps + 2", "rho", "eps^2", "3*v", "s0*rho_x", "-2"]


def _poly(p: dict) -> Expression:
    return Expression(p, {(): 1})


def test_poly_gcd_of_products_matches_sympy():
    """poly_gcd of two products drawn from a pool of factors with a common part.

    The gcd is sympy's up to a constant, and both cofactors divide exactly
    and are coprime.
    """
    sympy = pytest.importorskip("sympy")
    to_sympy = functools.partial(_to_sympy, sympy)
    factors = [parse(t, CTX).num_poly() for t in _GCD_POOL]
    product = st.lists(st.sampled_from(range(len(factors))), max_size=3).map(
        lambda ks: functools.reduce(expr_mod.p_mul, [factors[k] for k in ks], {(): 1}))

    @settings(_suite, max_examples=300)
    @given(common=product, left=product, right=product)
    def check(common, left, right):
        p, q = expr_mod.p_mul(common, left), expr_mod.p_mul(common, right)
        g = expr_mod.poly_gcd(p, q)
        ratio = sympy.cancel(sympy.gcd(*map(to_sympy, (_poly(p), _poly(q)))) / to_sympy(_poly(g)))
        assert ratio.is_number and ratio != 0
        a, b = expr_mod._p_div_exact(p, g), expr_mod._p_div_exact(q, g)
        assert expr_mod.p_mul(a, g) == p and expr_mod.p_mul(b, g) == q
        assert sympy.gcd(to_sympy(_poly(a)), to_sympy(_poly(b))).is_number

    check()


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


# -- splitting and degrees -----------------------------------------------------------

_SPLIT_ATOMS = [RHO, EPS, V_X, RHO_X, EPS_X, RHO_XX, RHO_T, S0, Q1, S0.bump(EPS)]


def _reference_split(p: dict, ids) -> dict:
    """`_split` one atom at a time: each monomial's atoms in `ids` key its bucket, the rest stay."""
    out: dict = {}
    for m, c in p.items():
        pairs = list(zip(m[::2], m[1::2]))
        bound = tuple(x for i, e in pairs if i in ids for x in (i, e))
        rest = tuple(x for i, e in pairs if i not in ids for x in (i, e))
        out.setdefault(bound, {})[rest] = c
    return out


@settings(_suite, max_examples=300)
@given(a=poly_exprs, chosen=st.sets(st.sampled_from(_SPLIT_ATOMS)))
def test_split_matches_reference_loop(a, chosen):
    """The split over a set and over a dict of atom ids; monomials free of them land in () whole."""
    p = a.num_poly()
    ids = {v.id for v in chosen}
    want = _reference_split(p, ids)
    assert expr_mod._split(p, ids) == want
    assert expr_mod._split(p, {i: k for k, i in enumerate(sorted(ids))}) == want
    assert want.get((), {}) == {m: c for m, c in p.items() if ids.isdisjoint(m[::2])}


@settings(_suite, max_examples=300)
@given(a=exprs, chosen=st.sets(st.sampled_from(_SPLIT_ATOMS)))
def test_degree_in_is_the_split_degree(a, chosen):
    ids = {v.id for v in chosen}
    split = expr_mod._split(a._n, ids)
    assert sum(map(len, split.values())) == len(a._n)  # the reference keeps every term
    assert a.degree_in(chosen) == max((sum(b[1::2]) for b in split), default=0)


# -- exact division ----------------------------------------------------------------

_DIV_ATOMS = (RHO, EPS, V_X, RHO_X, S0, Q1)


def _long_division(p, d):
    """p / d by the leading-term loop alone, for a divisor of any length."""
    q, r = {}, dict(p)
    dm, dc = expr_mod.p_leading(d)
    while r:
        rm, rc = expr_mod.p_leading(r)
        m = expr_mod.mono_div(rm, dm)
        assert m is not None, "inexact"
        q[m] = q.get(m, 0) + Fraction(rc) / dc
        expr_mod.p_add_into(r, expr_mod.p_mul({m: Fraction(rc) / dc}, d), -1)
    return {m: c for m, c in q.items() if c}


def _random_mono(rng, most: int):
    atoms = rng.sample(_DIV_ATOMS, rng.randint(1, most))
    return expr_mod.mono_from_pairs((a, rng.randint(1, 3)) for a in atoms)


def _random_coeff(rng):
    c = rng.choice([-5, -3, -2, -1, 1, 2, 3, 7])
    return Fraction(c, rng.choice([2, 3, 4])) if rng.random() < 0.3 else c


def test_exact_division_by_one_term_matches_long_division():
    # Divisors cycle through non-unit ints (negative too), Fractions, monomials
    # with unit and non-unit coefficients, and two-term divisors for the loop.
    rng = random.Random(2108)
    kinds = Counter()
    for case in range(600):
        p = {}
        for _ in range(rng.randint(1, 6)):
            p[_random_mono(rng, 3) if rng.random() < 0.8 else ()] = _random_coeff(rng)
        kind = case % 5
        if kind == 0:
            d = {(): rng.choice([-4, -3, -2, 2, 3, 6])}
        elif kind == 1:
            d = {(): Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([2, 3, 7]))}
        elif kind == 2:
            d = {_random_mono(rng, 2): 1}
        elif kind == 3:
            d = {_random_mono(rng, 2): rng.choice([-3, -2, -1, 2, 5, Fraction(-2, 3), Fraction(5, 4)])}
        else:
            d = {_random_mono(rng, 2): _random_coeff(rng), _random_mono(rng, 2) if rng.random() < 0.7 else (): 1}
            if len(d) < 2:
                continue
        kinds[kind] += 1
        pd = expr_mod.p_mul(p, d)
        got = expr_mod._p_div_exact(pd, d)
        assert got == p
        assert got == _long_division(pd, d)
    assert min(kinds.values()) >= 100 and len(kinds) == 5


@pytest.mark.parametrize("divisor", ["rho - eps", "rho^2 + 2", "1 + rho + eps*rho_x"])
def test_exact_division_by_several_terms_matches_long_division(divisor):
    # The heap loop must skip a remainder term that cancels before it leads:
    # (rho^3 - eps^3)/(rho - eps) cancels -eps^3 with the last quotient term's
    # trailing product, and the random quotients cancel terms the same way.
    d = parse(divisor, CTX).num_poly()
    rng = random.Random(2203)
    cases = [parse("rho^2 + rho*eps + eps^2", CTX).num_poly()]
    for _ in range(200):
        q = {}
        for _ in range(rng.randint(1, 6)):
            q[_random_mono(rng, 3) if rng.random() < 0.8 else ()] = _random_coeff(rng)
        cases.append(q)
    for q in cases:
        pd = expr_mod.p_mul(q, d)
        got = expr_mod._p_div_exact(pd, d)
        assert got == q
        assert got == _long_division(pd, d)


def test_one_term_divisors_skip_the_leading_term_loop(monkeypatch):
    calls = Counter()
    leading = expr_mod.p_leading

    def counting(p):
        calls["n"] += 1
        return leading(p)

    monkeypatch.setattr(expr_mod, "p_leading", counting)
    rho, eps = expr_mod.mono_from_pairs([(RHO, 1)]), expr_mod.mono_from_pairs([(EPS, 2)])
    p = {expr_mod.mono_mul(rho, eps): 6, rho: -4, expr_mod.mono_mul(rho, rho): Fraction(2, 3)}
    assert expr_mod._p_div_exact(p, {(): 1}) is p
    assert expr_mod._p_div_exact(p, {(): -2}) == {
        expr_mod.mono_mul(rho, eps): -3, rho: 2, expr_mod.mono_mul(rho, rho): Fraction(-1, 3)}
    assert expr_mod._p_div_exact(p, {rho: Fraction(2, 3)}) == {eps: 9, (): -6, rho: 1}
    assert calls["n"] == 0
    two = {rho: 1, (): 1}
    assert expr_mod._p_div_exact(expr_mod.p_mul(p, two), two) == p
    assert calls["n"] > 0


@pytest.mark.parametrize("p, d, message", [
    ("rho", "0", "division by zero polynomial"),
    ("rho*eps + rho", "eps", "inexact polynomial division"),
    ("rho^2", "rho^3", "inexact polynomial division"),
    ("3*rho", "2*eps", "inexact polynomial division"),
    ("rho^2 + 1", "rho + 1", "inexact polynomial division"),
], ids=["zero", "one-term-missing", "one-term-too-high", "one-term-other-atom", "two-term"])
def test_exact_division_failures(p, d, message):
    with pytest.raises(ExprError, match=f"^{message}$"):
        expr_mod._p_div_exact(parse(p, CTX).num_poly(), parse(d, CTX).num_poly())


# -- float evaluation ------------------------------------------------------------


def _reference_floats(e: Expression, env) -> float:
    """e at a point, interpreted term by term.

    A part sums its terms in stored order, starting from 0.0; a term is its
    float coefficient multiplied by each atom power in canonical atom order.
    The denominator is summed first and must not vanish.
    """
    def terms(part) -> list:
        out = []
        for m, c in part:
            try:
                out.append((float(c), _pairs(m)))
            except OverflowError:
                raise CoefficientRangeError("coefficient") from None
        return out

    def value(part) -> float:
        total = 0.0
        for v, pairs in part:
            for a, k in pairs:
                v *= env[a] ** k
            total += v
        return total

    den, num = terms(e._den), terms(e._num)
    try:
        dv = value(den)
        if dv == 0.0:
            raise EvaluationError("vanished")
        out = value(num) / dv
    except OverflowError:
        raise EvaluationError("overflow") from None
    if not (math.isfinite(out) and math.isfinite(dv)):
        raise EvaluationError("non-finite")
    return out


def _same_floats(targets, env):
    """`evaluate` against the reference, target by target: equal bits or the same error.

    Returns the error of the first target that raises one, or None.
    """
    first = None
    for t in targets:
        try:
            want = _reference_floats(t, env)
        except (EvaluationError, CoefficientRangeError) as exc:
            with pytest.raises(type(exc)):
                t.evaluate(env)
            first = first or type(exc)
        else:
            assert t.evaluate(env).hex() == want.hex()
    return first


_ATOM_OF = [next(iter(a.atoms())) for a in _ATOMS]
# Exponents from 3 up, on top of the products and squares of `exprs`, and
# terms whose float product depends on the order of three factors or more.
_powers = st.tuples(st.sampled_from(_ATOMS), st.integers(3, 7)).map(lambda t: t[0] ** t[1])
_terms = st.tuples(_numbers, st.sampled_from(_ATOMS), st.sampled_from(_ATOMS), st.integers(1, 4)).map(
    lambda t: t[0] * t[1] * t[2] ** t[3]
)
_float_exprs = st.recursive(_leaf | _powers | _terms, _extend, max_leaves=8)
# 0 makes denominators vanish; 1e150 overflows from the third power on.  The
# other values are not dyadic, so products round differently in another order.
_point_values = st.sampled_from([0.0, 1.0, -2.0, 1e150]) | st.integers(-4000, 4000).map(lambda k: k / 999.7)


@_suite
@given(
    targets=st.lists(_float_exprs, min_size=1, max_size=3),
    values=st.lists(_point_values, min_size=len(_ATOMS), max_size=len(_ATOMS)),
)
def check_compiled_floats(targets, values):
    CASES["floats"] += 1
    if _same_floats(targets, dict(zip(_ATOM_OF, values))) is not None:
        CASES["floats_error"] += 1


def test_compiled_float_suite():
    CASES["floats"] = CASES["floats_error"] = 0
    check_compiled_floats()
    assert CASES["floats"] >= 1000
    assert CASES["floats_error"] >= 30, CASES["floats_error"]


@pytest.mark.parametrize("texts, point, error", [
    (["rho^2000"], {RHO: 1.5}, EvaluationError),  # overflow
    (["rho^1000*eps^1000 - rho^1001*eps^1000"], {RHO: 1.95, EPS: 1.95}, EvaluationError),  # inf - inf
    (["rho/(eps_x - 1)"], {RHO: 1.0, EPS_X: 1.0}, EvaluationError),  # vanishing denominator
    (["1/rho^200"], {RHO: 1e-2}, EvaluationError),  # infinite denominator
    (["10^400*rho + 1"], {RHO: 1.0}, CoefficientRangeError),
    (["rho + 1/3", "10^400*rho + 1"], {RHO: 1.0}, CoefficientRangeError),
    (["1/(rho - 1)", "10^400*rho + 1"], {RHO: 1.0}, EvaluationError),  # the first failure wins
    (["-5/4*rho^3*eps_x + 1/3", "(rho - 2/7*eps_x^4)/(3*eps_x^3 + rho)"], {RHO: 0.3, EPS_X: -1.7}, None),
])
def test_compiled_floats_fixed_cases(texts, point, error):
    assert _same_floats([parse(t, CTX) for t in texts], point) is error


def test_compiled_floats_large_target():
    # One statement per term: a single 5000-term expression overflows the
    # compiler's recursion limit on some Python versions.
    rho, eps, rho_x = (Expression.jet(a) for a in (RHO, EPS, RHO_X))
    target = Expression.number(Fraction(1, 3))
    for atom in (rho, eps, rho_x):
        target = target * sum((Expression.number(Fraction(2 * k - 9, k + 2)) * atom ** k for k in range(18)), ZERO)
    target = target / (7 * rho_x ** 2)
    assert len(target.num_poly()) >= 5000
    assert _same_floats([target, -target], {RHO: 0.9, EPS: -1.1, RHO_X: 0.7}) is None


def _term_formula_body(targets, atoms) -> list:
    """`float_body`'s statements with each term as one formula, `c*x3**2*x0**1`."""
    pos = {a: k for k, a in enumerate(atoms)}

    def terms(acc, part):
        return [f"{acc} = 0.0"] + [
            f"{acc} += {float(c)!r}" + "".join(f"*x{pos[a]}**{e}" for a, e in _pairs(m)) for m, c in part
        ]

    body = []
    for name, e in targets:
        try:
            den = [] if e.den_is_one else terms("d", e._den)
            num = terms("t", e._num)
        except OverflowError:
            body.append("raise _R(_RANGE)")
            break
        if not den:
            body += num + ["if not _fin(t): raise _E(_NONFINITE)", f"{name} = t"]
        else:
            body += den + ["if d == 0.0: raise _E(_VANISHED)"] + num
            body += [f"{name} = t / d", f"if not (_fin({name}) and _fin(d)): raise _E(_NONFINITE)"]
    return body


def _run_body(body, names, values):
    """The floats the statements give the named locals at `values`, or the error they raise."""
    lines = ["def f(v):", *(f"    x{k} = v[{k}]" for k in range(len(values)))]
    lines += [f"    {line}" for line in body] + [f"    return [{', '.join(names)}]"]
    try:
        return [v.hex() for v in compile_source("\n".join(lines), "<floats>")["f"](values)]
    except (ExprError, OverflowError) as exc:
        return type(exc), str(exc)


# Terms of coefficient 1 or -1 over four atoms, so targets often share a power;
# one branch in eight adds a coefficient that has no float value.
_unit_terms = st.tuples(st.sampled_from([1, -1]), st.sampled_from(_ATOMS[:4]), st.integers(1, 3)).map(
    lambda t: t[0] * t[1] ** t[2]
)
_unit_sums = st.lists(_unit_terms, min_size=1, max_size=3).map(lambda ts: sum(ts, ZERO))
_body_targets = st.one_of(
    _float_exprs, _float_exprs, _float_exprs, _unit_sums, _unit_sums, _unit_sums, _unit_terms,
    _unit_terms.map(lambda t: t + Expression.number(10 ** 400)),
)
_POWER_RE = re.compile(r"^(x\d+_\d+) = ")


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(
    targets=st.lists(_body_targets, min_size=1, max_size=4),
    values=st.lists(_point_values | st.just(1e200), min_size=len(_ATOMS), max_size=len(_ATOMS)),
)
def check_float_body_matches_term_formulas(targets, values):
    atoms = sorted(set().union(*(t.atoms() for t in targets)), key=lambda a: a.atom_key)
    env = dict(zip(_ATOM_OF, values))
    point = [env[a] for a in atoms]
    named = [(f"r{k}", t) for k, t in enumerate(targets)]
    names = [name for name, _ in named]
    body = float_body(named, atoms)
    got = _run_body(body, names, point)
    assert got == _run_body(_term_formula_body(named, atoms), names, point)
    # Which shapes the case covered.
    CASES["body"] += 1
    target = 0  # the target whose statements a line belongs to
    defined = {}
    for line in body:
        if m := _POWER_RE.match(line):
            defined[m.group(1)] = target
        elif line.startswith(("r", "raise _R")):
            target += 1
        elif "+=" in line:
            factors = line.split("+= ", 1)[1].split("*")
            CASES["body_unit"] += not factors[0][0].isdigit() and not factors[0].startswith("-")
            CASES["body_minus_one"] += factors[0] == "-1.0"
            CASES["body_bare_atom"] += any(re.fullmatch(r"x\d+", f) for f in factors)
            CASES["body_shared"] += any(defined.get(f, target) < target for f in factors)
    CASES["body_overflow"] += isinstance(got, tuple) and got[0] is OverflowError
    CASES["body_range"] += "raise _R(_RANGE)" in body


def test_float_body_shares_powers_bit_for_bit():
    for key in ("body", "body_unit", "body_minus_one", "body_bare_atom", "body_shared", "body_overflow", "body_range"):
        CASES[key] = 0
    check_float_body_matches_term_formulas()
    assert CASES["body"] >= 400
    for key in ("body_unit", "body_minus_one", "body_bare_atom", "body_shared", "body_overflow", "body_range"):
        assert CASES[key] >= 20, (key, CASES[key])
    # eps^3 overflows at 1e150, but an earlier target's denominator, or the
    # target's own, vanishes first: a power is not set before its first term.
    for texts in (["1/(rho - 1)", "eps^3"], ["eps^3/(rho - 1)"]):
        named = [(f"r{k}", parse(t, CTX)) for k, t in enumerate(texts)]
        names = [name for name, _ in named]
        got = _run_body(float_body(named, [RHO, EPS]), names, [1.0, 1e150])
        assert got == (EvaluationError, "denominator vanished at the sample point")
        assert got == _run_body(_term_formula_body(named, [RHO, EPS]), names, [1.0, 1e150])


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
    texts = principal_minors(mat, subsets, text=True)
    for sub, minor, text in zip(subsets, got, texts):
        want = _cofactor_det([[mat[i][j] for j in sub] for i in sub])
        assert minor == want
        _check_minor_text("minors", text, minor, want)


def _check_minor_text(suite: str, text: str, minor: Expression, want: Expression) -> None:
    """The text finisher prints what `to_text` and the sorting reference print; tally the shapes."""
    assert text == to_text(minor) == _reference_text(want)
    lower = [c for _, c in minor._num[:-1]]  # the terms after the leading one
    CASES[suite + "_zero"] += minor.is_zero
    CASES[suite + "_constant"] += minor.as_fraction() not in (None, 0)
    CASES[suite + "_unit"] += any(abs(c) == 1 for c in lower)
    CASES[suite + "_negative"] += any(c < 0 for c in lower)
    CASES[suite + "_fraction"] += any(Fraction(c).denominator > 1 for _, c in minor._num)
    CASES[suite + "_quotient"] += len(minor._n) > 1 and not minor.den_is_one
    CASES[suite + "_sum_den"] += len(minor._d) > 1


def _reset_cases(suite: str) -> None:
    for key in [key for key in CASES if key.startswith(suite)]:
        del CASES[key]


def _assert_text_shapes(suite: str, least: dict) -> None:
    for shape, n in least.items():
        assert CASES[f"{suite}_{shape}"] >= n, (shape, CASES[f"{suite}_{shape}"])


def test_principal_minor_suite():
    _reset_cases("minors")
    check_principal_minors()
    assert CASES["minors"] >= 150
    # Large matrices that mix distinct denominators are the cases that matter.
    assert CASES["minors_mixed"] >= 20, CASES["minors_mixed"]
    _assert_text_shapes("minors", {"zero": 200, "constant": 200, "unit": 80, "negative": 200,
                                   "fraction": 60, "quotient": 200, "sum_den": 200})


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
    buckets = ineq.collect(jets)
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


# Packed minors: every denominator a monomial, so each minor is finished in
# place.  Exponents up to 12 push fields to their width bound; each example
# creates two atoms whose ids run against the canonical order, and whose
# names sort between eps and rho, so the rank table shifts between calls.
_MONO_DENS = [parse(t, CTX) for t in ("1", "rho", "2*eps^3", "rho*eps^2", "3")]
_packed_term = st.tuples(
    st.integers(-4, 4).filter(bool) | st.sampled_from([Fraction(1, 2), Fraction(-5, 3)]),
    st.lists(st.just(0) | st.integers(1, 12), min_size=4, max_size=4),
)
_packed_entry = st.none() | st.tuples(
    st.lists(_packed_term, min_size=1, max_size=2), st.sampled_from(_MONO_DENS)
)


@st.composite
def packed_matrices(draw):
    n = draw(st.integers(1, 5))
    spec = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            spec[i][j] = spec[j][i] = draw(_packed_entry)
    return spec


def _packed_entry_value(entry, atoms) -> Expression:
    if entry is None:
        return ZERO
    terms, den = entry
    num = ZERO
    for c, exps in terms:
        term = Expression.number(c)
        for a, k in zip(atoms, exps):
            term = term * Expression.atom(a) ** k
        num = num + term
    return num / den


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(spec=packed_matrices())
def check_packed_minors(spec):
    CASES["packed"] += 1
    tag = CASES["packed"]
    atoms = [RHO, EPS, JetVariable(f"m{tag}z"), JetVariable(f"m{tag}a")]
    assert atoms[2].id < atoms[3].id and atoms[2].atom_key > atoms[3].atom_key
    mat = [[_packed_entry_value(e, atoms) for e in row] for row in spec]
    subsets = _all_subsets(len(mat))
    texts = principal_minors(mat, subsets, text=True)
    for sub, minor, text in zip(subsets, principal_minors(mat, subsets), texts):
        want = _cofactor_det([[mat[i][j] for j in sub] for i in sub])
        again = Expression(minor.num_poly(), minor.den_poly())
        assert (minor._num, minor._den) == (want._num, want._den) == (again._num, again._den)
        _check_minor_text("packed", text, minor, want)
        if any(e in (7, 15, 31) for m, _ in minor._num for e in m[1::2]):
            CASES["packed_full_field"] += 1


def test_packed_minor_suite():
    _reset_cases("packed")
    check_packed_minors()
    assert CASES["packed"] >= 120
    # Exponents of the form 2^w - 1 fill a field of width w when they are its bound.
    assert CASES["packed_full_field"] >= 20, CASES["packed_full_field"]
    # Monomial denominators only: every minor here is printed from its packed keys.
    _assert_text_shapes("packed", {"zero": 400, "constant": 20, "unit": 40, "negative": 200,
                                   "fraction": 150, "quotient": 200})


@pytest.mark.parametrize("rows", [
    [["rho^7"]],  # the minor fills its 3-bit field
    [["rho^3", "eps"], ["eps", "rho^4/(2*eps^3)"]],
    [["rho/(rho*eps^2)", "1/3", "eps^12"], ["1/3", "eps/rho", "rho"], ["eps^12", "rho", "3/rho"]],
])
def test_monomial_denominator_minors_skip_normalize(rows, monkeypatch):
    mat = _fixed_matrix(rows)
    subsets = _all_subsets(len(mat))
    want = [_cofactor_det([[mat[i][j] for j in sub] for i in sub]) for sub in subsets]

    def refuse(num, den):
        raise AssertionError("a monomial-denominator minor went through _normalize")

    monkeypatch.setattr(expr_mod, "_normalize", refuse)
    got = principal_minors(mat, subsets)
    # The text finisher builds no Expression at all.
    monkeypatch.setattr(expr_mod, "_wrap", lambda *parts: pytest.fail("the text finisher built an Expression"))
    texts = principal_minors(mat, subsets, text=True)
    monkeypatch.undo()
    assert [(m._num, m._den) for m in got] == [(w._num, w._den) for w in want]
    assert texts == [to_text(w) for w in want]


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
            parts.append(latex_mod._atom_latex(a) + (f"^{{{e}}}" if e > 1 else ""))
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


# -- dicts and ready-made views ------------------------------------------------
#
# Arithmetic leaves an expression holding the kernel's dicts, and a part is
# sorted into its canonical view when something first reads its order.
# `_wrap` with a view, a pickle round trip and a packed minor hand the view
# in ready-made.  Either way it must be the same expression.


def _from_dicts(e: Expression) -> Expression:
    """e rebuilt by arithmetic on fresh dicts: no view read yet."""
    return Expression(e.num_poly(), e.den_poly())


def _from_views(e: Expression) -> Expression:
    """e rebuilt from its canonical views, as unpickling and packed minors build it."""
    num_t, den_t = expr_mod._freeze(e.num_poly()), expr_mod._freeze(e.den_poly())
    return expr_mod._wrap(dict(num_t), dict(den_t), num_t, den_t)


def _assert_same(a: Expression, b: Expression) -> None:
    # Equality and hashing first, before either side's views are read.
    assert a == b and b == a
    assert hash(a) == hash(b)
    assert to_text(a) == to_text(b) and to_latex(a) == to_latex(b)
    assert (a._num, a._den) == (b._num, b._den)


def _assert_unmoved_by_mutation(e: Expression) -> None:
    text, copy = to_text(e), _from_dicts(e)
    for poly in (e.num_poly(), e.den_poly()):
        poly[(RHO.id, 1)] = 7
        poly.clear()
    assert e == copy and to_text(e) == text
    assert ONE_EXPR.den_is_one and to_text(ONE_EXPR) == "1"


ONE_EXPR = Expression.number(1)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(a=exprs)
def test_arithmetic_and_ready_made_views_agree(a):
    import pickle

    views, dicts = _from_views(a), _from_dicts(a)
    _assert_same(dicts, views)
    _assert_same(_from_dicts(a), pickle.loads(pickle.dumps(_from_dicts(a))))
    # Negation of an expression whose views were read, and of one whose were not.
    read = _from_dicts(a)
    read._num, read._den
    _assert_same(-_from_dicts(a), -read)
    _assert_same(-views, -_from_dicts(a))
    _assert_same(a.denominator(), _from_views(a).denominator())
    for e in (a, views, -read):
        _assert_unmoved_by_mutation(e)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(spec=packed_matrices())
def test_packed_minors_agree_with_arithmetic(spec):
    atoms = [RHO, EPS, RHO_X, EPS_X]
    mat = [[_packed_entry_value(e, atoms) for e in row] for row in spec]
    subsets = _all_subsets(len(mat))
    for sub, minor in zip(subsets, principal_minors(mat, subsets)):
        _assert_same(_cofactor_det([[mat[i][j] for j in sub] for i in sub]), minor)
        _assert_unmoved_by_mutation(minor)


def _first_collection_hit(e: Expression, variables) -> str:
    """The reference name: the first denominator term, in canonical order, that holds a variable,
    and of its variables the first in canonical atom order."""
    terms = sorted((_pairs(m) for m in e.den_poly()), key=_REF_KEY)
    for pairs in terms:
        hit = [a for a, _ in pairs if a in variables]
        if hit:
            return min(hit, key=lambda a: a.atom_key).text()
    raise AssertionError("no denominator term holds a collection variable")


_DEN_ATOMS = [RHO, EPS, RHO_X, EPS_X, V_X, S0]
_den_terms = st.lists(
    st.tuples(st.integers(-3, 3).filter(bool), st.lists(st.integers(0, 2), min_size=6, max_size=6)),
    min_size=2, max_size=6,
)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(terms=_den_terms, variables=st.lists(st.sampled_from(_DEN_ATOMS[:5]), unique=True, min_size=1, max_size=3),
       data=st.data())
def test_collect_error_names_the_first_hit_in_canonical_order(terms, variables, data):
    den = ZERO
    for c, exps in terms:
        term = Expression.number(c)
        for a, k in zip(_DEN_ATOMS, exps):
            term = term * Expression.atom(a) ** k
        den = den + term
    e = Expression.jet(RHO_T) / den if not den.is_zero else ZERO
    if not e.atoms() & set(variables) or e.den_is_one:
        return
    CASES["collect error"] += 1
    want = f"denominator involves collection variable {_first_collection_hit(e, variables)}"
    # The same expression with its denominator dict in a drawn order.
    order = data.draw(st.permutations(list(e.den_poly().items())))
    shuffled = expr_mod._wrap(e.num_poly(), dict(order))
    for x in (e, shuffled):
        with pytest.raises(expr_mod.CollectError) as ei:
            x.collect(variables)
        assert str(ei.value) == want


def test_collect_error_suite():
    CASES["collect error"] = 0
    test_collect_error_names_the_first_hit_in_canonical_order()
    assert CASES["collect error"] >= 100, CASES["collect error"]
