"""Exact symbolic expressions over jet variables and constitutive function symbols.

An Expression is kept in a rational normal form: a quotient of two expanded
multivariate polynomials with exact rational coefficients.  The atoms are jet
variables and function symbols with a partial-derivative multi-index.  Two
expressions denote the same rational function exactly when their normal forms
are structurally equal, which makes zero testing and golden comparisons
trivial.  Quotients are unavoidable here: solving for Lagrange multipliers and
substituting candidate constitutive equations both introduce inverses of
state functions.

Representation.  Every atom has a small integer id, handed out in creation
order by the registry in `jet.py`.  A monomial is one flat tuple of ints,
(id0, e0, id1, e1, ...), with the ids ascending and the exponents positive;
a polynomial is a dict from monomials to coefficients.  A coefficient is a
Python int whenever it is integral and a Fraction otherwise, so hashing,
merging and multiplying stay on plain ints.  Ids depend on what a process
happened to create first, so they order atoms internally and nowhere else.

Canonical order.  Monomials are ordered graded-lexicographically over a
canonical atom order (jets first, by field name, then time order, then
space order; function symbols after, by name, dependencies and derivative
multi-index).  A rank table maps each id to the atom's position in that
order.  It is brought up to date lazily, by binary insertion of the atoms
created since it was last read.  The sort key of a monomial is the flat int
tuple (degree, -rank_a, e_a, -rank_b, e_b, ...) over its atoms in ascending
rank.  Each part of a normal form is stored in ascending key order, so
printing, serialization and leading-term lookups are deterministic and do
not depend on the ids.
"""
from __future__ import annotations

import functools
import math
import re
from bisect import bisect
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .jet import ATOMS, Frozen, JetVariable, intern_atom

__all__ = [
    "Atom", "BindingError", "CoefficientRangeError", "CollectError", "EvaluationError",
    "ExprError", "Expression", "FuncSym", "ONE", "ParseContext", "ParseError",
    "Substitution", "ZERO", "as_expression", "atom_key", "atom_text", "parse",
    "poly_gcd", "principal_minors", "to_latex", "to_text",
]


class ExprError(ValueError):
    pass


class ParseError(ExprError):
    pass


class CollectError(ExprError):
    pass


class EvaluationError(ExprError):
    pass


class CoefficientRangeError(ExprError):
    """A coefficient has no float value: a property of the expression, not of a point."""


class BindingError(ExprError):
    pass


class FuncSym(Frozen):
    """A constitutive function symbol with a fixed dependency list.

    `orders` counts partial derivatives with respect to each dependency, so
    the symmetry of mixed partials holds by construction.  Dependencies are
    kept sorted and duplicate-free.
    """

    __slots__ = ("name", "deps", "orders", "atom_key", "id", "_hash", "_text")

    def __init__(self, name: str, deps: Iterable[JetVariable], orders: Iterable[int] | None = None):
        deps = tuple(deps)
        orders = tuple(orders) if orders is not None else (0,) * len(deps)
        if len(orders) != len(deps):
            raise ExprError(f"{name}: derivative multi-index does not match dependency list")
        if any(o < 0 for o in orders):
            raise ExprError(f"{name}: negative derivative order")
        pairs = sorted(zip(deps, orders), key=lambda p: p[0].sort_key())
        deps = tuple(p[0] for p in pairs)
        if len(set(deps)) != len(deps):
            raise ExprError(f"{name}: duplicate dependency")
        orders = tuple(p[1] for p in pairs)
        put = object.__setattr__
        put(self, "name", name)
        put(self, "deps", deps)
        put(self, "orders", orders)
        # Hashed, keyed, printed and interned once, as jets are.
        put(self, "atom_key", (1, name, tuple(d.sort_key() for d in deps), orders))
        put(self, "_hash", hash((name, deps, orders)))
        if any(orders):
            parts = [name]
            for dep, o in zip(deps, orders):
                parts.extend([dep.text()] * o)
            put(self, "_text", "D(" + ", ".join(parts) + ")")
        else:
            put(self, "_text", name)
        put(self, "id", intern_atom(self))

    def __eq__(self, other):
        if other.__class__ is not FuncSym:
            return NotImplemented
        return self is other or self.atom_key == other.atom_key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (FuncSym, (self.name, self.deps, self.orders))

    def bump(self, dep: JetVariable) -> "FuncSym":
        """Increment the derivative order with respect to `dep`."""
        if dep not in self.deps:
            raise ExprError(f"{self.name} does not depend on {dep.text()}")
        i = self.deps.index(dep)
        orders = list(self.orders)
        orders[i] += 1
        return FuncSym(self.name, self.deps, tuple(orders))

    @property
    def total_order(self) -> int:
        return sum(self.orders)

    @property
    def base(self) -> "FuncSym":
        return FuncSym(self.name, self.deps)

    def text(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"Sym({self.text()})"


Atom = Union[JetVariable, FuncSym]
Number = Union[int, Fraction]


def atom_key(a: Atom) -> tuple:
    """Canonical atom order: jets first, then function symbols."""
    return a.atom_key


def atom_text(a: Atom) -> str:
    return a.text()


# -- canonical order ------------------------------------------------------

_NRANK: list[int] = []  # atom id -> minus its position in canonical atom order
_RANKED: list[int] = []  # ids of the ranked atoms, in canonical order


def _ranks() -> list[int]:
    """The negated-rank table, first extended to every atom created so far."""
    n = len(_NRANK)
    if n < len(ATOMS):
        for i in range(n, len(ATOMS)):
            _RANKED.insert(bisect(_RANKED, ATOMS[i].atom_key, key=_atom_key_of), i)
        _NRANK.extend([0] * (len(ATOMS) - n))
        for r, i in enumerate(_RANKED):
            _NRANK[i] = -r
    return _NRANK


def _atom_key_of(i: int) -> tuple:
    return ATOMS[i].atom_key


def _mono_key(m: Mono) -> tuple:
    """Graded-lex sort key; the caller brings the rank table up to date first."""
    if len(m) == 2:
        return (m[1], _NRANK[m[0]], m[1])
    pairs = sorted(zip([_NRANK[i] for i in m[::2]], m[1::2]), reverse=True)
    return (sum(m[1::2]), *chain.from_iterable(pairs))


def _canonical_atoms(m: Mono, nrank: list[int]) -> Sequence[tuple[int, int, int]]:
    """(sort key, id, exponent) per atom of a monomial, in canonical atom order.

    One sort per monomial, on the negated ranks; `nrank` is the rank table,
    which a printer fetches once per part.
    """
    if len(m) == 2:
        return ((0, m[0], m[1]),)
    return sorted(zip(map(nrank.__getitem__, m[::2]), m[::2], m[1::2]), reverse=True)


# -- monomials and polynomials -------------------------------------------
#
# A monomial is a flat tuple (id0, e0, id1, e1, ...) with the ids ascending
# and the exponents positive.  A polynomial is a dict monomial -> coefficient.

Mono = tuple
Poly = dict

P_ZERO: Poly = {}


def _p_one() -> Poly:
    return {(): 1}


def mono_from_pairs(pairs: Iterable[tuple[Atom, int]]) -> Mono:
    acc: dict = {}
    for a, e in pairs:
        if e:
            acc[a.id] = acc.get(a.id, 0) + e
    if any(e < 0 for e in acc.values()):
        raise ExprError("negative exponent in monomial")
    return tuple(chain.from_iterable(sorted((i, e) for i, e in acc.items() if e)))


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    """Merge two monomials."""
    if not m1:
        return m2
    if not m2:
        return m1
    if m1[-2] < m2[0]:
        return m1 + m2
    if m2[-2] < m1[0]:
        return m2 + m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a, b = m1[i], m2[j]
        if a == b:
            out += (a, m1[i + 1] + m2[j + 1])
            i += 2
            j += 2
        elif a < b:
            out += m1[i:i + 2]
            i += 2
        else:
            out += m2[j:j + 2]
            j += 2
    out += m1[i:]
    out += m2[j:]
    return tuple(out)


def mono_div(m: Mono, d: Mono) -> Mono | None:
    """m / d, or None when d does not divide m."""
    rest = dict(zip(d[::2], d[1::2]))
    out = []
    for k in range(0, len(m), 2):
        e = m[k + 1] - rest.pop(m[k], 0)
        if e < 0:
            return None
        if e:
            out += (m[k], e)
    return None if rest else tuple(out)


def _mono_gcd(m1: Mono, m2: Mono) -> Mono:
    """Atom-wise minimum exponents."""
    have = dict(zip(m2[::2], m2[1::2]))
    out = []
    for k in range(0, len(m1), 2):
        e = have.get(m1[k])
        if e:
            out += (m1[k], min(e, m1[k + 1]))
    return tuple(out)


def _mono_content(p: Poly, g: Mono | None = None) -> Mono:
    """The gcd of all monomials of p, and of g when given."""
    it = iter(p)
    if g is None:
        g = next(it)
    for m in it:
        if not g:
            break
        g = _mono_gcd(g, m)
    return g


def _p_div_mono(p: Poly, m: Mono) -> Poly:
    """p / m for a monomial m that divides every term."""
    return {mono_div(k, m): c for k, c in p.items()} if m else p


def _quo(a: Number, b: Number) -> Number:
    """a / b exactly, an int when integral: int / int must never become a float."""
    q = Fraction(a) / b
    return q.numerator if q.denominator == 1 else q


def p_add_into(dst: Poly, src: Poly, scale: Number = 1) -> None:
    items = src.items() if scale == 1 else [(m, c * scale) for m, c in src.items()]
    for m, c in items:
        v = dst.get(m, 0) + c
        if v:
            dst[m] = v
        elif m in dst:
            del dst[m]


def p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out: Poly = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            v = get(m, 0) + ca * cb
            if v:
                out[m] = v
            elif m in out:
                del out[m]
    return out


def p_scale(a: Poly, c: Number) -> Poly:
    if not c:
        return {}
    return {m: v * c for m, v in a.items()}


def p_pow(a: Poly, n: int) -> Poly:
    out = _p_one()
    base = a
    while n:
        if n & 1:
            out = p_mul(out, base)
        n >>= 1
        if n:
            base = p_mul(base, base)
    return out


def p_is_const(p: Poly) -> bool:
    return len(p) == 0 or (len(p) == 1 and () in p)


def p_leading(p: Poly) -> tuple[Mono, Number]:
    _ranks()
    m = max(p, key=_mono_key)
    return m, p[m]


def _int_scale(coeffs: Iterable[Number], lead: Number) -> tuple[int, int]:
    """(k, g) such that c * k / g over `coeffs` are coprime ints, k of the sign of `lead`."""
    coeffs = list(coeffs)
    lcm = 1
    for c in coeffs:
        lcm = math.lcm(lcm, c.denominator)
    g = 0
    for c in coeffs:
        g = math.gcd(g, c.numerator * (lcm // c.denominator))
    return (-lcm if lead < 0 else lcm), g


def _rescale(p: Poly, k: int, g: int) -> Poly:
    """p * k / g with (k, g) from _int_scale; every result is an int."""
    return {m: c * k // g for m, c in p.items()}


def _int_normalize(p: Poly) -> Poly:
    """Scale to coprime integer coefficients with positive leading coefficient."""
    if not p:
        return {}
    return _rescale(p, *_int_scale(p.values(), p_leading(p)[1]))


def _var_exp(m: Mono, var: int) -> int:
    ids = m[::2]
    return m[2 * ids.index(var) + 1] if var in ids else 0


def _var_degree(p: Poly, var: int) -> int:
    return max((_var_exp(m, var) for m in p), default=0)


def _var_coeff(p: Poly, var: int, d: int) -> Poly:
    out = {}
    for m, c in p.items():
        ids = m[::2]
        if var in ids:
            k = 2 * ids.index(var)
            if m[k + 1] == d:
                out[m[:k] + m[k + 2:]] = c
        elif d == 0:
            out[m] = c
    return out


def _p_div_exact(p: Poly, d: Poly) -> Poly:
    """Exact polynomial division; raises on a nonzero remainder."""
    if p_is_const(d):
        c = d.get((), None)
        if not c:
            raise ExprError("division by zero polynomial")
        return p_scale(p, _quo(1, c))
    q: Poly = {}
    r = dict(p)
    dm, dc = p_leading(d)
    while r:
        rm, rc = p_leading(r)
        m = mono_div(rm, dm)
        if m is None:
            raise ExprError("inexact polynomial division")
        c = _quo(rc, dc)
        q[m] = q.get(m, 0) + c
        p_add_into(r, p_mul({m: c}, d), -1)
    return {m: c for m, c in q.items() if c}


def _prem(a: Poly, b: Poly, var: int) -> Poly:
    """Pseudo-remainder of a by b with respect to var."""
    db = _var_degree(b, var)
    lb = _var_coeff(b, var, db)
    r = dict(a)
    while r:
        dr = _var_degree(r, var)
        if dr < db:
            break
        lr = _var_coeff(r, var, dr)
        shifted = p_mul({(var, dr - db) if dr > db else (): 1}, b)
        r2 = p_mul(lb, r)
        p_add_into(r2, p_mul(lr, shifted), -1)
        r = r2
    return r


def _content_in_var(p: Poly, var: int) -> Poly:
    cont: Poly = {}
    for d in range(_var_degree(p, var), -1, -1):
        c = _var_coeff(p, var, d)
        if c:
            cont = poly_gcd(cont, c) if cont else dict(c)
            if p_is_const(cont):
                return _p_one()
    return cont


def _gcd_primitive(p: Poly, q: Poly) -> Poly:
    if p_is_const(p) or p_is_const(q):
        return _p_one()
    if p == q:
        return _int_normalize(p)
    ids = set()
    for m in chain(p, q):
        ids.update(m[::2])
    var = min(ids, key=_ranks().__getitem__)  # the last atom in canonical order
    dp, dq = _var_degree(p, var), _var_degree(q, var)
    if dp == 0:
        return poly_gcd(p, _content_in_var(q, var))
    if dq == 0:
        return poly_gcd(q, _content_in_var(p, var))
    cp = _content_in_var(p, var)
    cq = _content_in_var(q, var)
    d = poly_gcd(cp, cq)
    a = _p_div_exact(p, cp)
    b = _p_div_exact(q, cq)
    if _var_degree(a, var) < _var_degree(b, var):
        a, b = b, a
    while b:
        r = _prem(a, b, var)
        a = b
        if not r:
            b = {}
            break
        cr = _content_in_var(r, var)
        b = _p_div_exact(r, cr)
    ca = _content_in_var(a, var)
    a = _p_div_exact(a, ca)
    return _int_normalize(p_mul(d, a))


def poly_gcd(p: Poly, q: Poly) -> Poly:
    if not p:
        return _int_normalize(q) if q else _p_one()
    if not q:
        return _int_normalize(p)
    mcp = _mono_content(p)
    mcq = _mono_content(q)
    g = _gcd_primitive(_p_div_mono(p, mcp), _p_div_mono(q, mcq))
    mc = _mono_gcd(mcp, mcq)
    if mc:
        g = p_mul(g, {mc: 1})
    return g


class Expression:
    """Immutable rational normal form.  All operators return normalized results."""

    __slots__ = ("_num", "_den", "_hash", "_floats")

    def __init__(self, num: Poly, den: Poly):
        num_t, den_t = _normalize(num, den)
        object.__setattr__(self, "_num", num_t)
        object.__setattr__(self, "_den", den_t)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_floats", None)

    def __reduce__(self):
        # Atom ids are local to a process, so the atoms themselves travel.
        return (_from_pairs, (_pairs(self._num), _pairs(self._den)))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def number(value: Number) -> "Expression":
        c = Fraction(value)
        num = ((((), c.numerator if c.denominator == 1 else c),) if c else ())
        return _wrap(num, _ONE_T)

    @staticmethod
    def atom(a: Atom) -> "Expression":
        return _wrap((((a.id, 1), 1),), _ONE_T)

    jet = sym = atom

    # -- raw views ------------------------------------------------------

    def num_poly(self) -> Poly:
        return {m: c for m, c in self._num}

    def den_poly(self) -> Poly:
        return {m: c for m, c in self._den}

    def denominator(self) -> "Expression":
        """The normalized denominator, as a polynomial expression."""
        return _wrap(self._den, _ONE_T)

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def den_is_one(self) -> bool:
        return self._den == _ONE_T

    def as_fraction(self) -> Fraction | None:
        """The exact rational value when the expression is constant, else None."""
        if not self._num:
            return Fraction(0)
        if self._den == _ONE_T and len(self._num) == 1 and self._num[0][0] == ():
            return Fraction(self._num[0][1])
        return None

    def atoms(self) -> set:
        ids = set()
        for part in (self._num, self._den):
            for m, _ in part:
                ids.update(m[::2])
        return {ATOMS[i] for i in ids}

    def jets(self) -> set:
        return {a for a in self.atoms() if isinstance(a, JetVariable)}

    def syms(self) -> set:
        return {a for a in self.atoms() if isinstance(a, FuncSym)}

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "Expression":
        other = as_expression(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        n1, d1 = self.num_poly(), self.den_poly()
        n2, d2 = other.num_poly(), other.den_poly()
        if self._den == other._den:
            p_add_into(n1, n2)
            return Expression(n1, d1)
        num = p_mul(n1, d2)
        p_add_into(num, p_mul(n2, d1))
        return Expression(num, p_mul(d1, d2))

    __radd__ = __add__

    def __neg__(self) -> "Expression":
        return _wrap(tuple((m, -c) for m, c in self._num), self._den)

    def __sub__(self, other) -> "Expression":
        return self + (-as_expression(other))

    def __rsub__(self, other) -> "Expression":
        return as_expression(other) + (-self)

    def __mul__(self, other) -> "Expression":
        other = as_expression(other)
        if self.is_zero or other.is_zero:
            return ZERO
        return Expression(
            p_mul(self.num_poly(), other.num_poly()),
            p_mul(self.den_poly(), other.den_poly()),
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expression":
        other = as_expression(other)
        if other.is_zero:
            raise ExprError("division by a zero expression")
        return Expression(
            p_mul(self.num_poly(), other.den_poly()),
            p_mul(self.den_poly(), other.num_poly()),
        )

    def __rtruediv__(self, other) -> "Expression":
        return as_expression(other) / self

    def __pow__(self, n: int) -> "Expression":
        if not isinstance(n, int):
            raise ExprError("only integer powers are supported")
        if n == 0:
            return ONE
        if n < 0:
            if self.is_zero:
                raise ExprError("zero raised to a negative power")
            return Expression(p_pow(self.den_poly(), -n), p_pow(self.num_poly(), -n))
        return Expression(p_pow(self.num_poly(), n), p_pow(self.den_poly(), n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expression):
            if isinstance(other, (int, Fraction)):
                return self == Expression.number(other)
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self._num, self._den))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"<expr {to_text(self)}>"

    # -- calculus -------------------------------------------------------

    def diff(self, v: JetVariable) -> "Expression":
        """Partial derivative with respect to a single jet variable."""
        return self._derive(functools.partial(_atom_partial, v.id))

    def total_x(self) -> "Expression":
        return self._derive(functools.partial(_atom_total, False))

    def total_t(self) -> "Expression":
        return self._derive(functools.partial(_atom_total, True))

    def _derive(self, rule) -> "Expression":
        num, den = self.num_poly(), self.den_poly()
        dnum = _p_derive(num, rule)
        if self.den_is_one:
            return Expression(dnum, _p_one())
        dden = _p_derive(den, rule)
        out = p_mul(dnum, den)
        p_add_into(out, p_mul(num, dden), -1)
        return Expression(out, p_mul(den, den))

    # -- structure ------------------------------------------------------

    def collect(self, variables: Sequence[JetVariable]) -> dict[tuple[int, ...], "Expression"]:
        """Coefficients with respect to monomials in `variables`.

        The result maps an exponent multi-index (aligned with `variables`) to
        the coefficient expression, which is free of the listed variables.
        The denominator must not involve them.
        """
        return self._collect(tuple(variables))

    def _collect(self, variables: Sequence[Atom]) -> dict[tuple[int, ...], "Expression"]:
        if len(set(variables)) != len(variables):
            raise CollectError("duplicate collection variable")
        vset = {a.id: i for i, a in enumerate(variables)}
        for m, _ in self._den:
            hit = [i for i in m[::2] if i in vset]
            if hit:
                first = max(hit, key=_ranks().__getitem__)  # first in canonical order
                raise CollectError(
                    f"denominator involves collection variable {atom_text(ATOMS[first])}"
                )
        buckets: dict[tuple[int, ...], Poly] = {}
        for m, c in self._num:
            exps = [0] * len(variables)
            rest = []
            for k in range(0, len(m), 2):
                i = vset.get(m[k])
                if i is None:
                    rest += m[k:k + 2]
                else:
                    exps[i] = m[k + 1]
            b = buckets.setdefault(tuple(exps), {})
            rm = tuple(rest)
            b[rm] = b.get(rm, 0) + c
        den = self.den_poly()
        return {k: Expression(v, dict(den)) for k, v in sorted(buckets.items())}

    def coefficient(self, variables: Sequence[Atom], exps: tuple[int, ...]) -> "Expression":
        return self._collect(variables).get(tuple(exps), ZERO)

    def degree_in(self, variables: Iterable[Atom]) -> int:
        vset = {a.id for a in variables}
        deg = 0
        for m, _ in self._num:
            d = sum(m[k + 1] for k in range(0, len(m), 2) if m[k] in vset)
            if d > deg:
                deg = d
        return deg

    # -- substitution ---------------------------------------------------

    def subs(self, bindings: Mapping | "Substitution") -> "Expression":
        """Replace atoms by expressions, closing over derivatives.

        Binding a base function symbol also binds every derivative atom of
        that symbol to the corresponding derivative of the replacement.
        Binding an undifferentiated field jet binds its jets to total
        derivatives of the replacement.  Bindings must be acyclic.  A
        `Substitution` may stand in for the mapping, so that the atoms it
        resolves are reused across calls.
        """
        sub = bindings if isinstance(bindings, Substitution) else Substitution(bindings)
        if not sub.bind:
            return self
        expr = self
        for _ in range(len(sub.bind) + 2):
            nxt = _subs_pass(expr, sub)
            if nxt == expr:
                return nxt
            expr = nxt
        raise BindingError("substitution did not reach a fixed point; cyclic bindings?")

    # -- evaluation -----------------------------------------------------

    def evaluate(self, env: Mapping) -> float:
        """Float value at a point; a vanishing denominator, an overflow or a
        non-finite value raises EvaluationError, so samplers can skip the point.
        A coefficient outside the float range raises CoefficientRangeError,
        since no point can help it."""
        floats = self._floats
        if floats is None:
            # Converted once per expression; samplers evaluate it at many points.
            floats = _float_form(self)
            object.__setattr__(self, "_floats", floats)
        atoms, num, den = floats
        try:
            vals = [float(env[a]) for a in atoms]
            dv = _p_eval(den, vals)
            if dv == 0.0:
                raise EvaluationError("denominator vanished at the sample point")
            out = _p_eval(num, vals) / dv
        except KeyError as exc:
            raise EvaluationError(f"no value supplied for {atom_text(exc.args[0])}") from None
        except OverflowError as exc:
            raise EvaluationError(f"overflow at the sample point: {exc}") from None
        # Checked once per call, not per term: inf - inf is nan, and a finite
        # numerator over an infinite denominator is an underflowed guess.
        if not (math.isfinite(out) and math.isfinite(dv)):
            raise EvaluationError("non-finite value at the sample point")
        return out


def _wrap(num_t: tuple, den_t: tuple) -> Expression:
    """Build an Expression from already normalized frozen parts."""
    e = Expression.__new__(Expression)
    object.__setattr__(e, "_num", num_t)
    object.__setattr__(e, "_den", den_t)
    object.__setattr__(e, "_hash", None)
    object.__setattr__(e, "_floats", None)
    return e


def _pairs(part: tuple) -> tuple:
    """A frozen part with each monomial as (atom, exponent) pairs."""
    return tuple((tuple((ATOMS[m[k]], m[k + 1]) for k in range(0, len(m), 2)), c) for m, c in part)


def _from_pairs(num: tuple, den: tuple) -> Expression:
    """Inverse of _pairs; the canonical term order does not depend on ids."""
    return _wrap(*(tuple((mono_from_pairs(m), c) for m, c in part) for part in (num, den)))


_ONE_T = (((), 1),)


def _freeze(p: Poly) -> tuple:
    """Terms in ascending monomial order, integral coefficients as ints.

    Printers and leading-term lookups rely on the order.
    """
    if len(p) > 1:
        _ranks()
        order = sorted(p, key=_mono_key)
    else:
        order = p
    out = []
    for m in order:
        c = p[m]
        if c.__class__ is not int and c.denominator == 1:
            c = c.numerator
        out.append((m, c))
    return tuple(out)


def _normalize(num: Poly, den: Poly) -> tuple[tuple, tuple]:
    if not den:
        raise ExprError("division by a zero expression")
    if not num:
        return (), _ONE_T
    if not p_is_const(den):
        mc = _mono_content(num, _mono_content(den))
        if mc:
            num = _p_div_mono(num, mc)
            den = _p_div_mono(den, mc)
        if not p_is_const(den) and len(den) > 1:
            g = poly_gcd(num, den)
            if not p_is_const(g):
                num = _p_div_exact(num, g)
                den = _p_div_exact(den, g)
    if p_is_const(den):
        c = den[()]
        if c != 1:
            num = p_scale(num, _quo(1, c))
        return _freeze(num), _ONE_T
    # nonconstant denominator: coprime integer coefficients, positive leading
    k, g = _int_scale(chain(num.values(), den.values()), p_leading(den)[1])
    if k != g:
        num = _rescale(num, k, g)
        den = _rescale(den, k, g)
    return _freeze(num), _freeze(den)


ZERO = Expression.number(0)
ONE = Expression.number(1)


def as_expression(v) -> Expression:
    if isinstance(v, Expression):
        return v
    if isinstance(v, (int, Fraction)):
        return Expression.number(v)
    if isinstance(v, (JetVariable, FuncSym)):
        return Expression.atom(v)
    raise ExprError(f"cannot interpret {v!r} as an expression")


# -- principal minors ----------------------------------------------------


def principal_minors(mat: Sequence[Sequence[Expression]], subsets: Iterable[Sequence[int]]) -> list[Expression]:
    """det(mat[S, S]) for each index subset S, computed over polynomials.

    Row i is cleared by r_i, the product of the distinct denominators of its
    nonzero entries times the lcm of the denominators of their coefficients,
    so N_ij = M_ij * r_i * r_j is a polynomial with integer coefficients and
    det_S(M) = det_S(N) / prod_{i in S} r_i^2.  det_S(N) is a plain Laplace
    expansion along the first row; each minor is normalized once, and the
    canonical normal form makes the result that of a cofactor expansion over
    expressions.
    """
    subsets = [tuple(s) for s in subsets]
    rows = sorted({i for s in subsets for i in s})
    r: dict[int, Poly] = {}
    for i in rows:
        entries = [mat[i][j] for j in rows if not mat[i][j].is_zero]
        ri = {(): math.lcm(1, *(c.denominator for e in entries for _, c in e._num))}
        for d in dict.fromkeys(e._den for e in entries):
            if d != _ONE_T:
                ri = p_mul(ri, dict(d))
        r[i] = ri
    n: dict[tuple[int, int], Poly] = {}
    for i in rows:
        for j in rows:
            e = mat[i][j]
            if not e.is_zero:
                nij = _p_div_exact(p_mul(p_mul(e.num_poly(), r[i]), r[j]), e.den_poly())
                n[i, j] = {m: c.numerator for m, c in nij.items()}  # integral: plain ints

    def det(sub: tuple, cols: tuple) -> Poly:
        if len(sub) == 1:
            return n.get((sub[0], cols[0]), P_ZERO)
        out: Poly = {}
        for k, j in enumerate(cols):
            a = n.get((sub[0], j))
            if a is None:
                continue
            rest = det(sub[1:], cols[:k] + cols[k + 1:])
            if rest:
                p_add_into(out, p_mul(a, rest), -1 if k % 2 else 1)
        return out

    squares = {i: p_mul(ri, ri) for i, ri in r.items()}
    minors = []
    for sub in subsets:
        den = _p_one()
        for i in sub:
            den = p_mul(den, squares[i])
        minors.append(Expression(det(sub, sub), den))
    return minors


# -- derivative rules ---------------------------------------------------


def _p_derive(p: Poly, rule) -> Poly:
    out: Poly = {}
    for m, c in p.items():
        for k in range(0, len(m), 2):
            da = rule(m[k])
            if not da:
                continue
            e = m[k + 1]
            rest = m[:k] + m[k + 2:] if e == 1 else m[:k + 1] + (e - 1,) + m[k + 2:]
            f = c * e
            for dm, dc in da.items():
                key = mono_mul(rest, dm)
                v = out.get(key, 0) + f * dc
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
    return out


@functools.lru_cache(maxsize=None)
def _atom_partial(v: int, i: int) -> Poly:
    """Partial derivative of atom i with respect to jet v."""
    a = ATOMS[i]
    if isinstance(a, JetVariable):
        return _p_one() if i == v else {}
    if ATOMS[v] in a.deps:
        return {(a.bump(ATOMS[v]).id, 1): 1}
    return {}


@functools.lru_cache(maxsize=None)
def _atom_total(time: bool, i: int) -> Poly:
    """Total derivative of atom i in t (time) or in x."""
    a = ATOMS[i]
    if isinstance(a, JetVariable):
        return {((a.dt() if time else a.dx()).id, 1): 1}
    out: Poly = {}
    for dep in a.deps:
        m = mono_from_pairs([(a.bump(dep), 1), (dep.dt() if time else dep.dx(), 1)])
        out[m] = out.get(m, 0) + 1
    return out


def _float_form(e: Expression) -> tuple:
    """(atoms, num, den) for evaluate.

    `atoms` lists the atoms in the order evaluation first meets them, the
    denominator first.  Each part is a tuple of (float coefficient, pairs)
    terms, the pairs (position in `atoms`, exponent) in canonical atom order,
    so each product rounds as a product over the printed monomial does.
    """
    nrank = _ranks()
    pos: dict = {}
    parts = []
    for part in (e._den, e._num):
        terms = []
        for m, c in part:
            try:
                fc = float(c)
            except OverflowError:
                raise CoefficientRangeError("a coefficient is outside the float range") from None
            pairs = sorted(zip(m[::2], m[1::2]), key=lambda p: -nrank[p[0]])
            terms.append((fc, tuple((pos.setdefault(i, len(pos)), k) for i, k in pairs)))
        parts.append(tuple(terms))
    den, num = parts
    return tuple(ATOMS[i] for i in pos), num, den


def _p_eval(part: tuple, vals: list) -> float:
    """Value of a part of a float form at the given atom values."""
    total = 0.0
    for v, pairs in part:
        for i, e in pairs:
            v *= vals[i] ** e
        total += v
    return total


# -- substitution machinery ----------------------------------------------


def _binding_names(bind: Mapping) -> dict[str, set[str]]:
    graph: dict[str, set[str]] = {}
    keys = set()
    for k in bind:
        keys.add(k.field if isinstance(k, JetVariable) else k.name)
    for k, v in bind.items():
        name = k.field if isinstance(k, JetVariable) else k.name
        refs = set()
        for a in v.atoms():
            n = a.field if isinstance(a, JetVariable) else a.name
            if n in keys:
                refs.add(n)
        graph.setdefault(name, set()).update(refs)
    return graph


def _check_acyclic(bind: Mapping) -> None:
    graph = _binding_names(bind)
    state: dict[str, int] = {}

    def visit(n: str, trail: list[str]) -> None:
        st = state.get(n, 0)
        if st == 1:
            cycle = " -> ".join(trail + [n])
            raise BindingError(f"cyclic bindings: {cycle}")
        if st == 2:
            return
        state[n] = 1
        for m in sorted(graph.get(n, ())):
            visit(m, trail + [n])
        state[n] = 2

    for n in sorted(graph):
        visit(n, [])


class Substitution:
    """A validated, acyclic binding set and the replacements it has resolved.

    `Expression.subs` builds one per call from a mapping; a caller that
    substitutes the same bindings into many expressions can build it once
    and pass it instead, so each derivative atom is derived once.
    """

    def __init__(self, bindings: Mapping):
        self.bind = {k: as_expression(v) for k, v in bindings.items()}
        _check_acyclic(self.bind)
        self.cache: dict = {}  # atom id -> replacement, or None when unbound
        self.jets: dict = {}  # jet -> total derivative of its field's replacement
        self.powers: dict = {}
        self.sym_bases: dict[tuple, list] = {}
        for k in self.bind:
            if isinstance(k, FuncSym):
                self.sym_bases.setdefault((k.name, k.deps), []).append(k)
        for lst in self.sym_bases.values():
            lst.sort(key=lambda s: (sum(s.orders), s.orders))

    def resolve(self, a: Atom) -> Expression | None:
        i = a.id
        if i in self.cache:
            return self.cache[i]
        out = self.cache[i] = self._resolve(a)
        return out

    def power(self, i: int, e: int, den: bool) -> Poly:
        """Numerator (or denominator) of the replacement of atom i, to the e-th power."""
        key = (i, e, den)
        p = self.powers.get(key)
        if p is None:
            rep = self.cache[i]
            p = p_pow(rep.den_poly() if den else rep.num_poly(), e)
            self.powers[key] = p
        return p

    def _resolve(self, a: Atom) -> Expression | None:
        hit = self.bind.get(a)
        if hit is not None:
            return hit
        if isinstance(a, JetVariable):
            if a.is_field or JetVariable(a.field) not in self.bind:
                return None
            return self._field_jet(a)
        candidates = self.sym_bases.get((a.name, a.deps))
        if not candidates:
            return None
        best = None
        for c in candidates:
            if c == a:
                continue
            if all(co <= ao for co, ao in zip(c.orders, a.orders)):
                best = c  # list is sorted ascending, keep the largest fit
        if best is None:
            return None
        # One derivative of the next-lower atom, which resolves through `best` too.
        k = max(i for i, (co, ao) in enumerate(zip(best.orders, a.orders)) if ao > co)
        orders = list(a.orders)
        orders[k] -= 1
        return self.resolve(FuncSym(a.name, a.deps, orders)).diff(a.deps[k])

    def _field_jet(self, a: JetVariable) -> Expression:
        """The replacement of the bound field, differentiated t_order times in t, then in x."""
        e = self.jets.get(a)
        if e is None:
            if a.x_order:
                e = self._field_jet(JetVariable(a.field, a.t_order, a.x_order - 1)).total_x()
            elif a.t_order:
                e = self._field_jet(JetVariable(a.field, a.t_order - 1)).total_t()
            else:
                e = self.bind[a]
            self.jets[a] = e
        return e


def _rebuild(part: tuple, sub: Substitution) -> tuple[Poly, Poly]:
    """One substituted part of a normal form, as a polynomial over a shared denominator.

    The shared denominator is the product of den(rep_a)^E_a over the bound
    atoms a whose replacement has a nonconstant denominator, E_a being the
    largest exponent of a in the part.  A monomial holding a^e then
    contributes num(rep_a)^e * den(rep_a)^(E_a - e).  Monomials with equal
    bound exponents share those factors, so each such group costs one
    product per factor.
    """
    tops: dict = {}  # bound atom id with a nonconstant denominator -> E_a
    groups: dict = {}  # bound (id, e) pairs, flat -> polynomial in the unbound atoms
    for m, c in part:
        bound = []
        rest = []
        for k in range(0, len(m), 2):
            i, e = m[k], m[k + 1]
            rep = sub.resolve(ATOMS[i])
            if rep is None:
                rest += (i, e)
                continue
            bound += (i, e)
            if not rep.den_is_one and tops.get(i, 0) < e:
                tops[i] = e
        groups.setdefault(tuple(bound), {})[tuple(rest)] = c
    acc: Poly = {}
    for bound, rest in groups.items():
        have = dict(zip(bound[::2], bound[1::2]))
        term = rest
        for i, e in have.items():
            term = p_mul(term, sub.power(i, e, False))
        for i, top in tops.items():
            k = top - have.get(i, 0)
            if k:
                term = p_mul(term, sub.power(i, k, True))
        p_add_into(acc, term)
    den = _p_one()
    for i, top in tops.items():
        den = p_mul(den, sub.power(i, top, True))
    return acc, den


def _subs_pass(expr: Expression, sub: Substitution) -> Expression:
    """One substitution pass, normalized once."""
    if all(sub.resolve(a) is None for a in expr.atoms()):
        return expr
    num, num_den = _rebuild(expr._num, sub)
    if expr.den_is_one:
        return Expression(num, num_den)
    den, den_den = _rebuild(expr._den, sub)
    return Expression(p_mul(num, den_den), p_mul(num_den, den))


# -- parsing --------------------------------------------------------------


class ParseContext:
    """Declared fields and function symbols visible to the parser."""

    def __init__(self, fields: Iterable[str] = (), syms: Mapping[str, Sequence[JetVariable]] | None = None):
        self.fields: set[str] = set(fields)
        self.syms: dict[str, tuple[JetVariable, ...]] = {}
        for name, deps in (syms or {}).items():
            self.declare_sym(name, deps)

    def declare_field(self, name: str) -> None:
        if name == "D":
            raise ParseError("identifier 'D' is reserved for derivatives")
        if name in self.syms:
            raise ParseError(f"{name!r} is already a function symbol")
        self.fields.add(name)

    def declare_sym(self, name: str, deps: Sequence[JetVariable]) -> FuncSym:
        if name == "D":
            raise ParseError("identifier 'D' is reserved for derivatives")
        if name in self.fields:
            raise ParseError(f"{name!r} is already a field")
        s = FuncSym(name, tuple(deps))
        if name in self.syms and self.syms[name] != s.deps:
            raise ParseError(f"{name!r} redeclared with different dependencies")
        self.syms[name] = s.deps
        return s

    def sym(self, name: str) -> FuncSym:
        return FuncSym(name, self.syms[name])


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+(?:\.\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9]*(?:_[A-Za-z0-9]+)?)"
    r"|(?P<op>[-+*/^(),])"
)


class _Tok(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    out = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(f"{line}:{col}: unexpected character {text[i]!r}")
        tok = m.group(0)
        kind = m.lastgroup
        if kind != "ws":
            out.append(_Tok(kind, tok, line, col))
        nl = tok.count("\n")
        if nl:
            line += nl
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        i = m.end()
    out.append(_Tok("eof", "", line, col))
    return out


_SUFFIX_RE = re.compile(r"^t*x*$")


def _split_jet(text: str, tok: _Tok) -> tuple[str, int, int]:
    if "_" not in text:
        return text, 0, 0
    name, suffix = text.split("_", 1)
    if not _SUFFIX_RE.match(suffix) or not suffix:
        raise ParseError(f"{tok.line}:{tok.col}: invalid jet suffix in {text!r}")
    return name, suffix.count("t"), suffix.count("x")


class _Parser:
    def __init__(self, tokens: list[_Tok], ctx: ParseContext):
        self.toks = tokens
        self.pos = 0
        self.ctx = ctx

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def take(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.take()
        if t.text != text:
            raise ParseError(f"{t.line}:{t.col}: expected {text!r}, found {t.text or 'end of input'!r}")
        return t

    def fail(self, t: _Tok, msg: str):
        raise ParseError(f"{t.line}:{t.col}: {msg}")

    def parse(self) -> Expression:
        e = self.sum()
        t = self.peek()
        if t.kind != "eof":
            self.fail(t, f"unexpected {t.text!r}")
        return e

    def sum(self) -> Expression:
        e = self.product()
        while self.peek().text in ("+", "-"):
            op = self.take().text
            rhs = self.product()
            e = e + rhs if op == "+" else e - rhs
        return e

    def product(self) -> Expression:
        e = self.unary()
        while self.peek().text in ("*", "/"):
            op = self.take().text
            rhs = self.unary()
            e = e * rhs if op == "*" else e / rhs
        return e

    def unary(self) -> Expression:
        if self.peek().text == "-":
            self.take()
            return -self.unary()
        if self.peek().text == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> Expression:
        base = self.primary()
        if self.peek().text == "^":
            self.take()
            n = self.exponent()
            try:
                return base ** n
            except ExprError as exc:
                raise ParseError(str(exc)) from exc
        return base

    def exponent(self) -> int:
        neg = False
        if self.peek().text == "-":
            self.take()
            neg = True
        elif self.peek().text == "(":
            self.take()
            n = self.exponent()
            self.expect(")")
            return n
        t = self.take()
        if t.kind != "num" or "." in t.text:
            self.fail(t, "exponent must be an integer")
        n = int(t.text)
        return -n if neg else n

    def jetvar(self) -> JetVariable:
        t = self.take()
        if t.kind != "ident":
            self.fail(t, "expected a variable name")
        name, to, xo = _split_jet(t.text, t)
        if name not in self.ctx.fields:
            self.fail(t, f"undeclared field {name!r}")
        return JetVariable(name, to, xo)

    def primary(self) -> Expression:
        t = self.take()
        if t.kind == "num":
            return Expression.number(Fraction(t.text))
        if t.text == "(":
            e = self.sum()
            self.expect(")")
            return e
        if t.kind != "ident":
            self.fail(t, f"unexpected {t.text or 'end of input'!r}")
        if t.text == "D":
            return self.derivative(t)
        name, to, xo = _split_jet(t.text, t)
        if to or xo:
            if name not in self.ctx.fields:
                self.fail(t, f"undeclared field {name!r}")
            return Expression.jet(JetVariable(name, to, xo))
        if self.peek().text == "(":
            if name not in self.ctx.syms:
                self.fail(t, f"undeclared function symbol {name!r}")
            self.take()
            args = [self.jetvar()]
            while self.peek().text == ",":
                self.take()
                args.append(self.jetvar())
            self.expect(")")
            declared = self.ctx.syms[name]
            if tuple(sorted(args, key=JetVariable.sort_key)) != declared or len(args) != len(declared):
                self.fail(t, f"arguments of {name!r} do not match its declared dependencies")
            return Expression.sym(self.ctx.sym(name))
        if name in self.ctx.fields:
            return Expression.jet(JetVariable(name, 0, 0))
        if name in self.ctx.syms:
            return Expression.sym(self.ctx.sym(name))
        self.fail(t, f"undeclared identifier {name!r}")

    def derivative(self, t0: _Tok) -> Expression:
        self.expect("(")
        t = self.take()
        if t.kind != "ident" or t.text not in self.ctx.syms:
            self.fail(t, f"D(...) needs a declared function symbol, found {t.text!r}")
        s = self.ctx.sym(t.text)
        count = 0
        while self.peek().text == ",":
            self.take()
            vt = self.peek()
            v = self.jetvar()
            if v not in s.deps:
                self.fail(vt, f"{s.name!r} does not depend on {v.text()}")
            s = s.bump(v)
            count += 1
        self.expect(")")
        if count == 0:
            self.fail(t0, "D(...) needs at least one differentiation variable")
        return Expression.sym(s)


def parse(text: str, ctx: ParseContext) -> Expression:
    return _Parser(_tokenize(text), ctx).parse()


# -- printing --------------------------------------------------------------


def _frac_text(c: Number) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _mono_text(m: Mono, c: Number, nrank: list[int]) -> str:
    parts = [
        ATOMS[i]._text if e == 1 else f"{ATOMS[i]._text}^{e}"
        for _, i, e in _canonical_atoms(m, nrank)
    ]
    a = abs(c)
    if a != 1 or not m:
        parts.insert(0, _frac_text(a))
    return "*".join(parts)


def _poly_text(part: tuple, mono=_mono_text) -> str:
    """A frozen part from its leading term down; `mono` prints one monomial."""
    nrank = _ranks()
    out = []
    for i, (m, c) in enumerate(part[::-1]):
        body = mono(m, c, nrank)
        if i == 0:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out)


def to_text(e: Expression) -> str:
    if e.is_zero:
        return "0"
    num = _poly_text(e._num)
    if e.den_is_one:
        return num
    den = _poly_text(e._den)
    if len(e._num) > 1:
        num = f"({num})"
    lone = len(e._den) == 1 and e._den[0][1] == 1 and len(e._den[0][0]) == 2  # one atom
    if not lone:
        den = f"({den})"
    return f"{num}/{den}"


_GREEK = {
    "rho": r"\rho", "eps": r"\varepsilon", "epsilon": r"\varepsilon",
    "gamma": r"\gamma", "tau": r"\tau", "theta": r"\theta", "phi": r"\varphi",
    "kappa": r"\kappa", "mu": r"\mu", "sigma": r"\sigma", "alpha": r"\alpha",
    "beta": r"\beta", "lambda": r"\Lambda", "nu": r"\nu", "xi": r"\xi",
    "psi": r"\psi", "chi": r"\chi", "omega": r"\omega", "delta": r"\delta",
}

_MULT_RE = re.compile(r"^Lam(\d+)k(\d+)$")


def _name_latex(name: str) -> str:
    m = _MULT_RE.match(name)
    if m:
        return rf"\Lambda^{{({m.group(2)})}}_{{{m.group(1)}}}"
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
