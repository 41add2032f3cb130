"""Exact symbolic expressions over jet variables and constitutive function symbols.

An Expression is kept in a rational normal form: a quotient of two expanded
multivariate polynomials with exact rational coefficients.  The atoms are jet
variables and function symbols with a partial-derivative multi-index.  Two
expressions denote the same rational function exactly when their normal forms
are structurally equal, which makes zero testing and golden comparisons
trivial.  Quotients are unavoidable here: solving for Lagrange multipliers and
substituting candidate constitutive equations both introduce inverses of
state functions.

Monomials are ordered graded-lexicographically over a canonical atom order
(jets first, by field name, then time order, then space order; function
symbols after, by name, dependencies and derivative multi-index), so printing
and serialization are deterministic.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .jet import JetVariable

__all__ = [
    "Atom", "BindingError", "CollectError", "EvaluationError", "ExprError",
    "Expression", "FuncSym", "ONE", "ParseContext", "ParseError", "ZERO",
    "as_expression", "atom_key", "atom_text", "parse", "poly_gcd",
    "principal_minors", "to_latex", "to_text",
]


class ExprError(ValueError):
    pass


class ParseError(ExprError):
    pass


class CollectError(ExprError):
    pass


class EvaluationError(ExprError):
    pass


class BindingError(ExprError):
    pass


@dataclass(frozen=True)
class FuncSym:
    """A constitutive function symbol with a fixed dependency list.

    `orders` counts partial derivatives with respect to each dependency, so
    the symmetry of mixed partials holds by construction.  Dependencies are
    kept sorted and duplicate-free.
    """

    name: str
    deps: tuple[JetVariable, ...]
    orders: tuple[int, ...]

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
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "deps", deps)
        object.__setattr__(self, "orders", tuple(p[1] for p in pairs))
        # Hashed, keyed and printed once: symbols key monomial dicts just as jets do.
        object.__setattr__(self, "atom_key", (1, name, tuple(d.sort_key() for d in deps), self.orders))
        object.__setattr__(self, "_hash", hash((name, deps, self.orders)))
        if any(self.orders):
            parts = [name]
            for dep, o in zip(deps, self.orders):
                parts.extend([dep.text()] * o)
            object.__setattr__(self, "_text", "D(" + ", ".join(parts) + ")")
        else:
            object.__setattr__(self, "_text", name)

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


def atom_key(a: Atom) -> tuple:
    """Canonical atom order: jets first, then function symbols."""
    return a.atom_key


def atom_text(a: Atom) -> str:
    return a.text()


# A monomial is a tuple of (atom, exponent) pairs with positive exponents,
# sorted by atom_key.  A polynomial is a dict monomial -> Fraction.

Mono = tuple
Poly = dict

P_ZERO: Poly = {}


def _p_one() -> Poly:
    return {(): Fraction(1)}


def mono_from_pairs(pairs: Iterable[tuple[Atom, int]]) -> Mono:
    acc: dict = {}
    for a, e in pairs:
        if e:
            acc[a] = acc.get(a, 0) + e
    items = [(a, e) for a, e in acc.items() if e]
    if any(e < 0 for _, e in items):
        raise ExprError("negative exponent in monomial")
    items.sort(key=lambda p: p[0].atom_key)
    return tuple(items)


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    """Merge two sorted monomials."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        p1, p2 = m1[i], m2[j]
        k1, k2 = p1[0].atom_key, p2[0].atom_key
        if k1 == k2:
            out.append((p1[0], p1[1] + p2[1]))
            i += 1
            j += 1
        elif k1 < k2:
            out.append(p1)
            i += 1
        else:
            out.append(p2)
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def mono_cmp(m1: Mono, m2: Mono) -> int:
    d1 = d2 = 0
    for _, e in m1:
        d1 += e
    for _, e in m2:
        d2 += e
    if d1 != d2:
        return -1 if d1 < d2 else 1
    i = j = 0
    while i < len(m1) and j < len(m2):
        a1, e1 = m1[i]
        a2, e2 = m2[j]
        k1, k2 = a1.atom_key, a2.atom_key
        if k1 == k2:
            if e1 != e2:
                return 1 if e1 > e2 else -1
            i += 1
            j += 1
        elif k1 < k2:
            return 1
        else:
            return -1
    if i < len(m1):
        return 1
    if j < len(m2):
        return -1
    return 0


_MONO_KEY = functools.cmp_to_key(mono_cmp)


def mono_div(m: Mono, d: Mono) -> Mono | None:
    """m / d, or None when d does not divide m."""
    rest = dict(m)
    for a, e in d:
        have = rest.get(a, 0)
        if have < e:
            return None
        if have == e:
            del rest[a]
        else:
            rest[a] = have - e
    return tuple(sorted(rest.items(), key=lambda p: p[0].atom_key))


def p_add_into(dst: Poly, src: Poly, scale: Fraction = Fraction(1)) -> None:
    for m, c in src.items():
        v = dst.get(m, 0) + c * scale
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
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            v = out.get(m, 0) + ca * cb
            if v:
                out[m] = v
            elif m in out:
                del out[m]
    return out


def p_scale(a: Poly, c: Fraction) -> Poly:
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


def p_leading(p: Poly) -> tuple[Mono, Fraction]:
    m = max(p, key=_MONO_KEY)
    return m, p[m]


def _mono_content(p: Poly) -> dict:
    """Atom-wise minimum exponents across all monomials."""
    it = iter(p)
    first = dict(next(it))
    for m in it:
        if not first:
            break
        d = dict(m)
        for a in list(first):
            e = d.get(a, 0)
            if e < first[a]:
                if e:
                    first[a] = e
                else:
                    del first[a]
    return first


def _strip_mono(p: Poly, content: dict) -> Poly:
    if not content:
        return dict(p)
    out = {}
    for m, c in p.items():
        rest = dict(m)
        for a, e in content.items():
            if rest[a] == e:
                del rest[a]
            else:
                rest[a] -= e
        out[tuple(sorted(rest.items(), key=lambda q: q[0].atom_key))] = c
    return out


def _int_normalize(p: Poly) -> Poly:
    """Scale to coprime integer coefficients with positive leading coefficient."""
    if not p:
        return {}
    lcm = 1
    for c in p.values():
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    g = 0
    for c in p.values():
        g = math.gcd(g, abs(c.numerator * (lcm // c.denominator)))
    scale = Fraction(lcm, g)
    _, lead = p_leading(p)
    if lead < 0:
        scale = -scale
    return {m: c * scale for m, c in p.items()}


def _var_degree(p: Poly, var: Atom) -> int:
    deg = 0
    for m in p:
        for a, e in m:
            if a == var and e > deg:
                deg = e
    return deg


def _var_coeff(p: Poly, var: Atom, d: int) -> Poly:
    out = {}
    for m, c in p.items():
        e = 0
        rest = []
        for a, ee in m:
            if a == var:
                e = ee
            else:
                rest.append((a, ee))
        if e == d:
            out[tuple(rest)] = c
    return out


def _p_div_exact(p: Poly, d: Poly) -> Poly:
    """Exact polynomial division; raises on a nonzero remainder."""
    if p_is_const(d):
        c = d.get((), None)
        if not c:
            raise ExprError("division by zero polynomial")
        return p_scale(p, 1 / c)
    q: Poly = {}
    r = dict(p)
    dm, dc = p_leading(d)
    while r:
        rm, rc = p_leading(r)
        m = mono_div(rm, dm)
        if m is None:
            raise ExprError("inexact polynomial division")
        c = rc / dc
        q[m] = q.get(m, 0) + c
        p_add_into(r, p_mul({m: c}, d), Fraction(-1))
    return {m: c for m, c in q.items() if c}


def _prem(a: Poly, b: Poly, var: Atom) -> Poly:
    """Pseudo-remainder of a by b with respect to var."""
    db = _var_degree(b, var)
    lb = _var_coeff(b, var, db)
    r = dict(a)
    while r:
        dr = _var_degree(r, var)
        if dr < db:
            break
        lr = _var_coeff(r, var, dr)
        shifted = p_mul({((var, dr - db),) if dr > db else (): Fraction(1)}, b)
        r2 = p_mul(lb, r)
        p_add_into(r2, p_mul(lr, shifted), Fraction(-1))
        r = r2
    return r


def _content_in_var(p: Poly, var: Atom) -> Poly:
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
    atoms = set()
    for m in list(p) + list(q):
        for a, _ in m:
            atoms.add(a)
    var = max(atoms, key=atom_key)
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
    mc = {}
    for a, e in mcp.items():
        e2 = mcq.get(a, 0)
        if e2:
            mc[a] = min(e, e2)
    p2 = _strip_mono(p, mcp)
    q2 = _strip_mono(q, mcq)
    g = _gcd_primitive(p2, q2)
    if mc:
        g = p_mul(g, {mono_from_pairs(mc.items()): Fraction(1)})
    return g


Number = Union[int, Fraction]


class Expression:
    """Immutable rational normal form.  All operators return normalized results."""

    __slots__ = ("_num", "_den", "_hash", "_floats")

    def __init__(self, num: Poly, den: Poly):
        num_t, den_t = _normalize(num, den)
        object.__setattr__(self, "_num", num_t)
        object.__setattr__(self, "_den", den_t)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_floats", None)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def number(value: Number) -> "Expression":
        c = Fraction(value)
        num = ((((), c),) if c else ())
        return _wrap(num, _ONE_T)

    @staticmethod
    def jet(j: JetVariable) -> "Expression":
        return _wrap(((((j, 1),), Fraction(1)),), _ONE_T)

    @staticmethod
    def sym(s: FuncSym) -> "Expression":
        return _wrap(((((s, 1),), Fraction(1)),), _ONE_T)

    @staticmethod
    def atom(a: Atom) -> "Expression":
        return Expression.jet(a) if isinstance(a, JetVariable) else Expression.sym(a)

    # -- raw views ------------------------------------------------------

    def num_poly(self) -> Poly:
        return {m: c for m, c in self._num}

    def den_poly(self) -> Poly:
        return {m: c for m, c in self._den}

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
            return self._num[0][1]
        return None

    def atoms(self) -> set:
        out = set()
        for part in (self._num, self._den):
            for m, _ in part:
                for a, _e in m:
                    out.add(a)
        return out

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
        return self._derive(functools.partial(_atom_partial, v))

    def total_x(self) -> "Expression":
        return self._derive(_atom_total_x)

    def total_t(self) -> "Expression":
        return self._derive(_atom_total_t)

    def _derive(self, rule) -> "Expression":
        num, den = self.num_poly(), self.den_poly()
        dnum = _p_derive(num, rule)
        if self.den_is_one:
            return Expression(dnum, _p_one())
        dden = _p_derive(den, rule)
        out = p_mul(dnum, den)
        p_add_into(out, p_mul(num, dden), Fraction(-1))
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
        vset = {a: i for i, a in enumerate(variables)}
        for m, _ in self._den:
            for a, _e in m:
                if a in vset:
                    raise CollectError(
                        f"denominator involves collection variable {atom_text(a)}"
                    )
        buckets: dict[tuple[int, ...], Poly] = {}
        for m, c in self._num:
            exps = [0] * len(variables)
            rest = []
            for a, e in m:
                i = vset.get(a)
                if i is None:
                    rest.append((a, e))
                else:
                    exps[i] = e
            key = tuple(exps)
            b = buckets.setdefault(key, {})
            rm = tuple(rest)
            b[rm] = b.get(rm, 0) + c
        den = self.den_poly()
        return {k: Expression(v, dict(den)) for k, v in sorted(buckets.items())}

    def coefficient(self, variables: Sequence[Atom], exps: tuple[int, ...]) -> "Expression":
        return self._collect(variables).get(tuple(exps), ZERO)

    def degree_in(self, variables: Iterable[Atom]) -> int:
        vset = set(variables)
        deg = 0
        for m, _ in self._num:
            d = sum(e for a, e in m if a in vset)
            if d > deg:
                deg = d
        return deg

    # -- substitution ---------------------------------------------------

    def subs(self, bindings: Mapping) -> "Expression":
        """Replace atoms by expressions, closing over derivatives.

        Binding a base function symbol also binds every derivative atom of
        that symbol to the corresponding derivative of the replacement.
        Binding an undifferentiated field jet binds its jets to total
        derivatives of the replacement.  Bindings must be acyclic.
        """
        bind = {k: as_expression(v) for k, v in bindings.items()}
        if not bind:
            return self
        _check_acyclic(bind)
        resolver = _Resolver(bind)
        expr = self
        for _ in range(len(bind) + 2):
            nxt = _subs_pass(expr, resolver)
            if nxt == expr:
                return nxt
            expr = nxt
        raise BindingError("substitution did not reach a fixed point; cyclic bindings?")

    # -- evaluation -----------------------------------------------------

    def evaluate(self, env: Mapping) -> float:
        """Float value at a point; a vanishing denominator, an overflow or a
        non-finite value raises EvaluationError, so samplers can skip the point."""
        floats = self._floats
        if floats is None:
            # Converted once per expression; samplers evaluate it at many points.
            floats = tuple(tuple((m, float(c)) for m, c in part) for part in (self._num, self._den))
            object.__setattr__(self, "_floats", floats)
        try:
            dv = _p_eval(floats[1], env)
            if dv == 0.0:
                raise EvaluationError("denominator vanished at the sample point")
            out = _p_eval(floats[0], env) / dv
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


_ONE_T = (((), Fraction(1)),)


def _freeze(p: Poly) -> tuple:
    """Terms in ascending monomial order; printers and leading-term lookups rely on it."""
    return tuple(sorted(p.items(), key=lambda kv: _MONO_KEY(kv[0])))


def _normalize(num: Poly, den: Poly) -> tuple[tuple, tuple]:
    if not den:
        raise ExprError("division by a zero expression")
    if not num:
        return (), _ONE_T
    if not p_is_const(den):
        mcn = _mono_content(num)
        mcd = _mono_content(den)
        mc = {}
        for a, e in mcn.items():
            e2 = mcd.get(a, 0)
            if e2:
                mc[a] = min(e, e2)
        if mc:
            num = _strip_mono(num, {a: e for a, e in mc.items()})
            den = _strip_mono(den, {a: e for a, e in mc.items()})
        if not p_is_const(den) and len(den) > 1:
            g = poly_gcd(num, den)
            if not p_is_const(g):
                num = _p_div_exact(num, g)
                den = _p_div_exact(den, g)
    if p_is_const(den):
        c = den[()]
        if c != 1:
            num = p_scale(num, 1 / c)
        return _freeze(num), _ONE_T
    # nonconstant denominator: coprime integer coefficients, positive leading
    lcm = 1
    for c in list(num.values()) + list(den.values()):
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    g = 0
    for c in list(num.values()) + list(den.values()):
        g = math.gcd(g, abs(c.numerator * (lcm // c.denominator)))
    scale = Fraction(lcm, g)
    _, lead = p_leading(den)
    if lead < 0:
        scale = -scale
    num = p_scale(num, scale)
    den = p_scale(den, scale)
    return _freeze(num), _freeze(den)


ZERO = Expression.number(0)
ONE = Expression.number(1)


def as_expression(v) -> Expression:
    if isinstance(v, Expression):
        return v
    if isinstance(v, (int, Fraction)):
        return Expression.number(v)
    if isinstance(v, JetVariable):
        return Expression.jet(v)
    if isinstance(v, FuncSym):
        return Expression.sym(v)
    raise ExprError(f"cannot interpret {v!r} as an expression")


# -- principal minors ----------------------------------------------------


_PLUS_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


def principal_minors(mat: Sequence[Sequence[Expression]], subsets: Iterable[Sequence[int]]) -> list[Expression]:
    """det(mat[S, S]) for each index subset S, computed over polynomials.

    Row i is cleared by r_i, the product of the distinct denominators of its
    nonzero entries, so N_ij = M_ij * r_i * r_j is a polynomial and
    det_S(M) = det_S(N) / prod_{i in S} r_i^2.  det_S(N) is a plain Laplace
    expansion along the first row; each minor is normalized once, and the
    canonical normal form makes the result that of a cofactor expansion over
    expressions.
    """
    subsets = [tuple(s) for s in subsets]
    rows = sorted({i for s in subsets for i in s})
    r: dict[int, Poly] = {}
    for i in rows:
        ri = _p_one()
        for d in dict.fromkeys(mat[i][j]._den for j in rows if not mat[i][j].is_zero):
            if d != _ONE_T:
                ri = p_mul(ri, dict(d))
        r[i] = ri
    n: dict[tuple[int, int], Poly] = {}
    for i in rows:
        for j in rows:
            e = mat[i][j]
            if not e.is_zero:
                n[i, j] = _p_div_exact(p_mul(p_mul(e.num_poly(), r[i]), r[j]), e.den_poly())

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
                p_add_into(out, p_mul(a, rest), _MINUS_ONE if k % 2 else _PLUS_ONE)
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
        for i, (a, e) in enumerate(m):
            da = rule(a)
            if not da:
                continue
            rest = list(m)
            if e == 1:
                rest.pop(i)
            else:
                rest[i] = (a, e - 1)
            rest_m = tuple(rest)
            f = c * e
            for dm, dc in da.items():
                key = mono_mul(rest_m, dm)
                v = out.get(key, 0) + f * dc
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
    return out


def _atom_partial(v: JetVariable, a: Atom) -> Poly:
    if isinstance(a, JetVariable):
        return _p_one() if a == v else {}
    if v in a.deps:
        return {(((a.bump(v)), 1),): Fraction(1)}
    return {}


@functools.lru_cache(maxsize=None)
def _atom_total_x(a: Atom) -> Poly:
    if isinstance(a, JetVariable):
        return {((a.dx(), 1),): Fraction(1)}
    out: Poly = {}
    for dep in a.deps:
        m = mono_from_pairs([(a.bump(dep), 1), (dep.dx(), 1)])
        out[m] = out.get(m, 0) + Fraction(1)
    return out


@functools.lru_cache(maxsize=None)
def _atom_total_t(a: Atom) -> Poly:
    if isinstance(a, JetVariable):
        return {((a.dt(), 1),): Fraction(1)}
    out: Poly = {}
    for dep in a.deps:
        m = mono_from_pairs([(a.bump(dep), 1), (dep.dt(), 1)])
        out[m] = out.get(m, 0) + Fraction(1)
    return out


def _p_eval(p, env) -> float:
    """Value of a part whose coefficients are already floats."""
    total = 0.0
    for m, v in p:
        for a, e in m:
            if a not in env:
                raise EvaluationError(f"no value supplied for {atom_text(a)}")
            v *= float(env[a]) ** e
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


class _Resolver:
    def __init__(self, bind: Mapping):
        self.bind = bind
        self.cache: dict = {}
        self.powers: dict = {}
        self.sym_bases: dict[tuple, list] = {}
        for k in bind:
            if isinstance(k, FuncSym):
                self.sym_bases.setdefault((k.name, k.deps), []).append(k)
        for lst in self.sym_bases.values():
            lst.sort(key=lambda s: (sum(s.orders), s.orders))

    def resolve(self, a: Atom) -> Expression | None:
        if a in self.cache:
            return self.cache[a]
        out = self._resolve(a)
        self.cache[a] = out
        return out

    def power(self, a: Atom, e: int, den: bool) -> Poly:
        """Numerator (or denominator) of the replacement of `a`, to the e-th power."""
        key = (a, e, den)
        p = self.powers.get(key)
        if p is None:
            rep = self.cache[a]
            p = p_pow(rep.den_poly() if den else rep.num_poly(), e)
            self.powers[key] = p
        return p

    def _resolve(self, a: Atom) -> Expression | None:
        hit = self.bind.get(a)
        if hit is not None:
            return hit
        if isinstance(a, JetVariable):
            base = JetVariable(a.field, 0, 0)
            if base == a:
                return None
            e = self.bind.get(base)
            if e is None:
                return None
            for _ in range(a.t_order):
                e = e.total_t()
            for _ in range(a.x_order):
                e = e.total_x()
            return e
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
        e = self.bind[best]
        for dep, co, ao in zip(a.deps, best.orders, a.orders):
            for _ in range(ao - co):
                e = e.diff(dep)
        return e


def _rebuild(part: tuple, resolver: _Resolver) -> tuple[Poly, Poly]:
    """One substituted part of a normal form, as a polynomial over a shared denominator.

    The shared denominator is the product of den(rep_a)^E_a over the bound
    atoms a whose replacement has a nonconstant denominator, E_a being the
    largest exponent of a in the part.  A monomial holding a^e then
    contributes num(rep_a)^e * den(rep_a)^(E_a - e).  Monomials with equal
    bound exponents share those factors, so each such group costs one
    product per factor.
    """
    tops: dict = {}  # bound atom with a nonconstant denominator -> E_a
    groups: dict = {}  # bound (atom, e) pairs -> polynomial in the unbound atoms
    for m, c in part:
        bound = []
        rest = []
        for a, e in m:
            rep = resolver.resolve(a)
            if rep is None:
                rest.append((a, e))
                continue
            bound.append((a, e))
            if not rep.den_is_one and tops.get(a, 0) < e:
                tops[a] = e
        groups.setdefault(tuple(bound), {})[tuple(rest)] = c
    acc: Poly = {}
    for bound, rest in groups.items():
        have = dict(bound)
        term = rest
        for a, e in bound:
            term = p_mul(term, resolver.power(a, e, False))
        for a, top in tops.items():
            k = top - have.get(a, 0)
            if k:
                term = p_mul(term, resolver.power(a, k, True))
        p_add_into(acc, term)
    den = _p_one()
    for a, top in tops.items():
        den = p_mul(den, resolver.power(a, top, True))
    return acc, den


def _subs_pass(expr: Expression, resolver: _Resolver) -> Expression:
    """One substitution pass, normalized once."""
    hits = {a for a in expr.atoms() if resolver.resolve(a) is not None}
    if not hits:
        return expr
    num, num_den = _rebuild(expr._num, resolver)
    if expr.den_is_one:
        return Expression(num, num_den)
    den, den_den = _rebuild(expr._den, resolver)
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


@dataclass
class _Tok:
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


def _frac_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _mono_text(m: Mono, c: Fraction) -> str:
    parts = []
    a = abs(c)
    if a != 1 or not m:
        parts.append(_frac_text(a))
    for atom, e in m:
        parts.append(atom_text(atom) + (f"^{e}" if e > 1 else ""))
    return "*".join(parts)


def _poly_text(part: tuple) -> str:
    out = []
    for i, (m, c) in enumerate(part[::-1]):
        body = _mono_text(m, c)
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
    lone = len(e._den) == 1 and e._den[0][1] == 1 and len(e._den[0][0]) == 1
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


def _mono_latex(m: Mono, c: Fraction) -> str:
    parts = []
    a = abs(c)
    if a != 1 or not m:
        parts.append(_frac_text(a) if a.denominator == 1 else rf"\tfrac{{{a.numerator}}}{{{a.denominator}}}")
    for atom, e in m:
        t = _atom_latex(atom)
        parts.append(t + (f"^{{{e}}}" if e > 1 else ""))
    return r" \, ".join(parts)


def _poly_latex(part: tuple) -> str:
    out = []
    for i, (m, c) in enumerate(part[::-1]):
        body = _mono_latex(m, c)
        if i == 0:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out)


def to_latex(e: Expression) -> str:
    if e.is_zero:
        return "0"
    num = _poly_latex(e._num)
    if e.den_is_one:
        return num
    return rf"\frac{{{num}}}{{{_poly_latex(e._den)}}}"
