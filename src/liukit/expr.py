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
a polynomial is a dict from monomials to coefficients.  An Expression keeps
its numerator and denominator as the dicts the kernel computed, and nothing
mutates them afterwards; `num_poly`/`den_poly` hand out copies.  Equality,
hashing, arithmetic, collection and substitution read the dicts, in
whatever order they hold their terms.  A coefficient is a Python int
whenever the kernel computed an int, so hashing, merging and multiplying
stay on plain ints; an integral Fraction compares and hashes as its int.
Ids depend on what a process happened to create first, so they order atoms
internally and nowhere else.  `_p_div_exact` is the one exact divider: a
one-term divisor divides term by term, through the reciprocal of its
coefficient, and only a divisor of two or more terms runs the leading-term loop,
which draws the remainder's leading terms from a heap.  `_split` is the one
splitter: in one pass it maps each sub-monomial over a set of atoms to its
coefficient polynomial, for collection, degrees and substitution alike.

Canonical order.  Monomials are ordered graded-lexicographically over a
canonical atom order (jets first, by field name, then time order, then
space order; function symbols after, by name, dependencies and derivative
multi-index).  A rank table maps each id to the atom's position in that
order.  It is brought up to date lazily, by binary insertion of the atoms
created since it was last read.  The sort key of a monomial is the flat int
tuple (degree, -rank_a, e_a, -rank_b, e_b, ...) over its atoms in ascending
rank.  The canonical view of a part (`_num`, `_den`) lists its terms in
ascending key order, with integral coefficients as ints.  It is built from
the dict when its order is first read, by the printers, float evaluation,
the leading term that fixes an equality's sign and pickling, and then
cached; a constructor that has the order already (unpickling, a packed
minor) hands it in.  So printing, serialization and leading-term lookups
are deterministic and do not depend on the ids, and an intermediate result
that is never printed is never sorted.

Parsing.  One regular-expression pass yields (kind, text, offset) tokens,
which a recursive descent reads; the `line:col` of a ParseError is worked
out from the offset only when the error is raised.

Packed monomials.  `principal_minors` expands its determinants over
monomials packed into one int: the degree on top, then one field per atom,
the first canonical atom most significant, each field as wide as the
largest exponent any minor can reach.  `_mono_key` orders monomials by
(degree, exponent vector in canonical atom order), lexicographically, and
packed ints that never carry compare the same way: a product is one int
addition, and sorting the ints sorts the terms canonically.  The report
prints each minor from its sorted ints, reading each key's fields from the
top down, so it neither unpacks a key nor re-sorts a monomial.

Substitution.  The binding set, `Substitution`, with its cycle check and
its closing over derivative atoms, is in `liukit.subst`, which
`Expression.subs` imports on its call; the passes that apply a closed set
(`_subs_pass`, `_rebuild`) stay here.  `derive` never substitutes, so its
process does not compile `liukit.subst`.

Printing.  `to_text` is here; the LaTeX printers are in `liukit.latex`,
which only `derive --format latex` imports, so the text and JSON paths do
not compile them.  Float evaluation is in `liukit.checker`, which only
`check` imports; `Expression.evaluate` delegates to it.
"""
from __future__ import annotations

import functools
import math
import re
from bisect import bisect
from fractions import Fraction
from itertools import accumulate, chain
from typing import TYPE_CHECKING, AbstractSet, Iterable, Iterator, Mapping, Sequence, Union

from .jet import _ATOM_IDS, ATOMS, Frozen, JetVariable, intern_atom

if TYPE_CHECKING:
    from .subst import Substitution

__all__ = [
    "Atom", "BindingError", "CollectError", "ExprError", "Expression", "FuncSym", "ONE",
    "ParseContext", "ParseError", "ZERO", "as_expression", "parse",
    "poly_gcd", "principal_minors", "to_text",
]


class ExprError(ValueError):
    pass


class ParseError(ExprError):
    pass


class CollectError(ExprError):
    pass


class BindingError(ExprError):
    pass


class FuncSym(Frozen):
    """A constitutive function symbol with a fixed dependency list.

    `orders` counts partial derivatives with respect to each dependency, so
    the symmetry of mixed partials holds by construction.  Dependencies are
    kept sorted and duplicate-free.
    """

    __slots__ = ("name", "deps", "orders", "atom_key", "id", "_hash", "_text", "_dep_ids")

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
        self._fill(name, deps, orders, tuple(d.sort_key() for d in deps), tuple(d.id for d in deps))
        self._intern()

    def _fill(self, name: str, deps: tuple, orders: tuple, dep_keys: tuple, dep_ids: tuple) -> None:
        """Set the fields that equality and hashing read, from checked parts."""
        put = object.__setattr__
        put(self, "name", name)
        put(self, "deps", deps)
        put(self, "orders", orders)
        put(self, "_dep_ids", dep_ids)
        # Hashed, keyed, printed and interned once, as jets are.  A jet hashes
        # as its sort key, so this is hash((name, deps, orders)).
        put(self, "atom_key", (1, name, dep_keys, orders))
        put(self, "_hash", hash((name, dep_keys, orders)))

    def _intern(self) -> "FuncSym":
        """Set the text and the id, registering the atom if it is new."""
        text = [dep.text() for dep, o in zip(self.deps, self.orders) if o for _ in range(o)]
        object.__setattr__(self, "_text", "D(" + ", ".join([self.name, *text]) + ")" if text else self.name)
        object.__setattr__(self, "id", intern_atom(self))
        return self

    def __eq__(self, other):
        if other.__class__ is not FuncSym:
            return NotImplemented
        return self is other or self.atom_key == other.atom_key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (FuncSym, (self.name, self.deps, self.orders))

    def bump(self, dep: JetVariable) -> "FuncSym":
        """Increment the derivative order with respect to `dep`.

        The dependencies are already sorted and checked, so they, their sort
        keys and their atom ids are reused, and `dep` is found by its id; an
        atom that exists already is returned as is.
        """
        try:
            i = self._dep_ids.index(dep.id)
        except ValueError:
            raise ExprError(f"{self.name} does not depend on {dep.text()}") from None
        orders = self.orders[:i] + (self.orders[i] + 1,) + self.orders[i + 1:]
        out = FuncSym.__new__(FuncSym)
        out._fill(self.name, self.deps, orders, self.atom_key[2], self._dep_ids)
        i = _ATOM_IDS.get(out)
        return out._intern() if i is None else ATOMS[i]

    @property
    def total_order(self) -> int:
        return sum(self.orders)

    def text(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"Sym({self.text()})"


Atom = Union[JetVariable, FuncSym]
Number = Union[int, Fraction]


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
    """The gcd of all monomials of p, and of g when given: () at once when p has a constant term."""
    if () in p:
        return ()
    it = iter(p)
    if g is None:
        g = next(it)
    for m in it:
        if not g:
            break
        g = _mono_gcd(g, m)
    return g


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


def _split(p: Poly, ids: AbstractSet[int] | Mapping[int, object]) -> dict[Mono, Poly]:
    """p as sum_b b * p_b over the sub-monomials b over the atoms `ids`: {b: p_b}, in one pass.

    `ids` is a set of atom ids or a dict keyed by them.  A monomial free of
    them goes to the bucket () as it is.
    """
    disjoint = (ids.keys() if isinstance(ids, dict) else ids).isdisjoint
    out: dict[Mono, Poly] = {}
    for m, c in p.items():
        if disjoint(m[::2]):
            out.setdefault((), {})[m] = c
            continue
        bound = []
        rest = []
        for k in range(0, len(m), 2):
            if m[k] in ids:
                bound += m[k:k + 2]
            else:
                rest += m[k:k + 2]
        out.setdefault(tuple(bound), {})[tuple(rest)] = c
    return out


def _p_div_exact(p: Poly, d: Poly) -> Poly:
    """p / d exactly; raises on a zero divisor or a nonzero remainder."""
    if len(d) < 2:
        dm, dc = next(iter(d.items()), ((), 0))
        if not dc:
            raise ExprError("division by zero polynomial")
        inv = 1 if dc == 1 else _quo(1, dc)
        if not dm:
            return p if inv == 1 else {m: c * inv for m, c in p.items()}
        q = {mono_div(m, dm): c * inv for m, c in p.items()}
        if None in q:
            raise ExprError("inexact polynomial division")
        return q
    # A heap of the remainder's monomials, largest first (no key is a prefix of
    # another, so negating each entry reverses the order); a monomial is pushed
    # as it enters the remainder and skipped if its term has cancelled since.
    # Only a rational input divides by several terms, so only it loads heapq.
    from heapq import heapify, heappop, heappush

    q: Poly = {}
    r = dict(p)
    dm, dc = p_leading(d)
    heap = [(tuple(-k for k in _mono_key(m)), m) for m in r]
    heapify(heap)
    while heap:
        rm = heappop(heap)[1]
        rc = r.get(rm)
        if rc is None:
            continue
        m = mono_div(rm, dm)
        if m is None:
            raise ExprError("inexact polynomial division")
        c = _quo(rc, dc)
        q[m] = q.get(m, 0) + c
        sub = p_mul({m: c}, d)
        for t in sub:
            if t not in r:
                heappush(heap, (tuple(-k for k in _mono_key(t)), t))
        p_add_into(r, sub, -1)
    return {m: c for m, c in q.items() if c}


def _in_var(p: Poly, var: int) -> dict[int, Poly]:
    """p as sum_e var^e * p_e: {e: p_e}, the one-atom `_split` that the gcd recursion reads."""
    out: dict[int, Poly] = {}
    for m, c in p.items():
        ids = m[::2]
        if var in ids:
            k = 2 * ids.index(var)
            out.setdefault(m[k + 1], {})[m[:k] + m[k + 2:]] = c
        else:
            out.setdefault(0, {})[m] = c
    return out


def _prem(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    """Pseudo-remainder of a by b, both `_in_var` views of one atom.

    Each step sets a := lc(b)*a - lc(a)*var^(deg a - deg b)*b, which cancels
    the top degree of a exactly, until deg a < deg b.
    """
    db = max(b)
    lb = b[db]
    while a:
        da = max(a)
        if da < db:
            break
        la, s = a[da], da - db
        r = {e: p_mul(lb, c) for e, c in a.items() if e != da}
        for e, c in b.items():
            if e != db:
                p_add_into(r.setdefault(e + s, {}), p_mul(la, c), -1)
        a = {e: c for e, c in r.items() if c}
    return a


def _content(u: dict[int, Poly]) -> Poly:
    """The gcd of the coefficients of u, from the top degree down."""
    cont: Poly = {}
    for e in sorted(u, reverse=True):
        cont = poly_gcd(cont, u[e]) if cont else u[e]
        if p_is_const(cont):
            return _p_one()
    return cont


def _gcd_primitive(p: Poly, q: Poly) -> Poly:
    if p_is_const(p) or p_is_const(q):
        return _p_one()
    if p == q:
        return _int_normalize(p)
    atoms_p = {i for m in p for i in m[::2]}
    atoms_q = {i for m in q for i in m[::2]}
    if atoms_p != atoms_q:
        # A common divisor is free of every atom only one side holds, so it
        # divides that side's coefficients in those atoms: fold the gcd over
        # them, in one call for all such atoms rather than a nested one each.
        parts = chain(_split(p, atoms_p - atoms_q).values(), _split(q, atoms_q - atoms_p).values())
        g: Poly = {}
        for part in sorted(parts, key=len):  # the smallest first, whose gcds are cheapest
            g = poly_gcd(g, part)
            if p_is_const(g):
                break
        return g
    var = min(atoms_p, key=_ranks().__getitem__)  # the last canonical atom
    a, b = _in_var(p, var), _in_var(q, var)
    ca, cb = _content(a), _content(b)
    d = poly_gcd(ca, cb)
    a = {e: _p_div_exact(c, ca) for e, c in a.items()}
    b = {e: _p_div_exact(c, cb) for e, c in b.items()}
    if max(a) < max(b):
        a, b = b, a
    # Every b is primitive, so the last nonzero one is the primitive gcd.
    while True:
        r = _prem(a, b)
        if not r:
            break
        cr = _content(r)
        a, b = b, {e: _p_div_exact(c, cr) for e, c in r.items()}
    g = {mono_mul(m, (var, e)) if e else m: v for e, c in b.items() for m, v in c.items()}
    return _int_normalize(p_mul(d, g))


def poly_gcd(p: Poly, q: Poly) -> Poly:
    if not p:
        return _int_normalize(q) if q else _p_one()
    if not q:
        return _int_normalize(p)
    mcp = _mono_content(p)
    mcq = _mono_content(q)
    g = _gcd_primitive(_p_div_exact(p, {mcp: 1}), _p_div_exact(q, {mcq: 1}))
    mc = _mono_gcd(mcp, mcq)
    if mc:
        g = p_mul(g, {mc: 1})
    return g


class Expression:
    """Immutable rational normal form.  All operators return normalized results.

    `_n` and `_d` are the numerator and denominator as the kernel computed
    them, dicts that nothing mutates; `_num` and `_den` are their canonical
    views, built on first read.
    """

    __slots__ = ("_n", "_d", "_nt", "_dt", "_hash")

    def __init__(self, num: Poly, den: Poly):
        self._n, self._d = _normalize(num, den)
        self._nt = self._dt = self._hash = None

    @property
    def _num(self) -> tuple:
        """The numerator's terms in ascending canonical order."""
        t = self._nt
        if t is None:
            t = self._nt = _freeze(self._n)
        return t

    @property
    def _den(self) -> tuple:
        """The denominator's terms in ascending canonical order."""
        t = self._dt
        if t is None:
            t = self._dt = _freeze(self._d)
        return t

    def __reduce__(self):
        # Atom ids are local to a process, so the atoms themselves travel.
        return (_from_pairs, (_pairs(self._num), _pairs(self._den)))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def number(value: Number) -> "Expression":
        c = Fraction(value)
        return _wrap({(): c.numerator if c.denominator == 1 else c} if c else {}, _P_ONE)

    @staticmethod
    def atom(a: Atom) -> "Expression":
        return _wrap({(a.id, 1): 1}, _P_ONE)

    jet = sym = atom

    # -- raw views ------------------------------------------------------

    def num_poly(self) -> Poly:
        return dict(self._n)

    def den_poly(self) -> Poly:
        return dict(self._d)

    def denominator(self) -> "Expression":
        """The normalized denominator, as a polynomial expression."""
        return _wrap(self._d, _P_ONE, self._dt)

    @property
    def is_zero(self) -> bool:
        return not self._n

    @property
    def den_is_one(self) -> bool:
        return self._d == _P_ONE

    def as_fraction(self) -> Fraction | None:
        """The exact rational value when the expression is constant, else None."""
        n = self._n
        if not n:
            return Fraction(0)
        if len(n) == 1 and () in n and self._d == _P_ONE:
            return Fraction(n[()])
        return None

    def atoms(self) -> set:
        ids = set()
        for part in (self._n, self._d):
            for m in part:
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
        n1, d1, n2, d2 = self._n, self._d, other._n, other._d
        if d1 == d2:
            num = dict(n1)
            p_add_into(num, n2)
            return Expression(num, d1)
        num = p_mul(n1, d2)
        p_add_into(num, p_mul(n2, d1))
        return Expression(num, p_mul(d1, d2))

    __radd__ = __add__

    def __neg__(self) -> "Expression":
        return _wrap({m: -c for m, c in self._n.items()}, self._d, None, self._dt)

    def __sub__(self, other) -> "Expression":
        return self + (-as_expression(other))

    def __rsub__(self, other) -> "Expression":
        return as_expression(other) + (-self)

    def __mul__(self, other) -> "Expression":
        other = as_expression(other)
        if self.is_zero or other.is_zero:
            return ZERO
        return Expression(p_mul(self._n, other._n), p_mul(self._d, other._d))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expression":
        other = as_expression(other)
        if other.is_zero:
            raise ExprError("division by a zero expression")
        return Expression(p_mul(self._n, other._d), p_mul(self._d, other._n))

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
            return Expression(p_pow(self._d, -n), p_pow(self._n, -n))
        return Expression(p_pow(self._n, n), p_pow(self._d, n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expression):
            if isinstance(other, (int, Fraction)):
                return self == Expression.number(other)
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            c = self.as_fraction()  # a constant hashes as the number it equals
            h = self._hash = hash((frozenset(self._n.items()), frozenset(self._d.items())) if c is None else c)
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
        num, den = self._n, self._d
        dnum = _p_derive(num, rule)
        if self.den_is_one:
            return Expression(dnum, _P_ONE)
        dden = _p_derive(den, rule)
        out = p_mul(dnum, den)
        p_add_into(out, p_mul(num, dden), -1)
        return Expression(out, p_mul(den, den))

    # -- structure ------------------------------------------------------

    def collect(self, variables: Sequence[Atom]) -> dict[tuple[int, ...], "Expression"]:
        """Coefficients with respect to monomials in `variables`.

        The result maps an exponent multi-index (aligned with `variables`) to
        the coefficient expression, which is free of the listed variables.
        The denominator must not involve them.
        """
        vset = self._collection_ids(variables)
        buckets = {}
        for b, v in _split(self._n, vset).items():
            exps = [0] * len(vset)
            for i, e in zip(b[::2], b[1::2]):
                exps[vset[i]] = e
            buckets[tuple(exps)] = v
        return {k: Expression(v, self._d) for k, v in sorted(buckets.items())}

    def linear_coefficients(self, variables: Sequence[Atom]) -> list["Expression"] | None:
        """The coefficient of each of `variables`, or None when a term has degree 2 or more in them.

        These are `collect`'s degree-1 entries, under the same checks, but
        the part free of `variables` is never built, so with a nonconstant
        denominator it costs no gcd.
        """
        vset = self._collection_ids(variables)
        out = [ZERO] * len(vset)
        for b, v in _split(self._n, vset).items():
            if len(b) > 2 or b and b[1] > 1:
                return None
            if b:
                out[vset[b[0]]] = Expression(v, self._d)
        return out

    def _collection_ids(self, variables: Sequence[Atom]) -> dict[int, int]:
        """{atom id: position} of `variables`; raises CollectError on a repeat or one in the denominator."""
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise CollectError("duplicate collection variable")
        vset = {a.id: i for i, a in enumerate(variables)}
        if any(i in vset for m in self._d for i in m[::2]):
            # Named from the first term that holds one, in canonical order.
            hits = ([i for i in m[::2] if i in vset] for m, _ in self._den)
            first = max(next(filter(None, hits)), key=_ranks().__getitem__)  # first in canonical order
            raise CollectError(f"denominator involves collection variable {ATOMS[first].text()}")
        return vset

    def degree_in(self, variables: Iterable[Atom]) -> int:
        """The numerator's total degree in `variables`, read off each monomial without splitting it."""
        ids = {a.id for a in variables}
        disjoint = ids.isdisjoint
        top = 0
        for m in self._n:
            if disjoint(m[::2]):
                continue
            d = 0
            for k in range(0, len(m), 2):
                if m[k] in ids:
                    d += m[k + 1]
            if d > top:
                top = d
        return top

    # -- substitution ---------------------------------------------------

    def subs(self, bindings: Mapping | Substitution) -> "Expression":
        """Replace atoms by expressions, closing over derivatives.

        Binding a base function symbol also binds every derivative atom of
        that symbol to the corresponding derivative of the replacement.
        Binding an undifferentiated field jet binds its jets to total
        derivatives of the replacement.  A derivative atom follows its
        largest bound ancestor.  Bindings may chain to any length but must be
        acyclic: a cycle raises BindingError naming it.  A `Substitution` may
        stand in for the mapping, so that the atoms it resolves are reused
        across calls.
        """
        from .subst import Substitution

        sub = bindings if isinstance(bindings, Substitution) else Substitution(bindings)
        return _subs_pass(self, sub) if sub.bind else self

    # -- evaluation -----------------------------------------------------

    def evaluate(self, env: Mapping) -> float:
        """Float value at a point: `liukit.checker.evaluate`, which `check` samples with."""
        from .checker import evaluate
        return evaluate(self, env)


def _wrap(num: Poly, den: Poly, num_t: tuple | None = None, den_t: tuple | None = None) -> Expression:
    """Build an Expression from already normalized parts, and their canonical views when known."""
    e = Expression.__new__(Expression)
    e._n, e._d, e._nt, e._dt = num, den, num_t, den_t
    e._hash = None
    return e


def _pairs(part: tuple) -> tuple:
    """A frozen part with each monomial as (atom, exponent) pairs."""
    return tuple((tuple((ATOMS[m[k]], m[k + 1]) for k in range(0, len(m), 2)), c) for m, c in part)


def _from_pairs(num: tuple, den: tuple) -> Expression:
    """Inverse of _pairs; the canonical term order does not depend on ids."""
    num_t, den_t = (tuple((mono_from_pairs(m), c) for m, c in part) for part in (num, den))
    return _wrap(dict(num_t), dict(den_t), num_t, den_t)


_P_ONE: Poly = {(): 1}  # the denominator of a polynomial; shared, so never mutated


def _freeze(p: Poly) -> tuple:
    """The canonical view of a part: terms in ascending monomial order, integral coefficients as ints.

    Printers, float evaluation, leading-term lookups and pickling rely on the order.
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


def _normalize(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if not den:
        raise ExprError("division by a zero expression")
    if not num:
        return {}, _P_ONE
    if not p_is_const(den):
        mc = _mono_content(num, _mono_content(den))
        if mc:
            num = _p_div_exact(num, {mc: 1})
            den = _p_div_exact(den, {mc: 1})
        if not p_is_const(den) and len(den) > 1:
            g = poly_gcd(num, den)
            if not p_is_const(g):
                num = _p_div_exact(num, g)
                den = _p_div_exact(den, g)
    if p_is_const(den):
        return _p_div_exact(num, den), _P_ONE
    # nonconstant denominator: coprime integer coefficients, positive leading
    k, g = _int_scale(chain(num.values(), den.values()), p_leading(den)[1])
    if k != g:
        num = _rescale(num, k, g)
        den = _rescale(den, k, g)
    return num, den


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


def _cleared(mat: Sequence[Sequence[Expression]], rows: Sequence[int]
             ) -> tuple[dict[int, Poly], dict[tuple[int, int], Poly]]:
    """The row factors r_i and the nonzero cleared entries N_ij of `principal_minors`."""
    r: dict[int, Poly] = {}
    for i in rows:
        entries = [mat[i][j] for j in rows if not mat[i][j].is_zero]
        ri = {(): math.lcm(1, *(c.denominator for e in entries for c in e._n.values()))}
        for d in {frozenset(e._d.items()): e._d for e in entries if not e.den_is_one}.values():
            ri = p_mul(ri, d)
        r[i] = ri
    n: dict[tuple[int, int], Poly] = {}
    for i in rows:
        for j in rows:
            e = mat[i][j]
            if not e.is_zero:
                nij = _p_div_exact(p_mul(p_mul(e._n, r[i]), r[j]), e._d)
                n[i, j] = {m: c.numerator for m, c in nij.items()}  # integral: plain ints
    return r, n


def minor_terms_bound(mat: Sequence[Sequence[Expression]], subsets: Iterable[Sequence[int]]) -> int:
    """An upper bound on the products `principal_minors` multiplies out, without expanding.

    A Laplace expansion of det_S(N) forms at most prod_{i in S} sum_{j in S}
    |N_ij| monomial products, |N_ij| the term count of a cleared entry; the
    bound is that sum over the subsets.
    """
    subsets = [tuple(s) for s in subsets]
    _, n = _cleared(mat, sorted({i for s in subsets for i in s}))
    return sum(math.prod(sum(len(n.get((i, j), ())) for j in s) for i in s) for s in subsets)


def principal_minors(mat: Sequence[Sequence[Expression]], subsets: Iterable[Sequence[int]],
                     text: bool = False) -> list[Expression] | list[str]:
    """det(mat[S, S]) for each index subset S, computed over polynomials; with `text`, its `to_text`.

    Row i is cleared by r_i, the product of the distinct denominators of its
    nonzero entries times the lcm of the denominators of their coefficients,
    so N_ij = M_ij * r_i * r_j is a polynomial with integer coefficients and
    det_S(M) = det_S(N) / prod_{i in S} r_i^2.  det_S(N) is a plain Laplace
    expansion along the first row; each minor is normalized once, and the
    canonical normal form makes the result that of a cofactor expansion over
    expressions.

    The expansion runs on packed monomials (see the module docstring).  The
    field of atom a is sum_i max_j exp_a(N_ij) wide, the most any minor can
    reach, so a product is an int addition and int order is `_mono_key`
    order.  A minor whose denominator is one term (powers of the density in
    every shipped model) is finished here as `_normalize` would finish it:
    its monomial content, capped by the denominator, comes off the packed
    ints, then the constant is scaled out, then the ints are sorted once;
    its text is printed from them.  Any other denominator goes through
    `Expression`.
    """
    subsets = [tuple(s) for s in subsets]
    rows = sorted({i for s in subsets for i in s})
    r, n = _cleared(mat, rows)

    bound: dict[int, int] = {}  # atom id -> largest exponent in any minor
    for i in rows:
        most: dict[int, int] = {}
        for m in chain.from_iterable(n.get((i, j), ()) for j in rows):
            for a, e in zip(m[::2], m[1::2]):
                most[a] = max(most.get(a, 0), e)
        for a, e in most.items():
            bound[a] = bound.get(a, 0) + e
    nrank = _ranks()
    order = sorted(bound, key=nrank.__getitem__)  # the last canonical atom lowest
    widths = [bound[a].bit_length() for a in order]
    starts = list(accumulate(widths, initial=0))
    top = starts.pop()
    unit = {a: 1 << s | 1 << top for a, s in zip(order, starts)}  # one exponent, one degree

    def pack(pairs: Iterable[tuple[int, int]]) -> int:
        return sum(e * unit[a] for a, e in pairs)

    packed = {ij: {pack(zip(m[::2], m[1::2])): c for m, c in p.items()} for ij, p in n.items()}
    field = {a: k for k, a in enumerate(order)}
    # per field: atom id, start, mask of the fields below it, text of each exponent
    layout = [(a, s, (1 << s) - 1, ["", t, *(f"{t}^{e}" for e in range(2, bound[a] + 1))])
              for a, s, t in zip(order, starts, (ATOMS[a]._text for a in order))]
    read = [layout[k] for k, w in enumerate(widths) for _ in range(w)]  # bit -> its field

    def unpack(key: int) -> Mono:
        """The id-ordered monomial of a packed key, one step per atom present."""
        key &= (1 << top) - 1
        out = []
        while key:
            a, s, b, _ = read[key.bit_length() - 1]
            out.append((a, key >> s))
            key &= b
        out.sort()
        return tuple(chain.from_iterable(out))

    def factors(key: int) -> list[str]:
        """The factors of a packed key: its fields, from the top down, are in canonical order."""
        key &= (1 << top) - 1
        out = []
        while key:
            _, s, b, texts = read[key.bit_length() - 1]
            out.append(texts[key >> s])
            key &= b
        return out

    packed_text = functools.partial(_mono_text, factors=factors)

    def det(sub: tuple, cols: tuple) -> dict:
        if len(sub) == 1:
            return packed.get((sub[0], cols[0]), P_ZERO)
        out: dict = {}
        for k, j in enumerate(cols):
            a = packed.get((sub[0], j))
            rest = det(sub[1:], cols[:k] + cols[k + 1:]) if a else None
            if not rest:
                continue
            for ma, ca in a.items():
                ca = -ca if k % 2 else ca
                for mb, cb in rest.items():
                    m = ma + mb
                    out[m] = out.get(m, 0) + ca * cb
        return {m: c for m, c in out.items() if c}

    squares = {i: p_mul(ri, ri) for i, ri in r.items()}
    minors = []
    for sub in subsets:
        den = _p_one()
        for i in sub:
            den = p_mul(den, squares[i])
        num = det(sub, sub)
        if len(den) > 1:
            e = Expression({unpack(m): c for m, c in num.items()}, den)
            minors.append(to_text(e) if text else e)
            continue
        ((dm, c),) = den.items()
        den = _P_ONE
        if num and dm:  # divide out the monomial content, capped by dm
            cut = []
            for a, e in zip(dm[::2], dm[1::2]):
                k = field.get(a)
                e = 0 if k is None else min(e, min(m >> starts[k] & (1 << widths[k]) - 1 for m in num))
                if e:
                    cut.append((a, e))
            if cut:
                low = pack(cut)
                num = {m - low: v for m, v in num.items()}
                dm = mono_div(dm, tuple(chain.from_iterable(cut)))
        if num and dm:
            k, g = _int_scale(chain(num.values(), (c,)), c)
            if k != g:
                num, c = _rescale(num, k, g), c * k // g
            den = {dm: c}
        elif c != 1:
            num = {m: _quo(v, c) for m, v in num.items()}
        num_t = tuple((m, num[m]) for m in sorted(num))  # the packed order is canonical
        if text:
            minors.append(_quotient_text(num_t, None if den is _P_ONE else tuple(den.items()), packed_text))
            continue
        num_t = tuple((unpack(m), c) for m, c in num_t)
        minors.append(_wrap(dict(num_t), den, num_t))
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
    for dep in a.deps:  # distinct dependencies bump to distinct atoms
        ((j, _),) = _atom_total(time, dep.id)  # the jet's derivative, (id, 1)
        b = a.bump(dep).id
        out[(b, 1, j, 1) if b < j else (j, 1, b, 1)] = 1
    return out


# -- substitution machinery ----------------------------------------------
# `Substitution`, the closed binding set, is in `liukit.subst`; the passes
# that apply one are here, with the kernel they call.


def _rebuild(part: Poly, sub: Substitution, bound: set[int]) -> tuple[Poly, Poly]:
    """One substituted part of a normal form, as a polynomial over a shared denominator.

    The shared denominator is the product of den(rep_a)^E_a over the bound
    atoms a whose replacement has a nonconstant denominator, E_a being the
    largest exponent of a in the part.  A monomial holding a^e then
    contributes num(rep_a)^e * den(rep_a)^(E_a - e).  `_split` groups the
    monomials by their bound atoms, so each group costs one product per factor.
    """
    groups = _split(part, bound)
    tops: dict = {}  # bound atom id with a nonconstant denominator -> E_a
    for b in groups:
        for i, e in zip(b[::2], b[1::2]):
            if tops.get(i, 0) < e and not sub.cache[i].den_is_one:
                tops[i] = e
    acc: Poly = {}
    for b, term in groups.items():
        have = dict(zip(b[::2], b[1::2]))
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
    """The substitution, normalized once: one pass, since every replacement is closed."""
    bound = {a.id for a in expr.atoms() if sub.resolve(a) is not None}
    if not bound:
        return expr
    num, num_den = _rebuild(expr._n, sub, bound)
    if expr.den_is_one:
        return Expression(num, num_den)
    den, den_den = _rebuild(expr._d, sub, bound)
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
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9]*(?:_[A-Za-z0-9]+)?)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<stray>.)"
    r"|(?P<end>\Z))",
    re.DOTALL,
)


class _Parser:
    """Recursive descent over (kind, text, offset) tokens."""

    def __init__(self, text: str, ctx: ParseContext):
        self.text = text
        self.ctx = ctx
        self.pos = 0
        self.toks = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)) for m in _TOKEN_RE.finditer(text)]
        for tok in self.toks:
            if tok[0] == "stray":
                self.fail(tok, f"unexpected character {tok[1]!r}")

    def fail(self, tok: tuple[str, str, int], msg: str):
        offset = tok[2]
        line = self.text.count("\n", 0, offset) + 1
        col = offset - self.text.rfind("\n", 0, offset)
        raise ParseError(f"{line}:{col}: {msg}")

    def peek(self) -> str:
        return self.toks[self.pos][1]

    def take(self, text: str | None = None) -> tuple[str, str, int]:
        """The next token, which must read `text` when that is given."""
        tok = self.toks[self.pos]
        if text is not None and tok[1] != text:
            self.fail(tok, f"expected {text!r}, found {tok[1] or 'end of input'!r}")
        self.pos += 1
        return tok

    def parse(self) -> Expression:
        e = self.sum()
        tok = self.toks[self.pos]
        if tok[0] != "end":
            self.fail(tok, f"unexpected {tok[1]!r}")
        return e

    def sum(self) -> Expression:
        e = self.product()
        while self.peek() in ("+", "-"):
            op = self.take()[1]
            rhs = self.product()
            e = e + rhs if op == "+" else e - rhs
        return e

    def product(self) -> Expression:
        e = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()[1]
            rhs = self.unary()
            e = e * rhs if op == "*" else e / rhs
        return e

    def unary(self) -> Expression:
        """A signed factor: a primary, raised to an integer power if `^` follows."""
        op = self.peek()
        if op in ("+", "-"):
            self.take()
            e = self.unary()
            return -e if op == "-" else e
        e = self.primary()
        if self.peek() == "^":
            self.take()
            e = e ** self.exponent()
        return e

    def exponent(self) -> int:
        if self.peek() == "(":
            self.take()
            n = self.exponent()
            self.take(")")
            return n
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        tok = self.take()
        if tok[0] != "num" or "." in tok[1]:
            self.fail(tok, "exponent must be an integer")
        return sign * self.number(tok, int)

    def number(self, tok: tuple[str, str, int], kind: type):
        try:  # Python converts no integer string of more than 4300 digits
            return kind(tok[1])
        except ValueError:
            self.fail(tok, f"number of {len(tok[1])} characters is too long")

    def jet(self, tok: tuple[str, str, int]) -> JetVariable:
        """The jet variable `tok` names: a bare jet, a call argument or a D(...) variable."""
        if tok[0] != "ident":
            self.fail(tok, "expected a variable name")
        name, _, suffix = tok[1].partition("_")
        t, x = suffix.count("t"), suffix.count("x")
        if suffix != "t" * t + "x" * x:
            self.fail(tok, f"invalid jet suffix in {tok[1]!r}")
        if name not in self.ctx.fields:
            self.fail(tok, f"undeclared field {name!r}")
        return JetVariable(name, t, x)

    def jets(self) -> Iterator[tuple[tuple[str, str, int], JetVariable]]:
        """Each `, jet` up to the closing parenthesis, with the jet's token."""
        while self.peek() == ",":
            self.take()
            tok = self.take()
            yield tok, self.jet(tok)
        self.take(")")

    def primary(self) -> Expression:
        kind, text, _ = tok = self.take()
        if kind == "num":
            return Expression.number(self.number(tok, Fraction))
        if text == "(":
            e = self.sum()
            self.take(")")
            return e
        if kind != "ident":
            self.fail(tok, f"unexpected {text or 'end of input'!r}")
        if text == "D":
            return self.derivative(tok)
        if "_" not in text and self.peek() == "(":
            if text not in self.ctx.syms:
                self.fail(tok, f"undeclared function symbol {text!r}")
            self.take()
            args = [self.jet(self.take()), *(v for _, v in self.jets())]
            if tuple(sorted(args, key=JetVariable.sort_key)) != self.ctx.syms[text]:
                self.fail(tok, f"arguments of {text!r} do not match its declared dependencies")
            return Expression.sym(self.ctx.sym(text))
        if "_" in text or text in self.ctx.fields:
            return Expression.jet(self.jet(tok))
        if text in self.ctx.syms:
            return Expression.sym(self.ctx.sym(text))
        self.fail(tok, f"undeclared identifier {text!r}")

    def derivative(self, d: tuple[str, str, int]) -> Expression:
        self.take("(")
        tok = self.take()
        if tok[0] != "ident" or tok[1] not in self.ctx.syms:
            self.fail(tok, f"D(...) needs a declared function symbol, found {tok[1]!r}")
        s = self.ctx.sym(tok[1])
        for tok, v in self.jets():
            if v not in s.deps:
                self.fail(tok, f"{s.name!r} does not depend on {v.text()}")
            s = s.bump(v)
        if not s.total_order:
            self.fail(d, "D(...) needs at least one differentiation variable")
        return Expression.sym(s)


def parse(text: str, ctx: ParseContext) -> Expression:
    try:
        return _Parser(text, ctx).parse()
    except RecursionError:
        # The parser descends one call chain per nesting level.
        raise ParseError("expression nests too deeply") from None
    except ParseError:
        raise
    except ExprError as exc:
        # Arithmetic on parsed operands: a division by zero, or `0^-1`.
        raise ParseError(str(exc)) from exc


# -- printing --------------------------------------------------------------


def _frac_text(c: Number) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _mono_text(m: Mono, c: Number, nrank: list[int], factors=None) -> str:
    """One monomial; `factors(m)`, when given, lists its `atom^e` texts in canonical atom order."""
    parts = factors(m) if factors else [
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
    return _quotient_text(e._num, None if e.den_is_one else e._den)


def _quotient_text(num_t: tuple, den_t: tuple | None, mono=_mono_text) -> str:
    """Frozen parts as `num/den`, or `num` when `den_t` is None; `mono` prints the numerator's terms."""
    if not num_t:
        return "0"
    num = _poly_text(num_t, mono)
    if den_t is None:
        return num
    den = _poly_text(den_t)
    if len(num_t) > 1:
        num = f"({num})"
    lone = len(den_t) == 1 and den_t[0][1] == 1 and len(den_t[0][0]) == 2  # one atom
    if not lone:
        den = f"({den})"
    return f"{num}/{den}"
