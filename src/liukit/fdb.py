"""Combinatorics of repeated total derivatives of composite functions.

`chain_terms(m, s)` enumerates the terms of the m-th total derivative of a
function of s inner arguments, each term described by how the m elementary
differentiations are grouped into inner-derivative blocks and how the blocks
are assigned to arguments.  The integer weights are the multinomial counts of
those groupings.  `total_x_power` applies the expansion to a function symbol,
which gives an independent cross-check against iterating the total-derivative
operator of the expression kernel.  `extension_leibniz` is the same kind of
oracle for `BalanceLaw.extension`, by the binomial (Leibniz) expansion.
Only the `fdb` subcommand imports this module, so `derive` and `check`
compile neither oracle.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator, NamedTuple

from .jet import JetVariable
from .expr import ZERO, Expression, FuncSym, mono_from_pairs, to_text
from .balance import BalanceLaw


class ChainTerm(NamedTuple):
    """One term of the expanded m-th total derivative.

    `assignment[i - 1][j]` is the number of inner factors that are i-fold
    derivatives of argument j.  The weight counts the ways to realize the
    grouping, so the term reads

        weight * (outer derivative of the function) * product of inner factors

    where the outer derivative order with respect to argument j is the j-th
    column sum of the assignment.
    """

    weight: int
    assignment: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return sum((i + 1) * sum(row) for i, row in enumerate(self.assignment))

    @property
    def outer_orders(self) -> tuple[int, ...]:
        return tuple(map(sum, zip(*self.assignment)))

    def inner_factors(self) -> tuple[tuple[int, int, int], ...]:
        """Sorted (derivative order, argument index, multiplicity) triples."""
        rows = enumerate(self.assignment, start=1)
        return tuple((i, j, q) for i, row in rows for j, q in enumerate(row) if q)


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`, ascending.

    Stars and bars: the parts are the gaps between parts - 1 bars placed among
    total + parts - 1 slots, and the bar positions come in ascending order.
    """
    if parts <= 0:
        raise ValueError("need at least one part")
    slots = total + parts - 1
    for bars in combinations(range(slots), parts - 1):
        edges = (-1,) + bars + (slots,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def block_count_vectors(m: int) -> Iterator[tuple[int, ...]]:
    """All (k_1, ..., k_m) with sum(i * k_i) == m, lexicographically ascending.

    k_i is the number of blocks of size i, so each vector is one way to group
    m differentiations into unordered blocks.
    """
    if m < 1:
        raise ValueError("derivative order must be positive")

    def rec(i: int, rem: int) -> Iterator[tuple[int, ...]]:
        if i > m:
            if rem == 0:
                yield ()
            return
        for k in range(rem // i + 1):
            for rest in rec(i + 1, rem - i * k):
                yield (k,) + rest

    yield from rec(1, m)


@lru_cache(maxsize=None)
def chain_terms(m: int, s: int) -> tuple[ChainTerm, ...]:
    """All terms of the m-th total derivative of a function of s arguments.

    Deterministic order: block count vectors ascending, then assignments
    row-major ascending.  For s == 1 the number of terms equals the number of
    integer partitions of m and the weights are the standard one-variable
    chain-rule coefficients.
    """
    if s < 1:
        raise ValueError("need at least one inner argument")
    out = []
    fact_m = math.factorial(m)
    for k in block_count_vectors(m):
        blocks = math.prod(math.factorial(i) ** ki for i, ki in enumerate(k, start=1))
        # Assignments in row-major order: one weak composition per block size.
        for assignment in product(*(weak_compositions(ki, s) for ki in k)):
            groups = math.prod(math.factorial(q) for row in assignment for q in row)
            w, rest = divmod(fact_m, blocks * groups)
            if rest:
                raise AssertionError("chain-rule weight is not an integer")
            out.append(ChainTerm(w, assignment))
    return tuple(out)


def term_count(m: int, s: int) -> int:
    """len(chain_terms(m, s)) without enumerating: each block count vector k
    contributes prod_i C(k_i + s - 1, s - 1) assignments."""
    return sum(math.prod(math.comb(ki + s - 1, s - 1) for ki in k) for k in block_count_vectors(m))


def total_x_power(sym: FuncSym, m: int) -> Expression:
    """m-th total space derivative of a function symbol via the chain expansion."""
    if m == 0:
        return Expression.sym(sym)
    if not sym.deps:
        return ZERO
    total: dict = {}  # one polynomial, normalized once
    for term in chain_terms(m, len(sym.deps)):
        outer = sym
        for j, p in enumerate(term.outer_orders):
            for _ in range(p):
                outer = outer.bump(sym.deps[j])
        mono = mono_from_pairs([(outer, 1)] + [(sym.deps[j].dx(i), q) for i, j, q in term.inner_factors()])
        total[mono] = total.get(mono, 0) + term.weight
    return Expression(total, {(): 1})


def partition_count(m: int) -> int:
    """Number of integer partitions of m (the term count for one argument)."""
    return len(chain_terms(m, 1))


def extension_leibniz(
    law: BalanceLaw, k: int, fields: Iterable[str], state_vars: Iterable[JetVariable]
) -> Expression:
    """Gradient extension computed by binomial expansion instead of iteration.

    Valid when the density depends on the fields alone and the flux and
    production close over the state variables; used as a cross-check on
    `BalanceLaw.extension`.
    """
    fields = tuple(fields)
    state_vars = tuple(state_vars)
    out = -law.production
    for _ in range(k):
        out = out.total_x()
    for f in fields:
        u = JetVariable(f, 0, 0)
        coeff = law.density.diff(u)
        if coeff.is_zero:
            continue
        for h in range(k + 1):
            c = coeff
            for _ in range(h):
                c = c.total_x()
            out = out + Expression.number(math.comb(k, h)) * c * Expression.jet(
                JetVariable(f, 1, k - h)
            )
    for z in state_vars:
        coeff = law.flux.diff(z)
        if coeff.is_zero:
            continue
        for h in range(k + 1):
            c = coeff
            for _ in range(h):
                c = c.total_x()
            out = out + Expression.number(math.comb(k, h)) * c * Expression.jet(
                z.dx(k - h + 1)
            )
    return out


def _arg_names(s: int) -> tuple[str, ...]:
    return ("w",) if s == 1 else tuple(f"w{j + 1}" for j in range(s))


def expansion_json_dict(m: int, s: int, verify: bool = False) -> dict:
    """The record `liukit fdb` prints: the m-th total derivative of F(w1, ..., ws).
    With `verify`, "verify" says whether iterating `total_x` m times gives the same."""
    sym = FuncSym("F", tuple(JetVariable(n) for n in _arg_names(s)))
    expansion = total_x_power(sym, m)
    terms = chain_terms(m, s)
    record = {
        "m": m,
        "s": s,
        "count": len(terms),
        "partitions": partition_count(m),
        "expression": to_text(expansion),
        "terms": [
            {
                "weight": t.weight,
                "outerOrders": list(t.outer_orders),
                "innerFactors": [list(f) for f in t.inner_factors()],
            }
            for t in terms
        ],
    }
    if verify:
        iterated = Expression.sym(sym)
        for _ in range(m):
            iterated = iterated.total_x()
        record["verify"] = "MATCH" if (expansion - iterated).is_zero else "MISMATCH"
    return record


def format_expansion(record: dict) -> str:
    """The text form of `expansion_json_dict`'s record."""
    m = record["m"]
    power = f"^{m}" if m > 1 else ""
    lines = [
        f"terms: {record['count']}    partitions of {m}: {record['partitions']}",
        f"D{power}[F({', '.join(_arg_names(record['s']))})] = {record['expression']}",
    ]
    return "\n".join(lines + ([record["verify"]] if "verify" in record else [])) + "\n"
