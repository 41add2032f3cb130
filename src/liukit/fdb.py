"""Combinatorics of repeated total derivatives of composite functions.

`chain_terms(m, s)` enumerates the terms of the m-th total derivative of a
function of s inner arguments, each term described by how the m elementary
differentiations are grouped into inner-derivative blocks and how the blocks
are assigned to arguments.  The integer weights are the multinomial counts of
those groupings.  `total_x_power` applies the expansion to a function symbol,
which gives an independent cross-check against iterating the total-derivative
operator of the expression kernel.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from .expr import ZERO, Expression, ExprError, FuncSym


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
        if not self.assignment:
            return ()
        return tuple(sum(col) for col in zip(*self.assignment))

    def inner_factors(self) -> tuple[tuple[int, int, int], ...]:
        """Sorted (derivative order, argument index, multiplicity) triples."""
        out = []
        for i, row in enumerate(self.assignment, start=1):
            for j, q in enumerate(row):
                if q:
                    out.append((i, j, q))
        return tuple(out)


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`, ascending."""
    if parts <= 0:
        raise ValueError("need at least one part")
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in weak_compositions(total - first, parts - 1):
            yield (first,) + rest


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
        base = Fraction(fact_m)
        for i, ki in enumerate(k, start=1):
            base /= Fraction(math.factorial(i)) ** ki
        rows = []
        for ki in k:
            rows.append(list(weak_compositions(ki, s)))
        # cartesian product in row-major order
        idx = [0] * len(rows)
        while True:
            assignment = tuple(tuple(rows[i][idx[i]]) for i in range(len(rows)))
            w = base
            for row in assignment:
                for q in row:
                    w /= math.factorial(q)
            if w.denominator != 1:
                raise AssertionError("chain-rule weight is not an integer")
            out.append(ChainTerm(int(w), assignment))
            pos = len(rows) - 1
            while pos >= 0:
                idx[pos] += 1
                if idx[pos] < len(rows[pos]):
                    break
                idx[pos] = 0
                pos -= 1
            if pos < 0:
                break
    return tuple(out)


def total_x_power(sym: FuncSym, m: int) -> Expression:
    """m-th total space derivative of a function symbol via the chain expansion."""
    if m == 0:
        return Expression.sym(sym)
    if not sym.deps:
        return ZERO
    total = ZERO
    for term in chain_terms(m, len(sym.deps)):
        outer = sym
        for j, p in enumerate(term.outer_orders):
            for _ in range(p):
                outer = outer.bump(sym.deps[j])
        e = Expression.number(term.weight) * Expression.sym(outer)
        for i, j, q in term.inner_factors():
            e = e * Expression.jet(sym.deps[j].dx(i)) ** q
        total = total + e
    return total


def partition_count(m: int) -> int:
    """Number of integer partitions of m (the term count for one argument)."""
    return len(chain_terms(m, 1))
