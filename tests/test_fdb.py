"""Chain-expansion combinatorics for iterated total derivatives."""
from __future__ import annotations

import math

import pytest

from liukit.expr import Expression, FuncSym, ZERO
from liukit.fdb import (
    block_count_vectors,
    chain_terms,
    partition_count,
    term_count,
    total_x_power,
    weak_compositions,
)
from liukit.jet import JetVariable


def _sym(s: int) -> FuncSym:
    names = ("w",) if s == 1 else tuple(f"w{i + 1}" for i in range(s))
    return FuncSym("F", tuple(JetVariable(n) for n in names))


class TestWeakCompositions:
    def test_small_enumeration(self):
        assert list(weak_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
        assert list(weak_compositions(0, 3)) == [(0, 0, 0)]

    @pytest.mark.parametrize("total,parts", [(0, 1), (3, 2), (4, 3), (5, 4)])
    def test_count_is_stars_and_bars(self, total, parts):
        got = list(weak_compositions(total, parts))
        assert len(got) == math.comb(total + parts - 1, parts - 1)
        assert len(set(got)) == len(got)
        assert all(sum(c) == total for c in got)

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            list(weak_compositions(2, 0))


class TestBlockCountVectors:
    def test_small_enumeration(self):
        assert list(block_count_vectors(3)) == [(0, 0, 1), (1, 1, 0), (3, 0, 0)]

    @pytest.mark.parametrize("m", range(1, 9))
    def test_vectors_encode_partitions(self, m):
        vecs = list(block_count_vectors(m))
        assert all(sum((i + 1) * k for i, k in enumerate(v)) == m for v in vecs)
        assert len(set(vecs)) == len(vecs)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            list(block_count_vectors(0))


class TestChainTerms:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_term_count_matches_enumeration(self, m):
        assert [term_count(m, s) for s in range(1, 5)] == [len(chain_terms(m, s)) for s in range(1, 5)]

    @pytest.mark.parametrize(
        "m,count", [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11), (7, 15), (8, 22)]
    )
    def test_single_argument_term_count_is_partition_count(self, m, count):
        assert len(chain_terms(m, 1)) == count
        assert partition_count(m) == count

    def test_classical_weights_order_three(self):
        assert sorted(t.weight for t in chain_terms(3, 1)) == [1, 1, 3]

    def test_classical_weights_order_four(self):
        assert sorted(t.weight for t in chain_terms(4, 1)) == [1, 1, 3, 4, 6]

    @pytest.mark.parametrize("m,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_weight_sum_counts_set_partitions(self, m, bell):
        assert sum(t.weight for t in chain_terms(m, 1)) == bell

    def test_two_arguments_order_two(self):
        assert len(chain_terms(2, 2)) == 5

    @pytest.mark.parametrize("m,s", [(1, 1), (3, 2), (4, 3), (5, 2)])
    def test_every_term_consumes_all_differentiations(self, m, s):
        for t in chain_terms(m, s):
            assert t.order == m
            assert len(t.outer_orders) == s
            assert sum(t.outer_orders) == sum(q for _, _, q in t.inner_factors())

    def test_deterministic_and_cached(self):
        a = chain_terms(4, 2)
        b = chain_terms(4, 2)
        assert a is b
        assert a == tuple(a)

    def test_rejects_nonpositive_arity(self):
        with pytest.raises(ValueError):
            chain_terms(2, 0)


class TestTotalXPower:
    def test_order_zero_is_identity(self):
        sym = _sym(1)
        assert total_x_power(sym, 0) == Expression.sym(sym)

    def test_constant_symbol_differentiates_to_zero(self):
        const = FuncSym("c", ())
        assert total_x_power(const, 3) == ZERO

    @pytest.mark.parametrize("m,s", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
    def test_matches_iterated_total_derivative(self, m, s):
        sym = _sym(s)
        iterated = Expression.sym(sym)
        for _ in range(m):
            iterated = iterated.total_x()
        assert (total_x_power(sym, m) - iterated).is_zero

    def test_second_derivative_shape(self):
        sym = _sym(1)
        w = JetVariable("w")
        expected = (
            Expression.sym(sym.bump(w).bump(w)) * Expression.jet(w.dx()) ** 2
            + Expression.sym(sym.bump(w)) * Expression.jet(w.dx(2))
        )
        assert (total_x_power(sym, 2) - expected).is_zero
