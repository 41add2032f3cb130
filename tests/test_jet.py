"""Jet variables, state spaces and the highest/higher classification."""
from __future__ import annotations

import pytest

from liukit.jet import (
    DerivativeClassification,
    JetVariable,
    StateSpace,
    StateSpaceError,
    classify,
    compute_hat,
)


def j(name: str) -> JetVariable:
    base, _, suffix = name.partition("_")
    t = suffix.count("t")
    x = suffix.count("x")
    return JetVariable(base, t, x)


class TestJetVariable:
    def test_text_round_trip(self):
        assert JetVariable("rho").text() == "rho"
        assert JetVariable("rho", 0, 1).text() == "rho_x"
        assert JetVariable("rho", 1, 0).text() == "rho_t"
        assert JetVariable("rho", 1, 2).text() == "rho_txx"
        assert JetVariable("v", 2, 3).text() == "v_ttxxx"

    def test_derivative_steps(self):
        a = JetVariable("eps")
        assert a.dx() == JetVariable("eps", 0, 1)
        assert a.dx(3) == JetVariable("eps", 0, 3)
        assert a.dt() == JetVariable("eps", 1, 0)
        assert a.dt().dx() == JetVariable("eps", 1, 1)

    def test_is_field(self):
        assert JetVariable("rho").is_field
        assert not JetVariable("rho", 0, 1).is_field
        assert not JetVariable("rho", 1, 0).is_field

    def test_sort_key_orders_by_field_then_derivatives(self):
        items = [j("v_x"), j("rho"), j("rho_xx"), j("eps"), j("rho_t")]
        ordered = sorted(items, key=JetVariable.sort_key)
        texts = [w.text() for w in ordered]
        assert texts.index("rho") < texts.index("rho_xx")
        assert texts.index("rho") < texts.index("rho_t")

    def test_negative_orders_rejected(self):
        with pytest.raises(StateSpaceError):
            JetVariable("rho", -1, 0)
        with pytest.raises(StateSpaceError):
            JetVariable("rho", 0, -2)

    def test_bad_field_name_rejected(self):
        with pytest.raises(StateSpaceError):
            JetVariable("2rho")
        with pytest.raises(StateSpaceError):
            JetVariable("")


class TestStateSpace:
    def test_members_and_level(self):
        sp = StateSpace(1, (j("rho"), j("eps"), j("rho_x"), j("eps_x")))
        assert j("rho") in sp
        assert j("rho_x") in sp
        assert j("rho_xx") not in sp
        assert set(sp.level(0)) == {j("rho"), j("eps")}
        assert set(sp.level(1)) == {j("rho_x"), j("eps_x")}

    def test_max_order_of(self):
        sp = StateSpace(2, (j("rho"), j("eps"), j("rho_x"), j("rho_xx"), j("v_x")))
        assert sp.max_order_of("rho") == 2
        assert sp.max_order_of("v") == 1
        assert sp.max_order_of("eps") == 0

    def test_time_derivative_members_rejected(self):
        with pytest.raises(StateSpaceError):
            StateSpace(1, (j("rho"), j("rho_t")))

    def test_order_must_cover_members(self):
        with pytest.raises(StateSpaceError):
            StateSpace(1, (j("rho"), j("rho_xx")))

    def test_order_overstated_rejected(self):
        with pytest.raises(StateSpaceError) as ei:
            StateSpace(2, (j("rho"), j("rho_x")))
        assert "no state variable of order 2" in str(ei.value)

    def test_sorted_members_deterministic(self):
        sp = StateSpace(1, (j("v_x"), j("rho"), j("rho_x"), j("eps")))
        assert sp.sorted_members() == sorted(sp.members, key=JetVariable.sort_key)


class TestHatSet:
    def test_hat_of_first_order_space(self):
        # A member belongs to the hat set when no pure spatial derivative of
        # it (up to the complementary order) is itself a state variable.
        sp = StateSpace(
            1,
            (j("rho"), j("eps"), j("gamma"), j("rho_x"), j("v_x"), j("eps_x"), j("gamma_x")),
        )
        hat = compute_hat(sp)
        assert set(hat) == {j("rho_x"), j("v_x"), j("eps_x"), j("gamma_x")}

    def test_hat_of_second_order_space(self):
        sp = StateSpace(2, (j("rho"), j("eps"), j("rho_x"), j("v_x"), j("eps_x"), j("rho_xx")))
        hat = compute_hat(sp)
        assert set(hat) == {j("rho_xx"), j("v_x"), j("eps_x")}

    def test_hat_of_local_space_is_everything(self):
        sp = StateSpace(0, (j("rho"), j("eps")))
        assert set(compute_hat(sp)) == {j("rho"), j("eps")}


class TestClassify:
    def test_first_order_space(self):
        sp = StateSpace(
            1,
            (j("rho"), j("eps"), j("gamma"), j("rho_x"), j("v_x"), j("eps_x"), j("gamma_x")),
        )
        cls = classify(sp, ["rho", "v", "eps", "gamma"])
        expected_highest = {
            j("rho_t"), j("v_t"), j("eps_t"), j("gamma_t"),
            j("rho_tx"), j("v_tx"), j("eps_tx"), j("gamma_tx"),
            j("rho_xxx"), j("v_xxx"), j("eps_xxx"), j("gamma_xxx"),
        }
        expected_higher = {j("rho_xx"), j("v_xx"), j("eps_xx"), j("gamma_xx")}
        assert cls.highest == frozenset(expected_highest)
        assert cls.higher == frozenset(expected_higher)
        assert cls.state == frozenset(sp.members)
        assert cls.hat == frozenset({j("rho_x"), j("v_x"), j("eps_x"), j("gamma_x")})

    def test_second_order_space(self):
        sp = StateSpace(2, (j("rho"), j("eps"), j("rho_x"), j("v_x"), j("eps_x"), j("rho_xx")))
        cls = classify(sp, ["rho", "v", "eps"])
        expected_highest = {
            j("rho_t"), j("v_t"), j("eps_t"),
            j("rho_tx"), j("v_tx"), j("eps_tx"),
            j("rho_txx"), j("v_txx"), j("eps_txx"),
            j("rho_xxxxx"), j("v_xxxx"), j("eps_xxxx"),
        }
        expected_higher = {
            j("v_xx"), j("eps_xx"), j("rho_xxx"), j("v_xxx"), j("eps_xxx"), j("rho_xxxx"),
        }
        assert cls.highest == frozenset(expected_highest)
        assert cls.higher == frozenset(expected_higher)

    def test_local_space_classical_split(self):
        sp = StateSpace(0, (j("u"),))
        cls = classify(sp, ["u"])
        assert cls.highest == frozenset({j("u_t"), j("u_x")})
        assert cls.higher == frozenset()

    def test_gap_in_the_state_space_is_higher(self):
        # Every free spatial jet below the top one is higher, also one under
        # the field's largest state variable.
        sp = StateSpace(2, (j("rho"), j("rho_xx")))
        cls = classify(sp, ["rho"])
        assert cls.highest == frozenset({j("rho_t"), j("rho_tx"), j("rho_txx"), j("rho_xxxxx")})
        assert cls.higher == frozenset({j("rho_x"), j("rho_xxx"), j("rho_xxxx")})
        assert cls.hat == frozenset({j("rho_xx")})

    def test_field_without_state_variables(self):
        # A field absent from the state space counts as one of top state
        # order 0; the bare field stays a parameter.
        sp = StateSpace(1, (j("rho"), j("rho_x")))
        cls = classify(sp, ["rho", "u"])
        assert cls.highest == frozenset(
            {j("rho_t"), j("rho_tx"), j("rho_xxx"), j("u_t"), j("u_tx"), j("u_xx")}
        )
        assert cls.higher == frozenset({j("rho_xx"), j("u_x")})

    def test_sorted_views_are_sorted(self):
        sp = StateSpace(2, (j("rho"), j("eps"), j("rho_x"), j("v_x"), j("eps_x"), j("rho_xx")))
        cls = classify(sp, ["rho", "v", "eps"])
        for view in (cls.sorted_highest(), cls.sorted_higher(), cls.sorted_hat()):
            assert view == sorted(view, key=JetVariable.sort_key)

    def test_classification_is_disjoint(self):
        sp = StateSpace(2, (j("rho"), j("eps"), j("rho_x"), j("v_x"), j("eps_x"), j("rho_xx")))
        cls = classify(sp, ["rho", "v", "eps"])
        assert not (cls.highest & cls.higher)
        assert not (cls.highest & cls.state)
        assert not (cls.higher & cls.state)
        assert isinstance(cls, DerivativeClassification)
