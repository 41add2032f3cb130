"""Sectioned text formats for models and candidate solutions."""
from __future__ import annotations

import os
import re

import pytest

from liukit.checker import DEFAULT_SAMPLES, DEFAULT_TOL
from liukit.expr import ZERO, parse
from liukit.jet import JetVariable
from liukit.modelfile import (
    FileFormatError,
    load_model,
    parse_jet_name,
    parse_model,
    parse_solution,
)

U = JetVariable("u")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MODEL_TEXT = """\
# one conservation law on a gradient-free state space
[fields]
fields = u

[state]
order = 0
vars = u

[unknowns]
s(u)
Js(u)

[balance mass]
density = u
flux = u^2/2
  + u - u

[entropy]
form = divergence
density = s
flux = Js
"""

SOLUTION_TEXT = """\
[ansatz]
a(u)
k

[bindings]
s = a
Js = u*a + k  # trailing comment

[conditions]
drift: k = 0
grow: a >= 0
shrink: u*a <= 0

[scenario basic]
samples = 12
seed = 9
tol = 1e-8
expect = violate
range u = 0.5 .. 2
let D(a, u) = 1/u
let k = 0

[scenario defaults]
let a = 1
let k = 0
"""


def _model():
    return parse_model(MODEL_TEXT, "local")


def _raises(text: str, message: str, model=None):
    with pytest.raises(FileFormatError, match=re.escape(message)):
        if model is None:
            parse_model(text, "bad")
        else:
            parse_solution(text, model)


class TestModelParsing:
    def test_shape(self):
        m = _model()
        assert m.name == "local"
        assert m.fields == ("u",)
        assert m.velocity is None
        assert m.space.order == 0
        assert tuple(m.space.members) == (U,)
        assert [u.name for u in m.unknowns] == ["s", "Js"]
        assert m.source_text == MODEL_TEXT

    def test_comments_and_continuations(self):
        m = _model()
        law = m.laws[0]
        assert law.name == "mass"
        assert (law.flux - parse("1/2*u^2", m.ctx)).is_zero
        assert law.production == ZERO

    def test_entropy_defaults(self):
        m = _model()
        assert m.entropy.form == "divergence"
        assert m.entropy.weight == parse("1", m.ctx)

    def test_production_entry(self):
        text = MODEL_TEXT.replace(
            "flux = u^2/2\n  + u - u", "flux = u^2/2\nproduction = u^2"
        )
        m = parse_model(text, "local")
        assert (m.laws[0].production - parse("u^2", m.ctx)).is_zero

    def test_jet_name_parsing(self):
        assert parse_jet_name("u_xx", {"u"}, 1) == JetVariable("u", 0, 2)
        with pytest.raises(FileFormatError, match="not a declared field"):
            parse_jet_name("w", {"u"}, 1)
        with pytest.raises(FileFormatError, match="spatial suffixes"):
            parse_jet_name("u_t", {"u"}, 1)


class TestModelErrors:
    def test_leading_continuation(self):
        _raises("  dangling\n[fields]\nfields = u\n", "continuation with nothing to continue")

    def test_malformed_header(self):
        _raises("[fields!]\nfields = u\n", "malformed section header")

    def test_content_before_header(self):
        _raises("fields = u\n[fields]\n", "content before any section header")

    def test_missing_section(self):
        _raises(
            MODEL_TEXT.replace("[state]\norder = 0\nvars = u\n", ""),
            "expected exactly one [state]",
        )

    def test_duplicate_section(self):
        _raises(MODEL_TEXT + "\n[entropy]\ndensity = s\n", "line 23: second [entropy] section, after line 18")

    def test_fields_entry_required(self):
        _raises(MODEL_TEXT.replace("fields = u", "velocity = u"), "needs a 'fields' entry")

    def test_bad_field_name(self):
        _raises(MODEL_TEXT.replace("fields = u", "fields = 2u"), "plain identifier")

    def test_unknown_velocity(self):
        _raises(
            MODEL_TEXT.replace("fields = u", "fields = u\nvelocity = w"),
            "velocity 'w' is not a field",
        )

    def test_state_needs_order_and_vars(self):
        _raises(MODEL_TEXT.replace("order = 0\n", ""), "[state] needs 'order' and 'vars'")

    def test_order_must_be_integer(self):
        _raises(MODEL_TEXT.replace("order = 0", "order = half"), "order must be an integer")

    def test_state_var_of_unknown_field(self):
        _raises(MODEL_TEXT.replace("vars = u", "vars = u, w"), "'w' is not a declared field")

    def test_state_var_with_time_suffix(self):
        _raises(MODEL_TEXT.replace("vars = u", "vars = u, u_t"), "spatial suffixes")

    def test_unknown_needs_dependencies(self):
        _raises(MODEL_TEXT.replace("s(u)", "s"), "'s' needs state dependencies")

    def test_balance_needs_name(self):
        _raises(MODEL_TEXT.replace("[balance mass]", "[balance]"), "balance sections need a name")

    def test_balance_needs_density(self):
        _raises(MODEL_TEXT.replace("density = u\n", ""), "needs a density")

    def test_unknown_balance_entry(self):
        _raises(
            MODEL_TEXT.replace("density = u", "density = u\nspeed = 3"),
            "line 15: unknown entry 'speed' in [balance mass]",
        )

    def test_key_value_shape(self):
        _raises(MODEL_TEXT.replace("fields = u", "fields"), "expected 'key = value'")

    def test_duplicate_key(self):
        _raises(
            MODEL_TEXT.replace("order = 0", "order = 0\norder = 1"),
            "duplicate key 'order'",
        )

    def test_entropy_needs_density(self):
        _raises(MODEL_TEXT.replace("density = s\n", ""), "[entropy] needs a density")

    def test_expression_errors_carry_line_numbers(self):
        with pytest.raises(FileFormatError, match=r"line 14:"):
            parse_model(MODEL_TEXT.replace("density = u", "density = u +"), "bad")

    @pytest.mark.parametrize(
        "flux, message",
        [
            ("u^2/0", "line 15: division by a zero expression"),
            ("u^2/(u - u)", "line 15: division by a zero expression"),
            ("0^-1", "line 15: zero raised to a negative power"),
        ],
    )
    def test_zero_divisor_is_a_line_error(self, flux, message):
        _raises(MODEL_TEXT.replace("flux = u^2/2", f"flux = {flux}"), message)

    def test_malformed_declaration(self):
        _raises(MODEL_TEXT.replace("s(u)", "s(u"), "malformed declaration")

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("fields = u", "fields = u\nfeilds = u", "line 4: unknown entry 'feilds' in [fields]"),
            ("order = 0", "order = 0\nvar = u", "line 7: unknown entry 'var' in [state]"),
            ("density = s", "density = s\nwieght = u", "line 21: unknown entry 'wieght' in [entropy]"),
        ],
    )
    def test_unknown_entry(self, old, new, message):
        _raises(MODEL_TEXT.replace(old, new), message)

    def test_unknown_section(self):
        _raises(
            MODEL_TEXT.replace("[entropy]", "[entropi]"),
            "line 18: unknown section [entropi] in a model file",
        )

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("Js(u)", "Js(u)\ns(u)", "line 12: constitutive unknown 's' is declared twice"),
            ("Js(u)", "Js(u)\nJs", "line 12: constitutive unknown 'Js' is declared twice"),
            ("Js(u)", "Js(u)\nu(u)", "line 12: 'u' is already a field"),
            ("Js(u)", "Js(u)\nD(u)", "line 12: identifier 'D' is reserved for derivatives"),
            ("fields = u", "fields = u, D", "line 3: identifier 'D' is reserved for derivatives"),
        ],
        ids=["repeated", "repeated-without-dependencies", "field", "reserved", "reserved-field"],
    )
    def test_declaration_errors(self, old, new, message):
        with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
            parse_model(MODEL_TEXT.replace(old, new, 1), "bad")


@pytest.mark.parametrize(
    "path",
    [
        os.path.join(ROOT, "src", "liukit", "models", "grade2.model"),
        os.path.join(ROOT, "src", "liukit", "models", "korteweg.model"),
        os.path.join(ROOT, "bench", "fixtures", "korteweg-eps2.model"),
        os.path.join(ROOT, "bench", "fixtures", "korteweg-o3.model"),
    ],
    ids=os.path.basename,
)
def test_shipped_models_use_only_known_entries(path):
    assert load_model(path).laws


class TestSolutionParsing:
    def test_inventory(self):
        m = _model()
        sol = parse_solution(SOLUTION_TEXT, m)
        assert [a.name for a in sol.ansatz] == ["a", "k"]
        assert sol.ansatz[0].deps == (U,)
        assert sol.ansatz[1].deps == ()
        assert [sym.name for sym, _ in sol.bindings] == ["s", "Js"]
        assert [(c.name, c.kind) for c in sol.conditions] == [
            ("drift", "eq"), ("grow", "ge"), ("shrink", "le")
        ]

    def test_scenario_entries(self):
        m = _model()
        sc = parse_solution(SOLUTION_TEXT, m).scenarios[0]
        assert (sc.name, sc.samples, sc.seed, sc.tol, sc.expect) == (
            "basic", 12, 9, 1e-8, "violate"
        )
        assert sc.ranges == ((U, 0.5, 2.0),)
        assert len(sc.lets) == 2
        atom = sc.lets[0][0]
        assert atom.name == "a" and atom.orders == (1,)

    def test_scenario_defaults(self):
        m = _model()
        sc = parse_solution(SOLUTION_TEXT, m).scenarios[1]
        assert (sc.samples, sc.seed, sc.tol, sc.expect) == (
            DEFAULT_SAMPLES, 0, DEFAULT_TOL, "pass"
        )
        assert sc.ranges == ()

    def test_binding_targets_are_model_symbols(self):
        m = _model()
        sol = parse_solution(SOLUTION_TEXT, m)
        assert sol.bindings[0][0] == m.unknown("s")
        assert sol.bindings[1][0] == m.unknown("Js")


class TestSolutionErrors:
    def _raises(self, mutate, message):
        m = _model()
        _raises(mutate(SOLUTION_TEXT), message, model=m)

    def test_unknown_section(self):
        self._raises(lambda t: t + "\n[stuff]\nx = 1\n", "unknown section [stuff]")

    def test_binding_needs_equals(self):
        self._raises(lambda t: t.replace("s = a", "s a"), "line 6: expected 'key = value' in [bindings]")

    def test_binding_unknown_target(self):
        self._raises(
            lambda t: t.replace("s = a", "w = a"),
            "'w' is not a constitutive unknown",
        )

    def test_zero_divisor_is_a_line_error(self):
        self._raises(lambda t: t.replace("s = a", "s = a/0"), "line 6: division by a zero expression")

    def test_condition_needs_colon(self):
        self._raises(lambda t: t.replace("drift: k = 0", "drift k = 0"), "expected 'name: statement'")

    def test_condition_bad_name(self):
        self._raises(lambda t: t.replace("drift:", "2bad:"), "bad condition name")

    def test_sign_condition_against_zero_only(self):
        self._raises(
            lambda t: t.replace("grow: a >= 0", "grow: a >= 1"),
            "sign conditions must compare against 0",
        )

    def test_condition_needs_an_operator(self):
        self._raises(lambda t: t.replace("drift: k = 0", "drift: k"), "condition needs")

    def test_equality_lhs_must_be_an_atom(self):
        self._raises(
            lambda t: t.replace("drift: k = 0", "drift: k + a = 0"),
            "left side must be a single variable",
        )

    def test_scenario_needs_name(self):
        self._raises(lambda t: t.replace("[scenario basic]", "[scenario]"), "scenario sections need a name")

    def test_range_bad_bounds(self):
        self._raises(
            lambda t: t.replace("range u = 0.5 .. 2", "range u = low .. 2"),
            "malformed range bounds",
        )

    @pytest.mark.parametrize("bounds", ["nan .. 2", "0.5 .. nan", "-inf .. inf", "0.5 .. inf", "inf .. inf"])
    def test_range_bounds_must_be_finite(self, bounds):
        # A NaN or infinite bound makes every sampled point NaN or inf.
        self._raises(
            lambda t: t.replace("range u = 0.5 .. 2", f"range u = {bounds}"),
            "range bounds for u must be finite",
        )

    def test_range_must_be_nonempty(self):
        self._raises(
            lambda t: t.replace("range u = 0.5 .. 2", "range u = 2 .. 0.5"),
            "empty range for u",
        )

    def test_range_unknown_field(self):
        self._raises(
            lambda t: t.replace("range u = 0.5 .. 2", "range w = 0 .. 1"),
            "'w' is not a declared field",
        )

    def test_let_lhs_must_be_an_atom(self):
        self._raises(
            lambda t: t.replace("let k = 0\n\n[scenario defaults]", "let k + a = 0\n\n[scenario defaults]"),
            "left side must be a single variable",
        )

    def test_bad_scenario_number(self):
        self._raises(lambda t: t.replace("samples = 12", "samples = many"), "line 15: samples must be an integer")

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_scenario_samples_must_be_positive(self, value):
        self._raises(
            lambda t: t.replace("samples = 12", f"samples = {value}"),
            f"line 15: samples must be at least 1, got {value}",
        )

    @pytest.mark.parametrize("value", ["nan", "-1e-9", "inf"])
    def test_scenario_tol_must_be_finite_and_nonnegative(self, value):
        self._raises(
            lambda t: t.replace("tol = 1e-8", f"tol = {value}"),
            "line 17: tol must be finite and nonnegative",
        )

    def test_bad_expect_value(self):
        self._raises(lambda t: t.replace("expect = violate", "expect = maybe"), "expect must be 'pass' or 'violate'")

    def test_unknown_scenario_entry(self):
        self._raises(lambda t: t.replace("seed = 9", "sneed = 9"), "line 16: unknown entry 'sneed' in [scenario basic]")

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("samples = 12", "samples = 12\nsamples = 3", "line 16: duplicate key 'samples' in [scenario basic]"),
            ("seed = 9", "seed = 9\nseed = 9", "line 17: duplicate key 'seed' in [scenario basic]"),
            ("tol = 1e-8", "tol = 1e-8\ntol = 1e-6", "line 18: duplicate key 'tol' in [scenario basic]"),
            ("expect = violate", "expect = violate\nexpect = pass", "line 19: duplicate key 'expect' in [scenario basic]"),
            ("range u = 0.5 .. 2", "range u = 0.5 .. 2\nrange u = 1 .. 3", "line 20: duplicate range for u in [scenario basic]"),
            ("let D(a, u) = 1/u", "let D(a, u) = 1/u\nlet D(a, u) = 2", "line 21: duplicate let for D(a, u) in [scenario basic]"),
        ],
        ids=["samples", "seed", "tol", "expect", "range", "let"],
    )
    def test_repeated_scenario_entry(self, old, new, message):
        self._raises(lambda t: t.replace(old, new), message)

    def test_same_entry_in_two_scenarios_is_not_a_repeat(self):
        sol = parse_solution(SOLUTION_TEXT.replace("[scenario defaults]", "[scenario defaults]\nseed = 9"), _model())
        assert [s.seed for s in sol.scenarios] == [9, 9]

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("k\n", "k\na(u)\n", "line 4: ansatz 'a' is declared twice"),
            ("k\n", "k\ns(u)\n", "line 4: ansatz 's' is a constitutive unknown of the model"),
            ("k\n", "k\nJs\n", "line 4: ansatz 'Js' is a constitutive unknown of the model"),
            ("k\n", "k\nu\n", "line 4: 'u' is already a field"),
            ("k\n", "k\nD\n", "line 4: identifier 'D' is reserved for derivatives"),
        ],
        ids=["repeated", "unknown", "unknown-redeclared", "field", "reserved"],
    )
    def test_ansatz_declaration_errors(self, old, new, message):
        with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
            parse_solution(SOLUTION_TEXT.replace(old, new, 1), _model())

    def test_duplicate_bindings_section(self):
        self._raises(
            lambda t: t + "\n[bindings]\ns = a\n",
            "line 27: second [bindings] section, after line 5",
        )
