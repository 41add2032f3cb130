"""Record semantics: immutable value objects, without generated classes.

Plain records are named tuples; the atoms, the state space and the model
are small hand-written classes.  Either way, construction by keyword, value
equality and hash, immutability, repr and copying behave as they always did.
"""
from __future__ import annotations

import copy
import os
import pickle

import pytest

from liukit.balance import BalanceLaw, ModelError, ModelSpec
from liukit.checker import CandidateSolution, ConcavityResult
from liukit.expr import Expression, FuncSym, ZERO
from liukit.jet import JetVariable, StateSpace
from liukit.liu import ConstraintSelection, DecoupledRow, Equality, derive
from liukit.modelfile import load_model
from liukit.models import load_builtin

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RHO = JetVariable("rho")
EPS_X = JetVariable("eps", 0, 1)


class TestAtoms:
    def test_equal_jets_built_apart_share_hash_and_id(self):
        a, b = JetVariable("rho", 0, 1), JetVariable(field="rho", x_order=1)
        assert a is not b
        assert a == b and hash(a) == hash(b) and a.id == b.id
        assert a != JetVariable("rho", 1, 0) and a != "rho_x"

    def test_equal_symbols_built_apart_share_hash_and_id(self):
        a = FuncSym("T", (RHO, EPS_X), (1, 0))
        b = FuncSym("T", (EPS_X, RHO), (0, 1))  # dependencies are kept sorted
        assert a is not b
        assert a == b and hash(a) == hash(b) and a.id == b.id
        assert a != FuncSym("T", (RHO, EPS_X))

    def test_repr(self):
        assert repr(EPS_X) == "Jet(eps_x)"
        assert repr(FuncSym("T", (RHO, EPS_X), (1, 0))) == "Sym(D(T, rho))"

    @pytest.mark.parametrize("obj", [RHO, FuncSym("T", (RHO,)), StateSpace(0, (RHO,))])
    def test_immutable(self, obj):
        with pytest.raises(AttributeError):
            obj.id = 5
        with pytest.raises(AttributeError):
            obj.extra = 5
        with pytest.raises(AttributeError):
            delattr(obj, obj.__slots__[0])

    @pytest.mark.parametrize(
        "obj", [EPS_X, FuncSym("T", (RHO, EPS_X), (2, 1)), StateSpace(1, (RHO, JetVariable("rho", 0, 1)))]
    )
    def test_copies_are_equal(self, obj):
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert twin == obj and hash(twin) == hash(obj)

    def test_state_space_value_semantics(self):
        a = StateSpace(1, [RHO, JetVariable("rho", 0, 1)])
        b = StateSpace(order=1, members=(JetVariable("rho", 0, 1), RHO))
        assert a == b and hash(a) == hash(b)
        assert a != (1, a.members)
        assert repr(StateSpace(0, [RHO])) == "StateSpace(order=0, members=frozenset({Jet(rho)}))"


class TestNamedRecords:
    def test_repr(self):
        sel = ConstraintSelection("pruned", ((1, 0), (1, 1)))
        assert repr(sel) == "ConstraintSelection(mode='pruned', entries=((1, 0), (1, 1)))"
        eq = Equality(label="coefficient of rho_t", expr=Expression.jet(RHO))
        assert repr(eq) == "Equality(label='coefficient of rho_t', expr=<expr rho>)"

    def test_keywords_defaults_equality_and_hash(self):
        law = BalanceLaw(name="mass", density=Expression.jet(RHO), flux=ZERO)
        assert law.production == ZERO
        twin = BalanceLaw("mass", Expression.jet(RHO), ZERO, ZERO)
        assert law == twin and hash(law) == hash(twin)

    def test_immutable_and_copied_by_replace(self):
        res = ConcavityResult("confirmed", "ok")
        with pytest.raises(AttributeError):
            res.outcome = "refuted"
        other = res._replace(outcome="refuted")
        assert (res.outcome, other.outcome, other.detail) == ("confirmed", "refuted", "ok")
        assert type(other) is ConcavityResult

    def test_index_field_is_the_row_number(self):
        row = DecoupledRow(2, "rho", "mass", Expression.number(1), ZERO)
        assert row.index == 2

    def test_candidate_copies_do_not_share_cached_substitutions(self):
        sol = CandidateSolution((), (), (), ())
        first = sol.binding_substitution
        assert sol.binding_substitution is first
        twin = sol._replace(conditions=())
        assert type(twin) is CandidateSolution and twin == sol
        assert twin.binding_substitution is not first
        with pytest.raises(AttributeError):
            sol.bindings = ()
        with pytest.raises(AttributeError):
            sol.extra = 1


class TestModelSpecValidation:
    def test_valid_model_copies(self, korteweg_model):
        assert korteweg_model._replace(name="other").name == "other"
        assert copy.copy(korteweg_model) == korteweg_model
        assert type(korteweg_model._replace()) is ModelSpec

    def test_construction_validates(self, korteweg_model):
        fields = list(korteweg_model)
        fields[1] = ()
        with pytest.raises(ModelError, match="at least one field"):
            ModelSpec(*fields)
        with pytest.raises(ModelError, match="velocity"):
            ModelSpec(**{**korteweg_model._asdict(), "velocity": "w"})

    def test_every_copy_path_validates(self, korteweg_model):
        with pytest.raises(ModelError, match="balance laws"):
            korteweg_model._replace(laws=korteweg_model.laws[:1])
        with pytest.raises(ModelError, match="duplicate field"):
            ModelSpec._make((korteweg_model.name, ("rho", "rho", "v"), *korteweg_model[2:]))

    def test_repeated_field_is_named(self, korteweg_model):
        with pytest.raises(ModelError, match="^duplicate field name 'eps'$"):
            korteweg_model._replace(fields=("rho", "eps", "v", "eps"))

    def test_a_model_is_its_declarations(self):
        assert ModelSpec._fields == ("name", "fields", "velocity", "space", "laws", "entropy", "unknowns")


def _load(source: str) -> ModelSpec:
    if source.endswith(".model"):
        return load_model(os.path.join(ROOT, "bench", "fixtures", source))
    return load_builtin(source)


@pytest.mark.parametrize("source", ["grade2", "korteweg", "korteweg-eps2.model", "korteweg-o3.model"])
def test_two_parses_give_equal_models_and_reports(source):
    a, b = _load(source), _load(source)
    assert a == b and hash(a) == hash(b)
    assert derive(a) == derive(b)
