"""Balance laws of a 1-D continuum and their gradient extensions.

A model couples a square first-order system of balance laws

    d/dt density_i + d/dx flux_i - production_i = 0

with an entropy density and entropy flux defined on a gradient state space.
The gradient extension of order k of a law is its k-fold total space
derivative; appending extensions to the constraint set is what distinguishes
the extended exploitation procedure from the classical one.
"""
from __future__ import annotations

from typing import NamedTuple

from .jet import JetVariable, StateSpace
from .expr import Expression, FuncSym, ZERO


class ModelError(ValueError):
    pass


class BalanceLaw(NamedTuple):
    """One balance law: time-rate density, space flux, production."""

    name: str
    density: Expression
    flux: Expression
    production: Expression = ZERO

    def residual(self) -> Expression:
        return self.density.total_t() + self.flux.total_x() - self.production


class EntropyDeclaration(NamedTuple):
    """Entropy density and flux with the chosen form of the production.

    form "material": production = weight * (Dt s + velocity * Dx s) + Dx flux,
    the density s being entropy per unit of whatever the weight measures.
    form "divergence": production = Dt s + Dx flux, the flux holding the whole
    entropy current.
    """

    form: str
    density: Expression
    flux: Expression
    weight: Expression


class _ModelFields(NamedTuple):
    name: str
    fields: tuple[str, ...]
    velocity: str | None
    space: StateSpace
    laws: tuple[BalanceLaw, ...]
    entropy: EntropyDeclaration
    unknowns: tuple[FuncSym, ...]


class ModelSpec(_ModelFields):
    """A validated model: every way to build one, copies included, runs the checks."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _validate_model(self)
        return self

    @classmethod
    def _make(cls, iterable):
        # `_replace` copies through `_make`, which would skip `__new__`.
        return cls(*iterable)

    def unknown(self, name: str) -> FuncSym:
        for u in self.unknowns:
            if u.name == name:
                return u
        raise ModelError(f"no constitutive unknown named {name!r}")


def _validate_model(m: ModelSpec) -> None:
    if not m.fields:
        raise ModelError("a model needs at least one field")
    repeated = [f for i, f in enumerate(m.fields) if f in m.fields[:i]]
    if repeated:
        raise ModelError(f"duplicate field name {repeated[0]!r}")
    if len(m.laws) != len(m.fields):
        raise ModelError(
            f"{len(m.laws)} balance laws for {len(m.fields)} fields; "
            "the system must be square for the time Jacobian to be invertible"
        )
    if m.velocity is not None and m.velocity not in m.fields:
        raise ModelError(f"velocity {m.velocity!r} is not a declared field")
    if m.entropy.form not in ("material", "divergence"):
        raise ModelError(f"unknown entropy form {m.entropy.form!r}")
    if m.entropy.form == "material" and m.velocity is None:
        raise ModelError("the material entropy form needs a velocity field")
    names = set(m.fields)
    for w in m.space.sorted_members():
        if w.field not in names:
            raise ModelError(f"state variable {w.text()} is not built on a declared field")
    for label, atoms, allowed, outside in _scope_table(m):
        for a in sorted(atoms, key=lambda a: a.atom_key):
            if (a.name if isinstance(a, FuncSym) else a) not in allowed:
                raise ModelError(outside(label, a))


def _fields_only(label: str, a) -> str:
    return f"{label} must depend on the fields alone, found {a.text()}"


def _in_scope(label: str, a) -> str:
    if isinstance(a, FuncSym):
        return f"{label} uses undeclared function symbol {a.name!r}"
    return f"{label} uses {a.text()}, which is neither a field nor a state variable"


def _state_only(label: str, a) -> str:
    return f"{label} depends on {a.text()}, which is not a state variable"


def _scope_table(m: ModelSpec) -> list:
    """(label, atoms, allowed, message) for every expression the model declares.

    A law's density may use the bare fields only.  Every other expression, a
    law's flux and production and the entropy's weight, density and flux, may
    use the fields, the state variables and the declared unknowns (by name).
    An unknown depends on state variables only.  `message(label, atom)` words
    an atom outside `allowed`.
    """
    fields = frozenset(JetVariable(f) for f in m.fields)
    scope = fields | m.space.members | {u.name for u in m.unknowns}
    table = []
    for law in m.laws:
        table += [
            (f"law {law.name!r}: density", law.density.atoms(), fields, _fields_only),
            (f"law {law.name!r}: flux", law.flux.atoms(), scope, _in_scope),
            (f"law {law.name!r}: production", law.production.atoms(), scope, _in_scope),
        ]
    table += [(f"unknown {u.name!r}", u.deps, m.space.members, _state_only) for u in m.unknowns]
    ent = m.entropy
    for part, e in (("weight", ent.weight), ("density", ent.density), ("flux", ent.flux)):
        table.append((f"entropy {part}", e.atoms(), scope, _in_scope))
    return table


def entropy_production(model: ModelSpec) -> Expression:
    """The unconstrained entropy production demanded to be nonnegative."""
    ent = model.entropy
    s = ent.density
    if ent.form == "material":
        v = Expression.jet(JetVariable(model.velocity, 0, 0))
        return ent.weight * (s.total_t() + v * s.total_x()) + ent.flux.total_x()
    return s.total_t() + ent.flux.total_x()
