"""Balance laws of a 1-D continuum and their gradient extensions.

A model couples a square first-order system of balance laws

    d/dt density_i + d/dx flux_i - production_i = 0

with an entropy density and entropy flux defined on a gradient state space.
The gradient extension of order k of a law is its k-fold total space
derivative; appending extensions to the constraint set is what distinguishes
the extended exploitation procedure from the classical one.
"""
from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .jet import JetVariable, StateSpace
from .expr import Expression, FuncSym, ParseContext, ZERO


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

    def extension(self, k: int) -> Expression:
        """k-fold total space derivative of the residual."""
        e = self.residual()
        for _ in range(k):
            e = e.total_x()
        return e


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
    ctx: ParseContext
    source_text: str = ""


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
    base = {JetVariable(f, 0, 0) for f in m.fields}
    state = set(m.space.members)
    unames = {u.name for u in m.unknowns}
    for law in m.laws:
        for a in law.density.atoms():
            if not (isinstance(a, JetVariable) and a in base):
                raise ModelError(
                    f"law {law.name!r}: density must depend on the fields alone, found {a.text()}"
                )
        for part, label in ((law.flux, "flux"), (law.production, "production")):
            for a in part.atoms():
                if isinstance(a, JetVariable):
                    if a not in state and a not in base:
                        raise ModelError(
                            f"law {law.name!r}: {label} uses {a.text()}, which is neither a field nor a state variable"
                        )
                else:
                    if a.name not in unames:
                        raise ModelError(
                            f"law {law.name!r}: {label} uses undeclared function symbol {a.name!r}"
                        )
    for u in m.unknowns:
        for d in u.deps:
            if d not in state:
                raise ModelError(
                    f"unknown {u.name!r} depends on {d.text()}, which is not a state variable"
                )
    for part, label in ((m.entropy.density, "entropy density"), (m.entropy.flux, "entropy flux")):
        for a in part.atoms():
            if isinstance(a, JetVariable):
                if a not in state:
                    raise ModelError(f"{label} uses {a.text()}, which is not a state variable")
            elif a.name not in unames:
                raise ModelError(f"{label} uses undeclared function symbol {a.name!r}")


def entropy_production(model: ModelSpec) -> Expression:
    """The unconstrained entropy production demanded to be nonnegative."""
    ent = model.entropy
    s = ent.density
    if ent.form == "material":
        v = Expression.jet(JetVariable(model.velocity, 0, 0))
        return ent.weight * (s.total_t() + v * s.total_x()) + ent.flux.total_x()
    return s.total_t() + ent.flux.total_x()
