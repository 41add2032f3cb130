"""Jet variables and the classification of derivatives against a gradient state space.

A jet variable is a partial derivative of a field, identified by the field
name and the orders of time and space differentiation.  Mixed derivatives
commute by construction: there is exactly one representation per (field,
t order, x order) triple, so rho_tx and rho_xt are the same object.
"""
from __future__ import annotations

from typing import NamedTuple


class StateSpaceError(ValueError):
    """Raised when a state space or classification request is ill-formed."""


# Atom registry: every distinct atom (jet variable or function symbol) gets a
# small integer id, in creation order, and the expression kernel keys its
# monomials by these ids.  Ids are local to a process; anything that leaves
# the process is rebuilt from the atoms themselves.
_ATOM_IDS: dict = {}
ATOMS: list = []  # id -> atom


def intern_atom(a) -> int:
    """The id of `a`, registering it first if no equal atom exists yet."""
    i = _ATOM_IDS.get(a)
    if i is None:
        i = _ATOM_IDS[a] = len(ATOMS)
        ATOMS.append(a)
    return i


class Frozen:
    """Base of the hand-written immutable classes: attributes are set once, in `__init__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class JetVariable(Frozen):
    __slots__ = ("field", "t_order", "x_order", "atom_key", "id", "_hash", "_text")

    def __init__(self, field: str, t_order: int = 0, x_order: int = 0) -> None:
        if not field or not field[0].isalpha():
            raise StateSpaceError(f"invalid field name {field!r}")
        if t_order < 0 or x_order < 0:
            raise StateSpaceError(f"negative derivative order on {field!r}")
        put = object.__setattr__
        put(self, "field", field)
        put(self, "t_order", t_order)
        put(self, "x_order", x_order)
        # Jets are atoms of the expression kernel, so the hash, the canonical
        # atom ordering key, the text and the atom id are computed once, here.
        put(self, "atom_key", (0, field, t_order, x_order))
        put(self, "_hash", hash((field, t_order, x_order)))
        suffix = "t" * t_order + "x" * x_order
        put(self, "_text", field + "_" + suffix if suffix else field)
        put(self, "id", intern_atom(self))

    def __eq__(self, other):
        if other.__class__ is not JetVariable:
            return NotImplemented
        return self is other or self.atom_key == other.atom_key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild on unpickling: string hashes and atom ids differ between processes.
        return (JetVariable, (self.field, self.t_order, self.x_order))

    def dt(self) -> "JetVariable":
        return JetVariable(self.field, self.t_order + 1, self.x_order)

    def dx(self, n: int = 1) -> "JetVariable":
        return JetVariable(self.field, self.t_order, self.x_order + n)

    @property
    def is_field(self) -> bool:
        return self.t_order == 0 and self.x_order == 0

    def text(self) -> str:
        return self._text

    def sort_key(self) -> tuple:
        return (self.field, self.t_order, self.x_order)

    def __repr__(self) -> str:
        return f"Jet({self.text()})"


def jet(field: str, t: int = 0, x: int = 0) -> JetVariable:
    return JetVariable(field, t, x)


class StateSpace(Frozen):
    """A gradient state space: spatial jets of the fields up to order `order`.

    `members` holds every state variable, including the order-zero ones.
    Time derivatives never belong to a state space.
    """

    __slots__ = ("order", "members")

    def __init__(self, order: int, members) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "members", frozenset(members))
        self._validate()

    def __eq__(self, other):
        if other.__class__ is not StateSpace:
            return NotImplemented
        return (self.order, self.members) == (other.order, other.members)

    def __hash__(self) -> int:
        return hash((self.order, self.members))

    def __repr__(self) -> str:
        return f"StateSpace(order={self.order!r}, members={self.members!r})"

    def __reduce__(self):
        return (StateSpace, (self.order, self.members))

    def _validate(self) -> None:
        if self.order < 0:
            raise StateSpaceError("state space order must be nonnegative")
        if not self.members:
            raise StateSpaceError("state space is empty")
        for w in self.sorted_members():
            if w.t_order != 0:
                raise StateSpaceError(f"state variable {w.text()} carries a time derivative")
            if w.x_order > self.order:
                raise StateSpaceError(
                    f"state variable {w.text()} exceeds the declared order {self.order}"
                )
        if not self.level(self.order):
            raise StateSpaceError(
                f"no state variable of order {self.order}: declared order is overstated"
            )

    def level(self, k: int) -> frozenset[JetVariable]:
        """State variables whose spatial order is exactly k."""
        return frozenset(w for w in self.members if w.x_order == k)

    def max_order_of(self, field: str) -> int | None:
        """Largest spatial order at which `field` enters the state space."""
        orders = [w.x_order for w in self.members if w.field == field]
        return max(orders) if orders else None

    def sorted_members(self) -> list[JetVariable]:
        return sorted(self.members, key=JetVariable.sort_key)

    def __contains__(self, w: JetVariable) -> bool:
        return w in self.members


def compute_hat(space: StateSpace) -> frozenset[JetVariable]:
    """State variables none of whose proper spatial derivatives are state variables.

    A variable w of level k qualifies when d^h w / dx^h is outside the state
    space for every h = 1 .. order - k.  The top level always qualifies.
    """
    out = set()
    for w in space.members:
        k = w.x_order
        if all(w.dx(h) not in space for h in range(1, space.order - k + 1)):
            out.add(w)
    return frozenset(out)


class DerivativeClassification(NamedTuple):
    """Partition of the derivatives occurring in a constrained entropy inequality.

    Every derivative outside the state space is free.  For each field f let
    top = (largest state order of f, or 0) + r + 1.
    highest: f_t .. f_{t x^r} and f_{x^top}; they occur linearly, so their
        coefficients must vanish.
    higher: every other non-state f_{x^k}, 0 < k < top; they enter
        polynomially up to degree r + 1.
    """

    state: frozenset[JetVariable]
    highest: frozenset[JetVariable]
    higher: frozenset[JetVariable]
    hat: frozenset[JetVariable]

    def sorted_highest(self) -> list[JetVariable]:
        return sorted(self.highest, key=JetVariable.sort_key)

    def sorted_higher(self) -> list[JetVariable]:
        return sorted(self.higher, key=JetVariable.sort_key)

    def sorted_hat(self) -> list[JetVariable]:
        return sorted(self.hat, key=JetVariable.sort_key)


def classify(space: StateSpace, fields: list[str]) -> DerivativeClassification:
    """Split the free derivatives into highest and higher by the one rule above.

    Classification keys on jets, never on bare fields: a field's time jets
    are highest even when its only state variable is a gradient, as for a
    velocity, or when it has none; bare fields stay parameters.  At r = 0 the
    rule is the classical split: f_t and f_x highest, nothing higher.
    """
    for w in space.sorted_members():
        if w.field not in fields:
            raise StateSpaceError(f"state variable {w.text()} names an unknown field")
    r = space.order
    highest: set[JetVariable] = set()
    higher: set[JetVariable] = set()
    for f in fields:
        top = (space.max_order_of(f) or 0) + r + 1
        highest.update(JetVariable(f, 1, k) for k in range(r + 1))
        highest.add(JetVariable(f, 0, top))
        higher.update(JetVariable(f, 0, k) for k in range(1, top))
    higher -= space.members
    return DerivativeClassification(
        space.members, frozenset(highest), frozenset(higher), compute_hat(space)
    )
