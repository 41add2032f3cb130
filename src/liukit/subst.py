"""Substitution: a validated, acyclic binding set, closed over derivatives.

`Expression.subs` imports this module when it is called, and `check` (the
solution's bindings and conditions, a scenario's lets) builds one per binding
set, so `derive`, which never substitutes, does not compile it.  The passes
that apply a closed set to an expression, `_subs_pass` and `_rebuild`, are in
`liukit.expr` with the rest of the polynomial kernel.
"""
from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from .jet import JetVariable
from .expr import Atom, BindingError, Expression, FuncSym, Poly, _subs_pass, as_expression, p_pow

__all__ = ["Substitution"]


def _name(a: Atom) -> str:
    """The name a binding of `a` goes by: a jet's field, or a symbol's name."""
    return a.field if isinstance(a, JetVariable) else a.name


def _closing_order(graph: Mapping[str, Sequence[str]]) -> Iterator[str]:
    """Every name of the graph, each after the names it uses.

    Depth first from each name in sorted order, on an explicit stack,
    neighbours in the order the graph lists them, so a chain of any length
    nests no call.  A name met again while it is still on the path raises
    the cycle, named from the first root down.
    """
    done: set[str] = set()
    for r in sorted(graph):
        if r in done:
            continue
        path, todo = {r: None}, [iter(graph[r])]  # path: the names on the stack, in order
        while todo:
            for m in todo[-1]:
                if m in path:
                    raise BindingError(f"cyclic bindings: {' -> '.join([*path, m])}")
                if m not in done:
                    path[m] = None
                    todo.append(iter(graph[m]))
                    break
            else:
                todo.pop()
                n, _ = path.popitem()
                done.add(n)
                yield n


class Substitution:
    """A validated, acyclic binding set, every bound atom of it closed.

    `keys` indexes the bound atoms by the name their bindings go by (a jet's
    field, a symbol's name), and the binding graph joins each name to the
    bound names its replacements use.  One walk of that graph checks it for
    cycles and closes each name's bound atoms after those of the names it
    uses, so each closing is one pass over closed replacements.  Every
    binding is closed, used or not.  The jets of a bound field and the
    derivatives of a bound symbol are derived, and closed, when first met.

    `Expression.subs` builds one per call from a mapping; a caller that
    substitutes the same bindings into many expressions can build it once
    and pass it instead, so each derivative atom is derived once.
    """

    def __init__(self, bindings: Mapping):
        self.bind = {k: as_expression(v) for k, v in bindings.items()}
        self.keys: dict[str, list] = {}
        for k in self.bind:
            self.keys.setdefault(_name(k), []).append(k)
        self.cache: dict = {}  # atom id -> replacement, or None when unbound
        self.powers: dict = {}
        graph = {
            n: sorted({m for k in ks for m in self._uses(k) if m in self.keys})
            for n, ks in self.keys.items()
        }
        for n in _closing_order(graph):
            for k in self.keys[n]:
                self.resolve(k)

    def _uses(self, k: Atom) -> Iterator[str]:
        """The names that resolving the replacement of k can meet.

        Those of its atoms, and for a bound field also the fields its
        function symbols depend on: the field's jets are total derivatives
        of the replacement, which hold the jets of those fields.
        """
        for a in self.bind[k].atoms():
            yield _name(a)
            if isinstance(a, FuncSym) and isinstance(k, JetVariable) and k.is_field:
                yield from (d.field for d in a.deps)

    def resolve(self, a: Atom) -> Expression | None:
        i = a.id
        if i in self.cache:
            return self.cache[i]
        out = self._resolve(a)
        if out is not None:
            # Closed once, by one pass that meets only closed replacements.
            out = _subs_pass(out, self)
        self.cache[i] = out
        return out

    def power(self, i: int, e: int, den: bool) -> Poly:
        """Numerator (or denominator) of the replacement of atom i, to the e-th power."""
        key = (i, e, den)
        p = self.powers.get(key)
        if p is None:
            rep = self.cache[i]
            p = p_pow(rep._d if den else rep._n, e)
            self.powers[key] = p
        return p

    def _resolve(self, a: Atom) -> Expression | None:
        hit = self.bind.get(a)
        if hit is not None:
            return hit
        if isinstance(a, JetVariable):
            e = None if a.is_field else self.bind.get(JetVariable(a.field))
            if e is not None:
                # The field's replacement, differentiated t_order times in t, then in x.
                for _ in range(a.t_order):
                    e = e.total_t()
                for _ in range(a.x_order):
                    e = e.total_x()
            return e
        fits = [
            c for c in self.keys.get(a.name, ())
            if isinstance(c, FuncSym) and c.deps == a.deps
            and all(co <= ao for co, ao in zip(c.orders, a.orders))
        ]
        if not fits:
            return None
        best = max(fits, key=lambda c: (sum(c.orders), c.orders))
        # One derivative of the next-lower atom, which resolves through `best` too.
        k = max(i for i, (co, ao) in enumerate(zip(best.orders, a.orders)) if ao > co)
        orders = list(a.orders)
        orders[k] -= 1
        return self.resolve(FuncSym(a.name, a.deps, orders)).diff(a.deps[k])
