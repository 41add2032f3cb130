"""Built-in example models and candidate solutions shipped with the package."""
from __future__ import annotations

import os
from typing import TYPE_CHECKING

from .balance import ModelSpec
from .modelfile import _read_text, parse_model

if TYPE_CHECKING:
    from .solution import CandidateSolution

_BUILTIN = ("grade2", "korteweg")


def builtin_names() -> tuple[str, ...]:
    return _BUILTIN


def _read(filename: str) -> str:
    return _read_text(os.path.join(os.path.dirname(__file__), "models", filename))


def load_builtin(name: str) -> ModelSpec:
    if name not in _BUILTIN:
        raise KeyError(f"no built-in model {name!r}; available: {', '.join(_BUILTIN)}")
    return parse_model(_read(name + ".model"), name)


def load_builtin_solution(name: str, model: ModelSpec | None = None) -> CandidateSolution:
    # Imported here: only `check` reads a solution, so `derive` never compiles its grammar.
    from .solution import parse_solution

    if name not in _BUILTIN:
        raise KeyError(f"no built-in model {name!r}; available: {', '.join(_BUILTIN)}")
    return parse_solution(_read(name + ".solution"), model or load_builtin(name))
