"""Built-in example models and candidate solutions shipped with the package."""
from __future__ import annotations

from importlib import resources
from typing import TYPE_CHECKING

from .balance import ModelSpec
from .modelfile import parse_model, parse_solution

if TYPE_CHECKING:
    from .checker import CandidateSolution

_BUILTIN = ("grade2", "korteweg")


def builtin_names() -> tuple[str, ...]:
    return _BUILTIN


def _read(filename: str) -> str:
    return resources.files("liukit").joinpath("models", filename).read_text(encoding="utf-8")


def load_builtin(name: str) -> ModelSpec:
    if name not in _BUILTIN:
        raise KeyError(f"no built-in model {name!r}; available: {', '.join(_BUILTIN)}")
    return parse_model(_read(name + ".model"), name)


def load_builtin_solution(name: str, model: ModelSpec | None = None) -> CandidateSolution:
    if name not in _BUILTIN:
        raise KeyError(f"no built-in model {name!r}; available: {', '.join(_BUILTIN)}")
    return parse_solution(_read(name + ".solution"), model or load_builtin(name))
