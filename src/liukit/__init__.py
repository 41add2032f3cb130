"""liukit: gradient-extended entropy exploitation for 1-D continua.

The package derives the thermodynamic restrictions that an entropy
inequality, constrained by balance laws and their spatial gradient
extensions, imposes on constitutive functions over a gradient state space;
and it checks explicit candidate constitutive equations against those
restrictions, symbolically and by seeded numeric sampling.
"""
# Every public name, by the submodule that defines it.  A name is imported on
# first use (PEP 562), so `import liukit` loads no submodule but `jet`, and a
# CLI process compiles only the modules its subcommand runs.
_EXPORTS = {
    "jet": (
        "DerivativeClassification", "JetVariable", "StateSpace", "StateSpaceError",
        "classify", "compute_hat", "jet",
    ),
    "expr": (
        "BindingError", "CollectError", "Expression", "ExprError", "FuncSym", "ONE",
        "ParseContext", "ParseError", "ZERO", "parse", "to_text",
    ),
    "latex": ("to_latex",),
    "fdb": ("ChainTerm", "chain_terms", "partition_count", "total_x_power"),
    "balance": ("BalanceLaw", "EntropyDeclaration", "ModelError", "ModelSpec", "entropy_production"),
    "liu": (
        "ConstraintSelection", "DecoupledSystem", "EngineError", "Equality", "EvenForm",
        "LiuReport", "MinorLimitError", "QuadraticForm", "Restrictions", "decouple", "derive",
        "emit_restrictions", "model_hash", "multiplier_symbol", "report_json_dict",
        "report_latex", "report_text", "same_restrictions", "select_constraints",
        "solve_multipliers",
    ),
    "checker": (
        "CheckResult", "ConcavityResult", "EvaluationError", "binding_singularities", "check",
        "check_json_dict", "check_text", "max_entropy_at_equilibrium", "run_scenario",
    ),
    "modelfile": ("CheckError", "FileFormatError", "load_model", "parse_model"),
    "solution": ("CandidateSolution", "Condition", "NumericScenario", "load_solution", "parse_solution"),
    "models": ("builtin_names", "load_builtin", "load_builtin_solution"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)

# `jet` names both a submodule and the function it exports.  Importing the
# submodule sets the package attribute to the module; binding the function
# after that import keeps `liukit.jet` the function.
from .jet import jet  # noqa: E402


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        # A submodule, reached as an attribute before anything imported it.
        return import_module("." + name, __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module("." + module, __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
