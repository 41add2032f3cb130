"""The benchmark's workloads and the `liukit` CLI inputs each one runs.

Every module of the benchmark takes its inputs from here, so the timed CLI
runs, the set-up probes, the traced run and the correctness gate cannot
drift apart.  Importing this module does not import liukit.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(BENCH, "fixtures")
REFERENCES = os.path.join(BENCH, "references.json")

CHECK_SAMPLES = 4096

# Scenarios whose solution file declares `expect = violate`; the checker
# must find at least one violating point in each.
VIOLATING_SCENARIOS = {"grade2": ("counterflow",), "korteweg": ("bigshear",)}


@dataclass(frozen=True)
class Input:
    """One CLI invocation: `liukit <command> <model> [--all-extensions]`."""

    name: str
    command: str  # "derive" or "check"
    model: str  # built-in name, or the stem of a file in fixtures/
    builtin: bool
    all_extensions: bool = False

    @property
    def mode(self) -> str:
        return "all" if self.all_extensions else "pruned"

    @property
    def metric(self) -> str:
        """The per-input name the detail output reports its wall time under."""
        return f"{self.command}_s.{self.name}"

    @property
    def model_path(self) -> str:
        return os.path.join(FIXTURES, self.model + ".model")

    def cli_args(self, seed: int) -> list[str]:
        args = [self.command]
        if self.builtin:
            args += ["--builtin", self.model]
        else:
            args.append(os.path.relpath(self.model_path, ROOT))
        if self.all_extensions:
            args.append("--all-extensions")
        if self.command == "check":
            args += ["--samples", str(CHECK_SAMPLES), "--seed", str(seed)]
        return args + ["--format", "json"]

    def load(self):
        """Parse the model (and for check the solution) as the CLI does."""
        from liukit.modelfile import load_model
        from liukit.models import load_builtin, load_builtin_solution

        if not self.builtin:
            return load_model(self.model_path), None
        model = load_builtin(self.model)
        if self.command == "check":
            return model, load_builtin_solution(self.model, model)
        return model, None


def _derive(name: str, model: str, builtin: bool, all_extensions: bool) -> Input:
    return Input(name, "derive", model, builtin, all_extensions)


WORKLOADS: dict[str, tuple[Input, ...]] = {
    # The shipped models users run.  Expressions stay small, so per-operation
    # overhead (hashing, Fraction, normalisation) dominates.
    "builtin-derive": (
        _derive("grade2", "grade2", True, False),
        _derive("grade2-all", "grade2", True, True),
        _derive("korteweg", "korteweg", True, False),
        _derive("korteweg-all", "korteweg", True, True),
    ),
    # Larger state spaces, where asymptotic growth shows: korteweg-eps2 is
    # emit-heavy (63 minors), korteweg-o3-all is assemble/solve-heavy with
    # almost no emit, the control for a minors change.
    "stress-derive": (
        _derive("korteweg-eps2", "korteweg-eps2", False, False),
        _derive("korteweg-o3-all", "korteweg-o3", False, True),
    ),
    # The checker on both built-ins: grade2 spends its time in symbolic
    # preparation of 15 minors, korteweg in point evaluation.
    "sampling-check": (
        Input("grade2", "check", "grade2", True),
        Input("korteweg", "check", "korteweg", True),
    ),
}

DERIVE_INPUTS = tuple(i for w in WORKLOADS.values() for i in w if i.command == "derive")


def other_mode(inp: Input) -> Input:
    """The same model derived with the other constraint set."""
    return Input(inp.name + "~other", inp.command, inp.model, inp.builtin, not inp.all_extensions)


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts.

    The program comes from the checkout's own src/.  LIU_THREADS is unset so
    the engine runs at its default of one thread, and the hash seed is fixed
    so the traced kernel counters repeat exactly from run to run.
    """
    env = {k: v for k, v in os.environ.items() if k not in ("LIU_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env
