"""Import hygiene: each subcommand loads only the modules it runs, and the
model hash gives the same digest from whichever SHA-256 it finds.

A CLI process without cached bytecode compiles every module it loads, so the
solution grammar (`liukit.solution`) is loaded by `check` alone and the
LaTeX printers (`liukit.latex`) by `derive --format latex` alone.

Every import check runs in a fresh interpreter, because this test process
has already imported the whole package.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import os
import subprocess
import sys
import types

import pytest

import liukit
from liukit.liu import model_hash
from liukit.modelfile import load_model
from liukit.models import load_builtin

SRC = os.path.dirname(os.path.dirname(liukit.__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# `{prelude}` runs before liukit is imported.
_RUN_CLI = """
import contextlib, io, json, sys
{prelude}
from liukit import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main({argv!r})
print(json.dumps({{"code": code, "out": out.getvalue(), "modules": sorted(sys.modules)}}))
"""


def _builtin_sha256():
    """The interpreter's own SHA-256 (`_sha2` from 3.12, `_sha256` before), or None."""
    for name in ("_sha2", "_sha256"):
        try:
            return importlib.import_module(name).sha256
        except ImportError:
            pass
    return None


BUILTIN_SHA256 = _builtin_sha256()


def _python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


def _cli_run(argv: list[str], prelude: str = "") -> dict:
    out = json.loads(_python(_RUN_CLI.format(argv=argv, prelude=prelude)))
    assert out["code"] == 0
    return out


def _cli_modules(argv: list[str]) -> set[str]:
    return set(_cli_run(argv)["modules"])


def test_derive_loads_neither_checker_nor_fdb():
    loaded = _cli_modules(["derive", "--builtin", "korteweg", "--format", "json"])
    assert "liukit.liu" in loaded
    # heapq serves only division by a polynomial of several terms, which no built-in makes.
    assert not loaded & {"liukit.checker", "liukit.fdb", "dataclasses", "heapq"}


def test_derive_compiles_no_float_evaluation():
    # float_body and its contract live in liukit.checker, which only check imports.
    code = _RUN_CLI.format(argv=["derive", "--builtin", "korteweg", "--format", "json"], prelude="")
    code += (
        "mods = [m for n, m in sorted(sys.modules.items()) if n.startswith('liukit')]\n"
        "print(json.dumps([m.__name__ for m in mods if hasattr(m, 'float_body')]))\n"
    )
    assert json.loads(_python(code).splitlines()[-1]) == []


_EVALUATE = """
import sys
from fractions import Fraction
from liukit.expr import ParseContext, parse
from liukit.jet import JetVariable

e = parse("(rho^3 - 2/7*eps_x)/(3 + rho*eps_x^2) + 1/3", ParseContext(["rho", "eps"]))
before = "liukit.checker" in sys.modules
v = e.evaluate({JetVariable("rho", 0, 0): 0.3, JetVariable("eps", 0, 1): Fraction(-17, 10)})
print(before, "liukit.checker" in sys.modules, v.hex())
"""


def test_expression_evaluate_loads_the_checker_on_its_call():
    # The bits are those evaluate gave while it lived in liukit.expr.
    assert _python(_EVALUATE).split() == ["False", "True", "0x1.dd1a3e799a251p-2"]


def test_check_does_not_load_fdb():
    loaded = _cli_modules(["check", "--builtin", "korteweg", "--samples", "8"])
    assert "liukit.checker" in loaded
    assert not loaded & {"liukit.fdb", "dataclasses"}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_derive_loads_neither_the_solution_grammar_nor_latex(fmt):
    loaded = _cli_modules(["derive", "--builtin", "korteweg", "--format", fmt])
    assert "liukit.liu" in loaded
    assert not loaded & {"liukit.solution", "liukit.latex"}


def test_derive_latex_loads_the_latex_printers():
    loaded = _cli_modules(["derive", "--builtin", "korteweg", "--format", "latex"])
    assert "liukit.latex" in loaded
    assert "liukit.solution" not in loaded


def test_check_loads_the_solution_grammar_but_not_latex():
    loaded = _cli_modules(["check", "--builtin", "korteweg", "--samples", "8"])
    assert "liukit.solution" in loaded
    assert "liukit.latex" not in loaded


# argparse, and the gettext and locale modules it loads, cost every process
# a few milliseconds; the CLI reads the common command lines without them,
# and loads argparse for the rest, to read them and print usage and help.
_ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_derive_loads_neither_argparse_nor_substitution(fmt):
    loaded = _cli_modules(["derive", "--builtin", "korteweg", "--format", fmt])
    assert "liukit.liu" in loaded
    assert not loaded & {*_ARGPARSE, "liukit.subst", "liukit.latex"}


def test_check_loads_substitution_but_not_argparse():
    loaded = _cli_modules(["check", "--builtin", "korteweg", "--samples", "8"])
    assert "liukit.subst" in loaded
    assert not loaded & _ARGPARSE


# Each argv is parsed in turn; `None` stands for the argv of every benchmark
# input, as bench/inputs.py builds them.
_PARSE = """
import contextlib, io, sys
sys.path.insert(0, {bench!r})
from inputs import WORKLOADS
from liukit import cli
argvs = {argvs!r} or [inp.cli_args(1) for inputs in WORKLOADS.values() for inp in inputs]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in argvs:
        try:
            cli.parse_args(argv)
        except SystemExit:
            pass
print(len(argvs), "argparse" in sys.modules)
"""


@pytest.mark.parametrize(
    "argvs, loaded",
    [
        (None, "8 False"),
        ([["fdb", "--m", "2"]], "1 False"),
        ([["derive", "--o"]], "1 True"),
        ([["-h"]], "1 True"),
    ],
)
def test_argparse_is_loaded_only_for_unusual_command_lines(argvs, loaded):
    assert _python(_PARSE.format(bench=os.path.join(ROOT, "bench"), argvs=argvs)).strip() == loaded


_SUBST_FIRST = """
import liukit.subst
from liukit.expr import ParseContext, parse, to_text
from liukit.jet import JetVariable

ctx = ParseContext(["rho", "eps"])
sub = liukit.subst.Substitution({JetVariable("rho"): parse("2*eps", ctx)})
print(to_text(parse("rho^2 + rho_x", ctx).subs(sub)))
"""

_SUBS_UNLOADED = """
import sys
from liukit.expr import ParseContext, parse, to_text
from liukit.jet import JetVariable

rho = JetVariable("rho")
ctx = ParseContext(["rho"], {"f": [rho]})
f = ctx.sym("f")
before = "liukit.subst" in sys.modules
out = parse("D(f, rho)*f", ctx).subs({f: parse("rho^3", ctx)})
print(before, "liukit.subst" in sys.modules, to_text(out))
"""

_SUBS_CYCLE = """
from liukit import expr
from liukit.expr import ParseContext, parse
from liukit.jet import JetVariable

ctx = ParseContext(["rho"], {"a": [JetVariable("rho")], "b": [JetVariable("rho")]})
a, b = ctx.sym("a"), ctx.sym("b")
try:
    parse("a", ctx).subs({a: parse("b + 1", ctx), b: parse("a*rho", ctx)})
except expr.BindingError as exc:
    print(type(exc).__module__, exc)
"""


def test_substitution_imports_first_in_a_fresh_interpreter():
    assert _python(_SUBST_FIRST).strip() == "4*eps^2 + 2*eps_x"


def test_subs_loads_substitution_on_its_call():
    assert _python(_SUBS_UNLOADED).split() == ["False", "True", "3*rho^5"]


def test_binding_cycle_raises_the_expr_binding_error():
    assert _python(_SUBS_CYCLE).strip() == "liukit.expr cyclic bindings: a -> b -> a"


def test_modelfile_does_not_load_the_solution_grammar():
    out = _python("import sys, liukit.modelfile; print(sorted(m for m in sys.modules if m.startswith('liukit')))")
    assert "liukit.modelfile" in out
    assert "liukit.solution" not in out


def test_check_does_not_load_hashlib():
    # Only derive reports hash a model; hashlib would load OpenSSL for nothing.
    loaded = _cli_modules(["check", "--builtin", "grade2", "--samples", "8"])
    assert "liukit.liu" in loaded
    assert not loaded & {"hashlib", "_hashlib"}


@pytest.mark.skipif(BUILTIN_SHA256 is None, reason="the interpreter has neither _sha2 nor _sha256")
@pytest.mark.parametrize(
    "options",
    [["--format", "text"], ["--format", "json"], ["--format", "latex"], ["--all-extensions", "--verify"]],
)
def test_derive_hashes_without_openssl(options):
    # The model hash uses the interpreter's built-in SHA-256; hashlib would
    # map OpenSSL's libcrypto for one hash of a small blob.
    loaded = _cli_modules(["derive", "--builtin", "korteweg", *options])
    assert "liukit.liu" in loaded
    assert not loaded & {"hashlib", "_hashlib"}


def test_hashlib_fallback_gives_the_same_report():
    with open(os.path.join(ROOT, "tests", "derive_golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    command = "derive --builtin korteweg --format json"
    run = _cli_run(command.split(), prelude='sys.modules["_sha2"] = sys.modules["_sha256"] = None')
    assert "hashlib" in run["modules"]
    assert hashlib.sha256(run["out"].encode()).hexdigest() == golden[command]


@pytest.mark.parametrize("name", ["grade2", "korteweg", "korteweg-eps2", "korteweg-o3"])
def test_model_hash_is_the_sha256_of_its_blob(name, monkeypatch):
    if name in ("grade2", "korteweg"):
        model = load_builtin(name)
    else:
        model = load_model(os.path.join(ROOT, "bench", "fixtures", name + ".model"))
    blobs = []

    def spy(blob):
        blobs.append(blob)
        return hashlib.sha256(blob)

    with monkeypatch.context() as m:
        for module in ("_sha2", "_sha256"):
            m.setitem(sys.modules, module, types.SimpleNamespace(sha256=spy))
        model_hash(model)
    (blob,) = blobs
    digest = hashlib.sha256(blob).hexdigest()
    assert model_hash(model) == digest
    if BUILTIN_SHA256 is not None:
        assert BUILTIN_SHA256(blob).hexdigest() == digest


def test_fdb_does_not_load_checker():
    loaded = _cli_modules(["fdb", "--m", "2", "--verify"])
    assert "liukit.fdb" in loaded
    assert not loaded & {"liukit.checker", "dataclasses"}


def test_import_liukit_defers_its_submodules():
    out = _python("import sys, liukit; print(sorted(m for m in sys.modules if m.startswith('liukit')))")
    assert out.strip() == "['liukit', 'liukit.jet']"


_EXPORTS = """
import importlib, liukit

ns = {}
exec("from liukit import *", ns)  # first, so the star import resolves every name itself
assert set(liukit.__all__) <= set(ns)
assert ns["Expression"].__module__ == "liukit.expr" and ns["jet"].__module__ == "liukit.jet"

for name in liukit.__all__:
    value = getattr(liukit, name)
    home = importlib.import_module("liukit." + liukit._MODULE_OF[name])
    assert value is getattr(home, name), name

assert set(liukit.__all__) <= set(dir(liukit))
assert callable(liukit.jet) and liukit.jet("rho").text() == "rho"
assert ns["check"] is liukit.checker.check

try:
    liukit.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown attribute resolved")
print("ok")
"""


def test_lazy_exports_resolve_like_eager_imports():
    assert _python(_EXPORTS).strip() == "ok"


_MOVED = """
import liukit
from liukit import latex, solution

assert liukit.to_latex is latex.to_latex
assert liukit.parse_solution is solution.parse_solution
print(sorted(liukit._MODULE_OF[n] for n in ("to_latex", "parse_solution")))
"""


def test_moved_names_resolve_through_exports():
    assert _python(_MOVED).strip() == "['latex', 'solution']"


# Every name the benchmark in bench/ imports or wraps, by module.
_BENCH_NAMES = {
    "liukit._util": ("stable_json",),
    "liukit.jet": ("classify",),
    "liukit.expr": ("Expression", "p_mul", "poly_gcd"),
    "liukit.liu": (
        "LiuReport", "constrained_inequality", "decouple", "derive", "emit_restrictions",
        "report_json_dict", "report_latex", "report_text", "same_restrictions",
        "select_constraints", "solve_multipliers",
    ),
    "liukit.modelfile": ("load_model",),
    "liukit.models": ("load_builtin", "load_builtin_solution"),
    "liukit.checker": (
        "CheckResult", "binding_singularities", "check", "check_equalities", "check_json_dict",
        "max_entropy_at_equilibrium", "run_scenario", "validate_solution",
    ),
}


def test_names_the_benchmark_imports_still_import():
    code = "".join(f"from {module} import {', '.join(names)}\n" for module, names in _BENCH_NAMES.items())
    code += "assert callable(Expression.evaluate) and callable(Expression.subs) and callable(Expression.total_x)\n"
    assert _python(code + "print('ok')").strip() == "ok"

