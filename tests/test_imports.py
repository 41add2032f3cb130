"""Import hygiene: each subcommand loads only the modules it runs.

Every check runs in a fresh interpreter, because this test process has
already imported the whole package.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import liukit

SRC = os.path.dirname(os.path.dirname(liukit.__file__))

_RUN_CLI = """
import contextlib, io, json, sys
from liukit import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(json.dumps({{"code": code, "modules": sorted(sys.modules)}}))
"""


def _python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


def _cli_modules(argv: list[str]) -> set[str]:
    out = json.loads(_python(_RUN_CLI.format(argv=argv)))
    assert out["code"] == 0
    return set(out["modules"])


def test_derive_loads_neither_checker_nor_fdb():
    loaded = _cli_modules(["derive", "--builtin", "korteweg", "--format", "json"])
    assert "liukit.liu" in loaded
    assert not loaded & {"liukit.checker", "liukit.fdb", "dataclasses"}


def test_check_does_not_load_fdb():
    loaded = _cli_modules(["check", "--builtin", "korteweg", "--samples", "8"])
    assert "liukit.checker" in loaded
    assert not loaded & {"liukit.fdb", "dataclasses"}


def test_check_does_not_load_hashlib():
    # Only derive reports hash a model; hashlib would load OpenSSL for nothing.
    loaded = _cli_modules(["check", "--builtin", "grade2", "--samples", "8"])
    assert "liukit.liu" in loaded
    assert not loaded & {"hashlib", "_hashlib"}


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

