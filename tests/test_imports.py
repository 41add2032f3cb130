"""Import hygiene: each subcommand loads only the modules it runs, and the
model hash gives the same digest from whichever SHA-256 it finds.

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

