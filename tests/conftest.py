"""Shared fixtures and the acceptance pass/fail reporter.

Session-scoped fixtures hold the built-in models, their derivation reports
and their candidate solutions, so unit tests share one derivation each.  The
acceptance tests re-derive inside their own timed blocks and do not use these
fixtures for timing-sensitive assertions.
"""
from __future__ import annotations

import re
import sys

import pytest

from liukit import expr
from liukit.liu import derive
from liukit.models import load_builtin, load_builtin_solution

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_([a-z0-9_]+)")

_criterion_results: dict[int, tuple[str, str]] = {}


@pytest.hookimpl(trylast=True)
def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    status = "PASS" if report.passed else "FAIL"
    _criterion_results[int(m.group(1))] = (status, m.group(2).replace("_", " "))


def pytest_terminal_summary(terminalreporter):
    if not _criterion_results:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_criterion_results):
        status, label = _criterion_results[n]
        terminalreporter.write_line(f"criterion {n} {status}: {label}")


@pytest.fixture(scope="session")
def grade2_model():
    return load_builtin("grade2")


@pytest.fixture(scope="session")
def grade2_report(grade2_model):
    return derive(grade2_model)


@pytest.fixture(scope="session")
def grade2_solution(grade2_model):
    return load_builtin_solution("grade2", grade2_model)


@pytest.fixture(scope="session")
def korteweg_model():
    return load_builtin("korteweg")


@pytest.fixture(scope="session")
def korteweg_report(korteweg_model):
    return derive(korteweg_model)


@pytest.fixture(scope="session")
def korteweg_report_all(korteweg_model):
    return derive(korteweg_model, mode="all")


@pytest.fixture(scope="session")
def korteweg_solution(korteweg_model):
    return load_builtin_solution("korteweg", korteweg_model)


@pytest.fixture
def minor_calls(monkeypatch):
    """The `subsets` argument of each call of `expr.principal_minors`.

    The function is spied on under every name a loaded liukit module holds it by.
    """
    calls: list = []
    real = expr.principal_minors

    def spy(mat, subsets):
        calls.append(subsets)
        return real(mat, subsets)

    for name, module in list(sys.modules.items()):
        if name.startswith("liukit.") and getattr(module, "principal_minors", None) is real:
            monkeypatch.setattr(module, "principal_minors", spy)
    return calls
