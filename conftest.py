"""Repository-wide pytest hooks.

A green tier-1 run must mean the tests ran.  The only tests under
``tests/`` that may skip are those of the native-backend harness in
``tests/native/``, which need the optional compiled extension; any other
skipped test fails the session.  The guard files in ``benchmarks/`` are
not covered: ``bench_backend.py`` skips when the extension is not built.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Set

import pytest

ROOT = Path(__file__).resolve().parent
TESTS = ROOT / "tests"
NATIVE_TESTS = TESTS / "native"

_must_run: Set[str] = set()
_unexpected_skips: List[str] = []


def pytest_collection_modifyitems(items):
    for item in items:
        parents = Path(item.path).resolve().parents
        if TESTS in parents and NATIVE_TESTS not in parents:
            _must_run.add(item.nodeid)


def pytest_runtest_logreport(report):
    if report.skipped and report.nodeid in _must_run:
        _unexpected_skips.append(report.nodeid)


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session):
    if not _unexpected_skips:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_sep(
            "=",
            f"{len(_unexpected_skips)} test(s) outside tests/native/ skipped; "
            "every one must run",
            red=True,
        )
        for nodeid in _unexpected_skips:
            reporter.write_line(f"  {nodeid}")
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
