"""Shared guards for the native-backend differential harness.

Every test in this directory needs the compiled extension; when it is not
built the directory skips cleanly (the pure backend is covered by the
ordinary suite).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.backend import native_import_error, native_module

HERE = Path(__file__).resolve().parent


def pytest_collection_modifyitems(config, items):
    # pytest calls this hook with every item of the session, not only the
    # ones collected here, so the skip is limited to this directory.
    if native_module() is not None:
        return
    marker = pytest.mark.skip(
        reason=(
            "native extension not built; run "
            "`python setup.py build_ext --inplace` "
            f"(import error: {native_import_error()})"
        )
    )
    for item in items:
        if HERE in Path(item.path).resolve().parents:
            item.add_marker(marker)
