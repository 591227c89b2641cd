"""Backend dispatch semantics (`repro.backend`, `REPRO_BACKEND`).

These tests run with the extension built (the directory-level guard skips
them otherwise) and use monkeypatching to simulate the missing-extension
case, so both sides of the dispatch are covered from one environment.
"""

from __future__ import annotations

import pytest

from repro import _native, backend
from repro.sat.solver import SatSolver


class TestActiveBackend:
    def test_auto_prefers_native_when_built(self, monkeypatch):
        monkeypatch.delenv(backend.BACKEND_ENV_VAR, raising=False)
        assert backend.requested_backend() == "auto"
        assert backend.active_backend() == "native"

    def test_env_pure_forces_pure(self, monkeypatch):
        monkeypatch.setenv(backend.BACKEND_ENV_VAR, "pure")
        assert backend.active_backend() == "pure"
        solver = SatSolver()
        assert solver.backend == "pure"
        assert solver._core is None

    def test_env_native_uses_core(self, monkeypatch):
        monkeypatch.setenv(backend.BACKEND_ENV_VAR, "native")
        solver = SatSolver()
        assert solver.backend == "native"
        assert solver._core is not None

    def test_constructor_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(backend.BACKEND_ENV_VAR, "native")
        solver = SatSolver(backend="pure")
        assert solver.backend == "pure"

    def test_invalid_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(backend.BACKEND_ENV_VAR, "turbo")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            backend.requested_backend()
        with pytest.raises(ValueError):
            SatSolver()

    def test_auto_falls_back_when_missing(self, monkeypatch):
        monkeypatch.delenv(backend.BACKEND_ENV_VAR, raising=False)
        monkeypatch.setattr(_native, "core", None)
        monkeypatch.setattr(_native, "IMPORT_ERROR", "No module named 'repro._native._core'")
        assert backend.active_backend() == "pure"
        solver = SatSolver()
        assert solver.backend == "pure"

    def test_forced_native_raises_with_import_error_text(self, monkeypatch):
        monkeypatch.setenv(backend.BACKEND_ENV_VAR, "native")
        monkeypatch.setattr(_native, "core", None)
        monkeypatch.setattr(_native, "IMPORT_ERROR", "No module named 'repro._native._core'")
        with pytest.raises(backend.BackendUnavailable, match="_core"):
            backend.active_backend()
        with pytest.raises(backend.BackendUnavailable):
            SatSolver()


class TestBackendReport:
    def test_report_with_native_available(self, monkeypatch):
        monkeypatch.delenv(backend.BACKEND_ENV_VAR, raising=False)
        report = backend.backend_report()
        assert report["native_available"] is True
        assert report["active"] == "native"
        assert report["fallback_reason"] is None
        assert report["native_module"]

    def test_report_explains_fallback(self, monkeypatch):
        monkeypatch.setenv(backend.BACKEND_ENV_VAR, "native")
        monkeypatch.setattr(_native, "core", None)
        monkeypatch.setattr(_native, "IMPORT_ERROR", "boom: missing .so")
        report = backend.backend_report()
        assert report["native_available"] is False
        assert report["active"] == "unavailable"
        assert "boom: missing .so" in report["fallback_reason"]
