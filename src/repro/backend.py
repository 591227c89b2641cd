"""Backend dispatch between the pure-Python solver core and its compiled twin.

The repository ships two implementations of its CDCL inner loop: the
always-available pure-Python reference (``repro.sat.solver``) and an
optional C extension (``repro._native._core``) that mirrors it
instruction-for-instruction — same decisions, same conflict/propagation
counts.  This module decides which one runs:

* ``REPRO_BACKEND`` unset (or ``auto``): use ``native`` when the
  extension imports cleanly, ``pure`` otherwise.
* ``REPRO_BACKEND=pure``: always use the reference implementation.
* ``REPRO_BACKEND=native``: require the extension; raise
  :class:`BackendUnavailable` (with the original import error text) if
  it is not built.

`SatSolver` also takes an explicit ``backend=`` argument which wins over
the environment.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

BACKEND_ENV_VAR = "REPRO_BACKEND"
BACKENDS = ("pure", "native")


class BackendUnavailable(RuntimeError):
    """Raised when ``REPRO_BACKEND=native`` is forced but the extension is missing."""


def native_module() -> Optional[Any]:
    """Return the compiled core module, or ``None`` when not built."""

    from repro import _native

    return _native.core


def native_import_error() -> Optional[str]:
    """Return the import-error text explaining why the extension is absent."""

    from repro import _native

    return _native.IMPORT_ERROR


def requested_backend() -> str:
    """Return the backend requested via the environment: ``auto``/``pure``/``native``."""

    raw = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    if raw in ("", "auto"):
        return "auto"
    if raw in BACKENDS:
        return raw
    raise ValueError(
        f"{BACKEND_ENV_VAR} must be one of 'auto', 'pure', or 'native', got {raw!r}"
    )


def active_backend(requested: Optional[str] = None) -> str:
    """Resolve the backend that should actually run.

    ``requested`` overrides the environment when given (constructor
    arguments use this).  Returns ``"pure"`` or ``"native"``.
    """

    choice = requested if requested is not None else requested_backend()
    choice = choice.strip().lower()
    if choice in ("", "auto"):
        return "native" if native_module() is not None else "pure"
    if choice == "pure":
        return "pure"
    if choice == "native":
        if native_module() is None:
            raise BackendUnavailable(
                "REPRO_BACKEND=native was requested but the compiled extension "
                "is not available: "
                f"{native_import_error()} "
                "(build it with `python setup.py build_ext --inplace`)"
            )
        return "native"
    raise ValueError(f"unknown backend {choice!r}; expected one of {BACKENDS}")


def backend_report() -> Dict[str, Any]:
    """Structured backend status for ``repro doctor`` and tests."""

    module = native_module()
    try:
        requested = requested_backend()
    except ValueError as exc:
        requested = f"invalid ({exc})"
    report: Dict[str, Any] = {
        "requested": requested,
        "native_available": module is not None,
        "native_import_error": native_import_error(),
        "native_module": getattr(module, "__file__", None),
    }
    try:
        report["active"] = active_backend()
        report["fallback_reason"] = None
    except (BackendUnavailable, ValueError) as exc:
        report["active"] = "unavailable"
        report["fallback_reason"] = str(exc)
    return report
