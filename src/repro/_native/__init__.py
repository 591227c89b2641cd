"""Optional compiled CDCL solver core.

The extension module :mod:`repro._native._core` is built by ``setup.py``
(``python setup.py build_ext --inplace`` or ``pip install -e .``) and is
entirely optional: when the import fails the pure-Python solver remains
the reference backend and :data:`IMPORT_ERROR` records why, so
``repro doctor`` can explain the fallback.
"""

from __future__ import annotations

from typing import Any, Optional

core: Optional[Any]
IMPORT_ERROR: Optional[str]

try:  # pragma: no cover - exercised only when the extension is built
    import importlib

    core = importlib.import_module("repro._native._core")
    IMPORT_ERROR = None
except ImportError as exc:  # pragma: no cover - depends on build state
    core = None
    IMPORT_ERROR = str(exc)

__all__ = ["core", "IMPORT_ERROR"]
