"""Unified run telemetry: the one record that carries counters across layers.

Each layer keeps its own counters and is the only source of them: the SAT
solver's ``stats()``, the GA evaluation cache's ``cache_stats()`` and the
decamouflage oracle's ``prefilter_stats()`` are flat stats dicts, and the
synthesis module counts into the ``synth`` scope of
``synthesis_telemetry()``.

:class:`RunTelemetry` is how those counters travel between layers,
processes and files.  It is a label plus a set of named *scopes*, each
scope a flat mapping of counter name to number.  The operations every
consumer needs are provided once:

* ``count`` / ``record`` / ``get`` for incremental accumulation, and
  ``absorb`` to add a layer's stats dict as one scope,
* ``merged`` for combining records (counters add, scopes union),
* ``to_dict`` / ``from_dict`` for persistence in campaign job payloads and
  ``BENCH_*.json`` artifacts,
* ``iter_counters`` for the flat view the service's metrics registry
  absorbs from uploaded job payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

__all__ = ["RunTelemetry"]

Number = float


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class RunTelemetry:
    """A labelled set of named counter scopes with a plain-dict round-trip.

    ``scopes`` maps a scope name (``"solver"``, ``"cache"``, ``"synth"``,
    ``"window"``, ...) to a flat ``counter name -> number`` mapping.  Merging
    two records sums counters that appear in both, so a campaign-level record
    is simply the merge of its per-job records.
    """

    label: str = ""
    scopes: Dict[str, Dict[str, Number]] = field(default_factory=dict)

    # -- accumulation -----------------------------------------------------

    def scope(self, name: str) -> Dict[str, Number]:
        """Return the (mutable) counter mapping for ``name``, creating it."""
        return self.scopes.setdefault(name, {})

    def count(self, scope: str, key: str, amount: Number = 1) -> None:
        """Add ``amount`` to ``scope``/``key`` (creating it at zero)."""
        counters = self.scope(scope)
        counters[key] = counters.get(key, 0) + amount

    def record(self, scope: str, key: str, value: Number) -> None:
        """Set ``scope``/``key`` to ``value``, overwriting any prior value."""
        self.scope(scope)[key] = value

    def get(self, scope: str, key: str, default: Number = 0) -> Number:
        return self.scopes.get(scope, {}).get(key, default)

    def absorb(self, scope: str, stats: Mapping[str, Any]) -> "RunTelemetry":
        """Add every numeric entry of a layer's stats dict into ``scope``."""
        for key, value in stats.items():
            if _is_number(value):
                self.count(scope, key, value)
        return self

    def iter_counters(self) -> Iterator[Tuple[str, str, Number]]:
        """Yield every numeric ``(scope, key, value)`` triple, sorted.

        The flat view the metrics registry absorbs; non-numeric values are
        skipped with the same tolerance :meth:`absorb` extends to stats
        dicts.
        """
        for scope_name in sorted(self.scopes):
            counters = self.scopes[scope_name]
            for key in sorted(counters):
                value = counters[key]
                if _is_number(value):
                    yield scope_name, key, value

    # -- combination ------------------------------------------------------

    def merged(
        self, *others: "RunTelemetry", label: Optional[str] = None
    ) -> "RunTelemetry":
        """Return a new record with counters summed across all operands."""
        result = RunTelemetry(label=self.label if label is None else label)
        for source in (self,) + tuple(others):
            for scope_name, counters in source.scopes.items():
                for key, value in counters.items():
                    result.count(scope_name, key, value)
        return result

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "scopes": {
                name: dict(sorted(counters.items()))
                for name, counters in sorted(self.scopes.items())
            }
        }
        if self.label:
            payload["label"] = self.label
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunTelemetry":
        scopes = payload.get("scopes", {})
        if not isinstance(scopes, Mapping):
            raise ValueError("telemetry payload 'scopes' must be a mapping")
        record = cls(label=str(payload.get("label", "")))
        for name, counters in scopes.items():
            if not isinstance(counters, Mapping):
                raise ValueError(f"telemetry scope {name!r} must be a mapping")
            record.absorb(str(name), counters)
        return record

    def __repr__(self) -> str:
        total = sum(len(counters) for counters in self.scopes.values())
        return (
            f"RunTelemetry(label={self.label!r}, scopes={sorted(self.scopes)}, "
            f"counters={total})"
        )

