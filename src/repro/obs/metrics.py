"""Process-local metrics registry with Prometheus-text exposition.

Three instrument kinds, all lock-guarded and cheap enough to stay on:

* **Counters** — monotonically increasing totals (jobs finished, lease
  reclaims, absorbed job counters).
* **Gauges** — last-written values (jobs pending, campaigns active).
* **Histograms** — fixed-bucket latency/size distributions (lease
  heartbeat latency, job seconds).

Instruments carry optional labels (``counter("repro_jobs_done_total",
campaign=cid)``), rendering one Prometheus sample per label set.  Only the
service coordinator renders the registry (``GET /metrics`` and the SSE
``metrics`` frames), and it runs no job itself, so the layers do not write
to it.  Their counters arrive in uploaded job payloads as
:class:`~repro.telemetry.RunTelemetry` records, which the registry absorbs
— each scope/counter pair becomes ``repro_telemetry_<scope>_<name>``.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..telemetry import RunTelemetry

__all__ = [
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
    "observe",
    "absorb_telemetry",
    "render_prometheus",
    "reset_metrics",
]

#: Default histogram buckets (seconds): spans µs-scale heartbeats to
#: minute-scale jobs.
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.025,
    0.1,
    0.5,
    2.5,
    10.0,
    60.0,
)

LabelSet = Tuple[Tuple[str, str], ...]


def _labels(labels: Mapping[str, Any]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _sanitize(name: str) -> str:
    return "".join(c if (c.isalnum() or c == "_") else "_" for c in name)


class MetricsRegistry:
    """A threadsafe registry of counters, gauges and histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[LabelSet, float]] = {}
        self._gauges: Dict[str, Dict[LabelSet, float]] = {}
        self._histograms: Dict[
            str, Dict[LabelSet, Tuple[List[int], float, int]]
        ] = {}
        self._buckets: Dict[str, Tuple[float, ...]] = {}

    # -- writers ---------------------------------------------------- #
    def counter(self, name: str, amount: float = 1, **labels: Any) -> None:
        key = _labels(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0.0) + amount

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        with self._lock:
            self._gauges.setdefault(name, {})[_labels(labels)] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Iterable[float]] = None,
        **labels: Any,
    ) -> None:
        key = _labels(labels)
        with self._lock:
            bounds = self._buckets.setdefault(
                name, tuple(buckets) if buckets else DEFAULT_BUCKETS
            )
            series = self._histograms.setdefault(name, {})
            counts, total, count = series.get(key, ([0] * len(bounds), 0.0, 0))
            counts = list(counts)
            for index, bound in enumerate(bounds):
                if value <= bound:
                    counts[index] += 1
            series[key] = (counts, total + float(value), count + 1)

    def absorb_telemetry(self, telemetry: RunTelemetry, **labels: Any) -> None:
        """Fold a RunTelemetry record's scopes into prefixed counters."""
        for scope, key, value in telemetry.iter_counters():
            self.counter(
                f"repro_telemetry_{_sanitize(scope)}_{_sanitize(key)}",
                value,
                **labels,
            )

    # -- readers ---------------------------------------------------- #
    def value(self, name: str, **labels: Any) -> float:
        """Current value of one counter/gauge sample (0 when absent)."""
        key = _labels(labels)
        with self._lock:
            if name in self._counters:
                return self._counters[name].get(key, 0.0)
            if name in self._gauges:
                return self._gauges[name].get(key, 0.0)
        return 0.0

    def render(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        lines: List[str] = []

        def fmt(name: str, key: LabelSet, value: float, extra: str = "") -> str:
            pairs = [f'{k}="{v}"' for k, v in key]
            if extra:
                pairs.append(extra)
            body = "{" + ",".join(pairs) + "}" if pairs else ""
            return f"{name}{body} {value:g}"

        with self._lock:
            for name in sorted(self._counters):
                lines.append(f"# TYPE {name} counter")
                for key in sorted(self._counters[name]):
                    lines.append(fmt(name, key, self._counters[name][key]))
            for name in sorted(self._gauges):
                lines.append(f"# TYPE {name} gauge")
                for key in sorted(self._gauges[name]):
                    lines.append(fmt(name, key, self._gauges[name][key]))
            for name in sorted(self._histograms):
                lines.append(f"# TYPE {name} histogram")
                bounds = self._buckets[name]
                for key in sorted(self._histograms[name]):
                    counts, total, count = self._histograms[name][key]
                    # ``observe`` increments every bucket the value fits in,
                    # so the stored counts are already cumulative (le=).
                    for bound, bucket in zip(bounds, counts):
                        lines.append(
                            fmt(f"{name}_bucket", key, bucket, f'le="{bound:g}"')
                        )
                    lines.append(
                        fmt(f"{name}_bucket", key, count, 'le="+Inf"')
                    )
                    lines.append(fmt(f"{name}_sum", key, total))
                    lines.append(fmt(f"{name}_count", key, count))
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Flat counter/gauge snapshot for SSE ``metrics`` frames."""
        flat: Dict[str, Dict[str, float]] = {}
        with self._lock:
            for name, series in list(self._counters.items()) + list(
                self._gauges.items()
            ):
                entry: Dict[str, float] = {}
                for key, value in series.items():
                    label = ",".join(f"{k}={v}" for k, v in key) or "_"
                    entry[label] = value
                flat[name] = entry
        return flat

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._buckets.clear()


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def counter(name: str, amount: float = 1, **labels: Any) -> None:
    _REGISTRY.counter(name, amount, **labels)


def gauge(name: str, value: float, **labels: Any) -> None:
    _REGISTRY.gauge(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    _REGISTRY.observe(name, value, **labels)


def absorb_telemetry(telemetry: RunTelemetry, **labels: Any) -> None:
    _REGISTRY.absorb_telemetry(telemetry, **labels)


def render_prometheus() -> str:
    return _REGISTRY.render()


def reset_metrics() -> None:
    """Clear the default registry (for tests)."""
    _REGISTRY.reset()
