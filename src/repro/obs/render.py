"""Render loaded traces: tree view, rollups, critical path, SVG timeline.

Consumes the merged records of :func:`repro.obs.trace.load_trace` and
produces the ``repro trace`` CLI surfaces.  The SVG timeline is
stdlib-only: a surface/grid/ink palette, rounded bars and escaped text.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple
from xml.sax.saxutils import escape

__all__ = [
    "span_tree",
    "render_tree",
    "render_rollup",
    "critical_path",
    "render_critical_path",
    "render_timeline",
]

_PLOT = {
    "surface": "#fcfcfb",
    "grid": "#e9e8e5",
    "ink": "#3b3832",
    "muted": "#8a857c",
    "span": "#2a78d6",
    "event": "#eb6834",
    "error": "#c23b2e",
}


def _duration(record: Mapping[str, Any]) -> float:
    return float(record.get("duration", 0.0) or 0.0)


def _children_index(
    records: Sequence[Mapping[str, Any]],
) -> Tuple[List[Mapping[str, Any]], Dict[str, List[Mapping[str, Any]]]]:
    """Split records into roots and a parent-id -> children index.

    A record whose parent never appears in the record set (e.g. the
    remote client span of a worker-only segment) is treated as a root,
    so partial traces still render.
    """
    by_span = {str(r.get("span")): r for r in records}
    children: Dict[str, List[Mapping[str, Any]]] = {}
    roots: List[Mapping[str, Any]] = []
    for record in records:
        parent = str(record.get("parent", "") or "")
        if parent and parent in by_span:
            children.setdefault(parent, []).append(record)
        else:
            roots.append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: (r.get("start", 0.0), str(r.get("span"))))
    roots.sort(key=lambda r: (r.get("start", 0.0), str(r.get("span"))))
    return roots, children


def span_tree(
    records: Sequence[Mapping[str, Any]],
) -> List[Tuple[Mapping[str, Any], int]]:
    """Depth-first ``(record, depth)`` walk of the span forest."""
    roots, children = _children_index(records)
    walk: List[Tuple[Mapping[str, Any], int]] = []

    def visit(record: Mapping[str, Any], depth: int) -> None:
        walk.append((record, depth))
        for child in children.get(str(record.get("span")), []):
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    return walk


def _label(record: Mapping[str, Any]) -> str:
    name = str(record.get("name", "?"))
    attrs = record.get("attrs") or {}
    parts = [name]
    for key in ("job", "worker", "owner", "campaign", "attempt", "status"):
        if key in attrs:
            parts.append(f"{key}={attrs[key]}")
    return " ".join(parts)


def render_tree(records: Sequence[Mapping[str, Any]]) -> str:
    """An indented tree, one line per span/event, durations on the right."""
    lines: List[str] = []
    for record, depth in span_tree(records):
        indent = "  " * depth
        if record.get("phase") == "event":
            lines.append(f"{indent}* {_label(record)}")
            continue
        suffix = f"{_duration(record) * 1000.0:10.1f} ms"
        if record.get("unfinished"):
            suffix = "  UNFINISHED"
        if record.get("error"):
            suffix += f"  !{record['error']}"
        lines.append(f"{indent}{_label(record):<{max(1, 64 - len(indent))}}{suffix}")
    return "\n".join(lines)


def render_rollup(records: Sequence[Mapping[str, Any]]) -> str:
    """Total/self time per span name, descending by total."""
    roots, children = _children_index(records)
    totals: Dict[str, List[float]] = {}  # name -> [total, self, count]
    for record in records:
        if record.get("phase") == "event":
            continue
        total = _duration(record)
        child_time = sum(
            _duration(child)
            for child in children.get(str(record.get("span")), [])
            if child.get("phase") != "event"
        )
        entry = totals.setdefault(str(record.get("name", "?")), [0.0, 0.0, 0])
        entry[0] += total
        entry[1] += max(0.0, total - child_time)
        entry[2] += 1
    rows = sorted(totals.items(), key=lambda item: -item[1][0])
    lines = [f"{'scope':<32}{'count':>7}{'total':>12}{'self':>12}"]
    for name, (total, self_time, count) in rows:
        lines.append(
            f"{name:<32}{count:>7}{total:>11.3f}s{self_time:>11.3f}s"
        )
    return "\n".join(lines)


def critical_path(
    records: Sequence[Mapping[str, Any]],
) -> List[Mapping[str, Any]]:
    """The chain of spans dominating the trace's wall clock.

    From the longest root, repeatedly descend into the child with the
    longest duration — the classic blame chain for "where did the time
    go".
    """
    roots, children = _children_index(records)
    spans = [r for r in roots if r.get("phase") != "event"]
    if not spans:
        return []
    path: List[Mapping[str, Any]] = []
    current = max(spans, key=_duration)
    while current is not None:
        path.append(current)
        kids = [
            child
            for child in children.get(str(current.get("span")), [])
            if child.get("phase") != "event"
        ]
        current = max(kids, key=_duration) if kids else None
    return path


def render_critical_path(records: Sequence[Mapping[str, Any]]) -> str:
    path = critical_path(records)
    if not path:
        return "(empty trace)"
    total = _duration(path[0]) or 1.0
    lines = []
    for depth, record in enumerate(path):
        share = 100.0 * _duration(record) / total
        lines.append(
            f"{'  ' * depth}{_label(record)}  "
            f"{_duration(record):.3f}s ({share:.0f}%)"
        )
    return "\n".join(lines)


# ------------------------------------------------------------------ #
# SVG timeline
# ------------------------------------------------------------------ #
def _nice_step(span: float) -> float:
    """A pleasant axis step: 1/2/5 x 10^k covering ``span`` in <=8 ticks."""
    if span <= 0:
        return 1.0
    raw = span / 8.0
    magnitude = 10.0 ** __import__("math").floor(__import__("math").log10(raw))
    for multiple in (1.0, 2.0, 5.0, 10.0):
        if raw <= multiple * magnitude:
            return multiple * magnitude
    return 10.0 * magnitude


def render_timeline(
    records: Sequence[Mapping[str, Any]],
    title: str = "trace timeline",
    width: int = 960,
) -> str:
    """A Gantt-style SVG: one row per span, x = wall-clock time.

    Unfinished spans (crashed attempts) render as hatched error-coloured
    bars reaching the end of the trace; events are diamond ticks on their
    parent's row.
    """
    walk = span_tree(records)
    spans = [(r, d) for r, d in walk if r.get("phase") != "event"]
    events = [(r, d) for r, d in walk if r.get("phase") == "event"]
    if not spans:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="60">'
            f'<text x="12" y="32" fill="{_PLOT["ink"]}">(empty trace)</text></svg>'
        )
    t0 = min(float(r.get("start", 0.0)) for r, _ in spans)
    t1 = max(
        float(r.get("start", 0.0)) + _duration(r) for r, _ in spans
    )
    for r, _ in events:
        t1 = max(t1, float(r.get("start", 0.0)))
    horizon = max(t1 - t0, 1e-6)

    row_height, bar_height = 22, 14
    left, top, right, bottom = 16, 48, 16, 28
    chart_width = width - left - right
    height = top + row_height * len(spans) + bottom
    scale = chart_width / horizon

    def x_of(t: float) -> float:
        return left + (t - t0) * scale

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="system-ui, sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="{_PLOT["surface"]}"/>',
        f'<text x="{left}" y="20" font-size="14" fill="{_PLOT["ink"]}">'
        f"{escape(title)}</text>",
        f'<text x="{left}" y="36" fill="{_PLOT["muted"]}">'
        f"{len(spans)} spans, {horizon:.3f}s</text>",
    ]

    step = _nice_step(horizon)
    tick = 0.0
    while tick <= horizon + step / 2:
        x = x_of(t0 + tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{top - 4}" x2="{x:.1f}" '
            f'y2="{height - bottom + 4}" stroke="{_PLOT["grid"]}"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{height - bottom + 16}" '
            f'text-anchor="middle" fill="{_PLOT["muted"]}">{tick:g}s</text>'
        )
        tick += step

    row_of: Dict[str, int] = {}
    for row, (record, depth) in enumerate(spans):
        row_of[str(record.get("span"))] = row
        y = top + row * row_height
        start = float(record.get("start", 0.0))
        duration = _duration(record)
        unfinished = bool(record.get("unfinished"))
        if unfinished:
            duration = max(duration, t1 - start)
        bar_x = x_of(start)
        bar_w = max(duration * scale, 1.5)
        color = _PLOT["error"] if (unfinished or record.get("error")) else _PLOT["span"]
        dash = ' stroke-dasharray="3,2"' if unfinished else ""
        parts.append(
            f'<rect x="{bar_x:.1f}" y="{y + (row_height - bar_height) / 2:.1f}" '
            f'width="{bar_w:.1f}" height="{bar_height}" rx="3" '
            f'fill="{color}" fill-opacity="{0.45 if unfinished else 0.9}" '
            f'stroke="{color}"{dash}/>'
        )
        label = _label(record)
        text_x = bar_x + bar_w + 6
        anchor = "start"
        if text_x > width - right - 120:
            text_x = bar_x - 6
            anchor = "end"
        parts.append(
            f'<text x="{text_x:.1f}" y="{y + row_height / 2 + 4:.1f}" '
            f'text-anchor="{anchor}" fill="{_PLOT["ink"]}">'
            f"{escape(' ' * depth + label)}</text>"
        )
    for record, _depth in events:
        parent_row = row_of.get(str(record.get("parent", "")))
        if parent_row is None:
            continue
        x = x_of(float(record.get("start", 0.0)))
        y = top + parent_row * row_height + row_height / 2
        parts.append(
            f'<path d="M {x:.1f} {y - 5:.1f} L {x + 4:.1f} {y:.1f} '
            f'L {x:.1f} {y + 5:.1f} L {x - 4:.1f} {y:.1f} Z" '
            f'fill="{_PLOT["event"]}"><title>{escape(_label(record))}</title></path>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
