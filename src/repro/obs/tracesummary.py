"""Trace summarization: what ``repro-resynth trace FILE`` prints.

Reads a JSONL trace written by :class:`~repro.obs.Tracer`, validates it
via :func:`~repro.obs.read_trace`, and renders three views:

* **per-stage totals** — wall/CPU time and span counts aggregated by
  span name, with each stage's share of the root span's wall clock;
* **per-pass breakdown** — one row per ``pass`` span with its wall
  time, replacements, truth-table-cache hit columns and work counts
  (selection sites, sites whose cached candidates were reused, cones
  evaluated, permutation searches) — the attributes the resynthesis
  sweep attaches;
* **top spans** — the individual spans that cost the most wall time.

``docs/OBSERVABILITY.md`` walks through reading a real ``syn35932``
trace with these tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .tracing import read_trace

__all__ = ["render_trace_summary", "summarize_trace"]


def summarize_trace(path: str) -> Dict[str, object]:
    """Structured summary of the trace at *path*.

    Returns a dict with ``header``, ``stages`` (name-keyed totals),
    ``passes`` (pass-span rows) and ``spans`` (all span docs).
    """
    header, spans = read_trace(path)
    stages: Dict[str, Dict[str, float]] = {}
    for doc in spans:
        row = stages.setdefault(doc["name"], {
            "count": 0, "wall_s": 0.0, "cpu_s": 0.0,
        })
        row["count"] += 1
        row["wall_s"] += doc["wall_s"] or 0.0
        row["cpu_s"] += doc["cpu_s"] or 0.0

    passes: List[Dict[str, object]] = []
    for doc in spans:
        if doc["name"] != "pass":
            continue
        attrs = doc.get("attrs") or {}
        hits = attrs.get("tt_hits")
        misses = attrs.get("tt_misses")
        rate: Optional[float] = None
        if isinstance(hits, (int, float)) and isinstance(misses,
                                                         (int, float)):
            total = hits + misses
            rate = (hits / total) if total else None
        passes.append({
            "pass_no": attrs.get("pass_no"),
            "wall_s": doc["wall_s"],
            "replacements": attrs.get("replacements"),
            "tt_hits": hits,
            "tt_misses": misses,
            "tt_hit_rate": rate,
            "sites": attrs.get("sites"),
            "sites_reused": attrs.get("sites_reused"),
            "cones_evaluated": attrs.get("cones_evaluated"),
            "searches": attrs.get("searches"),
        })
    passes.sort(key=lambda row: (row["pass_no"] is None, row["pass_no"]))
    return {
        "header": header,
        "stages": stages,
        "passes": passes,
        "spans": spans,
    }


def _root_wall(spans: List[Dict[str, object]]) -> float:
    roots = [d["wall_s"] or 0.0 for d in spans if d["parent"] is None]
    return sum(roots)


def _fmt(value, width: int, decimals: int = 3) -> str:
    if value is None:
        return "-".rjust(width)
    if isinstance(value, float):
        return f"{value:.{decimals}f}".rjust(width)
    return str(value).rjust(width)


def render_trace_summary(path: str, top: int = 10) -> str:
    """Human-readable summary of the trace at *path*."""
    summary = summarize_trace(path)
    header = summary["header"]
    spans: List[Dict[str, object]] = summary["spans"]
    stages: Dict[str, Dict[str, float]] = summary["stages"]
    out: List[str] = []

    meta = header.get("meta") or {}
    meta_str = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
    out.append(f"trace: {path}")
    out.append(f"{len(spans)} spans"
               + (f"  [{meta_str}]" if meta_str else ""))
    root_wall = _root_wall(spans)

    out.append("")
    out.append("per-stage totals:")
    out.append(f"  {'stage':<12} {'count':>7} {'wall_s':>10} "
               f"{'cpu_s':>10} {'share':>7}")
    for name in sorted(stages, key=lambda n: -stages[n]["wall_s"]):
        row = stages[name]
        share = (row["wall_s"] / root_wall) if root_wall else 0.0
        out.append(
            f"  {name:<12} {row['count']:>7} "
            f"{_fmt(row['wall_s'], 10)} {_fmt(row['cpu_s'], 10)} "
            f"{share:>6.1%}"
        )

    passes: List[Dict[str, object]] = summary["passes"]
    if passes:
        out.append("")
        out.append("per-pass breakdown:")
        out.append(f"  {'pass':>4} {'wall_s':>10} {'repl':>6} "
                   f"{'tt_hits':>9} {'tt_miss':>9} {'hit%':>6} "
                   f"{'sites':>6} {'reused':>6} {'cones':>7} "
                   f"{'searches':>8}")
        for row in passes:
            rate = row["tt_hit_rate"]
            out.append(
                f"  {_fmt(row['pass_no'], 4)} {_fmt(row['wall_s'], 10)} "
                f"{_fmt(row['replacements'], 6)} "
                f"{_fmt(row['tt_hits'], 9)} {_fmt(row['tt_misses'], 9)} "
                f"{(f'{rate:.1%}' if rate is not None else '-'):>6} "
                f"{_fmt(row['sites'], 6)} {_fmt(row['sites_reused'], 6)} "
                f"{_fmt(row['cones_evaluated'], 7)} "
                f"{_fmt(row['searches'], 8)}"
            )

    if top > 0 and spans:
        ranked = sorted(spans, key=lambda d: -(d["wall_s"] or 0.0))[:top]
        out.append("")
        out.append(f"top {len(ranked)} spans by wall time:")
        out.append(f"  {'wall_s':>10} {'span':>6}  name / attrs")
        for doc in ranked:
            attrs = doc.get("attrs") or {}
            attr_str = " ".join(
                f"{k}={v}" for k, v in sorted(attrs.items())
            )
            out.append(
                f"  {_fmt(doc['wall_s'], 10)} {doc['span']:>6}  "
                f"{doc['name']}" + (f"  {attr_str}" if attr_str else "")
            )
    return "\n".join(out) + "\n"
