"""Terminal renderings of a span store: per-rank Gantt + critical path.

``repro-report timeline`` uses these to answer "where did the time go"
without leaving the terminal — the ASCII equivalent of opening the
Chrome trace in Perfetto.  Each rank is one row; each span paints its
category's glyph over the row, later (finer) layers over earlier ones,
so a checkpoint bar shows through as ``#`` except where an actual PFS
write (``W``) or application phase (``=``) was in flight.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["render_timeline", "critical_path", "render_critical_path",
           "CAT_GLYPHS"]

#: Paint order: later entries overwrite earlier ones in the Gantt rows.
CAT_GLYPHS = (
    ("ckpt", "#"),      # whole checkpoint/restore envelope
    ("phase", "="),     # application phases (isend, stage, drain, pack...)
    ("mpiio", "x"),     # collective exchange / commit windows
    ("fs", "W"),        # actual PFS operations
)


def _span_bounds(spans) -> tuple[float, float]:
    return min(s.start for s in spans), max(s.end for s in spans)


def render_timeline(tracer, width: int = 72, max_rows: int = 32,
                    cores_per_node: Optional[int] = None) -> str:
    """Per-rank ASCII Gantt chart of every span in the store."""
    spans = tracer.spans
    if not spans:
        return "(no spans recorded — run with RunConfig(trace='full'))\n"
    t0, t1 = _span_bounds(spans)
    extent = max(t1 - t0, 1e-12)
    cpn = cores_per_node or tracer.cores_per_node or 1

    ranks = sorted({r for s in spans for r in s.expand()})
    elided = 0
    if len(ranks) > max_rows:
        stride = -(-len(ranks) // max_rows)  # ceil
        shown = ranks[::stride]
        elided = len(ranks) - len(shown)
        ranks = shown
    rows = {r: [" "] * width for r in ranks}

    order = {cat: i for i, (cat, _g) in enumerate(CAT_GLYPHS)}
    glyph = dict(CAT_GLYPHS)
    for span in sorted(spans, key=lambda s: order.get(s.cat, 0)):
        ch = glyph.get(span.cat)
        if ch is None:
            continue
        i0 = int((span.start - t0) / extent * width)
        i1 = int((span.end - t0) / extent * width)
        i1 = max(i1, i0 + 1)  # zero-length spans still paint one cell
        for rank in span.expand():
            row = rows.get(rank)
            if row is None:
                continue
            for i in range(i0, min(i1, width)):
                row[i] = ch

    label_w = max(len(str(r)) for r in ranks) + 6
    lines = [f"{'rank':>{label_w}} |{'sim time':-^{width}}|"]
    for rank in ranks:
        tag = f"r{rank}/n{rank // cpn}"
        lines.append(f"{tag:>{label_w}} |{''.join(rows[rank])}|")
    if elided:
        lines.append(f"{'':>{label_w}}  ... {elided} more ranks elided ...")
    lines.append(f"{'':>{label_w}}  {t0:.4f}s{'':{width - 16}}{t1:.4f}s")
    legend = "  ".join(f"{g}={c}" for c, g in CAT_GLYPHS)
    lines.append(f"{'':>{label_w}}  legend: {legend}")
    for ev in tracer.events:
        lines.append(f"{'':>{label_w}}  ! {ev['cat']}:{ev['name']} "
                     f"@ {ev['time']:.4f}s rank={ev['rank']} {ev['args']}")
    return "\n".join(lines) + "\n"


def critical_path(tracer) -> dict:
    """The slowest rank's span chain plus per-phase totals.

    The "critical path" of a blocking checkpoint is the rank whose
    top-level span finishes last; its constituent spans, in time order,
    explain the makespan.
    """
    spans = tracer.spans
    if not spans:
        return {"makespan": 0.0, "slowest_rank": None, "chain": [],
                "phases": []}
    t0, t1 = _span_bounds(spans)
    ends: dict[int, float] = {}
    for span in spans:
        for rank in span.expand():
            if span.end > ends.get(rank, float("-inf")):
                ends[rank] = span.end
    slowest = max(ends, key=lambda r: (ends[r], -r))
    chain = sorted(
        ({"name": s.name, "cat": s.cat, "start": s.start, "end": s.end,
          "seconds": s.duration, "nbytes": s.nbytes}
         for s in spans if slowest in set(s.expand())),
        key=lambda d: (d["start"], d["end"]))
    phases = sorted(
        ({"phase": k, **v} for k, v in tracer.phase_totals().items()),
        key=lambda d: d["seconds"], reverse=True)
    return {"makespan": t1 - t0, "slowest_rank": slowest, "chain": chain,
            "phases": phases}


def render_critical_path(tracer, top: int = 8) -> str:
    """Human-readable summary of :func:`critical_path`."""
    cp = critical_path(tracer)
    if cp["slowest_rank"] is None:
        return "(no spans recorded)\n"
    lines = [f"makespan: {cp['makespan']:.6f}s "
             f"(slowest rank {cp['slowest_rank']})",
             "critical-path chain:"]
    for step in cp["chain"]:
        lines.append(f"  {step['cat']:>6}:{step['name']:<12} "
                     f"[{step['start']:.6f} .. {step['end']:.6f}] "
                     f"{step['seconds']:.6f}s  {step['nbytes']} B")
    lines.append(f"per-phase totals (top {top}, rank-seconds):")
    for row in cp["phases"][:top]:
        lines.append(f"  {row['phase']:<24} count={row['count']:<8} "
                     f"seconds={row['seconds']:.6f}  bytes={row['bytes']}")
    return "\n".join(lines) + "\n"
