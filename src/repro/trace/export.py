"""Exporters: Chrome ``trace_event`` JSON.

:func:`chrome_trace` renders a :class:`~repro.trace.SpanTracer` into
the Chrome trace-event format (the JSON dialect both
``chrome://tracing`` and Perfetto's legacy importer load): spans become
``"ph": "X"`` complete events, retries/failovers become ``"ph": "i"``
instants, and per-node attribution rides on ``pid`` (node index,
``rank // cores_per_node``) with ``tid`` = world rank.  Coalesce
representatives are expanded to one event per symmetry-group member,
so the timeline shows the run as every rank experienced it.
"""

from __future__ import annotations

import json
from typing import Optional

__all__ = ["chrome_trace", "write_chrome_trace"]

#: Sim seconds -> trace-event microseconds.
_US = 1e6


def chrome_trace(tracer, cores_per_node: Optional[int] = None,
                 label: str = "repro") -> dict:
    """Render the tracer as a Chrome/Perfetto-loadable trace dict.

    ``cores_per_node`` controls node attribution (``pid``); it defaults
    to the tracer's topology hint (set by the experiment runner) and
    falls back to one rank per node.
    """
    cpn = cores_per_node or tracer.cores_per_node or 1
    events: list[dict] = []
    nodes: set[int] = set()
    for span in tracer.spans:
        args = dict(span.args or {})
        args["nbytes"] = span.nbytes
        if span.members is not None:
            args["coalesced_group"] = len(span.members)
            args["representative"] = span.rank
        for rank in span.expand():
            node = rank // cpn
            nodes.add(node)
            events.append({
                "ph": "X",
                "name": span.name,
                "cat": span.cat,
                "ts": span.start * _US,
                "dur": (span.end - span.start) * _US,
                "pid": node,
                "tid": rank,
                "args": args,
            })
    for ev in tracer.events:
        rank = max(ev["rank"], 0)
        node = rank // cpn
        nodes.add(node)
        events.append({
            "ph": "i",
            "name": ev["name"],
            "cat": ev["cat"],
            "ts": ev["time"] * _US,
            "pid": node,
            "tid": rank,
            "s": "t",
            "args": ev["args"],
        })
    meta = [{"ph": "M", "name": "process_name", "pid": node, "tid": 0,
             "args": {"name": f"node{node}"}}
            for node in sorted(nodes)]
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.trace",
            "label": label,
            "mode": tracer.mode,
            "cores_per_node": cpn,
            "time_unit": "sim-microseconds",
        },
    }


def write_chrome_trace(tracer, path: str,
                       cores_per_node: Optional[int] = None,
                       label: str = "repro") -> dict:
    """Serialize :func:`chrome_trace` to ``path``; returns the dict."""
    trace = chrome_trace(tracer, cores_per_node=cores_per_node, label=label)
    with open(path, "w") as fh:
        json.dump(trace, fh)
    return trace
