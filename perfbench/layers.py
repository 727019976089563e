"""Host-time attribution of a ``cProfile`` run to the packages of ``repro``.

Measured from outside the program: the child wraps its ``run_point`` calls
in ``cProfile`` and this module sums self time and primitive calls by the
package that owns each function's file.  A function outside ``repro``
(builtin, stdlib, numpy) has its self time charged to the layer of its
direct caller — ``zlib.crc32`` called from ``staging`` is staging's cost —
and to ``other`` when the caller is not in ``repro`` either.  ``cProfile``
inflates call-heavy Python relative to native code, so these shares find
candidates; gains are claimed on the untraced end-to-end metrics.
"""

from __future__ import annotations

#: Layers reported, in print order.  ``nekcem``, ``model`` and ``report``
#: are on no perf item and fold into ``other``.
LAYERS = ("sim", "mpi", "mpiio", "network", "storage", "topology", "ckpt",
          "ckpt.incremental", "buffers", "staging", "faults", "profiling",
          "trace", "experiments", "campaign", "other")


def layer_of(filename: str) -> str:
    """The layer owning ``filename`` (a ``cProfile`` code-object path)."""
    at = filename.rfind("/repro/")
    if at < 0:
        return "other"
    rel = filename[at + len("/repro/"):]
    if rel == "ckpt/incremental.py":
        return "ckpt.incremental"
    head = rel.split("/", 1)[0].removesuffix(".py")
    return head if head in LAYERS else "other"


def by_layer(stats: dict) -> dict:
    """``{layer: {"self_s", "calls"}}`` from ``cProfile.Profile().stats``."""
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for (filename, _, _), (calls, _, self_s, _, callers) in stats.items():
        own = layer_of(filename)
        out[own]["calls"] += calls
        if own != "other" or not callers:
            out[own]["self_s"] += self_s
            continue
        for (caller_file, _, _), (_, _, edge_self_s, _) in callers.items():
            out[layer_of(caller_file)]["self_s"] += edge_self_s
    return out
