"""The parent: spawns rep children one at a time and turns them into metrics.

Host time and simulated time are never mixed: every ``*_s`` metric here is
host seconds measured by the child with ``perf_counter`` around its
``run_point`` calls; ``simt.*`` metrics are simulated seconds.  The timed
end-to-end metrics are host seconds *at the reference speed*: each
interval's wall time multiplied by the host speed the child sampled inside
it (see ``child.SpeedSampler``); the raw wall time is kept beside them.

Run protocol.  A *rep* is a fresh ``python`` subprocess (cold process, one
thread, ``REPRO_BENCH_*`` unset, ``PYTHONHASHSEED=0``, tracing and
profiling off) that runs the workload's points once, in order.  Children
never overlap.  Reps repeat until ``--seconds`` of host time have gone by,
and each is preceded by ``PROBES_PER_REP`` set-up-only children, so set-up
samples are spread over the same window (the first also fills the bytecode
cache under ``--out``).  Every end-to-end metric is built from medians
over the reps — per point, then summed, so that a slow spell of the host
that hits different points in different reps is rejected point by point.
Per-layer metrics come from one extra *traced* child and never gate.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from .checks import check_point, point_label, point_stats
from .layers import LAYERS
from .workloads import FIG5_GBPS, specs_for

ROOT = Path(__file__).resolve().parent.parent

#: Set-up-only children before each rep (set-up costs ~0.25 s, so many
#: samples are cheap, and a median over them is steady).
PROBES_PER_REP = 2
#: A child that runs longer than this is killed and the invocation fails
#: (the driver allows 180 s for the whole invocation).
CHILD_TIMEOUT_S = 150

#: End-to-end metrics, name -> unit; same names on every workload.
END_TO_END = {
    "wall_s": "s",
    "slowest_point_s": "s",
    "rank_steps_per_s": "rank_steps/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: Simulated-side phases (``trace_summary.phases`` keys, ``cat:name``).
SIMT_PHASES = ("ckpt:checkpoint", "fs:create", "fs:open", "fs:write",
               "fs:read", "fs:close", "mpiio:exchange", "mpiio:commit",
               "phase:isend", "phase:pack")

#: Per-layer metrics summed straight from result-dict keys.
RESULT_SUMS = {
    "delta.bytes_logical": ("bytes_logical", "bytes"),
    "delta.bytes_to_pfs": ("bytes_to_pfs", "bytes"),
    "delta.chunk_hits": ("chunk_hits", "count"),
    "delta.chunk_misses": ("chunk_misses", "count"),
    "fabric.msgs_inter": ("fabric_msgs_inter", "count"),
    "fabric.msgs_intra": ("fabric_msgs_intra", "count"),
    "fabric.bytes_inter": ("fabric_bytes_inter", "bytes"),
    "faults.scheduled": ("scheduled", "count"),
    "faults.injected": ("injected", "count"),
}

#: Direct public-call timings the traced child reports, name -> unit.
DIRECT = {
    "campaign.expand_ms_per_1k_points": "ms",
    "campaign.hash_us_per_point": "us",
    "cache.put_ms": "ms",
    "cache.get_ms": "ms",
}


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in print order."""
    units = {}
    for layer in LAYERS:
        units[f"host.{layer}.self_s"] = "s"
        units[f"host.{layer}.share"] = "ratio"
        units[f"host.{layer}.calls"] = "count"
    for phase in SIMT_PHASES:
        stem = "simt." + phase.replace(":", ".")
        units[stem + ".count"] = "count"
        units[stem + ".rank_s"] = "s"
    units.update({name: unit for name, (_, unit) in RESULT_SUMS.items()})
    units["fabric.tam_coalesce_ratio"] = "ratio"
    units["ckpt.incremental.mb_per_s"] = "MB/s"
    units.update(DIRECT)
    units["trace.overhead_ratio"] = "ratio"
    return units


class Spans:
    """Harness spans (workload -> rep -> point), kept in memory."""

    def __init__(self) -> None:
        self.rows: list = []

    def add(self, name: str, start: float, end: Optional[float] = None,
            parent: Optional[int] = None) -> int:
        self.rows.append({"id": len(self.rows), "parent": parent,
                          "name": name, "start": start, "end": end})
        return len(self.rows) - 1

    def close(self, span: int) -> None:
        self.rows[span]["end"] = time.time()


def _child_env(out_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_BENCH_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = f"{ROOT / 'src'}{os.pathsep}{ROOT}"
    # Bytecode is cached, under --out and never in the source tree: the
    # first child of a fresh checkout compiles, every later one is warm.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(out_dir / "pycache")
    return env


def run_child(specs: list, out_dir: Path, *, run: bool = True,
              profile: bool = False) -> dict:
    """Spawn one child, wait for it, return its JSON line."""
    job = {"specs": specs, "run": run, "profile": profile,
           "scratch": str(out_dir), "spawned_at": time.time()}
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.child"], input=json.dumps(job),
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_child_env(out_dir),
        timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _summary(samples: list, unit: str, value: Optional[float] = None) -> dict:
    """A metric record: ``value`` (default: the median) and its rep spread."""
    quartiles = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else [samples[0]] * 3)
    return {"value": statistics.median(samples) if value is None else value,
            "unit": unit, "min": min(samples), "max": max(samples),
            "iqr": quartiles[2] - quartiles[0], "n": len(samples)}


def _ref_s(interval: dict) -> float:
    """An interval's host seconds at the reference speed."""
    return interval["seconds"] * interval["speed"]


def _raw_wall(rep: dict) -> float:
    return sum(p["seconds"] for p in rep["points"])


def _point_medians(reps: list, seconds=_ref_s) -> list:
    """Host seconds of each point: the median over the reps."""
    return [statistics.median(seconds(r["points"][j]) for r in reps)
            for j in range(len(reps[0]["points"]))]


def _end_to_end(reps: list, setups: list) -> dict:
    points = _point_medians(reps)
    wall = sum(points)
    walls = [sum(_ref_s(p) for p in r["points"]) for r in reps]
    rank_steps = sum(p["n_ranks"] * p["n_steps"] for p in reps[0]["points"])
    samples = {  # name -> (per-rep samples, value if not their median)
        "wall_s": (walls, wall),
        "slowest_point_s": ([max(_ref_s(p) for p in r["points"])
                             for r in reps], max(points)),
        "rank_steps_per_s": ([rank_steps / w for w in walls],
                             rank_steps / wall),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in reps], None),
        "setup_s": ([_ref_s(s) for s in setups], None),
    }
    return {name: _summary(samples[name][0], unit, samples[name][1])
            for name, unit in END_TO_END.items()}


def _per_layer(traced: dict, untraced_wall: float) -> tuple:
    """``({name: {value, unit}}, [unavailable names])`` from the traced child."""
    values: dict = {}
    results = [p["result"] for p in traced["points"] if "result" in p]

    layers = traced.get("layers", {})
    total_self = sum(v["self_s"] for v in layers.values())
    for layer, v in layers.items():
        values[f"host.{layer}.self_s"] = v["self_s"]
        values[f"host.{layer}.share"] = (
            v["self_s"] / total_self if total_self else 0.0)
        values[f"host.{layer}.calls"] = v["calls"]

    summaries = [r["trace_summary"]["phases"] for r in results
                 if "trace_summary" in r]
    if summaries:
        for phase in SIMT_PHASES:
            stem = "simt." + phase.replace(":", ".")
            found = [s[phase] for s in summaries if phase in s]
            values[stem + ".count"] = sum(f["count"] for f in found)
            values[stem + ".rank_s"] = sum(f["seconds"] for f in found)

    if results:
        for name, (key, _) in RESULT_SUMS.items():
            values[name] = sum(r.get(key, 0) for r in results)
        tam_msgs = sum(r.get("tam_msgs", 0) for r in results)
        values["fabric.tam_coalesce_ratio"] = (
            sum(r.get("tam_packages", 0) for r in results) / tam_msgs
            if tam_msgs else 0.0)
        chunk_s = values.get("host.ckpt.incremental.self_s", 0.0)
        values["ckpt.incremental.mb_per_s"] = (
            values["delta.bytes_logical"] / 1e6 / chunk_s if chunk_s else 0.0)

    values.update(traced.get("direct", {}))
    values["trace.overhead_ratio"] = _raw_wall(traced) / untraced_wall
    units = per_layer_units()
    return ({n: {"value": values[n], "unit": u}
             for n, u in units.items() if n in values},
            [n for n in units if n not in values])


def _check_reps(reps: list, traced: Optional[dict],
                expected: Optional[list]) -> dict:
    """Run every check; stats reference = expected file, else the first rep."""
    attempted, failures = 0, []
    first = [point_stats(p.get("result", {})) for p in reps[0]["points"]]
    for i, rep in enumerate(reps):
        for j, record in enumerate(rep["points"]):
            if expected:  # a stale file (fewer points) fails, not crashes
                reference = expected[j] if j < len(expected) else {}
            else:
                reference = first[j] if i else None
            n, failed = check_point(record, reference)
            attempted += n
            failures += [f"rep {i}: {m}" for m in failed]
    if traced is not None:
        for j, record in enumerate(traced["points"]):
            n, failed = check_point(record, first[j], strict=False)
            attempted += n
            failures += [f"traced: {m}" for m in failed]
    return {"attempted": attempted, "failed": len(failures),
            "failures": failures}


def run_workload(name: str, seed: Optional[int], out_dir: Path, spans: Spans,
                 *, seconds: float, reps: Optional[int] = None,
                 timed: bool = True, traced: bool = True,
                 expected: Optional[list] = None, tiny: bool = False) -> dict:
    """Run one workload; return its result record (also written per rep).

    ``timed`` measures the end-to-end metrics: reps until ``seconds`` of
    host time have gone by (or exactly ``reps``).  ``traced`` adds the
    per-layer child; without ``timed`` it still runs one untraced rep, for
    the tracing overhead and the traced-equals-untraced check.
    """
    specs = specs_for(name, seed, tiny=tiny)
    started = time.time()
    span = spans.add(name, started)
    if reps is None and not timed:
        reps = 1

    # The probes also fill the bytecode cache, so that no rep compiles.
    setups: list = []
    done: list = []
    while (len(done) < reps) if reps else (time.time() - started < seconds):
        setups += [run_child(specs, out_dir, run=False)["setup"]
                   for _ in range(PROBES_PER_REP)]
        rep = _run_rep(specs, out_dir, spans, span, f"rep{len(done)}", name)
        done.append(rep)
        setups.append(rep["setup"])

    trace_rep = None
    if traced:
        trace_rep = _run_rep(specs_for(name, seed, tiny=tiny, traced=True),
                             out_dir, spans, span, "traced", name,
                             profile=True)
    spans.close(span)

    raw_points = _point_medians(done, lambda p: p["seconds"])
    record = {
        "workload": name, "seed": seed, "reps": len(done),
        "checks": _check_reps(done, trace_rep, expected),
        "points": [{
            "point": point_label(p), "host_s": host_s, "raw_host_s": raw_s,
            "gbps": p.get("result", {}).get("gbps"),
            "fig5_gbps": FIG5_GBPS.get((p["approach"], p["n_ranks"])),
        } for p, host_s, raw_s in zip(done[0]["points"], _point_medians(done),
                                      raw_points)],
    }
    if timed:
        record["end_to_end"] = _end_to_end(done, setups)
    if trace_rep is not None:
        record["per_layer"], record["unavailable"] = _per_layer(
            trace_rep, sum(raw_points))
    return record


def _run_rep(specs: list, out_dir: Path, spans: Spans, parent: int,
             label: str, workload: str, profile: bool = False) -> dict:
    start = time.time()
    rep = run_child(specs, out_dir, profile=profile)
    span = spans.add(label, start, time.time(), parent)
    for p in rep["points"]:
        spans.add(point_label(p), p["start"], p["end"], span)
    (out_dir / f"{workload}.{label}.json").write_text(json.dumps(rep))
    return rep
