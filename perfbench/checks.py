"""Output checks: a host-speed change must leave every simulated statistic as is.

A point's *stats* are the simulated statistics of its result dict, floats
at 12 significant digits.  They must equal the committed
``expected/<workload>.json`` when it was written for the seed in use, and
must agree between the reps of one invocation otherwise; a few invariants
hold on every seed.  A point that raises fails all its checks.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Result-dict keys that are simulated statistics (absent keys are skipped).
STAT_KEYS = (
    "overall_time", "blocking_time", "write_bandwidth", "per_step_blocking",
    "restored_step", "bytes_logical", "bytes_to_pfs", "chunk_hits",
    "chunk_misses", "fabric_msgs_intra", "fabric_msgs_inter",
    "fabric_bytes_intra", "fabric_bytes_inter", "tam_msgs", "tam_packages",
    "tam_coalesce_ratio", "scheduled", "injected",
)


def _canon(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_canon(v) for v in value]
    return value


def point_stats(result: dict) -> dict:
    """The canonical simulated statistics of one ``run_point`` result."""
    return {k: _canon(result[k]) for k in STAT_KEYS if k in result}


def point_label(record: dict) -> str:
    """``approach@np[+axis...]`` — how a point is named in every report."""
    res = record.get("result", {})
    label = f"{record['approach']}@{record['n_ranks']}"
    for axis in ("tam", "delta"):
        if res.get(axis, "off") != "off":
            label += f"+{axis}={res[axis]}"
    if res.get("fault_rate") is not None:
        label += f"+faults={res['fault_rate']:g}"
    return label


def load_expected(workload: str, seed: Optional[int]) -> Optional[list]:
    """Per-point expected stats, if the committed file is for this seed."""
    path = EXPECTED_DIR / f"{workload}.json"
    if not path.exists():
        return None
    doc = json.loads(path.read_text())
    return [p["stats"] for p in doc["points"]] if doc["seed"] == seed else None


def write_expected(workload: str, seed: Optional[int], records: list) -> Path:
    """Commit-ready reference: per-point stats plus the simulated GB/s."""
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = EXPECTED_DIR / f"{workload}.json"
    doc = {"workload": workload, "seed": seed, "points": [
        {"point": point_label(r), "gbps": r["result"]["gbps"],
         "stats": point_stats(r["result"])} for r in records]}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


#: Checks made on every point of every rep, whatever the seed.
N_INVARIANTS = 4


def check_point(record: dict, reference: Optional[dict],
                strict: bool = True) -> tuple:
    """``(attempted, failure messages)`` for one point of one rep.

    ``reference`` is the stats the point must reproduce (None: invariants
    only).  ``strict=False`` compares only the statistics both sides have —
    a traced point reports more of them than its figure-shaped timed twin.
    """
    attempted = N_INVARIANTS + (reference is not None)
    label = point_label(record)
    if "error" in record:
        return attempted, [f"{label}: raised {record['error']}"] * attempted
    res = record["result"]
    failures = []
    if not res.get("gbps", 0) > 0:
        failures.append(f"{label}: gbps={res.get('gbps')!r} not > 0")
    if res.get("restored_step", res["n_steps"] - 1) != res["n_steps"] - 1:
        failures.append(f"{label}: restored_step={res['restored_step']} "
                        f"!= n_steps-1={res['n_steps'] - 1}")
    if res.get("bytes_to_pfs", 0) > res.get("bytes_logical", 0):
        failures.append(f"{label}: bytes_to_pfs > bytes_logical")
    if res.get("fault_rate") and not res.get("scheduled", 0) >= 1:
        failures.append(f"{label}: faulted point scheduled no fault")
    if reference is not None:
        stats = point_stats(res)
        keys = (reference.keys() | stats.keys() if strict
                else reference.keys() & stats.keys())
        moved = [f"{k}: {reference.get(k)!r} -> {stats.get(k)!r}"
                 for k in sorted(keys) if stats.get(k) != reference.get(k)]
        if moved:
            failures.append(f"{label}: simulated statistics moved: "
                            + "; ".join(moved))
    return attempted, failures
