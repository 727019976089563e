"""``python3 -m perfbench.compare A/results.json B/results.json``

One row per (workload, end-to-end metric): both values, the ratio B/A with
its base, the bound ``BENCHMARK.json`` fixes, and a verdict — ``ok``,
``worse`` (B is worse than A by more than the bound) or ``unresolved`` (the
reps of either side spread, quartile to quartile, wider than the bound, so
"no change" cannot be told from noise).  Exits 1 on any ``worse``.  Per-layer differences are
printed below and never gate; metrics that are counts of a deterministic
simulation are flagged when they are not identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Per-layer metrics that must repeat exactly between runs of one commit.
EXACT_PREFIXES = ("simt.", "delta.", "fabric.", "faults.")


def _is_exact(name: str) -> bool:
    return name.startswith(EXACT_PREFIXES) or name.endswith(".calls")


def _spread(metric: dict) -> float:
    """Distance between the quartiles of the reps, as a share of the value."""
    return metric["iqr"] / metric["value"]


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one end-to-end metric."""
    change = (b["value"] - a["value"]) / a["value"]
    if (change if better == "lower" else -change) > bound:
        return "worse"
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(p).read_text())["workloads"]
                    for p in argv)
    declared = {m["name"]: m for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    names = [n for n in a_doc if n in b_doc]
    worse = 0

    print(f"{'workload':<18} {'metric':<17} {'A':>11} {'B':>11} "
          f"{'B/A':>14} {'bound':>6}  verdict")
    for name in names:
        a, b = a_doc[name], b_doc[name]
        for metric, spec in declared.items():
            ma, mb = a["end_to_end"][metric], b["end_to_end"][metric]
            v = verdict(ma, mb, spec["better"], spec["bound"])
            worse += v == "worse"
            print(f"{name:<18} {metric:<17} {ma['value']:>11.5g} "
                  f"{mb['value']:>11.5g} {mb['value'] / ma['value']:>9.3f} of A "
                  f"{spec['bound']:>6.0%}  {v}")
        for side, doc in (("A", a), ("B", b)):
            checks = doc["checks"]
            print(f"{name:<18} checks {side}: {checks['failed']} failed of "
                  f"{checks['attempted']}")

    print("\nper-layer (never gates; '!=' marks a count that should be "
          "identical)")
    moved = 0
    for name in names:
        la = a_doc[name].get("per_layer", {})
        lb = b_doc[name].get("per_layer", {})
        for metric in (m for m in la if m in lb):
            va, vb = la[metric]["value"], lb[metric]["value"]
            if va == vb:
                continue
            exact = _is_exact(metric)
            moved += exact
            ratio = f"{vb / va:9.3f} of A" if va else "      new"
            print(f"{name:<18} {metric:<36} {va:>12.6g} {vb:>12.6g} "
                  f"{ratio} {'!=' if exact else ''}")
    print(f"{moved} deterministic count(s) differ")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
