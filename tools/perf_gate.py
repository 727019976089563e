#!/usr/bin/env python
"""Perf-regression gate: compare BENCH_*.json records against baselines.

Every benchmark writes its headline metrics to ``BENCH_<name>.json`` (see
``benchmarks/_common.bench_record``).  This gate compares a fresh set of
records against the committed baselines in ``benchmarks/baselines/`` and
fails (exit 1) when any gated metric drifts outside the tolerance band
(default +/-25%), turning perf regressions into hard CI failures instead
of slow drift.

Metric classes
--------------
*Deterministic* metrics — event counts, bytes copied/checkpointed, buffer
allocations, copies-per-byte ratios, reduction factors, simulated
bandwidths and virtual times — are pure functions of the code and the
scale tier, so they are gated unconditionally: on identical code they
match the baseline exactly, and a drift beyond tolerance in *either*
direction means behavior changed and the baseline must be re-examined
(regenerate with ``--update`` when the change is intended).

*Wall-clock* metrics (``wall_seconds``, ``events_per_second``,
``recorded_at``-adjacent timings) depend on the host and are never gated
here: smoke-scale runs last milliseconds, below the noise floor of any
shared runner.  Host time is measured by ``python3 -m perfbench``
(``BENCHMARK.json``) on runs long enough to be signal.

Usage
-----
    python tools/perf_gate.py [--baseline-dir benchmarks/baselines]
                              [--current-dir .] [--tolerance 0.25]
                              [--update] [names...]

With no ``names``, every ``BENCH_<name>.json`` present in the baseline
directory is checked; a missing current record is a failure (the bench
stopped running).  ``--update`` copies the current records over the
baselines instead of checking (for intentional perf changes).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

#: Leaf-key substrings marking host-dependent (wall-clock) metrics.
WALL_MARKERS = ("wall", "per_second", "elapsed", "host_seconds")


def is_wall_metric(key: str) -> bool:
    """Whether a leaf metric key names a host-time-dependent value."""
    k = key.lower()
    return any(m in k for m in WALL_MARKERS)


def iter_leaves(node, prefix=""):
    """Yield ``(dotted_path, value)`` for every numeric leaf in a record."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from iter_leaves(node[key], f"{prefix}.{key}" if prefix else key)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield prefix, float(node)


def compare_record(name: str, baseline: dict, current: dict,
                   tolerance: float) -> list[str]:
    """All tolerance violations between one baseline/current record pair."""
    problems = []
    if baseline.get("scale") != current.get("scale"):
        return [f"{name}: scale mismatch — baseline {baseline.get('scale')!r}"
                f" vs current {current.get('scale')!r} (set REPRO_BENCH_SCALE"
                " to the baseline tier before benching)"]
    base_leaves = dict(iter_leaves(baseline.get("metrics", {})))
    cur_leaves = dict(iter_leaves(current.get("metrics", {})))
    for path, base in base_leaves.items():
        if is_wall_metric(path.rsplit(".", 1)[-1]):
            continue
        if path not in cur_leaves:
            problems.append(f"{name}: metric {path} vanished from current record")
            continue
        cur = cur_leaves[path]
        if base == 0.0:
            if abs(cur) > 1e-9:
                problems.append(f"{name}: {path} moved off zero to {cur:g}")
            continue
        drift = (cur - base) / abs(base)
        if abs(drift) > tolerance:
            problems.append(
                f"{name}: {path} drifted {drift:+.1%} past the "
                f"{tolerance:.0%} band (baseline {base:g}, current {cur:g})"
            )
    return problems


def load_record(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*",
                    help="bench names to gate (default: every baseline)")
    ap.add_argument("--baseline-dir", default="benchmarks/baselines",
                    type=Path)
    ap.add_argument("--current-dir", default=".", type=Path,
                    help="where the fresh BENCH_*.json records were written")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="relative drift band (default 0.25 = +/-25%%)")
    ap.add_argument("--update", action="store_true",
                    help="refresh baselines from current records and exit")
    args = ap.parse_args(argv)

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if args.names:
        wanted = {f"BENCH_{n}.json" for n in args.names}
        baselines = [p for p in baselines if p.name in wanted]
        missing = wanted - {p.name for p in baselines}
        if missing and not args.update:
            print(f"perf-gate: no baseline for {sorted(missing)} in "
                  f"{args.baseline_dir}", file=sys.stderr)
            return 2

    if args.update:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        names = (args.names or
                 [p.name[len("BENCH_"):-len(".json")]
                  for p in sorted(args.current_dir.glob("BENCH_*.json"))])
        for n in names:
            src = args.current_dir / f"BENCH_{n}.json"
            if not src.exists():
                print(f"perf-gate: cannot update {n}: {src} not found",
                      file=sys.stderr)
                return 2
            shutil.copy(src, args.baseline_dir / src.name)
            print(f"perf-gate: baseline {src.name} updated")
        return 0

    if not baselines:
        print(f"perf-gate: no baselines under {args.baseline_dir}",
              file=sys.stderr)
        return 2

    problems = []
    checked = 0
    for base_path in baselines:
        name = base_path.name[len("BENCH_"):-len(".json")]
        cur_path = args.current_dir / base_path.name
        if not cur_path.exists():
            problems.append(f"{name}: current record {cur_path} missing "
                            "(did the bench run?)")
            continue
        problems.extend(compare_record(name, load_record(base_path),
                                       load_record(cur_path),
                                       args.tolerance))
        checked += 1

    for p in problems:
        print(f"perf-gate: FAIL {p}")
    if problems:
        print(f"perf-gate: {len(problems)} violation(s) across "
              f"{len(baselines)} baseline(s)")
        return 1
    print(f"perf-gate: OK — {checked} record(s) within "
          f"{args.tolerance:.0%} (deterministic metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
