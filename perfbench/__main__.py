"""``python3 -m perfbench`` — run the benchmark, check outputs, print metrics.

With ``--workload W --seed S --seconds N --trace 0|1`` (the form
``BENCHMARK.json`` declares) the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics for ``--trace 0``, the per-layer metrics for ``--trace 1``.  With
no ``--workload`` every workload runs, timed and traced.  Results, per-rep
JSON and harness spans go to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time
from pathlib import Path

from .checks import load_expected, write_expected
from .harness import (END_TO_END, ROOT, Spans, per_layer_units, run_workload)
from .workloads import WORKLOADS, default_seed


def _print_record(record: dict) -> None:
    seed = "default" if record["seed"] is None else record["seed"]
    print(f"== {record['workload']}  seed={seed}  reps={record['reps']} ==")
    for p in record["points"]:
        sim = "raised" if p["gbps"] is None else f"{p['gbps']:.4g} GB/s sim"
        fig5 = f" (Fig 5: {p['fig5_gbps']})" if p["fig5_gbps"] else ""
        print(f"  point {p['point']:<32} {p['host_s']:8.3f} s host "
              f"({p['raw_host_s']:.3f} s raw)  {sim}{fig5}")
    for name, m in record.get("end_to_end", {}).items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}  "
              f"(min {m['min']:.6g}, max {m['max']:.6g}, n={m['n']})")
    for name, m in record.get("per_layer", {}).items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    for name in record.get("unavailable", []):
        print(f"  {name:<40} null (unavailable)")
    checks = record["checks"]
    print(f"  checks: {checks['attempted']} attempted, "
          f"{checks['failed']} failed")
    for message in checks["failures"]:
        print(f"    FAILED {message}")


def _contract_line(record: dict) -> str:
    """The driver's result line.  An unavailable per-layer metric reads 0
    there (the line carries numbers only); ``results.json`` names it."""
    metrics = {**record.get("end_to_end", {}), **record.get("per_layer", {})}
    units = per_layer_units()
    metrics.update({n: {"value": 0, "unit": units[n]}
                    for n in record.get("unavailable", [])})
    checks = record["checks"]
    return json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in metrics.items()},
    })


def _src_is_clean() -> bool:
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                          cwd=ROOT, capture_output=True, text=True)
    return proc.returncode == 0 and not proc.stdout.strip()


def selftest(out_dir: Path) -> int:
    """Shrunk run of every workload; asserts the declared names are real."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in declared["end_to_end"]]
    layer = [m["name"] for m in declared["per_layer"]]
    assert e2e == list(END_TO_END), (e2e, list(END_TO_END))
    assert layer == list(per_layer_units()), "per_layer names drifted"
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert len(e2e) <= 16 and len(layer) <= 128
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in e2e + layer)
    units = {**END_TO_END, **per_layer_units()}
    for m in declared["end_to_end"] + declared["per_layer"]:
        assert m["unit"] == units[m["name"]], m

    spans = Spans()
    for name in WORKLOADS:
        record = run_workload(name, default_seed(name), out_dir, spans,
                              seconds=0, reps=1, tiny=True)
        _print_record(record)
        assert record["checks"]["failed"] == 0, record["checks"]["failures"]
        assert list(record["end_to_end"]) == e2e
        assert not record["unavailable"], record["unavailable"]
        assert list(record["per_layer"]) == layer
        assert all(m["value"] > 0 for m in record["end_to_end"].values())
    faulted = json.loads((out_dir / "rbio_paper.rep0.json").read_text())
    assert faulted["points"][-1]["result"]["scheduled"] >= 1, \
        "the fault point did not disable coalescing"
    print("selftest ok")
    return 0


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="python3 -m perfbench",
                                     description=__doc__)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int,
                        help="spec seed (default: the repo's default "
                             "stream; 42 for payload_roundtrip)")
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"],
                        help="host seconds of timed reps per workload")
    parser.add_argument("--reps", type=int,
                        help="exactly this many timed reps instead")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only; 1: per-layer only "
                             "(default: both)")
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench/out")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-expected", action="store_true",
                        help="rewrite perfbench/expected/ (default seeds)")
    args = parser.parse_args(argv)

    out_dir = args.out.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.selftest:
        return selftest(out_dir)
    if args.write_expected:
        if not _src_is_clean():
            print("refusing --write-expected: `git status` shows changes "
                  "under src/ (or git is unavailable)", file=sys.stderr)
            return 2
        # Default seeds, two untraced reps that must agree with each other.
        args.seed, args.reps, args.trace = None, 2, 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    spans = Spans()
    records = {}
    try:
        for name in names:
            seed = default_seed(name) if args.seed is None else args.seed
            records[name] = run_workload(
                name, seed, out_dir, spans, seconds=args.seconds,
                reps=args.reps, timed=args.trace != 1, traced=args.trace != 0,
                expected=(None if args.write_expected
                          else load_expected(name, seed)))
            _print_record(records[name])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: child failed: {exc}", file=sys.stderr)
        return 1
    finally:
        (out_dir / "spans.json").write_text(json.dumps(spans.rows))

    (out_dir / "results.json").write_text(json.dumps(
        {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
         "workloads": records}, indent=1))
    failed = sum(r["checks"]["failed"] for r in records.values())
    if args.write_expected:
        if failed:
            print("refusing --write-expected: reps disagree", file=sys.stderr)
            return 1
        for name in names:
            rep = json.loads((out_dir / f"{name}.rep0.json").read_text())
            print("wrote", write_expected(name, default_seed(name),
                                          rep["points"]))
    if args.workload:
        # The result line carries the verdict; the exit code says it exists.
        print(_contract_line(records[args.workload]))
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
