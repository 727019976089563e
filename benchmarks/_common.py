"""Shared benchmark configuration.

Benchmarks regenerate every table and figure of the paper's evaluation at
the paper's processor counts (16K / 32K / 64K ranks) by default.  Set
``REPRO_BENCH_SCALE=small`` to run a 16x-reduced sweep for quick iteration
(series shapes persist; absolute values differ), or
``REPRO_BENCH_SCALE=smoke`` for the minimal configuration the test suite
uses to exercise every benchmark module end to end.

Each benchmark prints the regenerated series in the same rows/axes the
paper reports, and asserts the paper's qualitative claims (who wins, by
roughly what factor, where the optimum falls) at paper scale.
"""

from __future__ import annotations

import json
import os
import time

SCALE = os.environ.get("REPRO_BENCH_SCALE", "paper")
PAPER_SCALE = SCALE not in ("small", "smoke")
SMOKE = SCALE == "smoke"

# Small and paper tiers persist the figure runs' summaries across
# invocations (``get_runs``; the figure benchmarks share them); smoke
# stays cache-free so the test suite always exercises the live simulation
# path.  An explicit REPRO_BENCH_CACHE setting (including "0") wins.
if not SMOKE:
    os.environ.setdefault("REPRO_BENCH_CACHE", "1")


def bench_np(paper: int, small: int) -> int:
    """Processor count for the current scale tier.

    Smoke runs shrink the small-scale count a further 8x (floored at 128
    ranks, half a pset, so aggregation ratios and ION routing still
    exercise real group structure).
    """
    if PAPER_SCALE:
        return paper
    if SMOKE:
        return max(128, small // 8)
    return small


#: Weak-scaling processor counts for Figs. 5-7 / Table I.
if PAPER_SCALE:
    SIZES = (16384, 32768, 65536)
elif SMOKE:
    SIZES = (128, 256, 512)
else:
    SIZES = (1024, 2048, 4096)

#: Fig. 8's file-count sweep values.
if PAPER_SCALE:
    FIG8_FILES = (256, 512, 1024, 2048, 4096)
elif SMOKE:
    FIG8_FILES = (4, 8, 16)
else:
    FIG8_FILES = (16, 32, 64, 128, 256)

#: Processor counts for the distribution figures.
FIG9_NP = bench_np(16384, 1024)    # 1PFPP distribution
FIG10_NP = bench_np(65536, 4096)   # coIO distribution
FIG11_NP = bench_np(65536, 4096)   # rbIO distribution
FIG12_NP = bench_np(32768, 2048)   # Darshan write activity


def bench_record(name: str, **metrics) -> None:
    """Write one benchmark's headline metrics to ``BENCH_<name>.json``.

    Every bench module calls this once with its key numbers (bandwidths,
    wall times, events/sec ...) so perf regressions are diffable artifacts
    rather than scrollback.  The CI perf-smoke job uploads these files.
    """
    record = {
        "name": name,
        "scale": SCALE,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "metrics": metrics,
    }
    path = f"BENCH_{name}.json"
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True, default=str)
        f.write("\n")


def print_series(title: str, columns, rows) -> None:
    """Render one figure's data as an aligned text table."""
    print(f"\n=== {title} ===")
    header = " | ".join(f"{c:>24}" for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print(" | ".join(f"{v:>24}" for v in row))
