"""Extension: resilience under deterministic fault injection (DESIGN.md §10).

Two studies on top of :mod:`repro.faults`:

1. **Fault-rate overhead sweep** — checkpoint campaigns under growing
   transient FS fault rates (errors absorbed by bounded retry, stalls by
   waiting them out).  The zero-rate point must coincide *exactly* with a
   fault-free run: the injection layer's off-switch is one pointer test
   on the hot paths, so disabled injection is provably zero-cost.
2. **Writer-failover campaign** — an rbIO campaign that loses a dedicated
   writer between generations; a surviving writer adopts the orphaned
   group, and the coordinated restart falls back to the newest complete
   generation instead of hanging or silently restoring a partial one.

The fault-rate sweep is a fixed-size study (like the staging drain
sweep): fault counts are per-campaign, so scaling np only dilutes them.
"""

from _common import SMOKE, bench_np, bench_record, print_series

from repro import RunConfig
from repro.campaign import CampaignSpec, expand, run_point
from repro.ckpt import ReducedBlockingIO
from repro.experiments import run_checkpoint_steps, run_sweep, scaled_problem

NP = bench_np(4096, 1024)
N_STEPS = 2
GAP = 2.0
RATES = (0.0, 2.0, 6.0) if SMOKE else (0.0, 2.0, 6.0, 12.0)
WPW = 64
CRASH_RANK = 0  # the first dedicated writer
#: Twice the seed-to-seed spread of the fault-free campaign's overall time.
NOISE_BAND = 0.036

#: Both studies as declarative campaigns on rbIO at np:ng = 64:1: a
#: fault-rate axis, and one writer crashed then a resilient restart.
STEPS = {"n_steps": N_STEPS, "gap": GAP}
SWEEP_CAMPAIGN = CampaignSpec.from_dict({
    "name": "ext_faults_sweep", "steps": STEPS,
    "grid": {"approaches": ["rbio_ng"], "np": [NP],
             "fault_rates": list(RATES)},
    "faults": {"generate": {"horizon": GAP * N_STEPS}}})
FAILOVER_CAMPAIGN = CampaignSpec.from_dict({
    "name": "ext_faults_failover", "steps": STEPS,
    "grid": {"approaches": ["rbio_ng"], "np": [NP]},
    "faults": {"specs": [
        {"kind": "rank_crash", "time": 1.0, "rank": CRASH_RANK}]},
    "resume": {"enabled": True}})

#: Cumulative metrics; each test re-records so BENCH_ext_faults.json holds
#: everything the module produced so far.
_RECORD: dict = {"n_ranks": NP}


def _data(n):
    return scaled_problem(n).data()


def test_fault_rate_overhead_sweep(benchmark):
    """Overhead grows with the injected fault rate; zero rate costs zero."""
    def run():
        rows = run_sweep(run_point, expand(SWEEP_CAMPAIGN).points)
        base = rows[0]["overall_time"]  # the zero-rate point
        for row in rows:
            row["overhead"] = row["overall_time"] / base if base > 0 else 1.0
        baseline = run_checkpoint_steps(
            ReducedBlockingIO(workers_per_writer=WPW), NP, _data(NP),
            N_STEPS, gap_seconds=GAP,
            run_config=RunConfig(coalesce="off"),
        ).results[-1]
        return rows, baseline.overall_time

    rows, base_time = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(
        f"Fault-rate overhead sweep, rbio np={NP}, {N_STEPS} steps",
        ["rate", "injected", "overall time", "overhead"],
        [[f"{r['fault_rate']:.0f}", r["injected"],
          f"{r['overall_time']:.3f} s", f"{r['overhead']:.3f}x"]
         for r in rows],
    )
    # Zero-cost off-switch: the empty schedule reproduces the fault-free
    # campaign bit-exactly (same events, same timing).
    assert rows[0]["fault_rate"] == 0.0
    assert rows[0]["injected"] == 0
    assert rows[0]["overall_time"] == base_time
    # Injected transient faults add time (retry backoff, stall waits) —
    # to the operation they hit.  On the noisy default machine a delayed
    # operation also moves every later draw of the shared FS noise stream,
    # so a campaign with a handful of faults lands anywhere in the band
    # the fault-free campaign itself spans from seed to seed: -1.8 % ..
    # +1.4 % of its median over eight seeds at np = 1024 (EXPERIMENTS.md,
    # "Fault-rate overhead below the noise band"; the small tier's rate-2
    # point reads 0.987x with 3 faults injected).  Tolerance: twice that
    # band below 1; the heaviest rate must clear it above.
    for r in rows:
        assert r["overhead"] >= 1.0 - NOISE_BAND
    assert rows[-1]["injected"] > 0
    assert rows[-1]["overhead"] > 1.0 + NOISE_BAND
    _RECORD["sweep"] = [
        {"rate": float(r["fault_rate"]), "injected": r["injected"],
         "overall_time": r["overall_time"], "overhead": r["overhead"]}
        for r in rows
    ]
    bench_record("ext_faults", **_RECORD)


def test_writer_failover_campaign(benchmark):
    """Losing a writer neither hangs the campaign nor corrupts the restart."""
    def run():
        (result,) = run_sweep(run_point, expand(FAILOVER_CAMPAIGN).points)
        return {key: result[key] for key in (
            "restored_step", "failovers", "overall_time", "crashed_roles")}

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(
        f"Writer-failover campaign, rbio np={NP}, crash rank {CRASH_RANK}",
        ["metric", "value"],
        [[k, v] for k, v in out.items()],
    )
    # The orphaned group was adopted by a survivor in generation 1 ...
    assert out["failovers"] == 1
    assert out["crashed_roles"] == 1
    # ... and the coordinated restart agreed on the newest *complete*
    # generation (generation 1 misses the dead rank's data).
    assert out["restored_step"] == 0
    _RECORD["failover"] = out
    bench_record("ext_faults", **_RECORD)
