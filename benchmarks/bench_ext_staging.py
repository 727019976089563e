"""Extension: bbIO burst-buffer staging (beyond the paper; DESIGN.md §8).

bbIO keeps rbIO's 64:1 aggregation but acknowledges workers once the
group package is resident in a staging buffer, letting a background
process trickle it to GPFS during the computation gaps.  Four studies:

1. **bbIO vs rbIO vs coIO** at equal np with checkpoint gaps shorter
   than a PFS commit: rbIO writers (which acknowledge only after the
   commit) push their backlog into worker blocking, bbIO writers do not.
2. **Drain-bandwidth sweep** — the staging analogue of the paper's
   lambda: workers only block once ``drain_bandwidth * gap`` falls below
   the per-writer checkpoint volume and the buffer fills.
3. **Buffer-capacity sweep** — capacity buys steps before backpressure,
   not sustained bandwidth.
4. **Partner-replicated restart** — with ``replicate=True`` a restart
   reads every group's package from its partner's buffer: zero PFS reads.
"""

from _common import PAPER_SCALE, SMOKE, bench_np, bench_record, print_series

from repro.ckpt import BurstBufferIO, CollectiveIO, ReducedBlockingIO
from repro.experiments import (
    ext_staging_capacity_sweep,
    ext_staging_drain_sweep,
    ext_staging_run,
    paper_data,
    run_checkpoint_steps,
    scaled_problem,
)

NP = bench_np(16384, 2048)
N_STEPS = 3 if SMOKE else 4
GAP = 1.0  # shorter than a PFS commit at every scale

#: The drain sweep is a fixed-size physics experiment (one/two psets);
#: its threshold depends on per-writer volume and gap, not on np.  The
#: backlog of an undersized drain compounds over steps, so the sweep
#: keeps its step count at every scale.
SWEEP_NP = 512
SWEEP_STEPS = 4
SWEEP_GAP = 4.0
#: Per-writer drain rates; at 64:1 the per-writer step volume is
#: ~154 MB, so the gap=4 s backpressure threshold sits near 38 MB/s.
SWEEP_BWS = (None, 20e6) if SMOKE else (None, 60e6, 20e6, 10e6)


def _data(n):
    return paper_data(n) if PAPER_SCALE else scaled_problem(n).data()


def _steady_blocking(results):
    per_step = [r.blocking_time for r in results]
    return max(per_step[1:] if len(per_step) > 1 else per_step)


def _steady_bw(results):
    return max(r.write_bandwidth for r in results)


def test_staging_vs_rbio_coio(benchmark):
    """bbIO worker blocking <= rbIO's at equal np (and far below coIO's)."""
    def run():
        out = {}
        bb = ext_staging_run(n_ranks=NP, n_steps=N_STEPS, gap_seconds=GAP,
                             max_outstanding=1)
        out["bbio"] = (bb["blocking_time"],
                       _steady_bw(bb["results"]), bb)
        for key, strat in (
            ("rbio", ReducedBlockingIO(workers_per_writer=64,
                                       max_outstanding=1)),
            ("coio", CollectiveIO(ranks_per_file=64)),
        ):
            results = run_checkpoint_steps(
                strat, NP, _data(NP), n_steps=N_STEPS, gap_seconds=GAP,
                barrier_each_step=False).results
            out[key] = (_steady_blocking(results), _steady_bw(results), None)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(
        f"bbIO vs rbIO vs coIO, np={NP}, gap={GAP}s",
        ["approach", "worker blocking", "perceived bandwidth"],
        [[k, f"{out[k][0]:.4f} s", f"{out[k][1]/1e9:.2f} GB/s"]
         for k in ("bbio", "rbio", "coio")],
    )
    bb, rb, co = out["bbio"][0], out["rbio"][0], out["coio"][0]
    bench_record("ext_staging", n_ranks=NP, blocking_s={
        "bbio": bb, "rbio": rb, "coio": co
    })
    # Staging acknowledges at buffer speed; the PFS commit moved into the
    # background drain, so bbIO never blocks workers longer than rbIO.
    assert bb <= rb + 1e-3
    # coIO makes every rank wait out the collective write.
    assert co > rb
    # The drain did commit the campaign to the PFS in the background.
    stats = out["bbio"][2]
    assert stats["packages_drained"] > 0
    assert stats["bytes_drained"] > 0


def test_staging_drain_bandwidth_sweep(benchmark):
    """Blocking engages once drain_bandwidth * gap < per-writer volume."""
    out = benchmark.pedantic(
        lambda: ext_staging_drain_sweep(SWEEP_BWS, n_ranks=SWEEP_NP,
                                        n_steps=SWEEP_STEPS,
                                        gap_seconds=SWEEP_GAP,
                                        capacity_steps=1.5),
        rounds=1, iterations=1,
    )
    per_writer = scaled_problem(SWEEP_NP).data()
    volume = per_writer.header_bytes + 64 * per_writer.total_bytes
    rows = []
    for bw in SWEEP_BWS:
        r = out[bw]
        rows.append([
            "unthrottled" if bw is None else f"{bw/1e6:.0f} MB/s",
            f"{r['blocking_time']:.4f} s", r["stalls"],
            f"{r['peak_used']/1e6:.0f} MB",
        ])
    print_series(
        f"Drain-bandwidth sweep, np={SWEEP_NP}, gap={SWEEP_GAP}s "
        f"(per-writer volume {volume/1e6:.0f} MB/step)",
        ["drain bandwidth", "worker blocking", "stalls", "peak buffer"],
        rows,
    )
    blockings = [out[bw]["blocking_time"] for bw in SWEEP_BWS]
    # Monotone: less drain bandwidth never unblocks workers.
    for faster, slower in zip(blockings, blockings[1:]):
        assert slower >= faster - 1e-6
    for bw in SWEEP_BWS:
        if bw is None or bw * SWEEP_GAP > 1.2 * volume:
            # Drain keeps up: workers never wait on the buffer.
            assert out[bw]["blocking_time"] < 0.1
        elif bw * SWEEP_GAP < 0.8 * volume:
            # Drain falls behind: the buffer fills and backpressure
            # reaches the workers (the staging lambda).
            assert out[bw]["blocking_time"] > 1.0
            assert out[bw]["stalls"] > 0


def test_staging_capacity_sweep(benchmark):
    """A bigger buffer delays backpressure under an undersized drain."""
    caps = (1.2, 3.0)
    out = benchmark.pedantic(
        lambda: ext_staging_capacity_sweep(caps, n_ranks=SWEEP_NP,
                                           n_steps=SWEEP_STEPS,
                                           gap_seconds=SWEEP_GAP,
                                           drain_bandwidth=20e6),
        rounds=1, iterations=1,
    )
    print_series(
        f"Buffer-capacity sweep, np={SWEEP_NP}, drain 20 MB/s",
        ["capacity (steps)", "worker blocking", "stalls", "peak buffer"],
        [[f"{c:.1f}", f"{out[c]['blocking_time']:.4f} s", out[c]["stalls"],
          f"{out[c]['peak_used']/1e6:.0f} MB"] for c in caps],
    )
    small, large = out[caps[0]], out[caps[1]]
    # The campaign fits the large buffer: no backpressure within it.
    assert large["blocking_time"] < 0.1
    # The small buffer fills mid-campaign under the same drain rate.
    assert small["blocking_time"] > 1.0
    assert small["stalls"] > large["stalls"]


def test_staging_partner_restart(benchmark):
    """Replicated staging restarts entirely from buffers: zero PFS reads."""
    from repro.staging import StagingConfig

    np_restart = bench_np(16384, 2048)
    strat = BurstBufferIO(workers_per_writer=64,
                          staging=StagingConfig(replicate=True),
                          restore_from="partner")
    data = _data(np_restart)

    def checkpoint_and_restart():
        run = run_checkpoint_steps(strat, np_restart, data)
        run.restore()
        return run

    run = benchmark.pedantic(checkpoint_and_restart, rounds=1, iterations=1)
    # After the restore wave: the results' fs_stats predate it.
    stats = run.fs.stats()
    run.job.close()
    total = np_restart * data.total_bytes
    print_series(
        f"Partner-replicated restart, np={np_restart}",
        ["metric", "value"],
        [
            ["restore time", f"{run.restore_seconds:.3f} s"],
            ["restore bandwidth", f"{total / run.restore_seconds / 1e9:.2f} GB/s"],
            ["PFS reads", stats["reads"]],
            ["PFS writes", stats["writes"]],
        ],
    )
    # Every group pulled its package from a partner buffer; the PFS was
    # never consulted on the restart path.
    assert stats["reads"] == 0
    assert run.restore_seconds > 0
    for t0, t1 in run.restore_windows.values():
        assert t1 - t0 >= 0
