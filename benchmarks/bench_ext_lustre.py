"""Extension (paper future work): rbIO on a Lustre-like file system.

The paper plans to "investigate how rbIO performs on platforms such as the
Cray XT with other file systems such as Lustre".  This bench runs the
rbIO file-count sweep of Fig. 8 on the Lustre variant and contrasts it
with GPFS: object striping over ``stripe_count`` OSTs makes small file
counts (and especially a single shared file) far worse on Lustre, shifting
the optimum — confirming the paper's observation that "this optimal number
could vary from one file system to another".
"""

from _common import PAPER_SCALE, SMOKE, bench_np, bench_record, print_series

from repro.ckpt import CollectiveIO, ReducedBlockingIO
from repro.experiments import paper_data, run_checkpoint_steps, scaled_problem

NP = bench_np(16384, 2048)
if PAPER_SCALE:
    N_FILES = (64, 256, 1024, 4096)
elif SMOKE:
    N_FILES = (4, 16, 64)
else:
    N_FILES = (16, 64, 256)


def _data():
    return paper_data(NP) if PAPER_SCALE else scaled_problem(NP).data()


def test_ext_lustre_file_sweep(benchmark):
    def run():
        data = _data()
        out = {"gpfs": {}, "lustre": {}}
        for nf in N_FILES:
            wpw = NP // nf
            if wpw < 2:
                continue
            for fs_type in ("gpfs", "lustre"):
                out[fs_type][nf] = run_checkpoint_steps(
                    ReducedBlockingIO(workers_per_writer=wpw), NP, data,
                    fs_type=fs_type,
                ).result.write_bandwidth / 1e9
        # Shared-file collective baseline on both.
        for fs_type in ("gpfs", "lustre"):
            out[fs_type]["nf=1 coIO"] = run_checkpoint_steps(
                CollectiveIO(ranks_per_file=None), NP, data,
                fs_type=fs_type,
            ).result.write_bandwidth / 1e9
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    cols = [f"nf={nf}" for nf in N_FILES if NP // nf >= 2] + ["coIO nf=1"]
    keys = [nf for nf in N_FILES if NP // nf >= 2] + ["nf=1 coIO"]
    rows = [
        [fs_type] + [f"{out[fs_type][k]:.2f}" for k in keys]
        for fs_type in ("gpfs", "lustre")
    ]
    print_series(
        f"Extension: rbIO bandwidth (GB/s) on GPFS vs Lustre, np={NP}",
        ["file system"] + cols, rows,
    )

    bench_record("ext_lustre", n_ranks=NP, gbps={
        fs_type: {str(k): out[fs_type][k] for k in keys}
        for fs_type in ("gpfs", "lustre")
    })
    # A single shared file on Lustre is capped by its stripe width (4 OSTs
    # of 128 servers) — Dickens & Logan's poor shared-file MPI-IO.
    assert out["lustre"]["nf=1 coIO"] < out["gpfs"]["nf=1 coIO"]
    # With many files both file systems can use the whole backend.
    many = keys[-2]
    # (at smoke scale the stripe-width gap narrows; keep a looser floor)
    factor = 1.5 if SMOKE else 2
    assert out["lustre"][many] > factor * out["lustre"]["nf=1 coIO"]
    if PAPER_SCALE:
        # The shared-file ceiling is drastic: >4x below GPFS's (already
        # allocation-limited) shared-file rate...
        assert out["lustre"]["nf=1 coIO"] < out["gpfs"]["nf=1 coIO"] / 4
        # ...while with enough files Lustre is within 2x of GPFS.
        assert out["lustre"][many] > 0.5 * out["gpfs"][many]
