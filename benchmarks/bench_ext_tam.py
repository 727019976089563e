"""Extension: two-level intra-node request aggregation (DESIGN.md §15).

Two studies of the TAM path (Kang et al., arXiv:1907.12656) — same-node
ranks coalesce their checkpoint extents through a node-local aggregator
before anything touches the torus, so only node leaders join the
inter-node exchange:

1. **rbIO np sweep (Fig. 5-style)** — flat vs TAM over the paper's
   processor counts.  Inter-node fabric *messages* drop by the
   cores-per-node factor (4x on BG/P) at every np, while inter-node
   *bytes* are bit-identical (every package still crosses the node
   boundary exactly once) and the written files are unchanged.  The
   per-writer message count demonstrates the scaling claim: flat is
   O(ranks per aggregator), TAM is O(nodes per aggregator).
2. **coIO aggregator-count sweep (Fig. 8-style)** — flat vs TAM across
   ``cb_nodes`` settings of the shared-file collective write.  The
   two-phase exchange coalesces per node on both the send and receive
   side, so the reduction tracks the node-local fan-in even as the
   aggregator count varies.

The headline acceptance: at the sweep's headline np (16K at paper
scale), rbIO under TAM must send >= 3x fewer inter-node fabric messages
than the flat protocol.
"""

from _common import PAPER_SCALE, SMOKE, bench_record, print_series

from repro.ckpt import CollectiveIO
from repro.experiments import run_checkpoint_steps
from repro.experiments.figures import problem_for, strategy_for
from repro.mpiio import Hints
from repro.topology import intrepid

#: Fig. 5-style weak-scaling counts for the rbIO flat-vs-TAM sweep.
if PAPER_SCALE:
    NP_SWEEP = (4096, 16384, 65536)
elif SMOKE:
    NP_SWEEP = (128, 256, 512)
else:
    NP_SWEEP = (512, 1024, 2048)

#: The acceptance point: np=16K at paper scale, mid-sweep otherwise.
HEADLINE_NP = NP_SWEEP[1]

#: coIO aggregator counts (cb_nodes) for the Fig. 8-style sweep, and the
#: fixed processor count they share.
CB_NODES = (2, 4, 8)
COIO_NP = 16384 if PAPER_SCALE else 128

WPW = 64  # rbio_ng group size (np:ng = 64:1)

QUIET = intrepid().quiet()
CPN = QUIET.cores_per_node

_RECORD: dict = {"np_sweep": list(NP_SWEEP), "cores_per_node": CPN}

#: The ``Job.metrics()`` counters every cell carries into the record.
_KEYS = ("fabric.msgs_intra", "fabric.msgs_inter",
         "fabric.bytes_intra", "fabric.bytes_inter",
         "fabric.tam_msgs", "fabric.tam_packages",
         "fabric.tam_coalesce_ratio")


def _cell(strategy, n_ranks: int) -> dict:
    """Run one checkpoint step; return fabric counters + headline timing."""
    run = run_checkpoint_steps(strategy, n_ranks,
                               problem_for(n_ranks).data(), config=QUIET)
    metrics = run.job.metrics()
    out = {k: metrics.get(k) for k in _KEYS}
    out["gbps"] = run.result.write_bandwidth / 1e9
    return out


def _rbio_pair(n_ranks: int) -> dict:
    flat = _cell(strategy_for("rbio_ng", n_ranks), n_ranks)
    tam = _cell(strategy_for("rbio_ng", n_ranks, tam="require"), n_ranks)
    return {"np": n_ranks, "flat": flat, "tam": tam,
            "reduction": flat["fabric.msgs_inter"]
            / tam["fabric.msgs_inter"]}


def _coio_pair(cb_nodes: int) -> dict:
    def build(tam):
        s = CollectiveIO(ranks_per_file=None, hints=Hints(cb_nodes=cb_nodes))
        return s.configure_tam(tam) if tam != "off" else s

    flat = _cell(build("off"), COIO_NP)
    tam = _cell(build("require"), COIO_NP)
    return {"cb_nodes": cb_nodes, "flat": flat, "tam": tam,
            "reduction": flat["fabric.msgs_inter"]
            / tam["fabric.msgs_inter"]}


def test_rbio_inter_node_message_reduction(benchmark):
    """TAM cuts rbIO inter-node fabric messages >= 3x at the headline np."""
    rows = benchmark.pedantic(
        lambda: [_rbio_pair(np_) for np_ in NP_SWEEP], rounds=1, iterations=1)
    print_series(
        f"rbIO (np:ng={WPW}:1) inter-node fabric messages, flat vs TAM, "
        f"cores/node={CPN}",
        ["np", "flat msgs", "TAM msgs", "reduction", "flat GB/s",
         "TAM GB/s"],
        [[r["np"], r["flat"]["fabric.msgs_inter"],
          r["tam"]["fabric.msgs_inter"], f"{r['reduction']:.2f}x",
          f"{r['flat']['gbps']:.3f}", f"{r['tam']['gbps']:.3f}"]
         for r in rows],
    )
    headline = next(r for r in rows if r["np"] == HEADLINE_NP)
    # The acceptance criterion: >= 3x fewer inter-node messages for rbIO
    # at the headline processor count (16K at paper scale).
    assert headline["reduction"] >= 3.0
    for r in rows:
        groups = r["np"] // WPW
        # Scaling shape, not just a factor: flat sends one message per
        # remote *rank* per aggregator, TAM one per remote *node*.
        assert r["flat"]["fabric.msgs_inter"] == groups * (WPW - CPN)
        assert r["tam"]["fabric.msgs_inter"] == groups * (WPW // CPN - 1)
        # Every package still crosses the node boundary exactly once, so
        # inter-node *bytes* are identical; only the message count drops.
        assert (r["tam"]["fabric.bytes_inter"]
                == r["flat"]["fabric.bytes_inter"])
        assert r["tam"]["fabric.tam_coalesce_ratio"] > 1.0
        assert r["flat"]["fabric.tam_msgs"] == 0
    _RECORD["rbio"] = [
        {"np": r["np"], "reduction": r["reduction"],
         "flat_msgs_inter": r["flat"]["fabric.msgs_inter"],
         "tam_msgs_inter": r["tam"]["fabric.msgs_inter"],
         "flat_gbps": r["flat"]["gbps"], "tam_gbps": r["tam"]["gbps"]}
        for r in rows
    ]
    _RECORD["headline_reduction"] = headline["reduction"]
    bench_record("ext_tam", **_RECORD)


def test_coio_reduction_across_aggregator_counts(benchmark):
    """The coIO two-phase reduction holds across cb_nodes settings."""
    rows = benchmark.pedantic(
        lambda: [_coio_pair(cb) for cb in CB_NODES], rounds=1, iterations=1)
    print_series(
        f"coIO (nf=1, np={COIO_NP}) inter-node fabric messages vs "
        "aggregator count, flat vs TAM",
        ["cb_nodes", "flat msgs", "TAM msgs", "reduction"],
        [[r["cb_nodes"], r["flat"]["fabric.msgs_inter"],
          r["tam"]["fabric.msgs_inter"], f"{r['reduction']:.2f}x"]
         for r in rows],
    )
    for r in rows:
        # Node-local coalescing approaches the cores-per-node fan-in; it
        # can't exceed it, and stays well above half of it even at the
        # largest aggregator count (where more leaders are themselves
        # aggregators and have nothing to forward).
        assert CPN / 2 < r["reduction"] <= CPN
        assert (r["tam"]["fabric.bytes_inter"]
                == r["flat"]["fabric.bytes_inter"])
        assert r["tam"]["fabric.tam_msgs"] > 0
    _RECORD["coio"] = [
        {"cb_nodes": r["cb_nodes"], "reduction": r["reduction"],
         "flat_msgs_inter": r["flat"]["fabric.msgs_inter"],
         "tam_msgs_inter": r["tam"]["fabric.msgs_inter"]}
        for r in rows
    ]
    bench_record("ext_tam", **_RECORD)
