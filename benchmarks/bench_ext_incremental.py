"""Extension: incremental content-addressed checkpointing (DESIGN.md §14).

Three studies of the content-defined-chunking delta path, all driven
through the declarative campaign layer (``grid.delta`` axis + evolving
``workload``), on an rbIO strategy writing an evolving state where a
contiguous ``mutated_fraction`` of each rank's image is overwritten per
step:

1. **Headline bytes-to-PFS reduction** — delta-on vs delta-off on the
   same campaign.  With a quarter of the state mutating per step over a
   20-generation chain, the delta path must ship >= 3x fewer physical
   bytes while the *perceived* checkpoint bandwidth (logical bytes over
   blocked time) rises, because the application still logically
   checkpoints everything.
2. **Mutated-fraction sweep** — the dedup ratio degrades monotonically
   as more of the state churns, tracking the analytic
   ``chain_reduction(n, f_eff)`` model of :mod:`repro.model`.
3. **Chain-length (checkpoint-frequency) sweep** — longer chains
   amortize the full generation 0 further; the reduction approaches the
   model's ``1 / f_eff`` asymptote from below.

The simulator-vs-model agreement asserted here is what lets the interval
planner (:mod:`repro.ckpt.schedule`) price delta checkpoints without
running the simulation.
"""

from _common import PAPER_SCALE, SMOKE, bench_record, print_series

from repro.campaign import CampaignSpec, expand, run_point
from repro.experiments import run_sweep
from repro.model import chain_reduction, effective_delta_fraction

# A fixed-size study (like the fault sweep): the delta ratio is a
# per-rank property, so scaling np only multiplies the same images.
NP = 512 if PAPER_SCALE else (64 if not SMOKE else 8)
PPR = 12000 if PAPER_SCALE else (9000 if not SMOKE else 6000)
GAP = 0.5
HEADLINE_F = 0.25          # acceptance point: <= 25% of state mutates
HEADLINE_STEPS = 20
FRACTIONS = (0.05, 0.25, 0.5)
CHAIN_LENGTHS = (5, 10, 20)
SEED = 42

#: EvolvingData.mutating writes 142 bytes per point per rank; the default
#: ChunkingParams average is 8 KiB and a JSON manifest entry ~95 bytes.
IMAGE_BYTES = 142 * PPR
AVG_CHUNK = 8192
OVERHEAD = 4096 + 95 * (IMAGE_BYTES // AVG_CHUNK)  # header + manifest

_RECORD: dict = {"n_ranks": NP, "points_per_rank": PPR}

#: ``run_point`` rows by point content hash.  The f=0.25, n=20 delta point
#: is the headline's, the fraction sweep's and the chain sweep's cell: it
#: runs once per module.
_ROWS: dict = {}


def _rows(spec: CampaignSpec) -> list:
    """The spec's rows in expansion order, running only unseen points."""
    points = expand(spec).points
    todo = [p for p in points if p.content_hash not in _ROWS]
    for point, row in zip(todo, run_sweep(run_point, todo)):
        _ROWS[point.content_hash] = row
    return [_ROWS[p.content_hash] for p in points]


def _spec(fraction: float, n_steps: int, modes) -> CampaignSpec:
    return CampaignSpec.from_dict({
        "name": f"ext_incremental_f{fraction}_n{n_steps}",
        "seed": SEED,
        "machine": {"preset": "intrepid_quiet"},
        "grid": {"approaches": ["rbio_nf2"], "np": [NP],
                 "delta": list(modes)},
        "steps": {"n_steps": n_steps, "gap": GAP},
        "workload": {"points_per_rank": PPR, "mutated_fraction": fraction},
    })


def _delta_cell(fraction: float, n_steps: int) -> dict:
    """One delta="require" campaign point, reduced to headline numbers."""
    (row,) = _rows(_spec(fraction, n_steps, ["require"]))
    return _reduce(row)


def _reduce(row: dict) -> dict:
    out = {"delta": row["delta"], "gbps": row["gbps"]}
    if row["delta"] != "off":
        out.update({
            "bytes_logical": row["bytes_logical"],
            "bytes_to_pfs": row["bytes_to_pfs"],
            "reduction": row["bytes_logical"] / row["bytes_to_pfs"],
            "chunk_hits": row["chunk_hits"],
            "chunk_misses": row["chunk_misses"],
        })
    return out


def _model_reduction(fraction: float, n_steps: int) -> float:
    f_eff = effective_delta_fraction(
        fraction, IMAGE_BYTES, AVG_CHUNK, overhead_bytes=OVERHEAD)
    return chain_reduction(n_steps, f_eff)


def test_headline_reduction_and_perceived_bandwidth(benchmark):
    """Delta-on ships >= 3x fewer bytes to the PFS at f=0.25, n=20."""
    def run():
        rows = _rows(_spec(HEADLINE_F, HEADLINE_STEPS, ["off", "require"]))
        return [_reduce(r) for r in rows]

    off, on = benchmark.pedantic(run, rounds=1, iterations=1)
    assert off["delta"] == "off" and on["delta"] == "require"
    print_series(
        f"Incremental headline, rbio np={NP}, f={HEADLINE_F}, "
        f"{HEADLINE_STEPS} generations",
        ["mode", "perceived GB/s", "bytes to PFS", "reduction"],
        [["full write", f"{off['gbps']:.4f}", on["bytes_logical"], "1.00x"],
         ["delta", f"{on['gbps']:.4f}", on["bytes_to_pfs"],
          f"{on['reduction']:.2f}x"]],
    )
    # The acceptance criterion: <= 25% churn per step must cut physical
    # PFS traffic at least 3x over the chain.
    assert on["reduction"] >= 3.0
    # Logical bytes are the full image every generation regardless of mode.
    assert on["bytes_logical"] == NP * IMAGE_BYTES * HEADLINE_STEPS
    # Dedup hits dominate after generation 0 at 25% churn.
    assert on["chunk_hits"] > on["chunk_misses"]
    # Shipping fewer physical bytes for the same logical checkpoint raises
    # the perceived bandwidth.
    assert on["gbps"] > off["gbps"]
    _RECORD["headline"] = {"off_gbps": off["gbps"], "on_gbps": on["gbps"],
                           "reduction": on["reduction"],
                           "bytes_to_pfs": on["bytes_to_pfs"]}
    bench_record("ext_incremental", **_RECORD)


def test_reduction_vs_mutated_fraction(benchmark):
    """More churn, less dedup — monotone, and the analytic model tracks."""
    cells = benchmark.pedantic(
        lambda: [_delta_cell(f, HEADLINE_STEPS) for f in FRACTIONS],
        rounds=1, iterations=1,
    )
    models = [_model_reduction(f, HEADLINE_STEPS) for f in FRACTIONS]
    print_series(
        f"Reduction vs mutated fraction, np={NP}, "
        f"{HEADLINE_STEPS} generations",
        ["mutated fraction", "reduction", "model", "chunk hit rate"],
        [[f"{f:.2f}", f"{c['reduction']:.2f}x", f"{m:.2f}x",
          f"{c['chunk_hits'] / (c['chunk_hits'] + c['chunk_misses']):.3f}"]
         for f, c, m in zip(FRACTIONS, cells, models)],
    )
    reductions = [c["reduction"] for c in cells]
    assert all(a > b for a, b in zip(reductions, reductions[1:]))
    # The chunk-granularity model prices every cell to ~25%.
    for got, want in zip(reductions, models):
        assert 0.75 * want <= got <= 1.3 * want
    _RECORD["fractions"] = [
        {"mutated_fraction": f, "reduction": c["reduction"], "model": m}
        for f, c, m in zip(FRACTIONS, cells, models)
    ]
    bench_record("ext_incremental", **_RECORD)


def test_reduction_vs_chain_length(benchmark):
    """Longer chains amortize the full generation 0 toward 1/f_eff."""
    cells = benchmark.pedantic(
        lambda: [_delta_cell(HEADLINE_F, n) for n in CHAIN_LENGTHS],
        rounds=1, iterations=1,
    )
    models = [_model_reduction(HEADLINE_F, n) for n in CHAIN_LENGTHS]
    print_series(
        f"Reduction vs chain length, np={NP}, f={HEADLINE_F}",
        ["generations", "reduction", "model"],
        [[n, f"{c['reduction']:.2f}x", f"{m:.2f}x"]
         for n, c, m in zip(CHAIN_LENGTHS, cells, models)],
    )
    reductions = [c["reduction"] for c in cells]
    assert all(b > a for a, b in zip(reductions, reductions[1:]))
    for got, want in zip(reductions, models):
        assert 0.75 * want <= got <= 1.3 * want
    # Still below the infinite-chain asymptote the model predicts.
    f_eff = effective_delta_fraction(HEADLINE_F, IMAGE_BYTES, AVG_CHUNK,
                                     overhead_bytes=OVERHEAD)
    assert reductions[-1] < 1.0 / f_eff
    _RECORD["chain"] = [
        {"n_steps": n, "reduction": c["reduction"], "model": m}
        for n, c, m in zip(CHAIN_LENGTHS, cells, models)
    ]
    bench_record("ext_incremental", **_RECORD)
