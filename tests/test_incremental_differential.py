"""Differential harness for incremental (delta) checkpointing.

Every strategy × fault-matrix cell runs twice on an evolving workload —
once with ``delta="off"`` (the paper-fidelity full write) and once with
the content-defined-chunking delta path — and the two runs must agree
bit for bit on everything observable by the application:

- the generation the coordinated resilient restore picks,
- the restored field bytes on every rank (also checked against the
  workload's ground-truth state at that step),
- the logical ``RunResult`` figures (``ranks``, ``roles``,
  ``bytes_local``) — time-derived figures legitimately differ, because
  the delta path ships fewer physical bytes.

On top of the differential contract, every manifest the delta run left
on the PFS is audited: each chunk's CRC32 recomputed from the stored
file bytes must equal the manifest-declared CRC.  A seeded mutation
sweep then flips one chunk of one generation on disk and asserts the
corruption is caught by CRC verification and recovered by falling back
along the parent chain — never served silently.
"""

import re

import numpy as np
import pytest

from repro import RunConfig
from repro.buffers import as_bytes
from repro.ckpt import (
    BurstBufferIO,
    ChunkingParams,
    CollectiveIO,
    EvolvingData,
    Manifest,
    ManifestError,
    OneFilePerProcess,
    ReducedBlockingIO,
    UnrecoverableCheckpointError,
)
from repro.experiments import run_checkpoint_steps
from repro.faults import FaultSchedule, FaultSpec
from repro.staging import StagingConfig
from repro.topology import intrepid

QUIET = intrepid().quiet()
NP = 16          # 2 groups of 8 for the grouped strategies
GROUP = 8
N_STEPS = 3
GAP = 2.0        # step 1 starts ~2 s in, after any time<=1 fault lands
PPR = 300        # evolving workload points per rank

#: Small chunks so a ~20 KB rank image still yields a real chunk stream.
CHUNKING = ChunkingParams(min_size=256, avg_size=1024, max_size=4096)

#: A quarter of each rank's state mutates per step (contiguous region).
#: Small header so per-file fixed costs don't swamp the tiny delta scale.
DATA = EvolvingData.mutating(PPR, mutated_fraction=0.25, seed=5,
                             header_bytes=256)

STRATEGIES = ["1pfpp", "coio", "coio_nf1", "rbio", "rbio_nf1", "bbio"]


def make_strategy(name: str, delta: str):
    if name == "1pfpp":
        s = OneFilePerProcess(arrival_jitter=0.0)
    elif name == "coio":
        s = CollectiveIO(ranks_per_file=GROUP)
    elif name == "coio_nf1":
        s = CollectiveIO(ranks_per_file=None)
    elif name == "rbio":
        s = ReducedBlockingIO(workers_per_writer=GROUP)
    elif name == "rbio_nf1":
        s = ReducedBlockingIO(workers_per_writer=GROUP, single_file=True)
    elif name == "bbio":
        s = BurstBufferIO(workers_per_writer=GROUP,
                          staging=StagingConfig(replicate=True))
    else:
        raise AssertionError(name)
    if delta != "off":
        s.configure_delta(delta, chunking=CHUNKING)
    return s


FAULT_CELLS = {
    "none": FaultSchedule(),
    # Two transient write errors: absorbed by bounded retry everywhere.
    "transient_fs": FaultSchedule((
        FaultSpec(kind="fs_error", time=0.0, op="write", count=2,
                  transient=True),
    )),
    # Writer of group 1 (rank 8) dies between the generations.
    "writer_crash": FaultSchedule((
        FaultSpec(kind="rank_crash", time=1.0, rank=8),
    )),
    # Group 0's burst buffer device is lost mid-campaign.
    "buffer_loss": FaultSchedule((
        FaultSpec(kind="buffer_loss", time=1.0, rank=0),
    )),
    # Group 1's partner replica of the newest generation is corrupted
    # after the campaign settles, before the restart.
    "replica_corrupt": FaultSchedule((
        FaultSpec(kind="replica_corrupt", time=50.0, group=1,
                  step=N_STEPS - 1),
    )),
}


def run_cell(strategy_name: str, fault_name: str, delta: str):
    run = run_checkpoint_steps(
        make_strategy(strategy_name, delta), NP, DATA,
        n_steps=N_STEPS,
        run_config=RunConfig(faults=FAULT_CELLS[fault_name]),
        config=QUIET, gap_seconds=GAP,
    )
    run.restore()
    return run


def expected_fields(rank: int, step: int) -> list[bytes]:
    return [f.payload for f in DATA.bind(rank).at_step(step).fields]


_STEP_DIR = re.compile(r"/step\d{6}/")


def audit_manifests(job, strict: bool) -> int:
    """Recompute every manifest-declared chunk CRC from the stored bytes.

    Returns the number of chunks checked.  ``strict=False`` skips
    manifests a fault left unparseable (the restore path votes those
    generations down through the same :class:`ManifestError`).
    """
    fs = job.services["fs"]
    checked = 0
    for path in sorted(fs.files):
        if not path.endswith(".manifest"):
            continue
        blob = as_bytes(fs.files[path].read_extents(0, fs.files[path].size))
        try:
            manifest = Manifest.from_bytes(blob)
        except ManifestError:
            if strict:
                raise
            continue
        data_path = path[: -len(".manifest")]
        for section in manifest.sections:
            for chunk in section.chunks:
                src = _STEP_DIR.sub(f"/step{chunk.src_step:06d}/", data_path)
                piece = fs.files[src].read_extents(chunk.src_offset,
                                                   chunk.length)
                assert piece.crc32() == chunk.crc, (
                    f"{path}: chunk at {chunk.offset} fails its CRC")
                checked += 1
    return checked


# ---------------------------------------------------------------------------
# The strategy × fault differential matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fault_name", sorted(FAULT_CELLS))
@pytest.mark.parametrize("strategy_name", STRATEGIES)
def test_matrix_cell_differential(strategy_name, fault_name):
    try:
        off = run_cell(strategy_name, fault_name, "off")
    except UnrecoverableCheckpointError:
        off = None
    try:
        on = run_cell(strategy_name, fault_name, "auto")
    except UnrecoverableCheckpointError:
        on = None

    # Same outcome class: both restore, or both refuse loudly.
    assert (off is None) == (on is None)
    if off is None:
        return

    # Same generation, bit-identical restored state, matching ground truth.
    assert off.restored_step == on.restored_step
    step = off.restored_step
    for rank in range(NP):
        step_off, fields_off = off.restored[rank]
        step_on, fields_on = on.restored[rank]
        assert step_off == step_on == step
        want = expected_fields(rank, step)
        assert [as_bytes(f) for f in fields_off] == want
        assert [as_bytes(f) for f in fields_on] == want

    # Logical RunResult figures agree (delta changes physics, not logic).
    for a, b in zip(off.results, on.results):
        assert a.roles == b.roles
        assert np.array_equal(a.ranks, b.ranks)
        assert np.array_equal(a.bytes_local, b.bytes_local)

    # Every surviving manifest's declared CRCs match the stored bytes,
    # and the delta run actually deduplicated (or at least chunked).
    audit_manifests(on.job, strict=(fault_name == "none"))
    snap = delta_snapshot(on.job)
    assert snap["chunk_misses"] > 0
    if fault_name in ("none", "transient_fs"):
        # Unfaulted chains dedup every generation after the first.
        assert snap["chunk_hits"] > 0
    if snap["chunk_hits"]:
        # Whenever any delta generation committed, it paid off: a fault
        # that skips later generations (e.g. a dead collective member)
        # leaves only the full gen-0 write plus manifest overhead.
        assert snap["bytes_to_pfs"] < snap["bytes_logical"]


def delta_snapshot(job) -> dict:
    m = job.metrics()
    return {key: m.get(f"delta.{key}") for key in (
        "bytes_logical", "bytes_to_pfs", "chunk_hits", "chunk_misses")}


def test_delta_off_leaves_counters_untouched():
    # Run after a delta job in the same process, with no reset anywhere.
    assert delta_snapshot(run_cell("rbio", "none", "auto").job)[
        "chunk_misses"] > 0
    assert delta_snapshot(run_cell("1pfpp", "none", "off").job) == {
        "bytes_logical": 0, "bytes_to_pfs": 0,
        "chunk_hits": 0, "chunk_misses": 0,
    }


def test_dedup_beats_full_write_in_steady_state():
    campaign = run_checkpoint_steps(
        make_strategy("rbio", "require"), NP, DATA, n_steps=6,
        config=QUIET, gap_seconds=GAP,
    )
    snap = delta_snapshot(campaign.job)
    # Generations 1..5 reuse the ~75% untouched chunks of their parent,
    # so across the chain hits overtake the full gen-0 misses.
    assert snap["chunk_hits"] > snap["chunk_misses"]
    assert snap["bytes_to_pfs"] < 0.7 * snap["bytes_logical"]


def test_delta_runs_are_deterministic():
    """Two identical delta campaigns: bit-identical figures and PFS image."""

    def image(campaign):
        fs = campaign.job.services["fs"]
        return {
            path: (f.size, as_bytes(f.read_extents(0, f.size)))
            for path, f in sorted(fs.files.items())
        }

    a = run_cell("coio", "none", "require")
    b = run_cell("coio", "none", "require")
    for ra, rb in zip(a.results, b.results):
        for attr in ("t_start", "t_blocked_end", "t_complete", "bytes_local",
                     "isend_seconds"):
            assert np.array_equal(getattr(ra, attr), getattr(rb, attr)), attr
    assert image(a) == image(b)
    assert a.restored == b.restored


# ---------------------------------------------------------------------------
# Seeded mutation sweep: on-disk chunk flips are caught and recovered
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_mutated_chunk_is_caught_and_parent_chain_recovers(seed):
    """Flip one stored chunk of generation 1; CRC must catch it and the
    restore must fall back along the chain, never serving the flipped
    bytes."""
    strategy = make_strategy("1pfpp", "require")
    campaign = run_checkpoint_steps(
        strategy, NP, DATA, n_steps=N_STEPS, config=QUIET,
        gap_seconds=GAP,
    )
    fs = campaign.job.services["fs"]

    # Pick a victim chunk stored in generation 1 that generation 2 still
    # deduplicates against (src_step == 1 in gen 2's manifest), seeded,
    # and corrupt its stored bytes: both generations now depend on it.
    rng = np.random.default_rng((901, seed))
    chunks = []
    for rank in rng.permutation(NP):
        path = strategy.rank_path("/ckpt", 1, int(rank))
        newest = strategy.rank_path("/ckpt", 2, int(rank)) + ".manifest"
        blob = as_bytes(fs.files[newest].read_extents(
            0, fs.files[newest].size))
        manifest = Manifest.from_bytes(blob)
        chunks = [c for s in manifest.sections for c in s.chunks
                  if c.src_step == 1]
        if chunks:  # gen 2 may have re-mutated all of this rank's gen-1 run
            break
    assert chunks, "no rank deduplicates gen 2 against gen 1"
    victim = chunks[int(rng.integers(0, len(chunks)))]
    fobj = fs.files[path]
    stored = as_bytes(fobj.read_extents(victim.src_offset, victim.length))
    flipped = bytes([stored[0] ^ 0xFF]) + stored[1:]
    # A later extent shadows earlier ones — this is on-disk bit damage.
    fobj.extents.append((victim.src_offset, flipped))

    restored = campaign.restore()

    # Generations 2 and 1 both reference the damaged generation-1 file
    # (gen 2 deduplicates against it), so the vote must land on gen 0.
    steps = {s for s, _ in restored.values()}
    assert steps == {0}, "corruption was not fenced to the parent chain"
    for r in range(NP):
        _step, fields = restored[r]
        assert [as_bytes(f) for f in fields] == expected_fields(r, 0)
