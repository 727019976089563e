"""Differential harness for two-level intra-node aggregation (TAM).

TAM (Kang et al., arXiv:1907.12656) re-routes checkpoint traffic — ranks
coalesce through node leaders before any inter-node exchange — but must
never change a single byte of what lands on the parallel file system.
Every cell of the matrix here runs twice, ``tam="off"`` (the flat
exchange) and ``tam`` engaged, across coalescing and incremental (delta)
modes, and asserts:

- identical file *sets* and bit-identical file *bytes* (and CRCs),
- bit-identical resiliently-restored state on every rank,
- that TAM actually cut inter-node fabric messages (the point of it),
  with intra-node traffic accounted separately.

Fault cells check the degradation contract: rank-crash schedules force
the flat failover protocol (``"auto"`` falls back silently,
``"require"`` refuses loudly), while transient FS errors keep TAM on.
"""

import numpy as np
import pytest

from repro import RunConfig
from repro.buffers import as_bytes
from repro.ckpt import (
    BurstBufferIO,
    CollectiveIO,
    EvolvingData,
    Field,
    CheckpointData,
    ReducedBlockingIO,
)
from repro.experiments import run_checkpoint_steps
from repro.faults import FaultSchedule, FaultSpec
from repro.mpiio import TamExchange, pick_node_aggregators
from repro.topology import NodeGroups, intrepid

QUIET = intrepid().quiet()          # cores_per_node=4: 8 ranks = 2 nodes
NP = 32
GROUP = 8
N_STEPS = 3
GAP = 2.0
PPR = 300

DATA = EvolvingData.mutating(PPR, mutated_fraction=0.25, seed=5,
                             header_bytes=256)

STRATEGIES = ["coio", "coio_nf1", "rbio", "rbio_nf1", "bbio"]


def make_strategy(name: str, tam: str = "off", delta: str = "off"):
    if name == "coio":
        s = CollectiveIO(ranks_per_file=GROUP)
    elif name == "coio_nf1":
        s = CollectiveIO(ranks_per_file=None)
    elif name == "rbio":
        s = ReducedBlockingIO(workers_per_writer=GROUP)
    elif name == "rbio_nf1":
        s = ReducedBlockingIO(workers_per_writer=GROUP, single_file=True)
    elif name == "bbio":
        s = BurstBufferIO(workers_per_writer=GROUP)
    else:
        raise AssertionError(name)
    if tam != "off":
        s.configure_tam(tam)
    if delta != "off":
        s.configure_delta(delta)
    return s


def fs_image(job):
    fs = job.services["fs"]
    return {path: (f.size, as_bytes(f.read_extents(0, f.size)))
            for path, f in sorted(fs.files.items())}


def assert_same_files(job_a, job_b):
    a, b = fs_image(job_a), fs_image(job_b)
    assert sorted(a) == sorted(b)
    for path in a:
        assert a[path][0] == b[path][0], path
        assert a[path][1] == b[path][1], path
        # Belt and braces: equal bytes, equal checksums.
        assert job_a.services["fs"].files[path].read_extents(
            0, a[path][0]).crc32() == job_b.services["fs"].files[
                path].read_extents(0, b[path][0]).crc32(), path


# ---------------------------------------------------------------------------
# The strategy x coalesce x delta differential matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("delta", ["off", "auto"])
@pytest.mark.parametrize("coalesce", ["auto", "off"])
@pytest.mark.parametrize("strategy_name", STRATEGIES)
def test_matrix_cell_differential(strategy_name, coalesce, delta):
    runs = {}
    for tam in ("off", "require"):
        runs[tam] = run_checkpoint_steps(
            make_strategy(strategy_name, tam=tam, delta=delta), NP, DATA,
            n_steps=N_STEPS, config=QUIET, gap_seconds=GAP,
            run_config=RunConfig(coalesce=coalesce))
        runs[tam].restore()
    off, on = runs["off"], runs["require"]

    # Bit-identical PFS images and checksums.
    assert_same_files(off.job, on.job)

    # Same restored generation, bit-identical restored state, matching
    # the evolving workload's ground truth.
    assert off.restored_step == on.restored_step
    step = off.restored_step
    for rank in range(NP):
        step_off, fields_off = off.restored[rank]
        step_on, fields_on = on.restored[rank]
        assert step_off == step_on == step
        want = [f.payload for f in DATA.bind(rank).at_step(step).fields]
        assert [as_bytes(f) for f in fields_off] == want
        assert [as_bytes(f) for f in fields_on] == want

    # Logical figures agree (TAM changes traffic shape, not logic).
    for a, b in zip(off.results, on.results):
        assert a.roles == b.roles
        assert np.array_equal(a.ranks, b.ranks)
        assert np.array_equal(a.bytes_local, b.bytes_local)

    # TAM must have *reduced* inter-node fabric messages while keeping
    # total message count (every package still travels exactly once).
    sf = off.job.fabric.stats()
    st = on.job.fabric.stats()
    assert st["tam_msgs"] > 0
    assert st["tam_coalesce_ratio"] > 1.0
    assert st["msgs_inter"] < sf["msgs_inter"]
    assert sf["tam_msgs"] == 0 and sf["tam_packages"] == 0


def test_tam_coalesced_replay_is_exact():
    """Coalesced TAM runs are bit-identical to full TAM runs — timing,
    reports, fs stats and message accounting, not just content."""
    def data():
        rng = np.random.default_rng(7)
        return CheckpointData(
            [Field(f"f{i}", 4096,
                   rng.integers(0, 256, size=4096,
                                dtype=np.uint8).tobytes())
             for i in range(3)], header_bytes=512)

    strategy = ReducedBlockingIO(workers_per_writer=GROUP)
    runs = {}
    for coalesce in ("off", "require"):
        runs[coalesce] = run_checkpoint_steps(
            make_strategy("rbio", tam="require"), NP, data(), seed=11,
            n_steps=N_STEPS, gap_seconds=0.5,
            run_config=RunConfig(coalesce=coalesce))
    full, coal = runs["off"], runs["require"]
    assert_same_files(full.job, coal.job)
    for a, b in zip(full.results, coal.results):
        assert a.roles == b.roles
        for attr in ("t_start", "t_blocked_end", "t_complete",
                     "bytes_local", "isend_seconds"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr
        assert a.fs_stats == b.fs_stats
    sa, sb = full.job.fabric.stats(), coal.job.fabric.stats()
    for key in ("messages_sent", "bytes_sent", "msgs_intra",
                "msgs_inter", "bytes_intra",
                "bytes_inter", "tam_msgs", "tam_packages"):
        assert sa[key] == sb[key], key


def test_tam_fabric_accounting_invariants():
    """TAM trades inter-node fan-in for an extra intra-node hop.

    The invariants: every package still crosses the node boundary exactly
    once (inter-node *bytes* match the flat run), the per-rank message
    count is unchanged (each member issues one send either way), the
    intra/inter split sums to the totals, and the coalesce ratio equals
    packages per combined message.
    """
    runs = {}
    for tam in ("off", "require"):
        runs[tam] = run_checkpoint_steps(
            make_strategy("rbio", tam=tam), NP, DATA, seed=11,
            n_steps=1)
    sf = runs["off"].job.fabric.stats()
    st = runs["require"].job.fabric.stats()
    assert st["bytes_inter"] == sf["bytes_inter"]
    assert st["messages_sent"] == sf["messages_sent"]
    assert st["msgs_inter"] < sf["msgs_inter"]
    assert st["bytes_intra"] > sf["bytes_intra"]
    for s in (sf, st):
        assert (s["bytes_intra"] + s["bytes_inter"]
                == s["bytes_sent"])
        assert (s["msgs_intra"] + s["msgs_inter"]
                == s["messages_sent"])
    assert st["tam_coalesce_ratio"] == st["tam_packages"] / st["tam_msgs"]


# ---------------------------------------------------------------------------
# Fault cells: degradation contract
# ---------------------------------------------------------------------------

WRITER_CRASH = FaultSchedule((
    FaultSpec(kind="rank_crash", time=1.0, rank=GROUP),
))
TRANSIENT_FS = FaultSchedule((
    FaultSpec(kind="fs_error", time=0.0, op="write", count=2,
              transient=True),
))


def test_writer_failover_under_tam_auto_falls_back_flat():
    """A rank-crash schedule forces the flat protocol; tam='auto' degrades
    silently and the campaign survives via writer failover, matching the
    flat run bit for bit."""
    runs = {}
    for tam in ("off", "auto"):
        runs[tam] = run_checkpoint_steps(
            make_strategy("rbio", tam=tam), NP, DATA, n_steps=N_STEPS,
            run_config=RunConfig(faults=WRITER_CRASH), config=QUIET,
            gap_seconds=GAP)
        runs[tam].restore()
    off, on = runs["off"], runs["auto"]
    assert_same_files(off.job, on.job)
    assert off.restored_step == on.restored_step
    assert on.restored == off.restored
    # The flat failover protocol ran: no TAM coalescing happened.
    assert on.job.fabric.stats()["tam_msgs"] == 0


def test_writer_failover_under_tam_require_raises():
    with pytest.raises(ValueError, match="tam='require'"):
        run_checkpoint_steps(
            make_strategy("rbio", tam="require"), NP, DATA,
            n_steps=N_STEPS, run_config=RunConfig(faults=WRITER_CRASH),
            config=QUIET,
            gap_seconds=GAP).restore()


def test_transient_fs_errors_keep_tam_engaged():
    """FS-level faults don't break group symmetry: TAM stays on and the
    retried commits still match the flat run."""
    runs = {}
    for tam in ("off", "require"):
        runs[tam] = run_checkpoint_steps(
            make_strategy("rbio", tam=tam), NP, DATA, n_steps=N_STEPS,
            run_config=RunConfig(faults=TRANSIENT_FS), config=QUIET,
            gap_seconds=GAP)
        runs[tam].restore()
    assert_same_files(runs["off"].job, runs["require"].job)
    assert runs["require"].job.fabric.stats()["tam_msgs"] > 0
    assert runs["require"].restored == runs["off"].restored


def test_tam_require_raises_when_nothing_coresident():
    """cores_per_node=1 gives every rank its own node: nothing to
    coalesce, 'require' refuses, 'auto' silently runs flat."""
    solo = QUIET.with_(cores_per_node=1)
    with pytest.raises(ValueError, match="cores_per_node"):
        run_checkpoint_steps(make_strategy("rbio", tam="require"),
                             NP, DATA, config=solo, n_steps=1)
    run = run_checkpoint_steps(make_strategy("rbio", tam="auto"),
                               NP, DATA, config=solo, n_steps=1)
    assert run.job.fabric.stats()["tam_msgs"] == 0


def test_coio_tam_require_raises_when_nothing_coresident():
    solo = QUIET.with_(cores_per_node=1)
    with pytest.raises(ValueError, match="cores_per_node"):
        run_checkpoint_steps(make_strategy("coio_nf1", tam="require"),
                             NP, DATA, config=solo, n_steps=1)


def test_configure_tam_validates_mode():
    with pytest.raises(ValueError):
        ReducedBlockingIO(workers_per_writer=GROUP).configure_tam("always")
    s = CollectiveIO().configure_tam("auto")
    assert s.tam == "auto"
    assert s.hints.tam == "auto"
    assert s.describe()["tam"] == "auto"


# ---------------------------------------------------------------------------
# Geometry units: NodeGroups and TamExchange
# ---------------------------------------------------------------------------

def test_node_groups_block_placement():
    g = NodeGroups(list(range(8, 16)), cores_per_node=4)
    assert g.leaders == (0, 4)          # local indices of ranks 8 and 12
    assert g.members_of[0] == (0, 1, 2, 3)
    assert g.members_of[4] == (4, 5, 6, 7)
    assert g.leader_of[6] == 4
    assert g.n_nodes == 2
    assert g.max_group == 4
    assert g.nontrivial


def test_node_groups_ragged_and_offset():
    # World ranks 6..13, cpn=4: nodes {6,7}, {8..11}, {12,13}.
    g = NodeGroups(list(range(6, 14)), cores_per_node=4)
    assert g.leaders == (0, 2, 6)
    assert g.members_of[2] == (2, 3, 4, 5)
    assert g.members_of[6] == (6, 7)
    assert g.max_group == 4


def test_node_groups_trivial_when_one_core_per_node():
    g = NodeGroups(list(range(8)), cores_per_node=1)
    assert not g.nontrivial
    assert g.max_group == 1
    assert g.n_nodes == 8


def test_pick_node_aggregators_only_leaders():
    leaders = (0, 4, 8, 12, 16, 20, 24, 28)
    assert pick_node_aggregators(leaders, 4) == (0, 8, 16, 24)
    # Clamped to the node count when cb_nodes over-asks.
    assert pick_node_aggregators(leaders, 100) == leaders
    assert pick_node_aggregators(leaders, 1) == (0,)


def test_tam_exchange_geometry():
    # 8 ranks, 100 B each, contiguous; 2 nodes of 4.
    groups = NodeGroups(list(range(8)), cores_per_node=4)
    ex = TamExchange([(i * 100, 100) for i in range(8)], groups,
                     n_aggregators=2, block_size=128)
    assert ex.aggregators == (0, 4)
    # Every leader ships to the domains its node's members touch; every
    # listed domain is guaranteed at least one non-empty piece.
    for lead, ks in ex.send_domains.items():
        for k in ks:
            dlo, dhi = ex.domains.domain(k)
            assert any(
                max(ex.raw[m][0], dlo) < min(ex.raw[m][0] + ex.raw[m][1],
                                             dhi)
                for m in groups.members_of[lead])
    # Aggregators only expect leaders that actually send.
    for k, leads in ex.expected.items():
        assert ex.aggregators[k] not in leads
        for lead in leads:
            assert k in ex.send_domains[lead]


def test_tam_exchange_zero_length_regions():
    groups = NodeGroups(list(range(8)), cores_per_node=4)
    regions = [(0, 0)] * 4 + [(i * 64, 64) for i in range(4)]
    ex = TamExchange(regions, groups, n_aggregators=2, block_size=32)
    # Node 0 contributes nothing: no send domains, no expectation of it.
    assert 0 not in ex.send_domains
    assert all(0 not in leads for leads in ex.expected.values())
