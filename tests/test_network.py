"""Unit tests for the torus fabric transport model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine
from repro.network import Fabric
from repro.topology import intrepid


def make_fabric(n_ranks=16, **overrides):
    cfg = intrepid().quiet().with_(**overrides) if overrides else intrepid().quiet()
    eng = Engine()
    return eng, Fabric(eng, cfg, n_ranks)


def test_transfer_intra_node_uses_memory_bandwidth():
    eng, fab = make_fabric()
    cfg = fab.config
    done = []

    def proc():
        # Ranks 0 and 1 share node 0 (4 cores per node).
        yield fab.transfer(0, 1, 1 << 20)
        done.append(eng.now)

    eng.process(proc())
    eng.run()
    expected = cfg.mpi_overhead + (1 << 20) / cfg.memory_bandwidth
    assert done[0] == pytest.approx(expected, rel=1e-9)


def test_transfer_cross_node_includes_hop_latency():
    eng, fab = make_fabric(n_ranks=64)
    cfg = fab.config
    done = []

    def proc():
        yield fab.transfer(0, 63, 0)  # zero bytes: pure latency
        done.append(eng.now)

    eng.process(proc())
    eng.run()
    src = fab.psets.node_of_rank(0)
    dst = fab.psets.node_of_rank(63)
    hops = fab.topology.hops(src, dst)
    assert hops > 0
    assert done[0] == pytest.approx(cfg.mpi_overhead + hops * cfg.torus_hop_latency)


def test_transfer_bandwidth_term():
    eng, fab = make_fabric(n_ranks=64)
    cfg = fab.config
    node_bw = cfg.torus_link_bandwidth * cfg.torus_links_per_node
    nbytes = 10 << 20
    done = []

    def proc():
        yield fab.transfer(0, 32, nbytes)
        done.append(eng.now)

    eng.process(proc())
    eng.run()
    assert done[0] >= nbytes / node_bw


def test_ejection_incast_serializes():
    """Many senders to one destination node share its ejection pipe."""
    eng, fab = make_fabric(n_ranks=256)
    cfg = fab.config
    node_bw = cfg.torus_link_bandwidth * cfg.torus_links_per_node
    nbytes = 4 << 20
    n_senders = 16
    finish = []

    def sender(src):
        yield fab.transfer(src, 0, nbytes)
        finish.append(eng.now)

    # Senders on distinct nodes, all to rank 0's node.
    for i in range(1, n_senders + 1):
        eng.process(sender(i * 4))
    eng.run()
    serial = n_senders * nbytes / node_bw
    assert max(finish) >= serial * 0.99
    # And clearly more than a single transfer would take.
    assert max(finish) > 2 * (nbytes / node_bw)


def test_distinct_destinations_proceed_in_parallel():
    eng, fab = make_fabric(n_ranks=256)
    cfg = fab.config
    node_bw = cfg.torus_link_bandwidth * cfg.torus_links_per_node
    nbytes = 4 << 20
    finish = []

    def sender(src, dst):
        yield fab.transfer(src, dst, nbytes)
        finish.append(eng.now)

    # Four disjoint (src, dst) node pairs.
    eng.process(sender(4, 128))
    eng.process(sender(8, 132))
    eng.process(sender(12, 136))
    eng.process(sender(16, 140))
    eng.run()
    one = nbytes / node_bw
    assert max(finish) < 1.5 * one  # no serialization across disjoint pairs


def test_negative_size_rejected():
    eng, fab = make_fabric()
    with pytest.raises(ValueError):
        fab.transfer(0, 1, -1)
    with pytest.raises(ValueError):
        fab.local_copy_time(-1)


def test_stats_accumulate():
    eng, fab = make_fabric(n_ranks=64)

    def proc():
        yield fab.transfer(0, 32, 100)
        yield fab.transfer(0, 33, 200)

    eng.process(proc())
    eng.run()
    s = fab.stats()
    assert s["messages_sent"] == 2
    assert s["bytes_sent"] == 300
    assert s["nodes_touched"] >= 2


def test_pipes_created_lazily():
    eng, fab = make_fabric(n_ranks=1024)
    assert fab.stats()["nodes_touched"] == 0

    def proc():
        yield fab.transfer(0, 512, 10)

    eng.process(proc())
    eng.run()
    assert fab.stats()["nodes_touched"] == 2


class _Stretch:
    """An armed ``net_adjust``: every inter-node transfer takes half again."""

    def net_adjust(self, now, _src, _dst, done):
        return now + (done - now) * 1.5


def _pipes(fab):
    return {kind: {node: (pipe.busy_until.hex(), pipe.bytes_moved)
                   for node, pipe in pipes.items()}
            for kind, pipes in (("inj", fab._injection), ("ej", fab._ejection))}


@pytest.mark.parametrize("armed", [False, True], ids=["plain", "net_adjust"])
@pytest.mark.parametrize("nbytes", [0, 8, 4096, 3 << 20])
@pytest.mark.parametrize("sources", [
    [1, 2, 3],                       # the destination's own node only
    [4, 9, 1, 13, 17, 2, 21],        # remote and local, interleaved
    [5, 5, 40, 5, 33, 63, 3],        # repeats queue on one injection pipe
    [60],
])
def test_arrivals_is_delay_per_source_in_order(sources, nbytes, armed):
    """``arrivals`` against one ``delay`` per source on a twin fabric, on
    pipes already busy and a clock that is not a round number: the same
    instants bit for bit, the same counters and the same pipes."""
    eng, fab = make_fabric(n_ranks=64)
    twin = Fabric(eng, fab.config, 64)
    if armed:
        fab.injector = twin.injector = _Stretch()
    got = {}

    def proc():
        yield eng.timeout(0.1)
        for f in (fab, twin):  # something queued ahead on a shared pipe
            f.delay(13, 0, 1 << 20)
            f.delay(5, 44, 1 << 20)
        yield eng.timeout(1e-5)
        got["bulk"] = fab.arrivals(sources, 0, nbytes)
        got["one"] = [eng.now + twin.delay(src, 0, nbytes) for src in sources]

    eng.process(proc())
    eng.run()
    assert [t.hex() for t in got["bulk"]] == [t.hex() for t in got["one"]]
    assert fab.stats() == twin.stats()
    assert _pipes(fab) == _pipes(twin)


def test_arrivals_share_one_float_per_instant():
    """Equal instants handed out at one instant are one object, as the
    calendar's bucket key is for the messages it delivers."""
    eng, fab = make_fabric(n_ranks=64)
    arrivals = fab.arrivals([1, 2, 3, 40, 41], 0, 4096)
    assert arrivals[0] is arrivals[1] is arrivals[2]  # one node's copies
    assert arrivals[2] < arrivals[3] < arrivals[4]
    twin = fab.arrivals([33, 34, 60], 32, 4096)  # a symmetric group
    assert twin[0] is twin[1] is arrivals[0]
    assert twin[2] is arrivals[3]
    assert fab.arrivals([], 0, 4096) == []
    with pytest.raises(ValueError):
        fab.arrivals([1], 0, -1)


#: Dyadic constants: every reservation below is exact, so an injection and
#: an ejection finish at one instant and a maximum is a tie.
_DYADIC = dict(mpi_overhead=2.0 ** -19, torus_hop_latency=2.0 ** -23,
               memory_bandwidth=2.0 ** 31, torus_link_bandwidth=2.0 ** 31,
               torus_links_per_node=1)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_run_level_arrivals_are_delay_per_source(data):
    """One pass a run at a time against one ``delay`` per source, on twin
    fabrics: pipes left busy by earlier traffic (some past, some still
    busy at the burst), sources on the destination's node, runs of
    several sources per node and repeats, zero-byte and dyadic sizes, an
    armed ``net_adjust``.  Every instant bit for bit, every pipe's
    ``busy_until`` and ``bytes_moved``, and ``stats()``."""
    dyadic = data.draw(st.booleans())
    eng, fab = make_fabric(n_ranks=128, **(_DYADIC if dyadic else {}))
    twin = Fabric(eng, fab.config, 128)
    if data.draw(st.booleans()):
        fab.injector = twin.injector = _Stretch()
    dst = data.draw(st.integers(0, 127))
    node_of = st.integers(0, 31)
    runs = data.draw(st.lists(st.tuples(node_of, st.integers(1, 6)),
                              min_size=0, max_size=10))
    sources = [4 * node + data.draw(st.integers(0, 3))
               for node, k in runs for _ in range(k)]
    nbytes = data.draw(st.sampled_from([0, 8, 4096, 1 << 20, 3 << 20]))
    preload = data.draw(st.lists(
        st.tuples(st.integers(0, 127), st.integers(0, 127),
                  st.sampled_from([0, 1 << 16, 1 << 20, 8 << 20]),
                  st.sampled_from([0.0, 1e-3, 2.0 ** -10])),
        max_size=6))
    got = {}

    def proc():
        for src, to, size, wait in preload:
            for f in (fab, twin):
                f.delay(src, to, size)
            yield eng.timeout(wait)
        got["run"] = fab.arrivals(iter(sources), dst, nbytes)
        got["one"] = [eng.now + twin.delay(src, dst, nbytes) for src in sources]

    eng.process(proc())
    eng.run()
    assert [t.hex() for t in got["run"]] == [t.hex() for t in got["one"]]
    assert fab.stats() == twin.stats()
    assert _pipes(fab) == _pipes(twin)
