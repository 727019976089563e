"""Unit and property tests for torus geometry and pset layout."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import PsetMap, TorusTopology, intrepid, torus_dims_for


# ---------------------------------------------------------------------------
# torus_dims_for
# ---------------------------------------------------------------------------

def test_dims_for_known_partitions():
    assert torus_dims_for(1) == (1, 1, 1)
    assert torus_dims_for(8) == (2, 2, 2)
    assert torus_dims_for(512) == (8, 8, 8)
    assert torus_dims_for(4096) == (16, 16, 16)


def test_dims_product_matches():
    for n in [1, 2, 4, 64, 1024, 4096, 8192, 16384]:
        x, y, z = torus_dims_for(n)
        assert x * y * z == n


def test_dims_near_balanced():
    for n in [2, 8, 128, 2048, 16384]:
        dims = torus_dims_for(n)
        assert max(dims) <= 2 * min(d for d in dims if d > 0) * 2


def test_dims_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        torus_dims_for(100)
    with pytest.raises(ValueError):
        torus_dims_for(0)


# ---------------------------------------------------------------------------
# TorusTopology
# ---------------------------------------------------------------------------

def test_coords_roundtrip():
    t = TorusTopology((4, 2, 8))
    for node in range(t.n_nodes):
        assert t.node_at(t.coords(node)) == node


def test_coords_out_of_range():
    t = TorusTopology((2, 2, 2))
    with pytest.raises(ValueError):
        t.coords(8)
    with pytest.raises(ValueError):
        t.node_at((2, 0, 0))


def test_hops_zero_for_self():
    t = TorusTopology((4, 4, 4))
    assert t.hops(5, 5) == 0


def test_hops_symmetric():
    t = TorusTopology((4, 4, 4))
    for a, b in [(0, 63), (1, 2), (10, 50)]:
        assert t.hops(a, b) == t.hops(b, a)


def test_hops_wraparound_shortcut():
    t = TorusTopology((8, 1, 1))
    # 0 -> 7 is one hop through the wrap link, not seven.
    assert t.hops(0, 7) == 1
    assert t.hops(0, 4) == 4


def test_hops_manhattan_on_small_grid():
    t = TorusTopology((4, 4, 1))
    a = t.node_at((0, 0, 0))
    b = t.node_at((1, 2, 0))
    assert t.hops(a, b) == 1 + 2


def test_max_hops_is_diameter():
    t = TorusTopology((8, 8, 8))
    assert t.max_hops() == 12


def test_invalid_dims_rejected():
    with pytest.raises(ValueError):
        TorusTopology((0, 4, 4))


@pytest.mark.parametrize("dims", [(2, 2, 2), (4, 4, 2), (8, 8, 8)])
def test_hops_is_the_sum_of_axis_distances_between_coords(dims):
    """Every node pair: ``hops`` against the wrap-aware distance of the
    two nodes' ``coords()`` along each axis."""
    t = TorusTopology(dims)
    coords = [t.coords(node) for node in range(t.n_nodes)]
    for src, a in enumerate(coords):
        want = [sum(min(abs(p - q), d - abs(p - q))
                    for p, q, d in zip(a, b, dims)) for b in coords]
        assert [t.hops(src, dst) for dst in range(t.n_nodes)] == want


def test_hops_out_of_range():
    t = TorusTopology((2, 2, 2))
    for src, dst, bad in [(8, 0, 8), (0, 8, 8), (-1, 3, -1), (3, -1, -1)]:
        with pytest.raises(ValueError, match=f"node {bad} out of range"):
            t.hops(src, dst)


@given(st.integers(min_value=0, max_value=11))
@settings(max_examples=30, deadline=None)
def test_triangle_inequality_property(seed):
    import random

    rng = random.Random(seed)
    t = TorusTopology((4, 4, 4))
    a, b, c = (rng.randrange(64) for _ in range(3))
    assert t.hops(a, c) <= t.hops(a, b) + t.hops(b, c)


# ---------------------------------------------------------------------------
# PsetMap
# ---------------------------------------------------------------------------

def test_psetmap_intrepid_layout():
    # 16K ranks in VN mode: 4096 nodes, 64 psets of 64 nodes.
    m = PsetMap(16384, cores_per_node=4, nodes_per_pset=64)
    assert m.n_nodes == 4096
    assert m.n_psets == 64
    assert m.ranks_per_pset() == 256


def test_psetmap_rank_to_node_blockwise():
    m = PsetMap(16, cores_per_node=4, nodes_per_pset=2)
    assert [m.node_of_rank(r) for r in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]


def test_psetmap_small_partition_single_pset():
    m = PsetMap(8, cores_per_node=4, nodes_per_pset=64)
    assert m.n_psets == 1
    assert m.pset_of_rank(7) == 0


def test_psetmap_pset_of_rank_boundaries():
    m = PsetMap(2048, cores_per_node=4, nodes_per_pset=64)
    assert m.n_psets == 8
    assert m.pset_of_rank(0) == 0
    assert m.pset_of_rank(255) == 0
    assert m.pset_of_rank(256) == 1
    assert m.pset_of_rank(2047) == 7


def test_psetmap_partial_node_allowed():
    # Tiny test partitions (fewer ranks than one node) round node count up.
    m = PsetMap(2, cores_per_node=4, nodes_per_pset=64)
    assert m.n_nodes == 1
    assert m.n_psets == 1


def test_psetmap_rejects_nonpositive():
    with pytest.raises(ValueError):
        PsetMap(0, cores_per_node=4, nodes_per_pset=64)


def test_psetmap_rank_out_of_range():
    m = PsetMap(8, 4, 64)
    with pytest.raises(ValueError):
        m.node_of_rank(8)


# ---------------------------------------------------------------------------
# MachineConfig
# ---------------------------------------------------------------------------

def test_intrepid_preset_values():
    cfg = intrepid()
    assert cfg.cores_per_node == 4
    assert cfg.nodes_per_pset == 64
    assert cfg.n_file_servers == 128
    # 47 GB/s aggregate backend peak.
    assert cfg.n_file_servers * cfg.server_disk_bandwidth == pytest.approx(
        47e9, rel=0.01)


def test_config_with_override():
    cfg = intrepid().with_(n_file_servers=64)
    assert cfg.n_file_servers == 64
    assert intrepid().n_file_servers == 128  # original untouched


def test_config_quiet_disables_noise():
    cfg = intrepid().quiet()
    assert cfg.noise_sigma == 0.0
    assert cfg.storm_probability == 0.0


def test_config_pset_and_torus_helpers():
    cfg = intrepid()
    m = cfg.pset_map(16384)
    assert m.n_psets == 64
    t = cfg.torus(16384)
    assert t.n_nodes == 4096
