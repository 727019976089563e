"""3-D torus topology of the Blue Gene/P compute fabric.

Intrepid's compute nodes are wired in a 3-D torus (425 MB/s per link per
direction, six links per node).  For the I/O experiments the torus matters in
two ways: rbIO workers ship checkpoint data to their group's writer across
it, and message latency is proportional to hop count.  We model geometry and
dimension-ordered routing exactly; link-level contention is captured at the
endpoints (injection/ejection) by :mod:`repro.network.fabric`, which is where
checkpoint traffic actually queues (63-into-1 writer incast).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TorusTopology", "torus_dims_for"]


def torus_dims_for(n_nodes: int) -> tuple[int, int, int]:
    """Choose a near-balanced ``(X, Y, Z)`` torus shape for ``n_nodes``.

    Blue Gene partitions come in power-of-two node counts with shapes close
    to cubic (e.g. a 4096-node partition is 16x16x16).  We factor the node
    count into three powers of two as evenly as possible, matching how ALCF
    partitions were wired.

    >>> torus_dims_for(4096)
    (16, 16, 16)
    >>> torus_dims_for(512)
    (8, 8, 8)
    """
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    if n_nodes & (n_nodes - 1):
        raise ValueError(f"node count must be a power of two, got {n_nodes}")
    exp = n_nodes.bit_length() - 1
    ex = (exp + 2) // 3
    ey = (exp - ex + 1) // 2
    ez = exp - ex - ey
    return (1 << ex, 1 << ey, 1 << ez)


@dataclass(frozen=True)
class TorusTopology:
    """Geometry and routing of a 3-D torus partition.

    Node ids are assigned in row-major (Z fastest) order over the coordinate
    grid, which is how CNK enumerates nodes within a partition.
    """

    dims: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be three positive ints, got {self.dims}")

    @classmethod
    def for_nodes(cls, n_nodes: int) -> "TorusTopology":
        """Build the default near-cubic torus for a partition size."""
        return cls(torus_dims_for(n_nodes))

    @property
    def n_nodes(self) -> int:
        """Total node count of the partition."""
        x, y, z = self.dims
        return x * y * z

    def coords(self, node: int) -> tuple[int, int, int]:
        """Map a node id to its ``(x, y, z)`` torus coordinates."""
        x_dim, y_dim, z_dim = self.dims
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range for {self.dims} torus")
        z = node % z_dim
        y = (node // z_dim) % y_dim
        x = node // (z_dim * y_dim)
        return (x, y, z)

    def node_at(self, coords: tuple[int, int, int]) -> int:
        """Inverse of :meth:`coords`."""
        x, y, z = coords
        x_dim, y_dim, z_dim = self.dims
        if not (0 <= x < x_dim and 0 <= y < y_dim and 0 <= z < z_dim):
            raise ValueError(f"coords {coords} out of range for {self.dims} torus")
        return (x * y_dim + y) * z_dim + z

    def hops(self, src: int, dst: int) -> int:
        """Dimension-ordered shortest hop count between two nodes: the sum
        of the wrap-aware distances along the three axes of :meth:`coords`.
        """
        if src == dst:
            return 0
        x_dim, y_dim, z_dim = self.dims
        yz = y_dim * z_dim
        n = x_dim * yz
        if not (0 <= src < n and 0 <= dst < n):
            node = dst if 0 <= src < n else src
            raise ValueError(f"node {node} out of range for {self.dims} torus")
        dx = abs(src // yz - dst // yz)
        dy = abs(src // z_dim % y_dim - dst // z_dim % y_dim)
        dz = abs(src % z_dim - dst % z_dim)
        return ((dx if dx + dx <= x_dim else x_dim - dx)
                + (dy if dy + dy <= y_dim else y_dim - dy)
                + (dz if dz + dz <= z_dim else z_dim - dz))

    def max_hops(self) -> int:
        """Torus diameter (worst-case shortest path)."""
        return sum(d // 2 for d in self.dims)
