"""vtk legacy checkpoint files (Fig. 2's output format, real bytes on disk).

NekCEM writes its checkpoint/visualization dumps in the open vtk legacy
format so ParaView/VisIt can read them directly: a master header
(application name, file type, application type), the grid-point
coordinates, cell numbering and cell type, then one data block per field
with its own header.  This module writes and reads that format for the SEDG
solution: every element's GLL subgrid becomes ``order^3`` hexahedral cells.

Binary mode follows the vtk legacy specification (big-endian IEEE doubles
after ASCII section headers).
"""

from __future__ import annotations

import io
from typing import Mapping, Optional

import numpy as np

__all__ = ["write_vtk", "read_vtk", "gll_hex_cells", "VtkReadError"]

_HEADER = "# vtk DataFile Version 3.0"


class VtkReadError(ValueError):
    """A vtk checkpoint file is truncated or structurally corrupt.

    Restart reads raise this instead of returning short arrays (silent
    garbage) or looping on a truncated ASCII block.  Subclasses
    :class:`ValueError`, so existing ``except ValueError`` callers keep
    working.
    """


def gll_hex_cells(n_elements: int, order: int) -> np.ndarray:
    """Connectivity of the GLL subgrid: one row of 8 point ids per subcell.

    Point ids are element-major with z fastest (matching
    ``field.ravel()`` of ``(nex, ney, nez, p, p, p)`` arrays after
    reshaping each element block to ``p*p*p``).
    """
    p = order + 1
    base = np.arange(order)
    i, j, k = np.meshgrid(base, base, base, indexing="ij")
    corner = (i * p + j) * p + k
    offsets = np.array([
        0, p * p, p * p + p, p,           # (i,j,k),(i+1,j,k),(i+1,j+1,k),(i,j+1,k)
        1, p * p + 1, p * p + p + 1, p + 1,
    ])
    cells_one = corner.ravel()[:, None] + offsets[None, :]
    out = np.concatenate([
        cells_one + e * p**3 for e in range(n_elements)
    ])
    return out.astype(np.int64)


def write_vtk(path: str, points: np.ndarray, order: int,
              fields: Mapping[str, np.ndarray], binary: bool = True,
              title: str = "NekCEM-repro checkpoint") -> None:
    """Write an unstructured-grid vtk legacy file.

    Parameters
    ----------
    points:
        ``(n_points, 3)`` nodal coordinates, element-major GLL ordering.
    order:
        Polynomial order (defines the subcell connectivity).
    fields:
        Name -> flat ``(n_points,)`` array per component.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must be (n, 3), got {points.shape}")
    n_points = len(points)
    p3 = (order + 1) ** 3
    if n_points % p3:
        raise ValueError(f"{n_points} points not a multiple of (order+1)^3")
    n_elements = n_points // p3
    for name, arr in fields.items():
        if np.asarray(arr).size != n_points:
            raise ValueError(f"field {name!r} has wrong size")
    cells = gll_hex_cells(n_elements, order)
    mode = "BINARY" if binary else "ASCII"
    with open(path, "wb") as f:
        def line(s: str) -> None:
            f.write(s.encode("ascii") + b"\n")

        line(_HEADER)
        line(title)
        line(mode)
        line("DATASET UNSTRUCTURED_GRID")
        line(f"POINTS {n_points} double")
        _write_doubles(f, points.ravel(), binary)
        line(f"CELLS {len(cells)} {len(cells) * 9}")
        conn = np.hstack([np.full((len(cells), 1), 8, dtype=np.int64), cells])
        _write_ints(f, conn.ravel(), binary)
        line(f"CELL_TYPES {len(cells)}")
        _write_ints(f, np.full(len(cells), 12, dtype=np.int64), binary)  # VTK_HEXAHEDRON
        line(f"POINT_DATA {n_points}")
        for name, arr in fields.items():
            line(f"SCALARS {name} double 1")
            line("LOOKUP_TABLE default")
            _write_doubles(f, np.asarray(arr, dtype=np.float64).ravel(), binary)


def _write_doubles(f, arr: np.ndarray, binary: bool) -> None:
    if binary:
        f.write(arr.astype(">f8").tobytes())
        f.write(b"\n")
    else:
        for row in np.array_split(arr, max(1, len(arr) // 6)):
            f.write((" ".join(f"{x:.17g}" for x in row) + "\n").encode())


def _write_ints(f, arr: np.ndarray, binary: bool) -> None:
    if binary:
        f.write(arr.astype(">i4").tobytes())
        f.write(b"\n")
    else:
        f.write(("\n".join(" ".join(str(x) for x in row.tolist())
                           for row in arr.reshape(-1, 9 if arr.size % 9 == 0 else 1))
                 + "\n").encode())


def _count(parts: list[str], i: int, expect: Optional[int] = None) -> int:
    """Token ``i`` of a block header as a count; :class:`VtkReadError` when
    it is missing, not an integer, negative, or not ``expect``."""
    try:
        n = int(parts[i])
    except (IndexError, ValueError):
        n = -1
    if n < 0 or expect is not None and n != expect:
        raise VtkReadError(f"bad {parts[0]} header: {' '.join(parts)!r}")
    return n


def read_vtk(path: str) -> dict:
    """Read back a file written by :func:`write_vtk`.

    Returns ``{"points": (n,3), "cells": (m,8), "fields": {name: (n,)}}``.
    Supports the binary flavour this module writes plus ASCII points/fields.
    """
    with open(path, "rb") as f:
        data = f.read()
    stream = io.BytesIO(data)

    def readline() -> str:
        return stream.readline().decode("ascii", errors="replace").strip()

    if readline() != _HEADER:
        raise VtkReadError("not a vtk legacy file")
    _title = readline()
    mode = readline()
    binary = mode == "BINARY"
    if readline() != "DATASET UNSTRUCTURED_GRID":
        raise VtkReadError("unsupported vtk dataset")

    def read_doubles(count: int) -> np.ndarray:
        if binary:
            buf = stream.read(count * 8)
            if len(buf) != count * 8:
                raise VtkReadError(
                    f"truncated data block: wanted {count} doubles, "
                    f"got {len(buf)} bytes"
                )
            stream.readline()  # trailing newline
            return np.frombuffer(buf, dtype=">f8").astype(np.float64)
        vals: list[float] = []
        while len(vals) < count:
            raw = stream.readline()
            if not raw:
                raise VtkReadError(
                    f"truncated data block: wanted {count} doubles, "
                    f"got {len(vals)}"
                )
            try:
                vals.extend(float(x) for x in raw.split())
            except ValueError as exc:
                raise VtkReadError(f"corrupt value in data block: {exc}") from exc
        return np.array(vals[:count])

    def read_ints(count: int) -> np.ndarray:
        if binary:
            buf = stream.read(count * 4)
            if len(buf) != count * 4:
                raise VtkReadError(
                    f"truncated data block: wanted {count} ints, "
                    f"got {len(buf)} bytes"
                )
            stream.readline()
            return np.frombuffer(buf, dtype=">i4").astype(np.int64)
        vals: list[int] = []
        while len(vals) < count:
            raw = stream.readline()
            if not raw:
                raise VtkReadError(
                    f"truncated data block: wanted {count} ints, "
                    f"got {len(vals)}"
                )
            try:
                vals.extend(int(x) for x in raw.split())
            except ValueError as exc:
                raise VtkReadError(f"corrupt value in data block: {exc}") from exc
        return np.array(vals[:count], dtype=np.int64)

    parts = readline().split()
    if not parts or parts[0] != "POINTS":
        raise VtkReadError("missing POINTS block")
    n_points = _count(parts, 1)
    points = read_doubles(3 * n_points).reshape(n_points, 3)
    parts = readline().split()
    if not parts or parts[0] != "CELLS":
        raise VtkReadError("missing CELLS block")
    n_cells = _count(parts, 1)
    _count(parts, 2, 9 * n_cells)  # hexahedra: 8 vertices + a count each
    conn = read_ints(9 * n_cells).reshape(n_cells, 9)
    if not (conn[:, 0] == 8).all():
        raise VtkReadError("non-hexahedral cell in file")
    cells = conn[:, 1:]
    parts = readline().split()
    if not parts or parts[0] != "CELL_TYPES":
        raise VtkReadError("missing CELL_TYPES block")
    _count(parts, 1, n_cells)
    types = read_ints(n_cells)
    if not (types == 12).all():
        raise VtkReadError("unexpected cell types")
    fields: dict[str, np.ndarray] = {}
    header = readline()
    if header:
        parts = header.split()
        if parts[0] != "POINT_DATA":
            raise VtkReadError("missing POINT_DATA block")
        _count(parts, 1, n_points)
        while True:
            line = readline()
            if not line:
                break
            parts = line.split()
            if parts[0] != "SCALARS":
                break
            if len(parts) < 2:
                raise VtkReadError("SCALARS header without a field name")
            name = parts[1]
            readline()  # LOOKUP_TABLE default
            fields[name] = read_doubles(n_points)
    return {"points": points, "cells": cells, "fields": fields}
