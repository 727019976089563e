"""Restart reads of damaged vtk checkpoint files raise VtkReadError.

A truncated or bit-rotted checkpoint must fail loudly at restart time —
never return short/garbage arrays, and never loop forever on a truncated
ASCII block.
"""

import numpy as np
import pytest

from repro.nekcem import VtkReadError, read_vtk, write_vtk


@pytest.fixture()
def vtk_file(tmp_path):
    order = 2
    p3 = (order + 1) ** 3
    n_elements = 2
    n_points = n_elements * p3
    rng = np.random.default_rng(42)
    points = rng.standard_normal((n_points, 3))
    fields = {"HX": rng.standard_normal(n_points),
              "HY": rng.standard_normal(n_points)}
    path = tmp_path / "ckpt.vtk"
    write_vtk(str(path), points, order, fields)
    return path, points, fields


def test_intact_file_roundtrips(vtk_file):
    path, points, fields = vtk_file
    out = read_vtk(str(path))
    assert np.allclose(out["points"], points)
    assert set(out["fields"]) == {"HX", "HY"}
    for name in fields:
        assert np.allclose(out["fields"][name], fields[name])
        assert len(out["fields"][name]) == len(points)


@pytest.mark.parametrize("keep_fraction", [0.1, 0.5, 0.9, 0.99])
def test_truncated_file_raises(vtk_file, tmp_path, keep_fraction):
    path, _, _ = vtk_file
    data = path.read_bytes()
    bad = tmp_path / "truncated.vtk"
    bad.write_bytes(data[: int(len(data) * keep_fraction)])
    with pytest.raises(VtkReadError):
        read_vtk(str(bad))


def test_empty_file_raises(tmp_path):
    bad = tmp_path / "empty.vtk"
    bad.write_bytes(b"")
    with pytest.raises(VtkReadError):
        read_vtk(str(bad))


def test_wrong_magic_raises(tmp_path):
    bad = tmp_path / "notvtk.vtk"
    bad.write_bytes(b"hello world\n" * 10)
    with pytest.raises(VtkReadError):
        read_vtk(str(bad))


def test_corrupt_cells_header_raises(vtk_file, tmp_path):
    path, _, _ = vtk_file
    data = path.read_bytes()
    head, sep, tail = data.partition(b"CELLS ")
    counts, nl, rest = tail.partition(b"\n")
    n, total = counts.split()
    bad_counts = b" ".join([n, str(int(total) + 1).encode()])
    bad = tmp_path / "badcells.vtk"
    bad.write_bytes(head + sep + bad_counts + nl + rest)
    with pytest.raises(VtkReadError):
        read_vtk(str(bad))


def test_truncated_ascii_file_raises_not_hangs(tmp_path):
    order = 1
    n_points = (order + 1) ** 3
    points = np.zeros((n_points, 3))
    path = tmp_path / "ascii.vtk"
    write_vtk(str(path), points, order, {"HX": np.ones(n_points)},
              binary=False)
    data = path.read_bytes()
    # Cut inside the POINTS block: the ASCII reader must hit EOF and
    # raise instead of spinning on empty reads.
    cut = data.index(b"POINTS")
    cut = data.index(b"\n", cut) + 1
    bad = tmp_path / "ascii_trunc.vtk"
    bad.write_bytes(data[:cut])
    with pytest.raises(VtkReadError):
        read_vtk(str(bad))


def test_corrupt_ascii_value_raises(tmp_path):
    order = 1
    n_points = (order + 1) ** 3
    points = np.zeros((n_points, 3))
    path = tmp_path / "ascii.vtk"
    write_vtk(str(path), points, order, {"HX": np.ones(n_points)},
              binary=False)
    data = path.read_bytes()
    # Corrupt the first value of the HX data block.
    marker = b"LOOKUP_TABLE default\n"
    pos = data.index(marker) + len(marker)
    bad = tmp_path / "ascii_corrupt.vtk"
    bad.write_bytes(data[:pos] + b"NaN?garbage " + data[pos:])
    with pytest.raises(VtkReadError):
        read_vtk(str(bad))


def test_vtk_read_error_is_value_error():
    assert issubclass(VtkReadError, ValueError)


@pytest.mark.parametrize("keyword, damaged", [
    (b"POINTS", b"POINTS"),
    (b"POINTS", b"POINTS abc double"),
    (b"POINTS", b"POINTS -1 double"),
    (b"CELLS", b"CELLS"),
    (b"CELLS", b"CELLS 1"),
    (b"CELLS", b"CELLS x 9"),
    (b"CELLS", b"CELLS -1 -9"),
    (b"CELL_TYPES", b"CELL_TYPES"),
    (b"CELL_TYPES", b"CELL_TYPES -1"),
    (b"POINT_DATA", b"POINT_DATA"),
    (b"POINT_DATA", b"POINT_DATA 8.5"),
    (b"SCALARS", b"SCALARS"),
])
def test_damaged_ascii_header_raises(tmp_path, keyword, damaged):
    """A block header with a missing, non-integer or negative count (or a
    field header with no name) is a VtkReadError, never an IndexError,
    a bare ValueError or a silently empty block."""
    order = 1
    n_points = (order + 1) ** 3
    path = tmp_path / "ascii.vtk"
    write_vtk(str(path), np.zeros((n_points, 3)), order,
              {"HX": np.ones(n_points)}, binary=False)
    lines = path.read_bytes().split(b"\n")
    at = next(i for i, line in enumerate(lines)
              if line.split()[:1] == [keyword])
    lines[at] = damaged
    bad = tmp_path / "ascii_header.vtk"
    bad.write_bytes(b"\n".join(lines))
    with pytest.raises(VtkReadError):
        read_vtk(str(bad))
