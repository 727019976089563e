"""Seeded property tests for the content-defined chunking core.

200+ generated cases over :mod:`repro.ckpt.incremental`:

- **bound invariants** — chunk spans tile ``[0, len)`` exactly, every
  chunk is at most ``max_size``, every non-final chunk at least
  ``min_size``, and chunking is insensitive to how the rope is split
  into segments (the segment-seam carry of the rolling hash);
- **boundary stability** — an edit confined to a prefix region cannot
  re-chunk the suffix: once the pre- and post-edit boundary walks share
  a cut past the edit (they always resynchronize within a couple of
  ``max_size`` windows), every later cut is identical;
- **CRC32 agreement** — the rope's segment-iterative ``crc32`` equals
  ``zlib.crc32`` of the materialized bytes for every chunk, and the
  BLAKE2b chunk digest is segmentation-independent;
- **dedup monotonicity** — growing the mutated fraction (nested mutated
  regions) never shrinks the fresh bytes a delta plan ships by more
  than one chunk's worth of boundary slack, and large mutations cost
  several times more than small ones;
- **kernel vs scalar reference** — the tiled narrow-word log-doubling
  scan returns exactly the candidates and cuts of a byte-at-a-time
  rolling hash, at every word-width boundary of the mask, at every
  length around a window and a tile, and under every rope segmentation
  that puts a seam inside a window or on a tile edge.
"""

import zlib

import numpy as np
import pytest

from repro.buffers import ByteRope
from repro.ckpt.incremental import (
    _GEAR,
    _TILE,
    GEAR_WINDOW,
    ChunkingParams,
    _candidate_positions,
    chunk_boundaries,
    chunk_digest,
    chunk_spans,
    plan_section,
)

PARAMS = ChunkingParams(min_size=256, avg_size=1024, max_size=4096)


def random_rope(rng, nbytes: int, max_segments: int = 8):
    """A payload split into 1..max_segments rope segments at random seams."""
    data = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
    n_seams = int(rng.integers(0, max_segments))
    seams = sorted(int(s) for s in rng.integers(0, nbytes + 1, size=n_seams))
    parts, lo = [], 0
    for s in seams + [nbytes]:
        if s > lo:
            parts.append(data[lo:s])
            lo = s
    return ByteRope.concat(parts), data


# ---------------------------------------------------------------------------
# Bound invariants (60 cases)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(60))
def test_bounds_and_tiling(seed):
    rng = np.random.default_rng((100, seed))
    nbytes = int(rng.integers(1, 60_000))
    rope, data = random_rope(rng, nbytes)
    spans = chunk_spans(rope, PARAMS)

    # Exact tiling of [0, len).
    assert spans[0][0] == 0 and spans[-1][1] == nbytes
    for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
        assert a_hi == b_lo and a_lo < a_hi

    sizes = [hi - lo for lo, hi in spans]
    assert all(s <= PARAMS.max_size for s in sizes)
    # Every chunk but the tail respects the minimum.
    assert all(s >= PARAMS.min_size for s in sizes[:-1])

    # Segmentation independence: the same bytes in one flat segment chunk
    # identically (the rolling hash carries across rope seams).
    assert chunk_boundaries(ByteRope.wrap(data), PARAMS) == [
        hi for _, hi in spans]


# ---------------------------------------------------------------------------
# Boundary stability under prefix edits (60 cases)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(60))
def test_prefix_edit_does_not_rechunk_suffix(seed):
    rng = np.random.default_rng((200, seed))
    nbytes = int(rng.integers(30_000, 80_000))
    _, data = random_rope(rng, nbytes, max_segments=1)
    edit_len = int(rng.integers(1, 4096))
    edit_pos = int(rng.integers(0, nbytes // 3))
    edit_end = edit_pos + edit_len
    edited = (data[:edit_pos]
              + rng.integers(0, 256, size=edit_len, dtype=np.uint8).tobytes()
              + data[edit_end:])
    assert len(edited) == nbytes

    before = chunk_boundaries(ByteRope.wrap(data), PARAMS)
    after = chunk_boundaries(ByteRope.wrap(edited), PARAMS)

    # Cuts strictly before the edit are untouched.
    prefix = [c for c in before if c <= edit_pos]
    assert after[: len(prefix)] == prefix

    # Both walks resynchronize: they share a cut within a few max-size
    # windows past the edit, and from the first shared cut beyond the
    # rolling-hash window every later cut is identical.
    horizon = edit_end + GEAR_WINDOW
    shared = sorted(set(before) & set(after))
    resync = [c for c in shared if c >= horizon]
    assert resync, "boundary walks never resynchronized"
    assert resync[0] <= min(edit_end + 3 * PARAMS.max_size, nbytes)
    c = resync[0]
    assert [x for x in before if x >= c] == [x for x in after if x >= c]


# ---------------------------------------------------------------------------
# CRC32 / digest agreement across rope segmentations (40 cases)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(40))
def test_crc_and_digest_segmentation_agreement(seed):
    rng = np.random.default_rng((300, seed))
    nbytes = int(rng.integers(1, 30_000))
    rope, data = random_rope(rng, nbytes)
    for lo, hi in chunk_spans(rope, PARAMS):
        piece = rope.slice(lo, hi)
        flat = data[lo:hi]
        # Segment-iterative CRC over rope extents == flat zlib.crc32.
        assert piece.crc32() == zlib.crc32(flat)
        # BLAKE2b digest is a function of content, not segmentation.
        assert chunk_digest(piece) == chunk_digest(ByteRope.wrap(flat))


# ---------------------------------------------------------------------------
# Dedup-ratio monotonicity in the mutated fraction (40 cases)
# ---------------------------------------------------------------------------

FRACTIONS = (0.05, 0.15, 0.3, 0.5, 0.75, 0.95)


@pytest.mark.parametrize("seed", range(40))
def test_fresh_bytes_monotone_in_mutated_fraction(seed):
    rng = np.random.default_rng((400, seed))
    nbytes = int(rng.integers(40_000, 90_000))
    _, base = random_rope(rng, nbytes, max_segments=1)
    parent = plan_section(ByteRope.wrap(base), (nbytes,), member=0, step=0,
                          params=PARAMS).section

    # Nested mutations: one random block, applied at one position with
    # growing length, so a larger fraction strictly contains a smaller
    # one's dirty bytes.
    block = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
    start = int(rng.integers(0, nbytes // 4))
    fresh = []
    for f in FRACTIONS:
        length = min(int(nbytes * f), nbytes - start)
        mutated = base[:start] + block[:length] + base[start + length:]
        plan = plan_section(ByteRope.wrap(mutated), (nbytes,), member=0,
                            step=1, params=PARAMS, parent_section=parent)
        assert plan.hits + plan.misses == len(plan.section.chunks)
        assert plan.fresh_bytes >= length  # dirty bytes must all ship
        fresh.append(plan.fresh_bytes)

    # Monotone up to one max-size chunk of boundary-resync slack.
    for a, b in zip(fresh, fresh[1:]):
        assert b >= a - PARAMS.max_size
    # And strongly increasing overall.
    assert fresh[-1] > 3 * fresh[0]


# ---------------------------------------------------------------------------
# Tiled narrow-word kernel vs a byte-at-a-time rolling-hash reference
# ---------------------------------------------------------------------------

W = GEAR_WINDOW

#: Mask widths on both sides of every scan-dtype boundary (16 | 32 | 64).
MASK_BITS = (1, 8, 13, 16, 17, 32, 33, 40)


def masks_of(bits: int) -> tuple[int, ...]:
    """The production all-ones mask of ``bits`` bits, and a sparse mask of
    the same width (top bit plus two low bits).  Random data never hits a
    32-bit all-ones mask, so the sparse one is what actually exercises the
    high bits — and with them the full window — of the wide dtypes."""
    dense = (1 << bits) - 1
    sparse = (1 << (bits - 1)) | (0b101 if bits > 3 else 0)
    return (dense,) if sparse == dense else (dense, sparse)


def rolling_hashes(data: bytes) -> np.ndarray:
    """``h[i] = sum_{j<W} GEAR[data[i-j]] << j  (mod 2**64)`` for every
    ``i``, rolled one byte at a time in exact Python integers."""
    gear = [int(g) for g in _GEAR]
    out = np.empty(len(data), dtype=np.uint64)
    h = 0
    for i, b in enumerate(data):
        h = (h << 1) + gear[b]
        if i >= W:
            h -= gear[data[i - W]] << W
        out[i] = h & 0xFFFFFFFFFFFFFFFF
    return out


def ref_candidates(hashes: np.ndarray, mask: int) -> list[int]:
    m = np.uint64(mask)
    return (np.flatnonzero((hashes & m) == m) + 1).tolist()


def ref_cuts(hashes: np.ndarray, params: ChunkingParams) -> list[int]:
    """Streaming chunker: one boundary decision per byte."""
    mask = params.mask
    cuts, start = [], 0
    for i, h in enumerate(hashes.tolist()):
        size = i + 1 - start
        if (h & mask == mask and size >= params.min_size) \
                or size == params.max_size:
            start = i + 1
            cuts.append(start)
    if start < len(hashes):
        cuts.append(len(hashes))
    return cuts


def segmented(data: bytes, lengths) -> ByteRope:
    """A rope over ``data`` with exactly these segment lengths — empty
    segments included, which ``ByteRope.concat`` would drop."""
    assert sum(lengths) == len(data)
    view = memoryview(data)
    segments, starts, pos = [], [], 0
    for n in lengths:
        segments.append(view[pos:pos + n])
        starts.append(pos)
        pos += n
    return ByteRope._new(tuple(segments), starts, pos, None)


def assert_matches_reference(rope: ByteRope, hashes: np.ndarray,
                             bit_widths=MASK_BITS) -> None:
    for bits in bit_widths:
        for mask in masks_of(bits):
            got = _candidate_positions(rope, mask)
            assert got.dtype == np.int64
            assert got.tolist() == ref_candidates(hashes, mask), hex(mask)


@pytest.mark.parametrize("nbytes", [0, 1, W - 1, W, _TILE - 1, _TILE,
                                    _TILE + 1, 3 * _TILE + 5])
def test_kernel_candidates_and_cuts_match_reference(nbytes):
    rng = np.random.default_rng((500, nbytes))
    data = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
    hashes = rolling_hashes(data)
    rope = ByteRope.wrap(data)
    assert_matches_reference(rope, hashes)
    for bits in MASK_BITS:
        avg = 1 << bits
        params = ChunkingParams(min_size=max(avg // 4, 1), avg_size=avg,
                                max_size=4 * avg)
        assert chunk_boundaries(rope, params) == ref_cuts(hashes, params)


def test_kernel_hits_every_mask_width():
    """The reference comparison is not vacuous: the sparse masks of every
    width select a real candidate stream."""
    rng = np.random.default_rng(501)
    data = rng.integers(0, 256, size=4096, dtype=np.uint8).tobytes()
    hashes = rolling_hashes(data)
    for bits in MASK_BITS:
        assert len(ref_candidates(hashes, masks_of(bits)[-1])) > 100


@pytest.mark.parametrize("around", [W, _TILE, 2 * _TILE])
def test_kernel_seam_at_every_offset_inside_a_window(around):
    """One seam swept across a window on each side of the rope start, the
    first tile edge (seam exactly on it included) and a later one."""
    rng = np.random.default_rng((502, around))
    data = rng.integers(0, 256, size=around + _TILE // 2,
                        dtype=np.uint8).tobytes()
    hashes = rolling_hashes(data)
    for seam in range(around - W, around + W + 1):
        rope = segmented(data, [seam, len(data) - seam])
        assert_matches_reference(rope, hashes, bit_widths=(13, 17, 40))


@pytest.mark.parametrize("lengths", [
    [1] * (3 * W + 7),                      # every seam inside a window
    [0, 5, 0, 0, W, 0, 1, 2 * W, 0],        # empty segments anywhere
    [_TILE, _TILE, 5],                      # seams exactly on tile edges
    [_TILE - 1, 1, 1, _TILE + 1],           # 1-byte segments at an edge
    [2 * _TILE + 3, 0, W - 1, 1, _TILE],    # seam mid-tile after a long run
], ids=["bytes", "empties", "tile-edges", "edge-bytes", "mixed"])
def test_kernel_segmentations_match_reference(lengths):
    rng = np.random.default_rng((503, len(lengths)))
    data = rng.integers(0, 256, size=sum(lengths), dtype=np.uint8).tobytes()
    hashes = rolling_hashes(data)
    rope = segmented(data, lengths)
    assert len(list(rope.iter_segments())) == len(lengths)
    assert_matches_reference(rope, hashes)
    for bits in (8, 13):
        avg = 1 << bits
        params = ChunkingParams(min_size=avg // 4, avg_size=avg,
                                max_size=4 * avg)
        assert chunk_boundaries(rope, params) == ref_cuts(hashes, params)
