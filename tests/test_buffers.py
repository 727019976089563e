"""Unit tests for the zero-copy scatter-gather data plane (repro.buffers)."""

import zlib

import pytest

from repro.buffers import (
    ByteRope,
    as_bytes,
    concat,
    concat_once,
    crc32_of,
    overlay,
    run_scope,
    zeros,
)
from repro.mpi import RunStats


@pytest.fixture
def stats():
    """A fresh run's stats, current for the test body (as in ``Job.run``)."""
    with run_scope(RunStats()) as st:
        yield st


# -- construction -------------------------------------------------------------

def test_direct_construction_forbidden():
    with pytest.raises(TypeError):
        ByteRope()


def test_wrap_bytes_keeps_reference(stats):
    data = b"hello world"
    rope = ByteRope.wrap(data)
    assert len(rope) == 11
    # bytes input keeps the object: to_bytes is free and identical.
    assert rope.to_bytes() is data
    assert stats.bytes_copied == 0


def test_wrap_bytearray_and_memoryview_views_in_place(stats):
    src = bytearray(b"abcdef")
    rope = ByteRope.wrap(src)
    assert rope == b"abcdef"
    rope2 = ByteRope.wrap(memoryview(b"xyz"))
    assert bytes(rope2) == b"xyz"
    assert stats.bytes_copied == len(b"xyz")  # only the to_bytes join


def test_wrap_rope_is_identity_and_empty_is_shared():
    rope = ByteRope.wrap(b"ab")
    assert ByteRope.wrap(rope) is rope
    assert ByteRope.wrap(b"") is ByteRope.EMPTY
    assert not ByteRope.EMPTY
    assert bytes(ByteRope.EMPTY) == b""


def test_wrap_rejects_non_bytes():
    with pytest.raises(TypeError):
        ByteRope.wrap(42)


# -- structural ops ------------------------------------------------------------

def test_concat_is_zero_copy(stats):
    rope = concat([b"aa", b"bb", bytearray(b"cc")])
    assert len(list(rope.iter_segments())) == 3
    assert stats.bytes_copied == 0
    assert rope == b"aabbcc"
    assert bytes(rope) == b"aabbcc"
    assert stats.bytes_copied == 6  # the single materialization


def test_concat_drops_empties_and_unwraps_singletons():
    a = ByteRope.wrap(b"xy")
    assert concat([b"", a, b""]) is a
    assert concat([]) is ByteRope.EMPTY


def test_slice_full_range_returns_self():
    rope = concat([b"abc", b"def"])
    assert rope.slice(0, 6) is rope
    assert rope[:] is rope


def test_slice_and_split_share_segments(stats):
    rope = concat([b"abcd", b"efgh", b"ijkl"])
    mid = rope.slice(2, 10)
    assert stats.bytes_copied == 0
    assert bytes(mid) == b"cdefghij"
    left, right = rope.split_at(5)
    assert bytes(left) + bytes(right) == bytes(rope)
    # Clamping: out-of-range bounds never raise.
    assert bytes(rope.slice(-5, 99)) == b"abcdefghijkl"
    assert rope.slice(7, 3) is ByteRope.EMPTY


def test_getitem_int_and_slice():
    rope = concat([bytes(range(10)), bytes(range(10, 20))])
    assert rope[0] == 0
    assert rope[13] == 13
    assert rope[-1] == 19
    assert bytes(rope[5:15]) == bytes(range(5, 15))
    with pytest.raises(IndexError):
        rope[20]
    with pytest.raises(ValueError):
        rope[::2]


def test_add_and_radd():
    rope = ByteRope.wrap(b"bb")
    assert bytes(rope + b"cc") == b"bbcc"
    assert bytes(b"aa" + rope) == b"aabb"
    assert bytes(rope + rope) == b"bbbb"


# -- content ops ---------------------------------------------------------------

def test_crc32_matches_flat_and_is_chainable(stats):
    payload = bytes(range(256)) * 3
    rope = concat([payload[:100], payload[100:350], payload[350:]])
    assert rope.crc32() == (zlib.crc32(payload) & 0xFFFFFFFF)
    assert crc32_of(rope) == crc32_of(payload)
    seed = zlib.crc32(b"prefix") & 0xFFFFFFFF
    assert rope.crc32(seed) == (zlib.crc32(payload, seed) & 0xFFFFFFFF)
    assert stats.bytes_copied == 0


def test_to_bytes_memoized_and_counted_once(stats):
    rope = concat([b"ab", b"cd"])
    flat1 = rope.to_bytes()
    flat2 = rope.to_bytes()
    assert flat1 is flat2 == b"abcd"
    assert stats.bytes_copied == 4
    assert stats.buffer_allocs == 1


def test_equality_without_materializing(stats):
    a = concat([b"abc", b"defg", b"h"])
    b = concat([b"a", b"bcdef", b"gh"])
    assert a == b
    assert a == b"abcdefgh"
    assert a == bytearray(b"abcdefgh")
    assert a != b"abcdefgx"
    assert a != b"short"
    assert stats.bytes_copied == 0
    with pytest.raises(TypeError):
        hash(a)


# -- helpers -------------------------------------------------------------------

def test_zeros_shares_the_zero_page(stats):
    big = zeros(3 * (1 << 20) + 17)
    assert len(big) == 3 * (1 << 20) + 17
    assert stats.buffer_allocs == 0
    assert big[0] == 0 and big[-1] == 0
    assert zeros(0) is ByteRope.EMPTY
    assert bytes(zeros(5)) == bytes(5)


def test_overlay_later_wins_and_zero_fills():
    img = overlay([(0, b"aaaa"), (2, b"bb"), (8, b"cc")], 0, 12)
    assert bytes(img) == b"aabb" + bytes(4) + b"cc" + bytes(2)
    # Single exactly-covering piece comes back as a plain slice.
    piece = ByteRope.wrap(b"wxyz")
    assert overlay([(0, piece)], 0, 4) is piece
    assert overlay([], 0, 4) == bytes(4)
    assert overlay([(0, b"aa")], 3, 3) is ByteRope.EMPTY


def test_as_bytes_boundary(stats):
    assert as_bytes(None) is None
    raw = b"raw"
    assert as_bytes(raw) is raw
    assert as_bytes(bytearray(b"ba")) == b"ba"
    assert stats.bytes_copied == 2
    rope = concat([b"xx", b"yy"])
    assert as_bytes(rope) == b"xxyy"
    with pytest.raises(TypeError):
        as_bytes(3.14)


# -- copy modes ----------------------------------------------------------------

def test_run_scope_nests_and_restores():
    outer, inner = RunStats(), RunStats(eager=True)
    with run_scope(outer):
        bytes(concat([b"ab", b"cd"]))
        with run_scope(inner):
            concat([b"ab", b"cd"])           # eager: materializes
        bytes(concat([b"ef", b"gh"]))
    assert (outer.bytes_copied, outer.buffer_allocs) == (8, 2)
    assert (inner.bytes_copied, inner.buffer_allocs) == (4, 1)


def test_outside_a_run_ropes_work_and_count_nothing():
    rope = concat([b"ab", b"cd"])
    assert len(list(rope.iter_segments())) == 2  # zero-copy, never eager
    assert bytes(rope) == b"abcd" and as_bytes(bytearray(b"x")) == b"x"
    with run_scope(RunStats()) as stats:
        assert bytes(rope) == b"abcd"        # memoized outside: free here
    assert (stats.bytes_copied, stats.buffer_allocs) == (0, 0)


def test_concat_once_memoizes_per_run_and_owner():
    class Owner:
        pass
    owner, parts = Owner(), [b"ab", b"cd"]
    first, second = RunStats(), RunStats()
    with run_scope(first):
        rope = concat_once(owner, parts)
        assert concat_once(owner, parts) is rope
        bytes(rope)
    with run_scope(second):                  # a later run re-pays the flatten
        again = concat_once(owner, parts)
        assert again is not rope
        bytes(again)
    assert first.bytes_copied == second.bytes_copied == 4
    assert concat_once(owner, parts) is not concat_once(owner, parts)
    del owner
    assert not first.ropes and not second.ropes


def test_eager_mode_counts_every_hop_but_same_bytes():
    payload = bytes(range(64))
    with run_scope(RunStats(eager=True)) as stats:
        rope = concat([payload[:20], payload[20:]])
        assert stats.bytes_copied == 64  # concat materialized
        part = rope.slice(10, 30)
        assert stats.bytes_copied == 64 + 20  # slice materialized
        z = zeros(8)
        assert stats.bytes_copied == 64 + 20 + 8  # zeros allocated
        # Full-range slice still returns self (CPython bytes[:] semantics).
        assert rope.slice(0, len(rope)) is rope
    assert bytes(part) == payload[10:30]
    assert bytes(z) == bytes(8)
