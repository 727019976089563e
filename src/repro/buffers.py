"""Zero-copy scatter-gather buffers: the payload data plane.

The checkpoint pipelines in this repo are data-movement pipelines (worker
package -> writer aggregation -> two-phase exchange -> GPFS extents), and
at payload scale the dominant *host* cost used to be Python re-copying the
same bytes at every hop: ``CheckpointData.concatenated_payload`` joined the
fields, the rbIO writer reassembled a field-major ``bytearray``, the MPI-IO
aggregator overlaid another one, every burst sliced a fresh ``bytes``, and
``FileObject.read_extents`` materialized whole files on read.  Following
the segment-list idiom of collective-I/O implementations (describe data as
offset/length views, never flatten mid-pipeline), this module provides an
immutable rope of ``memoryview`` segments so a checkpoint's bytes are
copied exactly once — at the final file-system commit boundary.

:class:`ByteRope` supports ``slice`` / ``concat`` / ``split_at`` without
touching payload bytes, computes CRC32 iteratively over its segments,
compares content against any bytes-like without materializing, and
converts to flat ``bytes`` lazily (memoized) via :meth:`ByteRope.to_bytes`.

Accounting
----------
A rope is a value type with no owner to reach a job through, so copy
accounting uses the one scoped carrier in the code base: :func:`run_scope`,
entered by :meth:`repro.mpi.Job.run` for the duration of dispatch, names
the run's stats object (``bytes_copied`` / ``buffer_allocs`` / ``eager``).
Every materializing operation inside the scope records into it —
published as ``copy.*`` by :meth:`repro.mpi.Job.metrics` — and nested or
alternately-advanced jobs each see their own.  Outside a run, ropes work
and count nothing.

A run configured with ``RunConfig(copy="eager")`` materializes at every
hop — reproducing the pre-rope copy-per-hop behavior byte for byte — which
is what the data-plane benchmark and the rope-vs-bytes property tests
compare against.  Both modes produce bit-identical committed file images;
only host copies differ.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional, Union

__all__ = [
    "ByteRope",
    "COPY_MODES",
    "run_scope",
    "concat",
    "concat_once",
    "zeros",
    "overlay",
    "as_bytes",
    "crc32_of",
]

BytesLike = Union[bytes, bytearray, memoryview, "ByteRope"]


#: Data-plane copy disciplines a run can select (``RunConfig.copy``).
COPY_MODES = ("zerocopy", "eager")

#: The scoped current-run carrier: the stats object of the job whose
#: ``run()`` is dispatching (``None`` outside a run).  The only
#: module-level run state in ``repro``; only this module reads it.
_run: ContextVar = ContextVar("repro_current_run", default=None)


@contextmanager
def run_scope(stats):
    """Make ``stats`` the current run for the ``with`` body, then restore.

    ``stats`` needs an ``eager`` flag, ``count_copy(nbytes)`` and a
    weak-keyed ``ropes`` memo — :class:`repro.mpi.RunStats` in practice.
    """
    token = _run.set(stats)
    try:
        yield stats
    finally:
        _run.reset(token)


#: The current run's stats object, or ``None`` outside a run.
_current_run = _run.get


def _count_copy(nbytes: int) -> None:
    """Record one materialization of ``nbytes`` into one fresh buffer."""
    run = _current_run()
    if run is not None:
        run.count_copy(nbytes)


#: Shared zero page backing `zeros()` ropes (sparse reads, file headers).
_ZERO_PAGE_SIZE = 1 << 20
_ZERO_VIEW = memoryview(bytes(_ZERO_PAGE_SIZE))


class ByteRope:
    """An immutable scatter-gather byte sequence.

    A rope is an ordered tuple of ``memoryview`` segments over caller-owned
    buffers.  All structural operations (:meth:`slice`, :meth:`concat`,
    :meth:`split_at`) manipulate segment references only; payload bytes
    move exactly once, when :meth:`to_bytes` is finally called at a commit
    boundary (and the flat result is memoized).

    Ropes quack enough like ``bytes`` for the simulator's data plane:
    ``len``, truthiness, ``rope[int]`` -> int, ``rope[a:b]`` -> rope,
    ``rope + other`` -> rope, content equality against any bytes-like, and
    ``bytes(rope)``.  They do *not* expose the buffer protocol — consumers
    that need real contiguous memory (``np.frombuffer``, vtk encoding)
    must cross through :func:`as_bytes`, which is the point: those are the
    copy boundaries, and they are counted.
    """

    __slots__ = ("_segments", "_starts", "_length", "_flat")

    def __init__(self) -> None:
        raise TypeError("use ByteRope.wrap(), concat(), or zeros()")

    @classmethod
    def _new(cls, segments: tuple, starts: list, length: int,
             flat: Optional[bytes]) -> "ByteRope":
        rope = object.__new__(cls)
        rope._segments = segments
        rope._starts = starts
        rope._length = length
        rope._flat = flat
        return rope

    @classmethod
    def _flat_rope(cls, data: bytes) -> "ByteRope":
        """A single-segment rope over freshly materialized ``bytes``."""
        if not data:
            return EMPTY
        return cls._new((memoryview(data),), [0], len(data), data)

    # -- construction ------------------------------------------------------
    @classmethod
    def wrap(cls, data: BytesLike) -> "ByteRope":
        """View ``data`` as a rope without copying.

        ``bytes`` input keeps a reference so a later :meth:`to_bytes` is
        free; ``bytearray``/``memoryview`` input is viewed in place (the
        caller must not mutate it afterwards — simulator payloads never
        are).
        """
        if isinstance(data, ByteRope):
            return data
        if isinstance(data, bytes):
            if not data:
                return EMPTY
            return cls._new((memoryview(data),), [0], len(data), data)
        if isinstance(data, (bytearray, memoryview)):
            mv = memoryview(data)
            if mv.ndim != 1 or mv.format != "B":
                mv = mv.cast("B")
            if not len(mv):
                return EMPTY
            return cls._new((mv,), [0], len(mv), None)
        raise TypeError(f"cannot wrap {type(data).__name__} as a ByteRope")

    @classmethod
    def concat(cls, parts) -> "ByteRope":
        """Join bytes-likes/ropes in order; zero-copy segment merge."""
        ropes = [p if isinstance(p, ByteRope) else cls.wrap(p) for p in parts]
        ropes = [r for r in ropes if r._length]
        if not ropes:
            return EMPTY
        if len(ropes) == 1:
            return ropes[0]
        run = _current_run()
        if run is not None and run.eager:
            data = b"".join(s for r in ropes for s in r._segments)
            run.count_copy(len(data))
            return cls._flat_rope(data)
        segments = []
        starts = []
        pos = 0
        for r in ropes:
            for seg in r._segments:
                segments.append(seg)
                starts.append(pos)
                pos += len(seg)
        return cls._new(tuple(segments), starts, pos, None)

    # -- structural ops (no byte movement) ---------------------------------
    def slice(self, start: int, stop: Optional[int] = None) -> "ByteRope":
        """The sub-rope ``[start, stop)``; segment views only."""
        length = self._length
        if stop is None:
            stop = length
        start = max(0, min(int(start), length))
        stop = max(start, min(int(stop), length))
        if start == 0 and stop == length:
            return self
        n = stop - start
        if n == 0:
            return EMPTY
        run = _current_run()
        if run is not None and run.eager:
            data = b"".join(self._iter_range(start, stop))
            run.count_copy(n)
            return ByteRope._flat_rope(data)
        segments = tuple(self._iter_range(start, stop))
        starts = []
        pos = 0
        for seg in segments:
            starts.append(pos)
            pos += len(seg)
        return ByteRope._new(segments, starts, n, None)

    def split_at(self, offset: int) -> tuple["ByteRope", "ByteRope"]:
        """``(rope[:offset], rope[offset:])`` without copying."""
        return self.slice(0, offset), self.slice(offset, self._length)

    def _iter_range(self, start: int, stop: int) -> Iterator[memoryview]:
        """Segment views covering ``[start, stop)`` (callers clamp bounds)."""
        starts = self._starts
        i = bisect_right(starts, start) - 1
        for k in range(i, len(starts)):
            seg = self._segments[k]
            s0 = starts[k]
            if s0 >= stop:
                break
            lo = max(0, start - s0)
            hi = min(len(seg), stop - s0)
            yield seg if lo == 0 and hi == len(seg) else seg[lo:hi]

    def iter_segments(self, start: int = 0, stop: Optional[int] = None
                      ) -> Iterator[memoryview]:
        """The segment views covering ``[start, stop)`` (default: all of
        the rope), in order; a read, never a counted copy."""
        if start <= 0 and (stop is None or stop >= self._length):
            return iter(self._segments)
        stop = self._length if stop is None else stop
        return self._iter_range(max(0, start), stop)

    # -- content ops -------------------------------------------------------
    def crc32(self, value: int = 0) -> int:
        """CRC32 of the content, computed incrementally over segments."""
        for seg in self._segments:
            value = zlib.crc32(seg, value)
        return value & 0xFFFFFFFF

    def to_bytes(self) -> bytes:
        """Flat ``bytes`` of the content — THE copy boundary (memoized).

        A rope wrapped directly over a ``bytes`` object returns it without
        copying; anything else joins its segments exactly once and caches
        the result.
        """
        flat = self._flat
        if flat is None:
            flat = b"".join(self._segments)
            _count_copy(len(flat))
            self._flat = flat
        return flat

    tobytes = to_bytes  # memoryview-style spelling

    # -- dunder plumbing ---------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __bytes__(self) -> bytes:
        return self.to_bytes()

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(self._length)
            if step != 1:
                raise ValueError("ByteRope slices must be contiguous (step 1)")
            return self.slice(start, stop)
        idx = int(key)
        if idx < 0:
            idx += self._length
        if not 0 <= idx < self._length:
            raise IndexError("ByteRope index out of range")
        i = bisect_right(self._starts, idx) - 1
        return self._segments[i][idx - self._starts[i]]

    def __add__(self, other):
        if isinstance(other, (bytes, bytearray, memoryview, ByteRope)):
            return ByteRope.concat((self, other))
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, (bytes, bytearray, memoryview)):
            return ByteRope.concat((other, self))
        return NotImplemented

    def __eq__(self, other):
        if other is self:
            return True
        if isinstance(other, ByteRope):
            if other._length != self._length:
                return False
            if (self._flat is not None and other._flat is not None):
                return self._flat == other._flat
            return self._content_eq(other._segments)
        if isinstance(other, (bytes, bytearray, memoryview)):
            if len(other) != self._length:
                return False
            mv = memoryview(other)
            if mv.ndim != 1 or mv.format != "B":
                mv = mv.cast("B")
            pos = 0
            for seg in self._segments:
                n = len(seg)
                if seg != mv[pos : pos + n]:
                    return False
                pos += n
            return True
        return NotImplemented

    __hash__ = None  # mutable-adjacent semantics: content eq, no hashing

    def _content_eq(self, other_segments: tuple) -> bool:
        """Segment-aligned content comparison (equal lengths assumed)."""
        a_iter = iter(self._segments)
        b_iter = iter(other_segments)
        a = next(a_iter, None)
        b = next(b_iter, None)
        a_pos = b_pos = 0
        while a is not None and b is not None:
            n = min(len(a) - a_pos, len(b) - b_pos)
            if a[a_pos : a_pos + n] != b[b_pos : b_pos + n]:
                return False
            a_pos += n
            b_pos += n
            if a_pos == len(a):
                a = next(a_iter, None)
                a_pos = 0
            if b is not None and b_pos == len(b):
                b = next(b_iter, None)
                b_pos = 0
        return a is None and b is None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ByteRope {self._length} B in {len(self._segments)} "
                f"segment{'s' if len(self._segments) != 1 else ''}"
                f"{' (flat)' if self._flat is not None else ''}>")


#: The canonical empty rope (shared; every empty result is this object).
EMPTY = ByteRope._new((), [], 0, b"")
ByteRope.EMPTY = EMPTY


def concat(parts) -> ByteRope:
    """Module-level spelling of :meth:`ByteRope.concat`."""
    return ByteRope.concat(parts)


def concat_once(owner, parts) -> ByteRope:
    """``concat(parts)``, built once per run for ``owner``.

    The memo is the current run's (``stats.ropes``, weak-keyed by
    ``owner``), so a rope one run flattened is never served to another and
    each run's copy accounting is independent of what ran before it.
    Outside a run nothing is cached.
    """
    run = _current_run()
    if run is None:
        return ByteRope.concat(parts)
    rope = run.ropes.get(owner)
    if rope is None:
        rope = run.ropes[owner] = ByteRope.concat(parts)
    return rope


def zeros(n: int) -> ByteRope:
    """A rope of ``n`` zero bytes backed by one shared page (no allocation).

    Sparse-file reads and master headers are all zeros; in zero-copy mode
    they reference the module's zero page, in an eager run they allocate
    (and count) real buffers like the pre-rope code did.
    """
    if n <= 0:
        return EMPTY
    run = _current_run()
    if run is not None and run.eager:
        run.count_copy(n)
        return ByteRope._flat_rope(bytes(n))
    full, rem = divmod(n, _ZERO_PAGE_SIZE)
    segments = [_ZERO_VIEW] * full
    if rem:
        segments.append(_ZERO_VIEW[:rem])
    starts = [i * _ZERO_PAGE_SIZE for i in range(len(segments))]
    return ByteRope._new(tuple(segments), starts, n, None)


def overlay(pieces, lo: int, hi: int) -> ByteRope:
    """Compose ``(offset, data)`` pieces over ``[lo, hi)``, later wins.

    Gaps come back as zeros (sparse-file semantics).  Pieces are applied in
    iteration order, so a later piece shadows an earlier one wherever they
    overlap — exactly the write-order semantics of extent lists and of the
    aggregator's domain reassembly.  The result references the pieces'
    segments; nothing is copied.
    """
    span = hi - lo
    if span <= 0:
        return EMPTY
    clipped = []  # (start, end, rope, piece_offset), application order
    for off, data in pieces:
        rope = data if isinstance(data, ByteRope) else ByteRope.wrap(data)
        s = max(lo, off)
        e = min(hi, off + rope._length)
        if s < e:
            clipped.append((s, e, rope, off))
    if not clipped:
        return zeros(span)
    first_s, first_e, first_rope, first_off = clipped[0]
    if len(clipped) == 1 and first_s == lo and first_e == hi:
        return first_rope.slice(lo - first_off, hi - first_off)
    bounds = {lo, hi}
    for s, e, _rope, _off in clipped:
        bounds.add(s)
        bounds.add(e)
    edges = sorted(bounds)
    parts = []
    for a, b in zip(edges, edges[1:]):
        chosen = None
        for s, e, rope, off in reversed(clipped):
            if s <= a and b <= e:
                chosen = rope.slice(a - off, b - off)
                break
        parts.append(chosen if chosen is not None else zeros(b - a))
    return ByteRope.concat(parts)


def as_bytes(data) -> Optional[bytes]:
    """Flat ``bytes`` of any bytes-like — the explicit copy boundary.

    ``bytes`` passes through untouched, ropes materialize via
    :meth:`ByteRope.to_bytes` (memoized, counted), other buffer types copy
    (counted).  ``None`` passes through for size-only payloads.
    """
    if data is None or isinstance(data, bytes):
        return data
    if isinstance(data, ByteRope):
        return data.to_bytes()
    if isinstance(data, (bytearray, memoryview)):
        out = bytes(data)
        _count_copy(len(out))
        return out
    raise TypeError(f"cannot materialize {type(data).__name__} as bytes")


def crc32_of(data, value: int = 0) -> int:
    """CRC32 of any bytes-like, segment-iterative for ropes (no copy)."""
    if isinstance(data, ByteRope):
        return data.crc32(value)
    return zlib.crc32(data, value) & 0xFFFFFFFF
