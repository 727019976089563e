"""Incremental content-addressed checkpointing over the ByteRope.

Checkpoint generations are highly redundant between steps: a solver that
mutates a quarter of its state per step still rewrites every byte of every
generation under the paper's strategies.  This module provides the shared
machinery that lets every strategy ship only the *changed* chunks:

- **Content-defined chunking** — a windowed Gear rolling hash computed
  vectorized over :class:`~repro.buffers.ByteRope` segments in
  cache-sized tiles (narrowest word that holds the mask, log-doubling
  window sum, carry-in of the previous window's raw bytes, no flat
  materialization), with min/avg/max chunk-size bounds.  Boundaries
  depend only on content, so an edit moves at most the chunks it touches:
  the suffix re-aligns after one window.
- **Content addressing** — each chunk carries a CRC32 and a 128-bit
  BLAKE2b digest, both computed segment-iteratively over the rope.
- **Versioned manifests** — every delta generation writes a canonical-JSON
  manifest next to its data file: the full chunk list (including where
  each chunk's bytes live — ``(src_step, src_offset)`` into that
  generation's file), the parent generation, the strategy, and the member
  layout.  Manifests are *self-contained*: restoring generation ``k``
  needs only ``k``'s manifest plus the data files it references.
- **Delta planning** — :func:`plan_section` chunks a member's payload,
  looks every chunk up in the parent manifest by ``(digest, length)``, and
  returns the fresh chunks packed as a zero-copy rope plus the manifest
  section describing the whole generation.  When the data states the
  spans it rewrote since the parent generation
  (:attr:`~repro.ckpt.data.CheckpointData.rewritten`), the same walk
  re-chunks and hashes only around those spans and copies the parent's
  chunks elsewhere, so its host cost follows the rewrite, not the image;
  the plan is the one a walk over the whole payload makes.
  :func:`plan_delta` is the *plan* stage every strategy's delta commit
  runs: members in, the ``(offset, nbytes, payload)`` pieces to write
  plus the file's serialized manifest out; :func:`manifest_files` makes
  the manifest one more file of the commit's plan.
- **Delta-chain restore** — :func:`read_plan` merges a section's chunks
  into maximal contiguous read runs per source generation;
  :func:`assemble_section` reassembles the member payload from the run
  data and verifies every chunk's CRC32, rejecting any bit-flip.

Accounting lives in the owning job's :class:`~repro.mpi.RunStats`
(``bytes_logical`` / ``bytes_to_pfs`` / ``chunk_hits`` / ``chunk_misses``),
published as ``delta.*`` by :meth:`repro.mpi.Job.metrics`.

Strategies expose all of this behind the ``delta="off"|"auto"|"require"``
knob (:meth:`~repro.ckpt.CheckpointStrategy.configure_delta`); full-write
stays the paper-fidelity default.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..buffers import ByteRope, zeros
from ..faults import UnrecoverableCheckpointError
from .layout import header_piece

__all__ = [
    "MANIFEST_VERSION",
    "GEAR_WINDOW",
    "ManifestError",
    "ChunkingParams",
    "ChunkRef",
    "ManifestSection",
    "Manifest",
    "SectionPlan",
    "ReadRun",
    "chunk_boundaries",
    "chunk_spans",
    "chunk_digest",
    "plan_section",
    "plan_delta",
    "shift_fresh",
    "read_plan",
    "assemble_section",
    "manifest_path",
    "manifest_files",
    "read_manifest",
    "manifest_exists",
]

#: On-disk manifest schema version; unknown versions are rejected so a
#: future format change can never silently mis-restore old checkpoints.
MANIFEST_VERSION = 1

#: Rolling-hash window: a boundary decision looks at no more than this many
#: bytes, so chunk boundaries re-align at most one window after any edit.
#: Byte ``j`` back enters the hash shifted left by ``j`` and the boundary
#: test reads only the mask's bits, so the *effective* window is
#: ``min(GEAR_WINDOW, mask.bit_length())`` — 13 bytes at the default 8 KiB
#: average.  A power of two: the scan's doubling passes land on it exactly.
GEAR_WINDOW = 32

#: The Gear table: 256 pseudo-random 64-bit words, fixed forever (chunk
#: boundaries are part of the on-disk format's stability contract).
_GEAR = np.random.default_rng(0x47454152).integers(
    0, 1 << 64, size=256, dtype=np.uint64)

#: ``(width, table)`` truncations of :data:`_GEAR`, narrowest first: the
#: scan hashes in the first width that holds the mask.
_GEAR_NARROW = tuple((np.dtype(dt).itemsize * 8, _GEAR.astype(dt))
                     for dt in (np.uint16, np.uint32, np.uint64))

#: Positions hashed per scan tile: two scratch arrays of this many words
#: (128 KiB at the default mask's uint16) stay L2-resident.
_TILE = 1 << 15


class ManifestError(UnrecoverableCheckpointError):
    """A manifest is unreadable, unparsable, or from an unknown schema.

    Subclasses :class:`~repro.faults.UnrecoverableCheckpointError` so the
    resilient restore's voting treats a damaged manifest exactly like a
    damaged data file: the generation is rejected and every rank falls
    back together.
    """


def _count(value, what: str) -> int:
    """A manifest number: a non-negative ``int``, never a coerced one."""
    if type(value) is not int or value < 0:
        raise ManifestError(f"manifest {what} must be a non-negative int, "
                            f"got {value!r}")
    return value


@dataclass(frozen=True)
class ChunkingParams:
    """Content-defined chunking bounds.

    ``avg_size`` must be a power of two (the boundary condition masks the
    rolling hash with ``avg_size - 1``); ``min_size`` suppresses boundary
    candidates too close to the previous cut, ``max_size`` forces one.
    """

    min_size: int = 2048
    avg_size: int = 8192
    max_size: int = 32768

    def __post_init__(self) -> None:
        if not (0 < self.min_size <= self.avg_size <= self.max_size):
            raise ValueError(
                f"need 0 < min <= avg <= max, got {self.min_size}/"
                f"{self.avg_size}/{self.max_size}")
        if self.avg_size & (self.avg_size - 1):
            raise ValueError(f"avg_size must be a power of two, "
                             f"got {self.avg_size}")

    @property
    def mask(self) -> int:
        return self.avg_size - 1

    def to_dict(self) -> dict:
        return {"min": self.min_size, "avg": self.avg_size,
                "max": self.max_size}

    @classmethod
    def from_dict(cls, d: dict) -> "ChunkingParams":
        return cls(*(_count(d[key], f"chunking {key}")
                     for key in ("min", "avg", "max")))


# ---------------------------------------------------------------------------
# Content-defined chunking
# ---------------------------------------------------------------------------

def _candidate_positions(rope: ByteRope, mask: int, start: int = 0,
                         stop: Optional[int] = None) -> np.ndarray:
    """Boundary candidates: positions ``p`` where the windowed Gear hash of
    ``rope[:p]``'s last :data:`GEAR_WINDOW` bytes satisfies the mask.

    Only ``rope[start:stop]`` is read, as if it were the whole stream: the
    positions returned are absolute, and those within one window of
    ``start`` are exact only when ``start`` is 0.

    ``h[i] = sum_{j<W} GEAR[b[i-j]] << j``, and only ``h & mask`` is ever
    tested, which makes three shortcuts exact (not approximations):

    - *narrow words*: ``<< j`` clears the low ``j`` bits, so bits above
      ``mask.bit_length()`` never reach the test — the sum runs in the
      narrowest unsigned dtype holding the mask, and terms with
      ``j >= bits`` drop out (the effective window is ``min(W, bits)``);
    - *log-doubling*: ``h_2k[i] = h_k[i] + (h_k[i-k] << k)`` is the same
      modular sum regrouped, reaching the window in ``log2`` passes;
    - *tiling*: each :data:`_TILE`-position slice of a segment is hashed in
      cache-resident scratch, with the preceding ``window - 1`` raw bytes
      carried across tile and segment seams so positions near a seam hash
      exactly as they would in the flat byte stream.

    No payload bytes are copied beyond that carry.
    """
    bits = max(mask.bit_length(), 1)
    gear = next(g for width, g in _GEAR_NARROW if bits <= width)
    m = gear.dtype.type(mask)
    # Doubling stops at the first power of two >= min(W, bits): never past
    # W, and any terms past ``bits`` it includes vanish under the mask.
    shifts = []
    window = 1
    while window < min(GEAR_WINDOW, bits):
        shifts.append(window)
        window *= 2
    keep = window - 1
    h = np.empty(_TILE + keep, dtype=gear.dtype)
    tmp = np.empty_like(h)
    out: list[np.ndarray] = []
    carry = b""
    pos = start
    for seg in rope.iter_segments(start, stop):
        seg = np.frombuffer(seg, dtype=np.uint8)
        for lo in range(0, len(seg), _TILE):
            part = seg[lo:lo + _TILE]
            c = len(carry)
            n = c + len(part)
            if c:
                h[:c] = gear[np.frombuffer(carry, dtype=np.uint8)]
            # mode="clip" only to skip take()'s bounds-check buffering:
            # uint8 indices cannot leave the 256-entry table.
            np.take(gear, part, out=h[c:n], mode="clip")
            for k in shifts:
                if k >= n:
                    break
                np.left_shift(h[:n - k], k, out=tmp[:n - k])
                np.add(h[k:n], tmp[:n - k], out=h[k:n])
            np.bitwise_and(h[c:n], m, out=tmp[c:n])
            hits = np.flatnonzero(tmp[c:n] == m)
            if len(hits):
                # A candidate *after* byte i cuts at absolute position i + 1.
                out.append(hits + (pos + 1))
            pos += len(part)
            if keep:
                carry = (carry + part[-keep:].tobytes())[-keep:]
    if not out:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(out)


def _window(params: ChunkingParams) -> int:
    """Bytes a boundary decision reads: a candidate at ``p`` depends only
    on ``[p - w, p)`` (the effective window of :func:`_candidate_positions`)."""
    return min(GEAR_WINDOW, max(params.mask.bit_length(), 1))


def _cuts_from(rope: ByteRope, params: ChunkingParams, start: int, end: int):
    """Yield the cuts after ``start`` (itself a cut) in order, exactly as
    the chunker places them over the whole rope.

    Candidates are scanned stretch by stretch — ``[start, end)`` first,
    then ever longer ones — each slice carrying the ``window - 1`` bytes
    before it, so a caller that stops reading early scans little past
    where it stopped.
    """
    n = len(rope)
    carry = _window(params) - 1
    lo_cut = scanned = start
    stretch = params.max_size
    while True:
        end = min(n, end)
        cands = _candidate_positions(rope, params.mask,
                                     max(0, scanned - carry), end)
        for c in cands[cands > scanned].tolist():
            while c - lo_cut > params.max_size:
                lo_cut += params.max_size
                yield lo_cut
            if c - lo_cut >= params.min_size:
                lo_cut = c
                yield c
        if end == n:
            while n - lo_cut > params.max_size:
                lo_cut += params.max_size
                yield lo_cut
            if lo_cut < n:
                yield n
            return
        # No candidate left up to ``end``: a forced cut there is certain.
        while end - lo_cut >= params.max_size:
            lo_cut += params.max_size
            yield lo_cut
        stretch *= 2
        end, scanned = end + stretch, end


def chunk_boundaries(rope: ByteRope, params: Optional[ChunkingParams] = None
                     ) -> list[int]:
    """Chunk cut positions (exclusive ends) for ``rope``, last == len.

    Candidates closer than ``min_size`` to the previous cut are skipped;
    a run longer than ``max_size`` without a candidate is cut at exactly
    ``max_size``.  The final (tail) chunk may be shorter than ``min_size``.
    """
    params = params or ChunkingParams()
    n = len(rope)
    return list(_cuts_from(rope, params, 0, n)) if n else []


def chunk_spans(rope: ByteRope, params: Optional[ChunkingParams] = None
                ) -> list[tuple[int, int]]:
    """``(lo, hi)`` spans of every chunk, tiling ``[0, len)`` exactly."""
    lo = 0
    spans = []
    for hi in chunk_boundaries(rope, params):
        spans.append((lo, hi))
        lo = hi
    return spans


def chunk_digest(rope: ByteRope) -> str:
    """128-bit BLAKE2b content digest, fed segment by segment (no copy)."""
    h = hashlib.blake2b(digest_size=16)
    for seg in rope.iter_segments():
        h.update(seg)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChunkRef:
    """One chunk of a member's payload and where its bytes live on disk.

    ``offset`` is the chunk's position within the member's *logical*
    payload; ``(src_step, src_offset)`` point into the data file of the
    generation that first wrote these bytes (``src_step == step`` for a
    fresh chunk, an ancestor for a deduplicated one).
    """

    offset: int
    length: int
    crc: int
    digest: str
    src_step: int
    src_offset: int

    def to_list(self) -> list:
        return [self.offset, self.length, self.crc, self.digest,
                self.src_step, self.src_offset]

    @classmethod
    def from_list(cls, v: Sequence) -> "ChunkRef":
        if len(v) != 6 or type(v[3]) is not str:
            raise ManifestError(f"malformed chunk entry: {v!r}")
        return cls(*(_count(x, "chunk entry") for x in v[:3]), v[3],
                   *(_count(x, "chunk entry") for x in v[4:]))


@dataclass(frozen=True)
class ManifestSection:
    """One member's chunk list within a generation's file.

    ``member`` is the member's index within the file's communicator
    (0 for 1PFPP's private files, the group rank for coIO/rbIO files,
    the world rank for nf=1 shared files).
    """

    member: int
    field_sizes: tuple[int, ...]
    chunks: tuple[ChunkRef, ...]

    @property
    def logical_bytes(self) -> int:
        return sum(c.length for c in self.chunks)

    def digest_index(self) -> dict[tuple[str, int], tuple[int, int]]:
        """``(digest, length) -> (src_step, src_offset)`` dedup lookup."""
        return {(c.digest, c.length): (c.src_step, c.src_offset)
                for c in self.chunks}

    def to_dict(self) -> dict:
        return {"member": self.member,
                "field_sizes": list(self.field_sizes),
                "chunks": [c.to_list() for c in self.chunks]}

    @classmethod
    def from_dict(cls, d: dict) -> "ManifestSection":
        try:
            return cls(
                member=_count(d["member"], "member"),
                field_sizes=tuple(_count(s, "field size")
                                  for s in d["field_sizes"]),
                chunks=tuple(ChunkRef.from_list(c) for c in d["chunks"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest section: {exc}") from None


@dataclass(frozen=True)
class Manifest:
    """A delta generation's complete description (one per data file)."""

    strategy: str
    step: int
    parent: Optional[int]
    header_bytes: int
    chunking: ChunkingParams
    sections: tuple[ManifestSection, ...]
    version: int = MANIFEST_VERSION

    def section_for(self, member: int) -> ManifestSection:
        for s in self.sections:
            if s.member == member:
                return s
        raise ManifestError(
            f"manifest of step {self.step} has no section for member "
            f"{member} (members: {[s.member for s in self.sections]})")

    @property
    def fresh_bytes(self) -> int:
        """Bytes of chunk data this generation's file actually holds."""
        return sum(c.length for s in self.sections for c in s.chunks
                   if c.src_step == self.step)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "strategy": self.strategy,
            "step": self.step,
            "parent": self.parent,
            "header_bytes": self.header_bytes,
            "chunking": self.chunking.to_dict(),
            "sections": [s.to_dict() for s in self.sections],
        }

    def to_bytes(self) -> bytes:
        """Canonical serialization: key-sorted compact JSON + newline.

        Byte-stable across processes and Python versions — the golden
        manifest test pins it, so restore of old checkpoints survives
        refactors.
        """
        return (json.dumps(self.to_dict(), sort_keys=True,
                           separators=(",", ":")) + "\n").encode("ascii")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Manifest":
        try:
            d = json.loads(bytes(data))
        except (ValueError, TypeError) as exc:
            raise ManifestError(f"unparsable manifest: {exc}") from None
        if not isinstance(d, dict) or "version" not in d:
            raise ManifestError("manifest is not a versioned object")
        if _count(d["version"], "version") != MANIFEST_VERSION:
            raise ManifestError(
                f"unsupported manifest version {d['version']!r} "
                f"(this build reads version {MANIFEST_VERSION})")
        try:
            if type(d["strategy"]) is not str:
                raise ManifestError(f"manifest strategy {d['strategy']!r}")
            return cls(
                strategy=d["strategy"],
                step=_count(d["step"], "step"),
                parent=(None if d["parent"] is None
                        else _count(d["parent"], "parent")),
                header_bytes=_count(d["header_bytes"], "header_bytes"),
                chunking=ChunkingParams.from_dict(d["chunking"]),
                sections=tuple(ManifestSection.from_dict(s)
                               for s in d["sections"]),
            )
        except ManifestError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest: {exc}") from None


def manifest_path(data_path: str) -> str:
    """The manifest written alongside a generation's data file."""
    return data_path + ".manifest"


def manifest_files(data_path: str, blob: Optional[bytes]) -> tuple:
    """The manifest ``blob`` as files of a commit plan — one write of the
    whole blob next to ``data_path`` — or none (``blob`` is ``None``)."""
    return () if blob is None else (
        (manifest_path(data_path), ((0, len(blob), ByteRope.wrap(blob)),)),)


# ---------------------------------------------------------------------------
# Delta planning (checkpoint side)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectionPlan:
    """One member's delta plan: what to write, and how to describe it.

    Fresh chunks' ``src_offset`` values are relative to the start of this
    member's fresh region (base 0); the committer places the region in the
    file and rebases with :func:`shift_fresh` — independent committers use
    ``header_bytes``, collective committers a prefix sum over members.
    ``hashed_bytes`` counts the bytes the planner chunked and hashed: the
    logical bytes for a full walk, about the rewritten bytes otherwise.
    """

    section: ManifestSection
    fresh: ByteRope
    fresh_bytes: int
    hits: int
    misses: int
    hashed_bytes: int

    @property
    def logical_bytes(self) -> int:
        return self.section.logical_bytes


def plan_section(payload: ByteRope, field_sizes: Sequence[int], member: int,
                 step: int, params: ChunkingParams,
                 parent_section: Optional[ManifestSection] = None,
                 rewritten: Optional[Sequence[tuple[int, int]]] = None
                 ) -> SectionPlan:
    """Chunk ``payload``, dedup against the parent section, pack the rest.

    Without a parent (generation 0, or the first delta generation after a
    restart) every chunk is fresh and the file carries the full payload —
    plus its manifest, which is what makes later generations cheap.

    ``rewritten`` lists the ``(lo, hi)`` byte spans that may differ from
    the payload the parent section describes (``None``: unknown).  With a
    parent of the same field sizes, the walk copies the parent's chunks
    outside those spans — cut, CRC and digest — and re-chunks from the
    last parent cut at or before each span until the new cuts meet a
    parent cut at least one rolling-hash window past it.  A cut at ``p``
    depends only on the previous cut and on ``[p - w, p)``, so from there
    on both chains see the same candidates: the plan equals the one a
    walk over the whole payload makes.  Any other case is that walk.
    """
    sizes = tuple(int(s) for s in field_sizes)
    n = len(payload)
    index = (parent_section.digest_index() if parent_section is not None
             else {})
    parent: Sequence[ChunkRef] = ()
    if (rewritten is None or parent_section is None
            or parent_section.field_sizes != sizes
            or parent_section.logical_bytes != n):
        rewritten = ((0, n),)
    else:
        parent = parent_section.chunks
    spans = sorted((max(lo, 0), min(hi, n)) for lo, hi in rewritten
                   if min(hi, n) > max(lo, 0))
    parent_cuts = {c.offset + c.length for c in parent}
    w = _window(params)
    chunks: list[ChunkRef] = []
    fresh_parts: list[ByteRope] = []
    fresh_pos = hits = misses = hashed = 0
    pos = i = k = 0  # the walk's last cut; next parent chunk; next span

    def copy_parent(limit: int) -> None:
        # Parent chunks from ``pos`` ending by ``limit``: same bytes, same
        # refs, sourced through the index exactly as a hashed chunk is.
        nonlocal pos, i, hits
        while i < len(parent) and parent[i].offset + parent[i].length <= limit:
            c = parent[i]
            i += 1
            if c.offset >= pos:
                src = index[(c.digest, c.length)]
                if src != (c.src_step, c.src_offset):
                    c = ChunkRef(c.offset, c.length, c.crc, c.digest, *src)
                chunks.append(c)
                hits += 1
                pos = c.offset + c.length

    while k < len(spans):
        lo, reach = spans[k]
        copy_parent(lo)
        for cut in _cuts_from(payload, params, pos,
                              reach + w + params.max_size):
            piece = payload.slice(pos, cut)
            digest = chunk_digest(piece)
            src = index.get((digest, cut - pos))
            if src is not None:
                hits += 1
            else:
                misses += 1
                src = (step, fresh_pos)
                fresh_parts.append(piece)
                fresh_pos += cut - pos
            chunks.append(ChunkRef(pos, cut - pos, piece.crc32(), digest,
                                   *src))
            hashed += cut - pos
            pos = cut
            while k < len(spans) and spans[k][0] < cut:
                reach = max(reach, spans[k][1])
                k += 1
            if cut >= reach + w and cut in parent_cuts:
                break
    copy_parent(n)
    section = ManifestSection(member=member, field_sizes=sizes,
                              chunks=tuple(chunks))
    return SectionPlan(section=section, fresh=ByteRope.concat(fresh_parts),
                       fresh_bytes=fresh_pos, hits=hits, misses=misses,
                       hashed_bytes=hashed)


def shift_fresh(section: ManifestSection, step: int, base: int
                ) -> ManifestSection:
    """Rebase the fresh chunks' file offsets by ``base`` (region placement)."""
    if base == 0:
        return section
    return ManifestSection(
        member=section.member,
        field_sizes=section.field_sizes,
        chunks=tuple(
            ChunkRef(c.offset, c.length, c.crc, c.digest, c.src_step,
                     c.src_offset + base) if c.src_step == step else c
            for c in section.chunks),
    )


def plan_delta(strategy, ctx, members, step: int, header_bytes: int,
               comm=None, span_dedup: bool = False):
    """Generator: the *plan* stage of one committer's delta generation.

    ``members`` lists ``(member id, field sizes, payload, rewritten)`` for
    every member this committer writes for: a rank's own image (1PFPP,
    coIO) or a writer's gathered group (rbIO, bbIO), ``rewritten`` being
    what the member's data states it rewrote
    (:attr:`~repro.ckpt.data.CheckpointData.rewritten`).  Each is chunked
    against its section of the parent generation (the strategy's per-rank
    ``delta_parent`` cache) — only the stated spans when the statement is
    relative to that generation — and the fresh chunks are packed member
    after member.  The modelled application chunks and hashes in one
    memory pass whatever the host skipped, recorded as the
    ``phase:chunk`` span (``span_dedup`` adds the ``hits`` / ``misses``
    args a writer deduplicating for its group reports).

    Placement is *independent* (``comm=None``: the committer owns the
    file, the fresh region follows the header and the one piece returned
    is the whole file image) or *collective* (the committers of ``comm``
    share the file: one allgather lays the fresh regions out by prefix sum
    behind the header, which is rank 0's piece of its own — everyone else
    contributes an empty region to that call).

    Returns ``(pieces, manifest)``: the ``(offset, nbytes, payload)``
    writes of this committer, and the file's serialized manifest on the
    rank that writes it (``None`` on the others).  The placed sections
    become the next generation's parent and the commit is accounted here:
    a commit that fails past its retries aborts the job.
    """
    eng = ctx.engine
    cache = strategy._cache(ctx)
    parent_step, parent_secs = cache.get("delta_parent") or (None, {})
    sections = []
    fresh_parts = []
    mine = set()
    fresh_total = logical = hits = misses = 0
    for member, sizes, payload, rewritten in members:
        mine.add(member)
        plan = plan_section(
            ByteRope.wrap(payload), sizes, member=member, step=step,
            params=strategy.chunking, parent_section=parent_secs.get(member),
            rewritten=(rewritten[1] if rewritten is not None
                       and rewritten[0] == parent_step else None))
        sections.append(shift_fresh(plan.section, step, fresh_total))
        fresh_total += plan.fresh_bytes
        if plan.fresh_bytes:
            fresh_parts.append(plan.fresh)
        logical += sum(sizes)
        hits += plan.hits
        misses += plan.misses
    # Chunking + hashing: one pass over the image(s) being committed.
    t_c0 = eng.now
    yield eng.timeout(logical / ctx.config.memory_bandwidth)
    strategy._span(ctx, "chunk", t_c0, eng.now, logical, cat="phase",
                   step=step,
                   **({"hits": hits, "misses": misses} if span_dedup else {}))

    def merge(entries):
        bases = []
        placed = []
        pos = header_bytes
        for secs, fresh_bytes in entries:
            bases.append(pos)
            placed.extend(shift_fresh(s, step, pos) for s in secs)
            pos += fresh_bytes
        return bases, Manifest(
            strategy=strategy.name, step=step, parent=parent_step,
            header_bytes=header_bytes, chunking=strategy.chunking,
            sections=tuple(placed))

    entry = (tuple(sections), fresh_total)
    if comm is None:
        _bases, manifest = merge([entry])
        head = [zeros(header_bytes)] if header_bytes else []
        pieces = [(0, header_bytes + fresh_total,
                   ByteRope.concat(head + fresh_parts))]
    else:
        bases, manifest = yield from comm.allgather(
            entry, nbytes=16 + 48 * sum(len(s.chunks) for s in sections),
            map_fn=merge)
        hdr = zeros(header_bytes) if comm.rank == 0 else None
        pieces = header_piece(comm.rank, header_bytes, hdr) + [
            (bases[comm.rank], fresh_total, ByteRope.concat(fresh_parts))]
    cache["delta_parent"] = (step, {s.member: s for s in manifest.sections
                                    if s.member in mine})
    blob = None
    if comm is None or comm.rank == 0:
        blob = manifest.to_bytes()
    ctx.job.stats.record_commit(
        logical, sum(n for _o, n, _p in pieces) + len(blob or b""),
        hits, misses)
    return pieces, blob


# ---------------------------------------------------------------------------
# Delta-chain restore
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReadRun:
    """One maximal contiguous read from one source generation's file."""

    src_step: int
    offset: int
    length: int
    chunks: tuple[ChunkRef, ...]


def read_plan(section: ManifestSection) -> list[ReadRun]:
    """Merge a section's chunks into per-generation contiguous read runs.

    Chunks are grouped by source generation and sorted by file offset;
    adjacent spans merge, so a generation written as one packed fresh
    region reads back as one run regardless of how many chunks it holds.
    """
    by_step: dict[int, list[ChunkRef]] = {}
    for c in section.chunks:
        by_step.setdefault(c.src_step, []).append(c)
    runs: list[ReadRun] = []
    for src_step in sorted(by_step):
        group = sorted(by_step[src_step], key=lambda c: c.src_offset)
        cur: list[ChunkRef] = []
        for c in group:
            if cur and c.src_offset == cur[-1].src_offset + cur[-1].length:
                cur.append(c)
            else:
                if cur:
                    runs.append(ReadRun(src_step, cur[0].src_offset,
                                        sum(x.length for x in cur),
                                        tuple(cur)))
                cur = [c]
        if cur:
            runs.append(ReadRun(src_step, cur[0].src_offset,
                                sum(x.length for x in cur), tuple(cur)))
    return runs


def assemble_section(section: ManifestSection,
                     run_data: Sequence[tuple[ReadRun, ByteRope]],
                     step: int, path: str, rank: Optional[int] = None
                     ) -> ByteRope:
    """Reassemble a member's payload from read-run data, verifying CRCs.

    Every chunk's CRC32 is recomputed over the bytes actually read; any
    mismatch (bit-flip on disk, truncated source file) raises
    :class:`~repro.faults.UnrecoverableCheckpointError` so the resilient
    restore rejects the generation and falls back along the chain.
    """
    pieces: list[tuple[int, ByteRope]] = []
    for run, rope in run_data:
        if len(rope) != run.length:
            raise UnrecoverableCheckpointError(
                f"{path!r}: read {len(rope)} B of a {run.length} B chunk run "
                f"from generation {run.src_step}", step=step, path=path,
                rank=rank)
        rel = 0
        for c in run.chunks:
            piece = rope.slice(rel, rel + c.length)
            if piece.crc32() != c.crc:
                raise UnrecoverableCheckpointError(
                    f"{path!r}: chunk at payload offset {c.offset} "
                    f"(source generation {c.src_step}) failed its CRC32",
                    step=step, path=path, rank=rank)
            pieces.append((c.offset, piece))
            rel += c.length
    pieces.sort(key=lambda p: p[0])
    expected = sum(section.field_sizes)
    pos = 0
    parts = []
    for off, piece in pieces:
        if off != pos:
            raise UnrecoverableCheckpointError(
                f"{path!r}: manifest chunks do not tile the payload "
                f"(gap at offset {pos})", step=step, path=path, rank=rank)
        parts.append(piece)
        pos += len(piece)
    if pos != expected:
        raise UnrecoverableCheckpointError(
            f"{path!r}: manifest covers {pos} B, member payload is "
            f"{expected} B", step=step, path=path, rank=rank)
    return ByteRope.concat(parts)


# ---------------------------------------------------------------------------
# Manifest I/O (simulated file system)
# ---------------------------------------------------------------------------

def manifest_exists(ctx, data_path: str) -> bool:
    """Whether a generation wrote a manifest (the delta-vs-full probe)."""
    return ctx.fs.fs.exists(manifest_path(data_path))


def read_manifest(ctx, data_path: str, step: int):
    """Generator: read and parse the manifest of ``data_path``.

    Raises :class:`ManifestError` (an
    :class:`~repro.faults.UnrecoverableCheckpointError`) when the blob is
    damaged, so resilient restores vote the generation down.
    """
    path = manifest_path(data_path)
    handle = yield from ctx.fs.open(path)
    blob = yield from ctx.fs.read(handle, 0, handle.file.size)
    yield from ctx.fs.close(handle)
    if blob is None:
        raise ManifestError(f"{path!r} holds no manifest payload",
                            step=step, path=path, rank=ctx.rank)
    manifest = Manifest.from_bytes(bytes(ByteRope.wrap(blob)))
    if manifest.step != step:
        raise ManifestError(
            f"{path!r} describes step {manifest.step}, expected {step}",
            step=step, path=path, rank=ctx.rank)
    return manifest
