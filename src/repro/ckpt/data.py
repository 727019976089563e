"""Checkpoint data descriptors.

A rank's checkpoint contribution is an ordered list of named *fields*
(NekCEM writes geometry plus the six electromagnetic components
Ex, Ey, Ez, Hx, Hy, Hz).  Payload bytes are optional: small-scale runs carry
real field data end-to-end (restart round-trips are bit-exact), figure-scale
runs carry sizes only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from ..buffers import ByteRope, BytesLike, concat_once

__all__ = ["Field", "CheckpointData", "EvolvingData", "BoundEvolvingData"]

#: ``(since, spans)``: payload byte spans rewritten since step ``since``.
Rewritten = tuple[int, tuple[tuple[int, int], ...]]


def _random_bytes(rng: np.random.Generator, n: int) -> np.ndarray:
    """The ``n`` uniform bytes ``rng.integers`` would draw as ``uint8``.

    numpy draws each such byte from a buffered ``next_uint32``, low byte
    first, and PCG64's ``next_uint32`` returns the low, then the high half
    of each 64-bit word.  The byte stream is therefore the high half an
    earlier 32-bit draw left pending (``has_uint32``), then the raw words
    in little-endian order — read here straight off ``random_raw``.  The
    generator is spent afterwards: its pending half is not maintained.
    """
    bitgen = rng.bit_generator
    state = bitgen.state
    pending = (state["uinteger"].to_bytes(4, "little")
               if state["has_uint32"] else b"")
    head = np.frombuffer(pending, dtype=np.uint8)[:n]
    words = bitgen.random_raw(-(-(n - len(head)) // 8))
    body = words.astype("<u8", copy=False).view(np.uint8)[: n - len(head)]
    return np.concatenate((head, body)) if len(head) else body


@dataclass(frozen=True)
class Field:
    """One named data block in a rank's checkpoint contribution.

    ``payload`` accepts any bytes-like (including a :class:`ByteRope`);
    the data plane moves it as segment references, never copying until the
    file-system commit boundary.
    """

    name: str
    nbytes: int
    payload: Optional[BytesLike] = None

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"negative field size: {self.nbytes}")
        if self.payload is not None and len(self.payload) != self.nbytes:
            raise ValueError(
                f"field {self.name!r}: payload length {len(self.payload)} "
                f"!= nbytes {self.nbytes}"
            )

    @property
    def view(self) -> Optional[ByteRope]:
        """The payload as a zero-copy rope (``None`` when size-only)."""
        if self.payload is None:
            return None
        return ByteRope.wrap(self.payload)


class CheckpointData:
    """One rank's ordered checkpoint contribution (its fields do not change:
    the totals are computed once).

    Parameters
    ----------
    fields:
        The data blocks, in file order.  All participating ranks must use
        the same field names in the same order (the SPMD contract).
    header_bytes:
        Size of the per-file master header (application name, version,
        offset table...).  Written once per output file by that file's
        first writer.
    rewritten:
        What the builder states it rewrote: ``(since, spans)``, the
        half-open byte spans of the concatenated payload that may differ
        from this rank's state at step ``since`` (every other byte is
        unchanged).  ``None`` states nothing.  Delta planning re-chunks
        only those spans when its parent generation is step ``since``.
    """

    def __init__(self, fields: Sequence[Field], header_bytes: int = 4096,
                 rewritten: Optional[Rewritten] = None) -> None:
        if header_bytes < 0:
            raise ValueError(f"negative header size: {header_bytes}")
        self.fields = list(fields)
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names: {names}")
        self.header_bytes = header_bytes
        self.rewritten = rewritten

    @property
    def n_fields(self) -> int:
        """Number of fields."""
        return len(self.fields)

    @cached_property
    def total_bytes(self) -> int:
        """Sum of field sizes (excluding any header)."""
        return sum(f.nbytes for f in self.fields)

    @property
    def field_sizes(self) -> tuple[int, ...]:
        """Per-field sizes, in order."""
        return tuple(f.nbytes for f in self.fields)

    @cached_property
    def has_payload(self) -> bool:
        """Whether every field carries real bytes."""
        return all(f.payload is not None for f in self.fields)

    def concatenated_payload(self) -> Optional[ByteRope]:
        """All field payloads joined in order (None if any is missing).

        Returns a zero-copy :class:`~repro.buffers.ByteRope` referencing
        the fields' own buffers, memoized per instance and run by
        :func:`repro.buffers.concat_once` — rbIO's buffered nf=ng writer
        path calls this once per flush, and workers package it every
        checkpoint step.
        """
        if not self.has_payload:
            return None
        return concat_once(self, [f.payload for f in self.fields])

    def package(self) -> tuple:
        """``(field_sizes, payload, rewritten)``: what a worker ships to its
        writer, and a member entry of a delta plan after the member id."""
        return (self.field_sizes, self.concatenated_payload(), self.rewritten)

    @classmethod
    def synthetic(cls, bytes_per_field: Sequence[int],
                  names: Optional[Sequence[str]] = None,
                  header_bytes: int = 4096) -> "CheckpointData":
        """Size-only checkpoint data (figure-scale workloads)."""
        if names is None:
            names = [f"field{i}" for i in range(len(bytes_per_field))]
        return cls(
            [Field(n, b) for n, b in zip(names, bytes_per_field)],
            header_bytes=header_bytes,
        )

    @classmethod
    def nekcem_like(cls, points_per_rank: int, header_bytes: int = 4096
                    ) -> "CheckpointData":
        """A NekCEM-shaped contribution for ``points_per_rank`` grid points.

        Layout follows the paper's vtk output: a geometry block
        (coordinates + cell connectivity, ~10 doubles-equivalent per point)
        followed by the six field components at 8 bytes per point each.
        The byte-per-point total matches the paper's reported file sizes
        (39 GB for 275M points => ~142 B/point).
        """
        geom = 94 * points_per_rank  # coordinates, connectivity, cell types
        comp = 8 * points_per_rank
        names = ["geometry", "Ex", "Ey", "Ez", "Hx", "Hy", "Hz"]
        sizes = [geom] + [comp] * 6
        return cls.synthetic(sizes, names, header_bytes=header_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<CheckpointData {self.n_fields} fields, "
            f"{self.total_bytes} B{' +payload' if self.has_payload else ''}>"
        )


class EvolvingData:
    """Per-step-evolving checkpoint data (incremental workloads).

    Wraps ``fn(rank, step) -> CheckpointData``: the runner binds it per
    rank and materializes each step's state just before checkpointing it,
    so successive generations genuinely differ — the workload incremental
    checkpointing exists for.  The field *layout* (names, sizes, header)
    must not change across steps; only payload bytes evolve.

    ``layout`` is that step-invariant layout as a size-only
    :class:`CheckpointData`; when given, restore paths take their template
    from it instead of materializing step 0.

    See :meth:`mutating` for the standard synthetic workload: a seeded
    initial state with one contiguous pseudo-random region overwritten per
    step.
    """

    def __init__(self, fn, layout: Optional[CheckpointData] = None) -> None:
        self.fn = fn
        self.layout = layout

    def bind(self, rank: int) -> "BoundEvolvingData":
        return BoundEvolvingData(self, rank)

    @classmethod
    def mutating(cls, points_per_rank: int, mutated_fraction: float = 0.25,
                 seed: int = 0, header_bytes: int = 4096) -> "EvolvingData":
        """A NekCEM-shaped payload workload that mutates per step.

        Step 0 is seeded pseudo-random state; each later step overwrites
        one contiguous region covering ``mutated_fraction`` of the
        concatenated payload (start position pseudo-random per
        ``(seed, rank, step)``, wrapping at the end) with fresh random
        bytes.  One region — not one per field — so the change surface
        matches the mutated fraction instead of being multiplied by
        chunk-boundary overhead at every field seam.

        Each step's state is one read-only array; its fields are read-only
        ``memoryview`` slices of it, so no payload byte is copied before
        the file-system commit, and a later step (a fresh array) never
        aliases an earlier step's views.  A later step states its region
        as rewritten since the step before (two spans when it wraps);
        step 0 states nothing.
        """
        if not 0.0 <= mutated_fraction <= 1.0:
            raise ValueError(
                f"mutated_fraction must be in [0, 1], got {mutated_fraction}")
        shape = CheckpointData.nekcem_like(points_per_rank,
                                           header_bytes=header_bytes)
        sizes = shape.field_sizes
        names = [f.name for f in shape.fields]
        total = shape.total_bytes
        mut_len = int(total * mutated_fraction)

        def advance(state: "np.ndarray", rank: int, step: int):
            """``(state, rewritten)`` of ``step`` from ``step - 1``'s state."""
            if step == 0:
                out = _random_bytes(np.random.default_rng((seed, rank)), total)
                rewritten = None
            elif mut_len == 0:
                return state, (step - 1, ())
            else:
                rng = np.random.default_rng((seed, rank, step))
                start = int(rng.integers(0, total))
                fresh = _random_bytes(rng, mut_len)
                out = state.copy()
                end = start + mut_len
                if end <= total:
                    out[start:end] = fresh
                    rewritten = (step - 1, ((start, end),))
                else:
                    out[start:] = fresh[: total - start]
                    out[: end - total] = fresh[total - start :]
                    rewritten = (step - 1, ((0, end - total), (start, total)))
            out.setflags(write=False)
            return out, rewritten

        def fields_of(state: "np.ndarray", rewritten) -> CheckpointData:
            view = memoryview(state)  # read-only: advance froze the array
            fields = []
            pos = 0
            for name, nbytes in zip(names, sizes):
                fields.append(Field(name, nbytes, view[pos : pos + nbytes]))
                pos += nbytes
            return CheckpointData(fields, header_bytes=header_bytes,
                                  rewritten=rewritten)

        return cls(_MutatingFn(advance, fields_of), layout=shape)


class _MutatingFn:
    """Stateful ``(rank, step) -> CheckpointData`` for cumulative mutation.

    Keeps only the current state array (and what its step rewrote) per
    rank and advances it forward; a request for an earlier step replays
    from step 0.  This bounds RAM to one state per bound rank instead of
    one per (rank, step).
    """

    def __init__(self, advance, fields_of) -> None:
        self._advance = advance
        self._fields_of = fields_of
        self._state: dict[int, tuple[int, object, object]] = {}

    def __call__(self, rank: int, step: int) -> CheckpointData:
        cached = self._state.get(rank)
        if cached is None or cached[0] > step:
            at, state, rewritten = -1, None, None
        else:
            at, state, rewritten = cached
        while at < step:
            at += 1
            state, rewritten = self._advance(state, rank, at)
        self._state[rank] = (at, state, rewritten)
        return self._fields_of(state, rewritten)


class BoundEvolvingData:
    """One rank's view of an :class:`EvolvingData` workload."""

    def __init__(self, source: EvolvingData, rank: int) -> None:
        self.source = source
        self.rank = rank

    def at_step(self, step: int) -> CheckpointData:
        """This rank's state as of ``step`` (fresh CheckpointData)."""
        return self.source.fn(self.rank, step)

    def template(self) -> CheckpointData:
        """A layout template for restore paths and size queries.

        The source's size-only ``layout`` when it declared one (no payload
        is generated and the workload's cached state is left where it is),
        else the step-0 state.
        """
        layout = self.source.layout
        return layout if layout is not None else self.at_step(0)

    @property
    def total_bytes(self) -> int:
        return self.template().total_bytes
