"""Checkpoint file layout: header + per-field sections in member order.

NekCEM output files (Fig. 2 of the paper) are a master header followed by
data blocks *sorted by field*: section ``f`` is the concatenation of every
participating rank's field-``f`` block, in rank order, so grid-point
numbering stays consistent within the file.  This layout is why nf=1 writers
must commit field by field — a writer cannot know field ``f+1``'s section
offset territory is safe to skip ahead into without finishing ``f``'s
(shared) section.

:class:`FileLayout` computes every offset for one output file shared by
``m`` members, for uniform or ragged per-member field sizes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["FileLayout", "header_piece"]


def header_piece(rank: int, header_bytes: int, payload) -> list:
    """The master header as the first piece of a collective commit.

    The file communicator's rank 0 contributes it in a collective call of
    its own; everyone else contributes an empty region to that call.  A
    headerless format has no such call: the list is empty.
    """
    if not header_bytes:
        return []
    return [(0, header_bytes, payload) if rank == 0 else (0, 0, None)]


class FileLayout:
    """Offset map of one checkpoint file with ``m`` member contributions.

    Parameters
    ----------
    header_bytes:
        Master-header size at offset 0.
    member_field_sizes:
        ``[member][field]`` sizes.  All members must have the same field
        count (the SPMD contract).
    """

    def __init__(self, header_bytes: int, member_field_sizes: Sequence[Sequence[int]]) -> None:
        if header_bytes < 0:
            raise ValueError("negative header size")
        if not member_field_sizes:
            raise ValueError("need at least one member")
        sizes = np.asarray(member_field_sizes, dtype=np.int64)
        if sizes.ndim != 2:
            raise ValueError("members disagree on field count")
        if (sizes < 0).any():
            raise ValueError("negative field size")
        self.header_bytes = header_bytes
        self.n_members, self.n_fields = sizes.shape
        self.sizes = sizes
        # Section sizes and their start offsets.
        section_totals = sizes.sum(axis=0)
        self.section_offsets = header_bytes + np.concatenate(
            ([0], np.cumsum(section_totals[:-1]))
        )
        # Within each section, each member's block offset.
        within = np.zeros_like(sizes)
        within[1:, :] = np.cumsum(sizes[:-1, :], axis=0)
        self._within = within
        self.total_size = int(header_bytes + section_totals.sum())

    @classmethod
    def uniform(cls, header_bytes: int, field_sizes: Sequence[int], n_members: int
                ) -> "FileLayout":
        """Layout where every member contributes identical field sizes."""
        return cls(header_bytes, [list(field_sizes)] * n_members)

    def block_offset(self, field: int, member: int) -> int:
        """File offset of ``member``'s block within ``field``'s section."""
        self._check(field, member)
        return int(self.section_offsets[field] + self._within[member, field])

    def member_offsets(self, member: int) -> list[int]:
        """:meth:`block_offset` of ``member`` in every field section."""
        if not 0 <= member < self.n_members:
            raise ValueError(f"member {member} out of range")
        return (self.section_offsets + self._within[member]).tolist()

    def block_size(self, field: int, member: int) -> int:
        """Size of ``member``'s block in ``field``'s section."""
        self._check(field, member)
        return int(self.sizes[member, field])

    def _check(self, field: int, member: int) -> None:
        if not 0 <= field < self.n_fields:
            raise ValueError(f"field {field} out of range")
        if not 0 <= member < self.n_members:
            raise ValueError(f"member {member} out of range")
