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

from itertools import accumulate, chain
from typing import Sequence

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

    ``member_field_sizes`` are ``[member][field]`` sizes, non-negative
    ``int``s with one field count for every member (the SPMD contract),
    after a master header of ``header_bytes`` at offset 0.  Equal rows
    (every symmetric group; :meth:`uniform` takes the one row) are laid out
    by arithmetic — member ``m``'s block sits ``m * size`` into its field's
    section — and ragged ones by a column of running offsets per field;
    either way every offset is an exact ``int``.
    """

    def __init__(self, header_bytes: int,
                 member_field_sizes: Sequence[Sequence[int]]) -> None:
        rows = list(map(tuple, member_field_sizes))
        if len(set(map(len, rows))) > 1:
            raise ValueError("members disagree on field count")
        _check_sizes(chain.from_iterable(rows))
        ragged = rows and rows.count(rows[0]) != len(rows)
        self._init(header_bytes, rows[0] if rows else (), len(rows),
                   rows if ragged else None)

    @classmethod
    def uniform(cls, header_bytes: int, field_sizes: Sequence[int], n_members: int
                ) -> "FileLayout":
        """Layout where every member contributes identical field sizes."""
        layout = cls.__new__(cls)
        layout._init(header_bytes, _check_sizes(field_sizes), n_members, None)
        return layout

    def _init(self, header_bytes: int, row: tuple, n_members: int,
              rows) -> None:
        """Every member's sizes are ``row``, unless ``rows`` are ragged."""
        if n_members < 1 or type(header_bytes) is not int or header_bytes < 0:
            raise ValueError(f"{n_members} members, header {header_bytes!r}")
        self.header_bytes, self.n_members = header_bytes, n_members
        self.n_fields, self._row, self._rows = len(row), row, rows
        if rows is None:
            totals = [n_members * size for size in row]
        else:
            columns = list(zip(*rows))
            totals = list(map(sum, columns))
        starts = self.section_offsets = list(accumulate(totals[:-1],
                                                        initial=header_bytes))
        self.total_size = header_bytes + sum(totals)
        if rows is not None:  # every member's block offset, a column per field
            self._columns = [list(accumulate(col[:-1], initial=start))
                             for start, col in zip(starts, columns)]

    def block_offset(self, field: int, member: int) -> int:
        """File offset of ``member``'s block within ``field``'s section."""
        self._check(field, member)
        return self.member_offsets(member)[field]

    def member_offsets(self, member: int) -> list[int]:
        """:meth:`block_offset` of ``member`` in every field section."""
        if not 0 <= member < self.n_members:
            raise ValueError(f"member {member} out of range")
        if self._rows is not None:
            return [col[member] for col in self._columns]
        return [start + member * size
                for start, size in zip(self.section_offsets, self._row)]

    def field_offsets(self, field: int):
        """Every member's block offset in ``field``'s section, by member."""
        if self._rows is not None:
            return self._columns[field]
        start, size = self.section_offsets[field], self._row[field]
        return (range(start, start + self.n_members * size, size) if size
                else (start,) * self.n_members)

    def block_size(self, field: int, member: int) -> int:
        """Size of ``member``'s block in ``field``'s section."""
        self._check(field, member)
        return (self._row if self._rows is None else self._rows[member])[field]

    def _check(self, field: int, member: int) -> None:
        if not 0 <= field < self.n_fields:
            raise ValueError(f"field {field} out of range")
        if not 0 <= member < self.n_members:
            raise ValueError(f"member {member} out of range")


def _check_sizes(sizes) -> tuple:
    """``sizes`` as a tuple if each is a non-negative ``int``; a bool, a
    float or anything else raises (nothing is truncated)."""
    sizes = tuple(sizes)
    if not set(map(type, sizes)) <= {int}:
        raise ValueError(f"field sizes must be ints, got {list(sizes)!r}")
    if min(sizes, default=0) < 0:
        raise ValueError("negative field size")
    return sizes
