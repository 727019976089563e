"""Typed failure surfaced by the resilient restart path.

The recovery contract (DESIGN.md §10) allows exactly two outcomes of a
restart attempt: bit-identical field data, or this exception.  Anything
else — in particular a restore that silently returns wrong or partial
bytes — is a bug the strategy×fault test matrix exists to catch.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["UnrecoverableCheckpointError"]


class UnrecoverableCheckpointError(RuntimeError):
    """No checkpoint generation could be restored consistently.

    Raised by validation (size/checksum mismatch on a specific generation)
    and by the restore wave (:meth:`~repro.experiments.CheckpointRun.restore`)
    once every candidate generation has been rejected by some rank.  Carries
    context so tests and callers can tell *what* was unrecoverable.
    """

    def __init__(self, message: str, *, step: Optional[int] = None,
                 path: Optional[str] = None,
                 rank: Optional[int] = None) -> None:
        super().__init__(message)
        self.step = step
        self.path = path
        self.rank = rank
