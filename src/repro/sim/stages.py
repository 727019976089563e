"""Blocking operations cut at their waits, runnable with or without a process.

A layer writes a blocking operation once, as a :class:`StagedOp` whose
*stages* are plain methods.  A stage does the work up to the next wait,
points ``then`` at the stage that follows it and returns the event:
``yield ev`` becomes ``self.then = nxt; return ev``.  With nothing to wait
for it calls the next stage itself; the last one ends ``return
self.done()``; and ``yield from`` another op is ``return self.call(op)``.

A process drives an op with :meth:`StagedOp.run`.  A caller that is not a
process (coalesced replay) calls :meth:`StagedOp.advance`, which appends
itself to the awaited event's callback list — where a process would have
appended its resume, so everything order-dependent happens at the same
position among the other waiters.  One program, two drivers.

A stage may instead hand its process a generator (``return gen`` for
``yield from gen``): a step only a process runs, such as a fault retry or
a delta plan.  :meth:`run` runs it and stores its return value as the
stage's op's ``result``; :meth:`advance` raises :class:`HandOffError`.

A :class:`Segment` is an op that stands for several members at one point
of their program (a coalesced range's ranks in the runner's step loop and
in coIO's collective write): a cohort drives it from one callback per
wait, where the first member's process would have appended its resume,
and a process drives a segment of one.
"""

from __future__ import annotations

from functools import partial
from types import GeneratorType
from typing import Any, Callable, Optional

from .engine import Event, SimulationError

__all__ = ["HandOffError", "Segment", "StagedOp"]


class HandOffError(SimulationError):
    """A stage handed a generator to a driver that is not a process."""


class StagedOp:
    """One operation in flight: where it goes on, and who it returns to."""

    __slots__ = ("then", "result", "up", "sub")

    def __init__(self, first: Callable[["StagedOp"], Optional[Event]]) -> None:
        #: The stage (a plain function of the op) that runs next.
        self.then = first
        self.result: Any = None
        #: The op that called this one, and the op this one has called.
        self.up: Optional[StagedOp] = None
        self.sub: Optional[StagedOp] = None

    def call(self, op: "StagedOp") -> Optional[Event]:
        """Run ``op`` to completion, then go on at ``then``."""
        op.up = self
        self.sub = op
        return op.then(op)

    def done(self) -> Optional[Event]:
        """The last stage's return value: the caller, if any, goes on."""
        up = self.up
        if up is None:
            return None
        up.sub = None
        up.result = self.result
        return up.then(up)

    def advance(self, fired: Optional[Event] = None,
                detached: bool = True) -> Optional[Event]:
        """Go on (at the innermost called op) up to the next wait or the end.

        Detached (the default: this is the callback), the wait is taken by
        appending ``advance`` to the event's callbacks, and a handed-over
        generator raises :class:`HandOffError`; otherwise what the stage
        returned goes back to the caller (``None`` when done).
        """
        if fired is not None and not fired._ok:
            raise fired._value
        while True:
            op = self
            while op.sub is not None:
                op = op.sub
            out = op.then(op)
            if out is None or not detached:
                return out
            try:
                callbacks = out.callbacks
            except AttributeError:
                raise HandOffError(f"a {type(op).__name__} stage handed a "
                                   f"generator to event callbacks") from None
            if callbacks is not None:  # else already processed: go on now
                callbacks.append(self.advance)
                return out

    def run(self):
        """Generator: run the op in the calling process; returns ``result``."""
        while True:  # advance(None, False), inlined: once per wait
            op = self
            while op.sub is not None:
                op = op.sub
            out = op.then(op)
            if out is None:
                return self.result
            if out.__class__ is GeneratorType:  # a hand-off, from the
                op = self                       # innermost op's stage
                while op.sub is not None:
                    op = op.sub
                op.result = yield from out
            else:
                yield out


class Segment(StagedOp):
    """An op for ``ranks`` (members, in the order their processes would
    resume) at one point of their program, driven by ``cohort`` (whose
    ``tail`` is the callback it appended last), or by :meth:`run` when
    ``None`` (a process's segment of one).  A subclass a cohort drives
    defines ``_one(member)``: that member, as a segment of its own where
    this one stands."""

    __slots__ = ("ranks", "cohort")

    def wait(self, event: Event, then, member=None) -> Optional[Event]:
        """Go on at ``then`` once ``event`` fires (only ``member``, when
        given: it parted from the others).  A process's segment hands the
        event back to :meth:`run`; a cohort appends one callback where the
        first member's process would have appended its resume, or, when the
        event's last callback is its last one, joins that segment."""
        cohort = self.cohort
        if cohort is None:
            self.then = then
            return event
        callbacks = event.callbacks
        if not callbacks or callbacks[-1] is not cohort.tail:
            cohort.tail = tail = partial(
                then, self if member is None else self._one(member))
            callbacks.append(tail)
        elif member is None:
            cohort.tail.args[0].ranks += self.ranks
        else:
            cohort.tail.args[0].ranks.append(member)
        return None

    def each(self, stage) -> Optional[Event]:
        """Go on at ``stage`` member by member: a cohort drives a segment
        of one per member with :meth:`advance`."""
        if self.cohort is None:
            return stage(self)
        for member in self.ranks:
            seg = self._one(member)
            ev = stage(seg)  # its first wait: an op it called
            ev.callbacks.append(seg.advance)
        return None
