"""Shared-resource primitives for the DES kernel.

Three primitives cover everything the Blue Gene/P + GPFS model needs:

:class:`Resource`
    A counted semaphore with a FIFO wait queue — used for metadata-server
    service slots, directory tokens, and per-file allocation managers.
:class:`Store`
    An unbounded buffer with *filtered* gets — used for MPI mailboxes
    (matching on ``(source, tag)``) and writer aggregation queues.
:class:`Pipe`
    A bandwidth-serialized FIFO channel with fixed latency — used for torus
    injection/ejection links, ION uplinks, and file-server disk streams.
    Transfers are modelled analytically (one event per transfer), which is
    what makes 65,536-rank experiments tractable.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from .engine import Engine, Event

__all__ = ["Resource", "Store", "Pipe"]


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.engine)
        self.resource = resource


class Resource:
    """A counted semaphore with FIFO granting.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            ...  # hold the resource
        finally:
            resource.release()
    """

    __slots__ = ("engine", "capacity", "in_use", "_queue")

    def __init__(self, engine: Engine, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.in_use = 0
        self._queue: deque = deque()

    @property
    def queue_length(self) -> int:
        """Number of requests currently waiting for a slot."""
        return len(self._queue)

    def request(self) -> Request:
        """Ask for a slot; the returned event triggers when granted."""
        req = Request(self)
        if self.in_use < self.capacity:
            self.in_use += 1
            req.succeed()
        else:
            self._queue.append(req)
        return req

    def release(self) -> None:
        """Return a slot, granting the next queued request if any."""
        if self.in_use <= 0:
            raise RuntimeError("release() without matching request()")
        if self._queue:
            self._queue.popleft().succeed()
        else:
            self.in_use -= 1

    def acquire(self):
        """Generator helper: ``yield from resource.acquire()``."""
        yield self.request()


class Store:
    """Unbounded item buffer with optional filtered retrieval.

    ``get()`` without a filter returns items in FIFO order.  With a filter,
    the oldest matching item is returned; non-matching items stay queued.
    Pending getters are served in arrival order whenever a matching item is
    put.  This is exactly the matching discipline MPI mailboxes need.
    """

    __slots__ = ("engine", "items", "_getters")

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.items: list = []
        self._getters: list = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        """Deposit ``item``, waking the first pending getter it satisfies."""
        for i, (flt, ev) in enumerate(self._getters):
            if flt is None or flt(item):
                del self._getters[i]
                ev.succeed(item)
                return
        self.items.append(item)

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> Event:
        """Return an event triggering with the first (matching) item."""
        items = self.items
        if filter is None:
            if items:
                ev = Event(self.engine)
                ev.succeed(items.pop(0))
                return ev
        else:
            for i, item in enumerate(items):
                if filter(item):
                    ev = Event(self.engine)
                    ev.succeed(items.pop(i))
                    return ev
        ev = Event(self.engine)
        self._getters.append((filter, ev))
        return ev


class Pipe:
    """A FIFO bandwidth-serialized channel with fixed per-transfer latency.

    A transfer of ``nbytes`` occupies the pipe for ``nbytes / bandwidth``
    seconds, starting when all earlier transfers have drained; the
    completion event additionally waits ``latency`` seconds (latency does
    not occupy the pipe).  This analytic treatment costs exactly one timer
    event per transfer while still capturing head-of-line serialization —
    the effect behind writer incast and ION funneling.
    """

    __slots__ = ("engine", "bandwidth", "latency", "busy_until", "bytes_moved")

    def __init__(self, engine: Engine, bandwidth: float, latency: float = 0.0) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self.engine = engine
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.busy_until = 0.0
        self.bytes_moved = 0

    def transfer(self, nbytes: float, extra_delay: float = 0.0) -> Event:
        """Schedule a transfer; the event triggers when the data has arrived.

        ``extra_delay`` adds service time beyond the bandwidth term (e.g.
        a seek penalty) that *does* occupy the pipe.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        eng = self.engine
        start = self.busy_until if self.busy_until > eng.now else eng.now
        duration = nbytes / self.bandwidth + extra_delay
        self.busy_until = start + duration
        self.bytes_moved += int(nbytes)
        return eng.timeout(self.busy_until + self.latency - eng.now)

    def reserve(self, nbytes: float, extra_delay: float = 0.0) -> float:
        """Reserve capacity like :meth:`transfer` but return the completion
        *time* instead of an event.

        Composite transports (e.g. a message crossing injection and ejection
        links) use this to combine several pipe reservations into a single
        timer event, which keeps the event count per message at one.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        eng = self.engine
        start = self.busy_until if self.busy_until > eng.now else eng.now
        self.busy_until = start + nbytes / self.bandwidth + extra_delay
        self.bytes_moved += int(nbytes)
        return self.busy_until + self.latency
