"""Discrete-event simulation kernel.

This module implements the minimal generator-based process engine that the
whole reproduction runs on: simulated MPI ranks, network transfers, GPFS
servers, and lock managers are all :class:`Process` instances scheduled by a
single :class:`Engine` in virtual time.

The design follows the classic event-list paradigm (as popularised by SimPy)
but is deliberately small and fast: the figure-scale experiments in this
repository run 65,536 rank processes, so every event carries as little state
as possible and hot paths avoid allocation where practical.

Scheduling structure
--------------------
The pending-event list is a *bucketed calendar queue*: a heap of distinct
timestamps plus a dict mapping each timestamp to the FIFO list of events
scheduled at that instant.  Scheduling into an existing instant is a dict
lookup and a list append (no heap sift), and :meth:`Engine.run` drains each
instant's bucket in one pass — a zero-delay cascade (event storms, barrier
fan-outs, eager-send completions) costs no heap operations at all.  Events
appended to the live bucket while it drains are picked up in the same pass,
which reproduces exactly the FIFO tie-break the classic ``(time, seq)``
heap gave: within one instant, events fire in the order they were scheduled.

Core concepts
-------------
:class:`Engine`
    Owns the virtual clock and the pending-event calendar.  ``engine.process(gen)``
    turns a generator into a running simulation process.
:class:`Event`
    A one-shot occurrence.  Processes wait on events by ``yield``-ing them.
:class:`Timeout`
    An event that triggers after a fixed delay of virtual time.
:class:`Cohort`
    An event standing for N identical completions (every collective's
    release fan-out).  Its members are credited as *batched* logical
    events, so :meth:`Engine.counters` shows where events/sec comes from.
:class:`Process`
    Wraps a generator; it is itself an event that triggers when the generator
    returns, so processes can wait on each other.
:func:`all_of` / :func:`any_of`
    Condition events for fork/join patterns.

Example
-------
>>> eng = Engine()
>>> log = []
>>> def worker(name, delay):
...     yield eng.timeout(delay)
...     log.append((eng.now, name))
>>> _ = eng.process(worker("a", 2.0))
>>> _ = eng.process(worker("b", 1.0))
>>> eng.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, Optional

from .monitor import pow2_histogram

_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Cohort",
    "Process",
    "Condition",
    "all_of",
    "any_of",
    "SimulationError",
    "StopEngine",
]

#: Compact the live bucket once this many entries of a zero-delay cascade
#: have been dispatched, so unbounded same-instant churn (ping-pong loops)
#: runs in constant memory instead of growing the bucket without limit.
_BUCKET_COMPACT = 8192


class SimulationError(RuntimeError):
    """Raised for structural errors in the simulation (double trigger, etc.)."""


class StopEngine(Exception):
    """Raise inside a process to halt the engine immediately."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Event:
    """A one-shot occurrence that processes can wait for.

    An event goes through three states: *pending* (created, not yet
    triggered), *triggered* (scheduled on the engine's event list with a
    value), and *processed* (its callbacks have run).  Waiting on an already
    processed event resumes the waiter immediately at the current time.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "triggered", "processed")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: Optional[list] = []
        self._value: Any = None
        self._ok: bool = True
        self.triggered = False
        self.processed = False

    @property
    def value(self) -> Any:
        """The value the event was triggered with (or the failure exception)."""
        return self._value

    @property
    def ok(self) -> bool:
        """``True`` unless the event was failed with an exception."""
        return self._ok

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self.triggered = True
        self._value = value
        # Immediate triggers dominate event traffic; inline the bucket insert.
        engine = self.engine
        t = engine.now
        buckets = engine._buckets
        bucket = buckets.get(t)
        if bucket is None:
            buckets[t] = [self]
            _heappush(engine._times, t)
        else:
            bucket.append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiters get ``exc`` thrown into them."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.triggered = True
        self._ok = False
        self._value = exc
        self.engine._push(0.0, self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately (synchronously).
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` units of virtual time in the future."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Timeouts dominate event traffic; flatten the Event.__init__ call
        # and inline the calendar insert.
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = True
        self.triggered = True
        self.processed = False
        self.delay = delay
        t = engine.now + delay
        buckets = engine._buckets
        bucket = buckets.get(t)
        if bucket is None:
            buckets[t] = [self]
            _heappush(engine._times, t)
        else:
            bucket.append(self)


class Cohort(Event):
    """A counted event standing for ``size`` identical completions.

    Behaves exactly like :class:`Event`, but when it succeeds it credits
    ``size`` logical events to the engine: one for its own dispatch plus
    ``size - 1`` absorbed members.  Collective release fan-outs use this —
    a barrier completion notionally delivers one release message per rank,
    but all ranks synchronise on the same event, so the cohort keeps the
    accounting honest (each release is a modeled event) without paying N
    calendar entries.  Failure (:meth:`Event.fail`) credits nothing.
    """

    __slots__ = ("batch_size",)

    def __init__(self, engine: "Engine", size: int) -> None:
        if size < 1:
            raise ValueError(f"cohort size must be >= 1, got {size}")
        super().__init__(engine)
        self.batch_size = size

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the cohort, crediting its members as logical events."""
        self.engine._record_batch(self.batch_size)
        return Event.succeed(self, value)


class Process(Event):
    """A running simulation process wrapping a generator.

    The generator may ``yield`` any :class:`Event`; the process suspends
    until that event is processed and then resumes with the event's value
    (or has the failure exception thrown into it).  The process is itself
    an event which triggers with the generator's return value.
    """

    __slots__ = ("generator", "name", "_resume_cb")

    def __init__(
        self,
        engine: "Engine",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        super().__init__(engine)
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {type(generator)!r}")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bind the resume callback once: every suspension appends the same
        # object instead of allocating a fresh bound method per event.
        resume = self._resume
        self._resume_cb = resume
        engine._alive.add(self)
        # Bootstrap: resume at the current time via an immediate event.
        init = Event(engine)
        init.triggered = True
        init.callbacks.append(resume)
        engine._push(0.0, init)

    @property
    def is_alive(self) -> bool:
        """``True`` while the underlying generator has not finished."""
        return not self.triggered

    def _resume(self, event: Event) -> None:
        gen = self.generator
        while True:
            try:
                if event._ok:
                    target = gen.send(event._value)
                else:
                    target = gen.throw(event._value)
            except StopIteration as stop:
                # Finished: drop the generator and the bound resume, whose
                # self-reference would otherwise keep this process (and its
                # frame) alive until a cyclic-collector pass.
                self.generator = self._resume_cb = None
                self.engine._alive.discard(self)
                if not self.triggered:
                    self.succeed(stop.value)
                return
            except StopEngine:
                raise
            except BaseException as exc:
                # Unhandled failure in the process body: propagate to waiters
                # if any, otherwise crash the simulation loudly.
                self.generator = self._resume_cb = None
                self.engine._alive.discard(self)
                if not self.triggered and self.callbacks:
                    self.fail(exc)
                    return
                raise
            try:
                cbs = target.callbacks
            except AttributeError:
                gen.throw(
                    SimulationError(
                        f"process {self.name!r} yielded non-event {target!r}"
                    )
                )
                continue
            if cbs is None:
                # Already processed: resume synchronously with its value.
                event = target
                continue
            cbs.append(self._resume_cb)
            return


class Condition(Event):
    """Base for :func:`all_of` / :func:`any_of` join events.

    ``_pending`` starts at the total child count so that children that were
    already processed before the condition was created are accounted for
    identically to ones that complete later.

    A condition whose outcome is already decided at construction time (all
    children processed for :class:`AllOf`, some child processed for
    :class:`AnyOf`) completes *synchronously*: it is born in the processed
    state and costs no heap event, so waiting on it resumes the waiter
    immediately.  No other waiter can exist during construction, so this is
    observationally identical apart from skipping one zero-delay event hop.
    """

    __slots__ = ("events", "_pending", "_constructing")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self.events = list(events)
        self._pending = len(self.events)
        self._constructing = True
        self._init_hook()
        # One bound callback shared by every child: the counted trigger in
        # _on_child makes per-child closures unnecessary.
        on_child = self._on_child
        for ev in self.events:
            if self.triggered:
                break
            cbs = ev.callbacks
            if cbs is None:
                on_child(ev)
            else:
                cbs.append(on_child)
        self._constructing = False

    def _complete(self, value: Any, ok: bool = True) -> None:
        if self._constructing:
            self.triggered = True
            self.processed = True
            self.callbacks = None
            self._value = value
            self._ok = ok
        elif ok:
            self.succeed(value)
        else:
            self.fail(value)

    def _init_hook(self) -> None:
        raise NotImplementedError

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(Condition):
    """Triggers when all child events have been processed.

    The value is the list of child values in the original order.  Fails as
    soon as any child fails.
    """

    __slots__ = ()

    def _init_hook(self) -> None:
        if self._pending == 0:
            self._complete([])

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self._complete(event._value, ok=False)
            return
        self._pending -= 1
        if self._pending == 0:
            self._complete([ev._value for ev in self.events])


class AnyOf(Condition):
    """Triggers when the first child event is processed (value = its value)."""

    __slots__ = ()

    def _init_hook(self) -> None:
        if not self.events:
            raise ValueError("any_of requires at least one event")

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        self._complete(event._value, ok=event._ok)


def all_of(engine: "Engine", events: Iterable[Event]) -> AllOf:
    """Return an event that triggers once every event in ``events`` has."""
    return AllOf(engine, events)


def any_of(engine: "Engine", events: Iterable[Event]) -> AnyOf:
    """Return an event that triggers when the first of ``events`` does."""
    return AnyOf(engine, events)


class Engine:
    """The simulation engine: virtual clock plus bucketed event calendar.

    Time is a ``float`` in arbitrary units; this repository uses seconds
    throughout.  Events scheduled for the same instant are processed in
    FIFO order of scheduling: each instant owns one append-ordered bucket,
    drained front to back, which is observationally identical to the
    classic ``(time, seq)`` heap tie-break.

    Event accounting distinguishes three populations (all visible in
    :meth:`counters`):

    - *dispatched* — events popped from the calendar and fired (including
      each batch's representative event);
    - *batched* — the *extra* members a :class:`Cohort` stands for beyond
      its dispatched representative (batch size minus one per batch);
    - *absorbed* — logical events credited via :meth:`count_events` with no
      calendar entry at all (e.g. per-rank collective arrivals, which the
      analytic collective model folds into shared bookkeeping).

    ``events_processed`` is exactly their sum — the logical event count of
    the modeled system, which is what throughput figures report.
    """

    __slots__ = (
        "now",
        "_times",
        "_buckets",
        "_event_count",
        "_dispatched",
        "_absorbed",
        "_batched",
        "_batch_count",
        "_batch_hist",
        "_drain_hist",
        "_wall_seconds",
        "_alive",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._times: list = []  # heap of distinct pending timestamps
        self._buckets: dict = {}  # timestamp -> FIFO list of events
        self._event_count: int = 0
        self._dispatched: int = 0
        self._absorbed: int = 0
        self._batched: int = 0
        self._batch_count: int = 0
        self._batch_hist: dict = {}  # batch_size.bit_length() -> count
        self._drain_hist: dict = {}  # drained bucket size bit_length -> count
        self._wall_seconds: float = 0.0
        self._alive: set = set()  # processes whose generator has not finished

    # -- scheduling ------------------------------------------------------
    def _push(self, delay: float, event: Event) -> None:
        t = self.now + delay
        buckets = self._buckets
        bucket = buckets.get(t)
        if bucket is None:
            buckets[t] = [event]
            _heappush(self._times, t)
        else:
            bucket.append(event)

    def succeed_at(self, event: Event, t: float, value: Any = None) -> Event:
        """Trigger ``event`` at the absolute instant ``t`` (not before now).

        A caller that has folded a chain of waits into the instant the
        chain ends must land on that very float: ``now + (t - now)`` is
        not ``t`` in general, so a :class:`Timeout` cannot stand in.
        """
        if event.triggered:
            raise SimulationError(f"{event!r} already triggered")
        if t < self.now:
            raise ValueError(f"instant {t} is in the past (now={self.now})")
        event.triggered = True
        event._value = value
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = [event]
            _heappush(self._times, t)
        else:
            bucket.append(event)
        return event

    def event(self) -> Event:
        """Create a new pending :class:`Event` bound to this engine."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event triggering ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start ``generator`` as a simulation process."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Shorthand for :func:`all_of` bound to this engine."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Shorthand for :func:`any_of` bound to this engine."""
        return AnyOf(self, events)

    # -- accounting ------------------------------------------------------
    def _record_batch(self, n: int) -> None:
        """Credit an ``n``-member batch.

        The representative event itself is counted by calendar dispatch, so
        only the ``n - 1`` members it stands for are credited here; the
        batch-size histogram records the full cohort size ``n``.  This keeps
        the :meth:`counters` breakdown exact::

            events_processed == dispatched + batched + absorbed
        """
        self._event_count += n - 1
        self._batched += n - 1
        self._batch_count += 1
        bl = n.bit_length()
        hist = self._batch_hist
        hist[bl] = hist.get(bl, 0) + 1

    def count_events(self, n: int = 1) -> None:
        """Credit ``n`` logical events absorbed without a calendar entry.

        Model layers call this when they fold per-entity work into shared
        bookkeeping (e.g. a collective arrival per rank): the modeled
        system performed the event even though the simulator didn't pay a
        heap entry for it.  Shows up as ``absorbed_events`` in
        :meth:`counters`.
        """
        self._event_count += n
        self._absorbed += n

    @property
    def events_processed(self) -> int:
        """Total logical events so far: dispatched + batched + absorbed."""
        return self._event_count

    @property
    def wall_seconds(self) -> float:
        """Real time spent inside :meth:`run` / :meth:`step` dispatch so far.

        Setup work between engine construction and the first ``run()`` call
        (building ranks, fabrics, payloads) is excluded, so
        :attr:`events_per_second` measures the dispatch loop itself.
        """
        return self._wall_seconds

    @property
    def events_per_second(self) -> float:
        """Simulator throughput: logical events per wall-clock second."""
        if self._wall_seconds <= 0:
            return 0.0
        return self._event_count / self._wall_seconds

    def counters(self) -> dict:
        """Machine-readable performance counters, under ``sim.*`` names.

        ``dispatched_events`` / ``batched_events`` / ``absorbed_events``
        break ``events_processed`` down by how each event was paid for
        (calendar dispatch, batch membership, synchronous credit), and the
        two histograms show batch sizes and per-instant drain sizes in
        power-of-two bins — together they make the events/sec figure
        auditable.  A job publishes these next to its copy / delta /
        fabric counters through :meth:`repro.mpi.Job.metrics`.
        """
        return {
            "sim.events_processed": self._event_count,
            "sim.dispatched_events": self._dispatched,
            "sim.batched_events": self._batched,
            "sim.absorbed_events": self._absorbed,
            "sim.batches": self._batch_count,
            "sim.batch_hist": pow2_histogram(self._batch_hist),
            "sim.drain_hist": pow2_histogram(self._drain_hist),
            "sim.wall_seconds": self._wall_seconds,
            "sim.events_per_second": self.events_per_second,
            "sim.virtual_time": self.now,
        }

    # -- execution -------------------------------------------------------
    def step(self) -> None:
        """Process the single next event, advancing the clock."""
        t = self._times[0]
        self.now = t
        bucket = self._buckets[t]
        event = bucket.pop(0)
        t_wall = perf_counter()
        try:
            callbacks = event.callbacks
            event.callbacks = None
            event.processed = True
            if callbacks:
                for cb in callbacks:
                    cb(event)
        finally:
            self._event_count += 1
            self._dispatched += 1
            self._wall_seconds += perf_counter() - t_wall
            if not bucket:
                del self._buckets[t]
                _heappop(self._times)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event list drains or the clock passes ``until``.

        When stopped by ``until``, the clock is set exactly to ``until`` and
        any event scheduled at or before that instant has been processed.

        Automatic cyclic garbage collection is paused for the drain and put
        back as it was on every way out.  A drain's heap only grows
        (contexts, reports, records, pending events) and nothing under
        ``repro`` leaves a reference cycle behind in it
        (``tests/test_run_lifetime.py``), so generational passes over it
        find nothing and cost a quarter of a paper-scale run.
        """
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        times = self._times
        buckets = self._buckets
        drain_hist = self._drain_hist
        pop = _heappop
        dispatched = 0
        collecting = gc.isenabled()
        gc.disable()
        t_wall = perf_counter()
        try:
            while times:
                t = times[0]
                if until is not None and t > until:
                    break
                pop(times)
                self.now = t
                bucket = buckets[t]
                i = 0
                drained = 0
                try:
                    n = len(bucket)
                    while i < n:
                        # Drain the instant front to back; events appended
                        # to the live bucket during dispatch (zero-delay
                        # cascades) are picked up by the outer re-check, in
                        # FIFO order, without touching the heap.
                        while i < n:
                            event = bucket[i]
                            i += 1
                            callbacks = event.callbacks
                            event.callbacks = None
                            event.processed = True
                            if callbacks:
                                for cb in callbacks:
                                    cb(event)
                        if i >= _BUCKET_COMPACT:
                            del bucket[:i]
                            drained += i
                            i = 0
                        n = len(bucket)
                finally:
                    drained += i
                    dispatched += drained
                    bl = drained.bit_length()
                    drain_hist[bl] = drain_hist.get(bl, 0) + 1
                    if i < len(bucket):
                        # Aborted mid-instant (StopEngine, process error):
                        # keep the unprocessed remainder schedulable.
                        del bucket[:i]
                        _heappush(times, t)
                    else:
                        del buckets[t]
            if until is not None:
                self.now = until
        except StopEngine:
            return
        finally:
            self._event_count += dispatched
            self._dispatched += dispatched
            self._wall_seconds += perf_counter() - t_wall
            if collecting:
                gc.enable()

    def close(self) -> None:
        """Drop the calendar and abandon every unfinished process.

        A process parked on an event (a drain loop on its empty queue) is a
        reference cycle by construction: the pending event resumes the
        process whose frame holds the queue that holds the event.  Once the
        simulation is over, letting go of the generators here is what lets
        them, and everything their frames hold, die by reference count.
        """
        self._times.clear()
        self._buckets.clear()
        alive = self._alive
        while alive:
            proc = alive.pop()
            proc.generator = proc._resume_cb = None
