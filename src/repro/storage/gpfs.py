"""GPFS-like shared parallel file system model.

This is the storage substrate under every experiment in the paper.  It
reproduces the *mechanisms* that shape the measured curves:

Metadata service (1PFPP's killer)
    File creation inserts an entry into the parent directory, which in GPFS
    serializes through the directory's metanode.  16,384 simultaneous
    creates in one directory therefore queue behind a single token —
    producing the 0–300 s triangular spread of Fig. 9 and 1PFPP's ~0.1 GB/s
    effective bandwidth.

Block allocation (the nf=1 ceiling)
    Every file has an allocation manager.  With more than one concurrent
    writer client, extent allocations serialize through it per block; a
    sole writer allocates in batched segments.  A single 156 GB shared file
    is ~39,000 extents — a hard ~27 s floor no matter how many writers, the
    reason coIO/rbIO with nf=1 plateau at a few GB/s.

Byte-range lock tokens (shared-file overhead and storms)
    Writing blocks whose token is owned by another client costs revocation
    round-trips.  Under heavy global stream concurrency the token manager
    congests: shared-file write bursts then risk heavy-tailed "storms"
    (see :class:`~repro.topology.MachineConfig` ``storm_*``), the outliers
    of Fig. 10 that sink coIO at 65,536 processors.  Sole-owner files
    (rbIO nf=ng, 1PFPP) are immune.

Data path (the Fig. 8 optimum)
    A write burst moves through three serialized stages, each a
    :class:`~repro.sim.Pipe`: the client's GPFS stream (per-stream cap),
    the pset's ION uplink (10 GbE shared by 256 ranks), and the striped
    file servers whose per-block service grows with the number of
    concurrently active writer streams (seek/stream-management thrash).
    Aggregate throughput therefore *rises* with writer count while streams
    are client-bound and *falls* once server thrash dominates — peaking
    near 1,024 concurrent files on the calibrated Intrepid configuration,
    exactly the Fig. 8 shape.

Data fidelity
    Writes may carry real payload bytes; the file stores extents so reads
    return bit-exact data.  Figure-scale runs pass ``payload=None`` and
    only sizes move.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from typing import Any, Optional

import numpy as np

from ..buffers import ByteRope, as_bytes, overlay
from ..sim import Engine, Pipe, Resource, StagedOp, StreamRegistry, Timeout
from ..topology import MachineConfig, PsetMap

__all__ = ["GPFS", "FSClient", "FileHandle", "FileObject", "FSError"]


class FSError(RuntimeError):
    """Raised on invalid file-system usage or an injected I/O failure.

    Carries the failing operation, path, and simulated timestamp so
    fallback logic can discriminate errors.  ``transient`` marks an
    injected failure a write-side call retries itself (see
    :class:`_FSOp`); usage errors and fatal injected faults leave it
    ``False``.
    """

    def __init__(self, message: str, *, op: Optional[str] = None,
                 path: Optional[str] = None, time: Optional[float] = None,
                 transient: bool = False) -> None:
        super().__init__(message)
        self.op = op
        self.path = path
        self.time = time
        self.transient = transient


#: A write-side call retries a transient injected error up to this many
#: times, ``BACKOFF * 2**n`` simulated seconds after failed attempt ``n``.
RETRIES = 4
BACKOFF = 0.05

#: ``FileObject.writer_clients`` of every file nobody has open for writing.
_NO_WRITERS = frozenset()

#: ``GPFS.noise`` draws this many factors from its stream at a time.
_NOISE_BLOCK = 4096


def _parent_dir(path: str) -> str:
    """Directory component of a path ('' for bare names)."""
    i = path.rfind("/")
    return path[:i] if i > 0 else "/"


class FileObject:
    """Server-side state of one file."""

    __slots__ = (
        "path",
        "file_id",
        "size",
        "allocator",
        "lock_owner",
        "writer_clients",
        "extents",
        "created_at",
    )

    def __init__(self, path: str, file_id: int, created_at: float) -> None:
        self.path = path
        self.file_id = file_id
        self.size = 0
        self.allocator: Optional[Resource] = None  # see alloc_manager
        #: Allocated block -> rank holding its lock token, ``None`` while
        #: nobody does: the lock map doubles as the allocation map.
        self.lock_owner: dict[int, Optional[int]] = {}
        #: Ranks with the file open for writing: a set once there is one.
        self.writer_clients: frozenset | set[int] = _NO_WRITERS
        self.extents: Optional[list[tuple[int, bytes]]] = None  # see store
        self.created_at = created_at

    def alloc_manager(self, engine: Engine) -> Resource:
        """The allocation token, built on the first shared allocation."""
        if self.allocator is None:
            self.allocator = Resource(engine, capacity=1)
        return self.allocator

    def store(self, offset: int, data: bytes) -> None:
        """Keep a written payload (size-only files never build the list)."""
        if self.extents is None:
            self.extents = []
        self.extents.append((offset, data))

    def read_extents(self, offset: int, nbytes: int) -> ByteRope:
        """Stored payload for ``[offset, offset+nbytes)`` as a zero-copy rope.

        The rope references the extent buffers in place; a later extent
        shadows an earlier one where they overlap (write order wins), and
        bytes never written come back as zeros (sparse-file semantics).
        Consumers needing contiguous memory cross through
        :func:`repro.buffers.as_bytes` — that is the read-side copy
        boundary.
        """
        return overlay(self.extents or (), offset, offset + nbytes)


class FileHandle:
    """A client's open descriptor on a file."""

    __slots__ = ("file", "client", "writable", "stream", "open_at", "closed")

    def __init__(self, file: FileObject, client: "FSClient", writable: bool,
                 stream: Pipe, open_at: float) -> None:
        self.file = file
        self.client = client
        self.writable = writable
        self.stream = stream
        self.open_at = open_at
        self.closed = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self.closed else "open"
        return f"<FileHandle {self.file.path!r} {state} rank={self.client.rank}>"


class GPFS:
    """The shared file-system instance for one simulated job.

    Create one per :class:`~repro.mpi.Job` via :func:`attach_storage` (or
    directly) and hand per-rank clients to rank code with :meth:`client`.
    """

    def __init__(self, engine: Engine, config: MachineConfig, psets: PsetMap,
                 streams: StreamRegistry, profiler: Any = None) -> None:
        self.engine = engine
        self.config = config
        self.psets = psets
        self.profiler = profiler
        self.files: dict[str, FileObject] = {}
        self._dir_entries: dict[str, int] = {}
        self._dir_tokens: dict[str, Resource] = {}
        self._servers: dict[int, Pipe] = {}
        self._ions: dict[int, Pipe] = {}
        self._next_file_id = 0
        self.active_streams = 0
        self._peak_streams = 0.0
        self._peak_time = 0.0
        self._noise_rng = streams.stream("fs.noise")
        self._noise_block: list[float] = []
        self._storm_rng = streams.stream("fs.storms")
        self._sigma = config.noise_sigma
        #: Optional :class:`~repro.faults.FaultInjector`; ``None`` keeps
        #: every operation on the zero-cost fast path.
        self.injector = None
        # Counters (diagnostics / tests).
        self.creates = 0
        self.opens = 0
        self.writes = 0
        self.reads = 0
        self.storms = 0
        self.revocations = 0
        self.rmw_reads = 0

    # -- infrastructure accessors ------------------------------------------
    def server_pipe(self, idx: int) -> Pipe:
        """Disk pipe of file server ``idx`` (created lazily)."""
        pipe = self._servers.get(idx)
        if pipe is None:
            pipe = Pipe(self.engine, self.config.server_disk_bandwidth)
            self._servers[idx] = pipe
        return pipe

    def ion_pipe(self, pset: int) -> Pipe:
        """10 GbE uplink pipe of pset ``pset``'s I/O node."""
        pipe = self._ions.get(pset)
        if pipe is None:
            pipe = Pipe(self.engine, self.config.ion_uplink_bandwidth,
                        latency=self.config.ion_latency)
            self._ions[pset] = pipe
        return pipe

    #: Whole-block lock tokens (GPFS): unaligned shared writes to a block
    #: owned by another client pay a read-modify-write.  File systems with
    #: extent locks (Lustre variant) override this.
    whole_block_locks = True
    #: Byte-range lock tokens at all (PVFS is lock-free and skips token
    #: acquisition, revocation, and congestion storms entirely).
    byte_range_locks = True
    #: Whether multi-writer files serialize extent allocation through a
    #: per-file allocation manager (GPFS); object/handle-based stores
    #: allocate per data server instead.
    serialized_shared_allocation = True
    #: Server-side service inflation (e.g. no client write-back caching).
    server_service_factor = 1.0

    def dir_token(self, dirname: str) -> Resource:
        """Directory metanode token (serializes entry inserts)."""
        res = self._dir_tokens.get(dirname)
        if res is None:
            res = Resource(self.engine, capacity=1)
            self._dir_tokens[dirname] = res
        return res

    def create_token(self, dirname: str) -> Resource:
        """The resource serializing file creation for this directory.

        GPFS serializes through the parent directory's metanode; variants
        (e.g. Lustre's single MDS) override.
        """
        return self.dir_token(dirname)

    def create_service_time(self, dirname: str) -> float:
        """Metadata service time of one create (directory-growth model)."""
        entries = self._dir_entries.get(dirname, 0)
        growth = min((entries / self.config.meta_create_dir_knee) ** 3,
                     self.config.meta_create_dir_max_factor)
        return self.config.meta_create_service * (1.0 + growth)

    def server_of_block(self, file: FileObject, block: int) -> int:
        """Round-robin striping of file blocks over the servers."""
        return (file.file_id + block) % self.config.n_file_servers

    def client(self, rank: int) -> "FSClient":
        """A per-rank client bound to that rank's pset/ION."""
        return FSClient(self, rank)

    def effective_streams(self) -> float:
        """Writer-stream concurrency over the recent window.

        The maximum of the instantaneous count and an exponentially
        decaying record of the recent peak (time constant
        ``config.stream_window``).  Disk seek/queue behaviour reflects the
        streams a server has been multiplexing, not only the ones holding
        a burst open at this exact instant.
        """
        now = self.engine.now
        decayed = self._peak_streams * math.exp(
            -(now - self._peak_time) / self.config.stream_window
        )
        eff = max(float(self.active_streams), decayed, 1.0)
        if eff >= decayed:
            self._peak_streams = eff
            self._peak_time = now
        return eff

    # -- noise ---------------------------------------------------------------
    def noise(self) -> float:
        """Multiplicative lognormal service-time noise factor.

        Served from a prefetched block, reversed so the next value pops
        off the end: this file system is the ``fs.noise`` stream's only
        reader, so the values are those of one scalar
        ``float(np.exp(rng.normal(0, sigma)))`` per call, in order.
        """
        if self._sigma <= 0:
            return 1.0
        block = self._noise_block
        if not block:
            block = self._noise_block = np.exp(self._noise_rng.normal(
                0.0, self._sigma, size=_NOISE_BLOCK))[::-1].tolist()
        return block.pop()

    def storm_delay(self) -> float:
        """Draw a token-storm delay (0.0 most of the time).

        Probability scales with global active writer streams past the token
        manager's congestion knee; severity is Pareto-tailed.  Callers only
        invoke this for bursts on *shared* files.
        """
        cfg = self.config
        if cfg.storm_probability <= 0:
            return 0.0
        load = self.effective_streams() / cfg.storm_knee
        p = min(cfg.storm_probability * load**cfg.storm_beta, cfg.storm_probability_max)
        if self._storm_rng.random() >= p:
            return 0.0
        self.storms += 1
        u = self._storm_rng.random()
        return cfg.storm_scale * (1.0 - u) ** (-1.0 / cfg.storm_shape)

    def preload_file(self, path: str, nbytes: int,
                     payload: Optional[bytes] = None) -> FileObject:
        """Install a file instantly (no simulated cost).

        Experiment fixture for pre-existing data such as the ``.rea`` input
        files that exist before the job starts.
        """
        if self.exists(path):
            raise FSError(f"file exists: {path!r}", op="preload", path=path,
                          time=self.engine.now)
        if payload is not None and len(payload) != nbytes:
            raise FSError("payload length mismatch", op="preload", path=path,
                          time=self.engine.now)
        fobj = FileObject(path, self._next_file_id, self.engine.now)
        self._next_file_id += 1
        fobj.size = nbytes
        bs = self.config.fs_block_size
        if nbytes:
            fobj.lock_owner = dict.fromkeys(range((nbytes - 1) // bs + 1))
        if payload is not None:
            fobj.store(0, as_bytes(payload))
        self.files[path] = fobj
        dirname = _parent_dir(path)
        self._dir_entries[dirname] = self._dir_entries.get(dirname, 0) + 1
        return fobj

    # -- metadata summary ----------------------------------------------------
    def exists(self, path: str) -> bool:
        """Whether ``path`` has been created."""
        return path in self.files

    def file(self, path: str) -> FileObject:
        """Look up a file, raising :class:`FSError` if absent."""
        try:
            return self.files[path]
        except KeyError:
            raise FSError(f"no such file: {path!r}", op="open", path=path,
                          time=self.engine.now) from None

    def stats(self) -> dict:
        """Operation counters (diagnostics)."""
        return {
            "files": len(self.files),
            "creates": self.creates,
            "opens": self.opens,
            "writes": self.writes,
            "reads": self.reads,
            "storms": self.storms,
            "revocations": self.revocations,
            "rmw_reads": self.rmw_reads,
            "bytes_stored": sum(f.size for f in self.files.values()),
        }


class FSClient:
    """Per-rank POSIX-like interface to the shared :class:`GPFS`.

    Create, open, write and close exist once each, as a staged op
    (:class:`_FSOp`).  The generator method runs it in the calling
    process; the ``*_op`` method hands it to a caller that waits from
    event callbacks (coalesced replay) — build it when the call starts,
    that is its ``t0``.  Every operation is reported to the attached
    profiler, which is how the Darshan-style analyses of Figs. 9-12 are
    produced.
    """

    __slots__ = ("fs", "rank", "pset")

    def __init__(self, fs: GPFS, rank: int) -> None:
        self.fs = fs
        self.rank = rank
        self.pset = fs.psets.pset_of_rank(rank)

    # -- helpers -------------------------------------------------------------
    def _record(self, op: str, t0: float, nbytes: int, path: str) -> None:
        prof = self.fs.profiler
        if prof is not None:
            prof.record_op(self.rank, op, t0, self.fs.engine.now, nbytes, path)

    # -- metadata operations ---------------------------------------------------
    def create_op(self, path: str, exclusive: bool = False) -> "_Create":
        """Staged :meth:`create`; ``result`` is the handle."""
        op = _Create(self, path)
        op.exclusive = exclusive
        return op

    def create(self, path: str, exclusive: bool = False):
        """Generator: create ``path`` and open it for writing.

        Creation inserts a directory entry, serializing through the parent
        directory's metanode token — the 1PFPP metadata storm.  Creating an
        existing file (``exclusive=False``) degrades to a plain open.
        """
        return (yield from self.create_op(path, exclusive).run())

    def open_op(self, path: str, write: bool = False) -> "_Open":
        """Staged :meth:`open`; ``result`` is the handle."""
        op = _Open(self, path)
        op.write = write
        return op

    def open(self, path: str, write: bool = False):
        """Generator: open an existing file."""
        return (yield from self.open_op(path, write).run())

    def _make_handle(self, fobj: FileObject, write: bool) -> FileHandle:
        fs = self.fs
        stream = Pipe(fs.engine, fs.config.client_stream_bandwidth)
        if write:
            if fobj.writer_clients:
                fobj.writer_clients.add(self.rank)
            else:
                fobj.writer_clients = {self.rank}
        return FileHandle(fobj, self, write, stream, fs.engine.now)

    def close_op(self, handle: FileHandle) -> "_Close":
        """Staged :meth:`close`."""
        op = _Close(self, handle.file.path)
        op.handle = handle
        return op

    def close(self, handle: FileHandle):
        """Generator: close a handle (releases writer registration)."""
        return (yield from self.close_op(handle).run())

    # -- data operations -------------------------------------------------------
    def write_op(self, handle: FileHandle, offset: int, nbytes: int,
                 payload: Optional[Any] = None) -> "_Write":
        """Staged :meth:`write`."""
        op = _Write(self, handle.file.path)
        op.handle, op.offset, op.nbytes, op.payload = (handle, offset, nbytes,
                                                       payload)
        return op

    def write(self, handle: FileHandle, offset: int, nbytes: int,
              payload: Optional[Any] = None):
        """Generator: write ``nbytes`` at ``offset`` through this handle.

        ``payload`` accepts any bytes-like, including a zero-copy
        :class:`~repro.buffers.ByteRope`; it is materialized once, here,
        when the extent is committed.

        Sequencing: extent allocation (serialized on shared files) -> lock
        token acquisition/revocation (+ possible congestion storm on shared
        files) -> pipelined data movement through client stream, ION uplink
        and striped servers.  Returns when the burst is durably written.
        """
        return (yield from self.write_op(handle, offset, nbytes, payload).run())

    def read(self, handle: FileHandle, offset: int, nbytes: int):
        """Generator: read ``nbytes`` at ``offset``; returns stored data.

        Payload-carrying files come back as a zero-copy
        :class:`~repro.buffers.ByteRope` over the stored extents (see
        :meth:`FileObject.read_extents`).  The time model mirrors the write
        data path (no allocation/locking — read tokens are shared).
        """
        fs = self.fs
        eng = fs.engine
        cfg = fs.config
        if fs.injector is not None:
            stall = fs.injector.before_fs_op(self.rank, "read",
                                             handle.file.path)
            if stall is not None:
                yield stall
        if handle.closed:
            raise FSError(f"read on closed handle {handle!r}", op="read",
                          path=handle.file.path, time=eng.now)
        if nbytes < 0 or offset < 0:
            raise FSError(f"bad read range offset={offset} nbytes={nbytes}",
                          op="read", path=handle.file.path, time=eng.now)
        t0 = eng.now
        fobj = handle.file
        if nbytes == 0:
            self._record("read", t0, 0, fobj.path)
            return b""
        bs = cfg.fs_block_size
        t_stream = handle.stream.reserve(nbytes)
        t_ion = fs.ion_pipe(self.pset).reserve(nbytes)
        t_done = max(t_stream, t_ion)
        for b in range(offset // bs, (offset + nbytes - 1) // bs + 1):
            lo = max(offset, b * bs)
            hi = min(offset + nbytes, (b + 1) * bs)
            t_srv = fs.server_pipe(fs.server_of_block(fobj, b)).reserve(hi - lo)
            if t_srv > t_done:
                t_done = t_srv
        yield Timeout(eng, t_done - eng.now)
        fs.reads += 1
        self._record("read", t0, nbytes, fobj.path)
        if not fobj.extents:
            # Size-only simulation mode (no payload was ever stored): do
            # not materialize gigabytes of zeros at figure scale.
            return None
        return fobj.read_extents(offset, nbytes)


class _FSOp(StagedOp):
    """An :class:`FSClient` call cut at its waits (see :class:`StagedOp`).

    The cost model lives in these stages and nowhere else: what a call
    costs, draws, counts and records cannot depend on who drives it.  So
    does the fault policy: a write-side call (``retries``) retries a
    transient injected error in its hook stage; every other error
    propagates.
    """

    __slots__ = ("client", "fs", "path", "t0")

    #: Operation name, as fault specs and Darshan records spell it.
    name = ""
    #: Whether a transient injected error is retried (the write side).
    retries = False

    def __init__(self, client: FSClient, path: str) -> None:
        # StagedOp.__init__ flattened: three of these per rank per step.
        self.result = self.up = self.sub = None
        self.client = client
        self.fs = fs = client.fs
        self.path = path
        self.t0 = fs.engine.now
        cls = self.__class__
        # A fault schedule gets its turn first; usually there is none.
        self.then = cls._begin if fs.injector is None else cls._hook

    def _hook(self, tries: int = 0):
        """The injector's turn; ``tries`` retries are behind this call."""
        if tries:  # as a call made after the backoff
            self.t0 = self.fs.engine.now
        try:
            stall = self.fs.injector.before_fs_op(self.client.rank, self.name,
                                                  self.path)
        except FSError as exc:
            return self._retry(exc, tries)
        if stall is None:
            return self._attempt(tries)
        self.then = partial(self.__class__._attempt, tries=tries)
        return stall

    def _attempt(self, tries: int):
        return self._begin()

    def _retry(self, exc: FSError, tries: int):
        """Back off and run the call again from its hook, or re-raise."""
        if not (exc.transient and self.retries) or tries >= RETRIES:
            raise exc
        eng = self.fs.engine
        backoff = BACKOFF * (2 ** tries)
        tracer = self.fs.injector.job.tracer
        if tracer is not None:
            tracer.instant("retry", "fault", eng.now, rank=-1,
                           args={"error": type(exc).__name__,
                                 "detail": str(exc), "attempt": tries + 1,
                                 "backoff": backoff})
        self.sub = None  # a sub-op of the failed attempt is dropped
        self.then = partial(_FSOp._hook, tries=tries + 1)
        return Timeout(eng, backoff)


class _Create(_FSOp):
    __slots__ = ("exclusive", "dirname", "token")
    name = "create"
    retries = True

    def _attempt(self, tries: int):
        # On an existing path the create opens it; that open does not
        # retry on its own: its hook error fails this attempt.
        try:
            return self._begin()
        except FSError as exc:
            return self._retry(exc, tries)

    def _begin(self):
        fs = self.fs
        path = self.path
        if path in fs.files:
            if self.exclusive:
                raise FSError(f"file exists: {path!r}", op="create",
                              path=path, time=fs.engine.now)
            self.then = StagedOp.done  # a plain open is all that is left
            return self.call(self.client.open_op(path, True))
        # One string per directory, not one per create: a metadata storm
        # holds tens of thousands of creates in flight.
        self.dirname = sys.intern(_parent_dir(path))
        self.token = fs.create_token(self.dirname)
        self.then = _Create._insert
        return self.token.request()

    def _insert(self):
        # Insert cost grows with directory size (block splits, longer
        # lock holds): the mechanism behind the 1PFPP metadata storm.
        fs = self.fs
        self.then = _Create._finish
        return Timeout(
            fs.engine, fs.create_service_time(self.dirname) * fs.noise())

    def _finish(self):
        fs = self.fs
        path = self.path
        if path not in fs.files:
            fs.files[path] = FileObject(path, fs._next_file_id, fs.engine.now)
            fs._next_file_id += 1
            fs._dir_entries[self.dirname] = (
                fs._dir_entries.get(self.dirname, 0) + 1)
            fs.creates += 1
        self.token.release()
        self.result = self.client._make_handle(fs.files[path], True)
        self.client._record("create", self.t0, 0, path)
        return self.done()


class _Open(_FSOp):
    __slots__ = ("write", "fobj")
    name = "open"

    @property
    def retries(self) -> bool:
        """An open for writing retries, unless a create called it."""
        return self.write and self.up.__class__ is not _Create

    def _begin(self):
        fs = self.fs
        self.fobj = fs.file(self.path)
        self.then = _Open._finish
        return Timeout(fs.engine, fs.config.meta_open_service * fs.noise())

    def _finish(self):
        self.fs.opens += 1
        self.result = self.client._make_handle(self.fobj, self.write)
        self.client._record("open", self.t0, 0, self.path)
        return self.done()


class _Close(_FSOp):
    __slots__ = ("handle",)
    name = "close"

    @property
    def retries(self) -> bool:
        """Closing a handle open for writing commits it: that retries."""
        return self.handle.writable

    def _begin(self):
        fs = self.fs
        handle = self.handle
        if handle.closed:
            raise FSError(f"double close of {self.path!r}", op="close",
                          path=self.path, time=fs.engine.now)
        handle.closed = True
        writers = handle.file.writer_clients
        if handle.writable and writers:
            writers.discard(self.client.rank)
            if not writers:
                handle.file.writer_clients = _NO_WRITERS
        self.then = _Close._finish
        return Timeout(fs.engine, fs.config.meta_close_service * fs.noise())

    def _finish(self):
        self.client._record("close", self.t0, 0, self.path)
        return self.done()


class _Write(_FSOp):
    __slots__ = ("handle", "offset", "nbytes", "payload", "blocks",
                 "new_blocks", "shared", "serialized")
    name = "write"
    retries = True

    def _begin(self):
        fs = self.fs
        eng = fs.engine
        handle, offset, nbytes, payload = (self.handle, self.offset,
                                           self.nbytes, self.payload)
        if handle.closed or not handle.writable:
            raise FSError(f"write on closed/read-only handle {handle!r}",
                          op="write", path=self.path, time=eng.now)
        if nbytes < 0 or offset < 0:
            raise FSError(f"bad write range offset={offset} nbytes={nbytes}",
                          op="write", path=self.path, time=eng.now)
        if payload is not None and len(payload) != nbytes:
            raise FSError(f"payload length {len(payload)} != nbytes {nbytes}",
                          op="write", path=self.path, time=eng.now)
        self.t0 = eng.now
        if nbytes == 0:
            self.client._record("write", self.t0, 0, self.path)
            return self.done()
        fobj = handle.file
        bs = fs.config.fs_block_size
        self.blocks = range(offset // bs, (offset + nbytes - 1) // bs + 1)
        self.shared = len(fobj.writer_clients) > 1
        # --- extent allocation: a shared file's serializes on its manager
        self.new_blocks = [b for b in self.blocks
                           if b not in fobj.lock_owner]
        self.serialized = self.shared and fs.serialized_shared_allocation
        if not self.new_blocks:
            return self._lock()
        if self.serialized:
            self.then = _Write._allocate
            return fobj.alloc_manager(eng).request()
        return self._allocate()

    def _allocate(self):
        fs = self.fs
        cfg = fs.config
        n_new = len(self.new_blocks)
        if not self.serialized:  # a sole writer allocates in segments
            n_new = -(-n_new // cfg.alloc_batch_blocks)
        self.then = _Write._allocated
        return Timeout(fs.engine, cfg.alloc_service * n_new * fs.noise())

    def _allocated(self):
        fobj = self.handle.file
        # setdefault: a block another writer allocated and locked while
        # this one waited keeps its owner.
        for b in self.new_blocks:
            fobj.lock_owner.setdefault(b, None)
        if self.serialized:
            fobj.allocator.release()
        return self._lock()

    def _lock(self):
        # --- byte-range lock tokens ----------------------------------------
        fs = self.fs
        cfg = fs.config
        rank = self.client.rank
        fobj = self.handle.file
        blocks = self.blocks
        if not (self.shared and fs.byte_range_locks):
            for b in blocks:
                fobj.lock_owner[b] = rank
            return self._move()
        # Unaligned boundary blocks last written by another client force a
        # read-modify-write of the whole block (GPFS whole-block tokens;
        # the alignment optimization of Liao & Choudhary, SC'08, exists to
        # avoid exactly this).
        bs = cfg.fs_block_size
        first, last = blocks[0], blocks[-1]
        rmw_blocks = 0
        if fs.whole_block_locks:
            if self.offset % bs:
                owner = fobj.lock_owner.get(first)
                if owner is not None and owner != rank:
                    rmw_blocks += 1
            if (self.offset + self.nbytes) % bs and last != first:
                owner = fobj.lock_owner.get(last)
                if owner is not None and owner != rank:
                    rmw_blocks += 1
        acquire_runs = 0
        revoke_runs = 0
        prev_state = None  # "mine" / "free" / "theirs"
        for b in blocks:
            owner = fobj.lock_owner.get(b)
            state = "mine" if owner == rank else ("free" if owner is None else "theirs")
            if state != "mine" and state != prev_state:
                acquire_runs += 1
                if state == "theirs":
                    revoke_runs += 1
            prev_state = state
            fobj.lock_owner[b] = rank
        cost = (cfg.token_acquire * acquire_runs
                + cfg.token_revoke * revoke_runs
                + rmw_blocks * bs / cfg.server_disk_bandwidth)
        fs.revocations += revoke_runs
        fs.rmw_reads += rmw_blocks
        if cost > 0:
            self.then = _Write._storm
            return Timeout(fs.engine, cost * fs.noise())
        return self._storm()

    def _storm(self):
        storm = self.fs.storm_delay()
        if storm > 0:
            self.then = _Write._move
            return Timeout(self.fs.engine, storm)
        return self._move()

    def _move(self):
        # --- data movement: client stream, ION uplink, striped servers ------
        fs = self.fs
        eng = fs.engine
        cfg = fs.config
        fobj = self.handle.file
        offset, nbytes = self.offset, self.nbytes
        bs = cfg.fs_block_size
        fs.active_streams += 1
        t_stream = self.handle.stream.reserve(nbytes)
        t_ion = fs.ion_pipe(self.client.pset).reserve(nbytes)
        t_done = max(t_stream, t_ion)
        active = fs.effective_streams()
        seek = cfg.seek_penalty_per_stream * active
        qd_factor = cfg.server_queue_service_fraction * min(
            cfg.server_queue_knee / active, cfg.server_queue_max_factor
        )
        for b in self.blocks:
            lo = max(offset, b * bs)
            hi = min(offset + nbytes, (b + 1) * bs)
            chunk = hi - lo
            base = chunk / cfg.server_disk_bandwidth
            extra = (seek + base * qd_factor + (fs.noise() - 1.0) * base
                     + base * (fs.server_service_factor - 1.0))
            t_srv = fs.server_pipe(fs.server_of_block(fobj, b)).reserve(
                chunk, extra_delay=max(extra, 0.0)
            )
            if t_srv > t_done:
                t_done = t_srv
        self.then = _Write._commit
        return Timeout(eng, t_done - eng.now)

    def _commit(self):
        fs = self.fs
        fobj = self.handle.file
        fs.active_streams -= 1
        end = self.offset + self.nbytes
        if end > fobj.size:
            fobj.size = end
        if self.payload is not None:
            # THE data-plane copy boundary: payload views/ropes rode the
            # whole pipeline by reference and materialize exactly here,
            # where the file system commits a durable byte image.
            fobj.store(self.offset, as_bytes(self.payload))
        fs.writes += 1
        self.client._record("write", self.t0, self.nbytes, self.path)
        return self.done()
