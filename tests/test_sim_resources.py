"""Unit tests for Resource, Store, and Pipe primitives."""

import pytest

from repro.sim import Engine, Pipe, Resource, Store


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_serializes_exclusive_access():
    eng = Engine()
    res = Resource(eng, capacity=1)
    log = []

    def user(name, hold):
        yield res.request()
        log.append(("start", name, eng.now))
        yield eng.timeout(hold)
        log.append(("end", name, eng.now))
        res.release()

    eng.process(user("a", 2.0))
    eng.process(user("b", 1.0))
    eng.run()
    assert log == [
        ("start", "a", 0.0),
        ("end", "a", 2.0),
        ("start", "b", 2.0),
        ("end", "b", 3.0),
    ]


def test_resource_capacity_two_overlaps():
    eng = Engine()
    res = Resource(eng, capacity=2)
    starts = []

    def user(i):
        yield res.request()
        starts.append((i, eng.now))
        yield eng.timeout(1.0)
        res.release()

    for i in range(4):
        eng.process(user(i))
    eng.run()
    # Two start immediately, two after the first pair releases.
    assert [t for _, t in starts] == [0.0, 0.0, 1.0, 1.0]


def test_resource_fifo_granting():
    eng = Engine()
    res = Resource(eng, capacity=1)
    order = []

    def user(i, arrive):
        yield eng.timeout(arrive)
        yield res.request()
        order.append(i)
        yield eng.timeout(10.0)
        res.release()

    for i in range(5):
        eng.process(user(i, arrive=float(i)))
    eng.run()
    assert order == [0, 1, 2, 3, 4]


def test_resource_release_without_request_raises():
    eng = Engine()
    res = Resource(eng)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_queue_length_tracks_waiters():
    eng = Engine()
    res = Resource(eng, capacity=1)
    observed = []

    def holder():
        yield res.request()
        yield eng.timeout(5.0)
        observed.append(res.queue_length)
        res.release()

    def waiter():
        yield eng.timeout(1.0)
        yield res.request()
        res.release()

    eng.process(holder())
    eng.process(waiter())
    eng.run()
    assert observed == [1]


def test_resource_invalid_capacity():
    eng = Engine()
    with pytest.raises(ValueError):
        Resource(eng, capacity=0)


def test_resource_acquire_helper():
    eng = Engine()
    res = Resource(eng, capacity=1)
    log = []

    def user(name):
        yield from res.acquire()
        log.append(name)
        yield eng.timeout(1.0)
        res.release()

    eng.process(user("x"))
    eng.process(user("y"))
    eng.run()
    assert log == ["x", "y"]


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_fifo_without_filter():
    eng = Engine()
    store = Store(eng)
    got = []

    def producer():
        for i in range(3):
            yield eng.timeout(1.0)
            store.put(i)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((eng.now, item))

    eng.process(producer())
    eng.process(consumer())
    eng.run()
    assert got == [(1.0, 0), (2.0, 1), (3.0, 2)]


def test_store_get_before_put_blocks():
    eng = Engine()
    store = Store(eng)
    got = []

    def consumer():
        item = yield store.get()
        got.append((eng.now, item))

    def producer():
        yield eng.timeout(5.0)
        store.put("late")

    eng.process(consumer())
    eng.process(producer())
    eng.run()
    assert got == [(5.0, "late")]


def test_store_filtered_get_skips_nonmatching():
    eng = Engine()
    store = Store(eng)
    store.put(("tagA", 1))
    store.put(("tagB", 2))
    store.put(("tagA", 3))
    got = []

    def consumer():
        item = yield store.get(lambda m: m[0] == "tagB")
        got.append(item)
        item = yield store.get(lambda m: m[0] == "tagA")
        got.append(item)

    eng.process(consumer())
    eng.run()
    assert got == [("tagB", 2), ("tagA", 1)]
    assert store.items == [("tagA", 3)]


def test_store_pending_filtered_getter_woken_by_matching_put():
    eng = Engine()
    store = Store(eng)
    got = []

    def consumer():
        item = yield store.get(lambda m: m == "wanted")
        got.append((eng.now, item))

    def producer():
        yield eng.timeout(1.0)
        store.put("other")
        yield eng.timeout(1.0)
        store.put("wanted")

    eng.process(consumer())
    eng.process(producer())
    eng.run()
    assert got == [(2.0, "wanted")]
    assert store.items == ["other"]


def test_store_multiple_getters_served_in_order():
    eng = Engine()
    store = Store(eng)
    got = []

    def consumer(i):
        item = yield store.get()
        got.append((i, item))

    def producer():
        yield eng.timeout(1.0)
        store.put("first")
        store.put("second")

    eng.process(consumer(0))
    eng.process(consumer(1))
    eng.process(producer())
    eng.run()
    assert got == [(0, "first"), (1, "second")]


def test_store_len():
    eng = Engine()
    store = Store(eng)
    assert len(store) == 0
    store.put(1)
    store.put(2)
    assert len(store) == 2


# ---------------------------------------------------------------------------
# Pipe
# ---------------------------------------------------------------------------

def test_pipe_single_transfer_time():
    eng = Engine()
    pipe = Pipe(eng, bandwidth=100.0, latency=0.5)
    done = []

    def proc():
        yield pipe.transfer(200.0)  # 2s service + 0.5s latency
        done.append(eng.now)

    eng.process(proc())
    eng.run()
    assert done == [2.5]


def test_pipe_serializes_concurrent_transfers():
    eng = Engine()
    pipe = Pipe(eng, bandwidth=100.0)
    done = []

    def proc(name):
        yield pipe.transfer(100.0)  # 1s each
        done.append((name, eng.now))

    eng.process(proc("a"))
    eng.process(proc("b"))
    eng.process(proc("c"))
    eng.run()
    assert done == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_pipe_idle_gap_resets_busy_window():
    eng = Engine()
    pipe = Pipe(eng, bandwidth=100.0)
    done = []

    def proc():
        yield pipe.transfer(100.0)
        done.append(eng.now)
        yield eng.timeout(5.0)  # pipe idle
        yield pipe.transfer(100.0)
        done.append(eng.now)

    eng.process(proc())
    eng.run()
    assert done == [1.0, 7.0]


def test_pipe_extra_delay_occupies_pipe():
    eng = Engine()
    pipe = Pipe(eng, bandwidth=100.0)
    done = []

    def first():
        yield pipe.transfer(100.0, extra_delay=2.0)  # occupies until t=3
        done.append(("first", eng.now))

    def second():
        yield pipe.transfer(100.0)
        done.append(("second", eng.now))

    eng.process(first())
    eng.process(second())
    eng.run()
    assert done == [("first", 3.0), ("second", 4.0)]


def test_pipe_latency_does_not_occupy_pipe():
    eng = Engine()
    pipe = Pipe(eng, bandwidth=100.0, latency=10.0)
    done = []

    def proc(name):
        yield pipe.transfer(100.0)
        done.append((name, eng.now))

    eng.process(proc("a"))
    eng.process(proc("b"))
    eng.run()
    # Service times back-to-back (1s each), both plus 10s latency.
    assert done == [("a", 11.0), ("b", 12.0)]


def test_pipe_zero_byte_transfer_costs_latency_only():
    eng = Engine()
    pipe = Pipe(eng, bandwidth=100.0, latency=0.25)
    done = []

    def proc():
        yield pipe.transfer(0.0)
        done.append(eng.now)

    eng.process(proc())
    eng.run()
    assert done == [0.25]


def test_pipe_rejects_bad_parameters():
    eng = Engine()
    with pytest.raises(ValueError):
        Pipe(eng, bandwidth=0.0)
    with pytest.raises(ValueError):
        Pipe(eng, bandwidth=1.0, latency=-1.0)
    pipe = Pipe(eng, bandwidth=1.0)
    with pytest.raises(ValueError):
        pipe.transfer(-5.0)


def test_pipe_bytes_moved_accumulates():
    eng = Engine()
    pipe = Pipe(eng, bandwidth=10.0)
    pipe.transfer(100.0)
    pipe.transfer(50.0)
    assert pipe.bytes_moved == 150

