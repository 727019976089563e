"""Unit tests for the DES kernel (engine, events, processes, conditions)."""

import time

import pytest

from repro.sim import Cohort, Engine, SimulationError, StopEngine, all_of, any_of


def test_timeout_ordering():
    eng = Engine()
    log = []

    def proc(name, delay):
        yield eng.timeout(delay)
        log.append((eng.now, name))

    eng.process(proc("late", 5.0))
    eng.process(proc("early", 1.0))
    eng.process(proc("mid", 3.0))
    eng.run()
    assert log == [(1.0, "early"), (3.0, "mid"), (5.0, "late")]


def test_same_time_fifo_order():
    eng = Engine()
    log = []

    def proc(i):
        yield eng.timeout(1.0)
        log.append(i)

    for i in range(10):
        eng.process(proc(i))
    eng.run()
    assert log == list(range(10))


def test_zero_delay_timeout_runs_at_current_time():
    eng = Engine()
    seen = []

    def proc():
        yield eng.timeout(2.0)
        yield eng.timeout(0.0)
        seen.append(eng.now)

    eng.process(proc())
    eng.run()
    assert seen == [2.0]


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_timeout_value_passthrough():
    eng = Engine()
    got = []

    def proc():
        v = yield eng.timeout(1.0, value="payload")
        got.append(v)

    eng.process(proc())
    eng.run()
    assert got == ["payload"]


def test_process_return_value_propagates_to_waiter():
    eng = Engine()
    results = []

    def child():
        yield eng.timeout(1.0)
        return 42

    def parent():
        value = yield eng.process(child())
        results.append((eng.now, value))

    eng.process(parent())
    eng.run()
    assert results == [(1.0, 42)]


def test_waiting_on_already_finished_process():
    eng = Engine()
    results = []

    def child():
        yield eng.timeout(1.0)
        return "done"

    def parent(child_proc):
        yield eng.timeout(5.0)
        value = yield child_proc  # already processed: resumes immediately
        results.append((eng.now, value))

    cp = eng.process(child())
    eng.process(parent(cp))
    eng.run()
    assert results == [(5.0, "done")]


def test_event_succeed_wakes_waiter():
    eng = Engine()
    done = []

    def waiter(ev):
        value = yield ev
        done.append((eng.now, value))

    def trigger(ev):
        yield eng.timeout(3.0)
        ev.succeed("go")

    ev = eng.event()
    eng.process(waiter(ev))
    eng.process(trigger(ev))
    eng.run()
    assert done == [(3.0, "go")]


def test_event_double_trigger_raises():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_throws_into_waiter():
    eng = Engine()
    caught = []

    def waiter(ev):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def failer(ev):
        yield eng.timeout(1.0)
        ev.fail(ValueError("boom"))

    ev = eng.event()
    eng.process(waiter(ev))
    eng.process(failer(ev))
    eng.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    eng = Engine()
    ev = eng.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_unhandled_process_exception_propagates_to_run():
    eng = Engine()

    def bad():
        yield eng.timeout(1.0)
        raise RuntimeError("crash")

    eng.process(bad())
    with pytest.raises(RuntimeError, match="crash"):
        eng.run()


def test_failed_process_propagates_to_waiting_parent():
    eng = Engine()
    caught = []

    def bad():
        yield eng.timeout(1.0)
        raise RuntimeError("child crash")

    def parent():
        child = eng.process(bad())
        try:
            yield child
        except RuntimeError as exc:
            caught.append(str(exc))

    eng.process(parent())
    eng.run()
    assert caught == ["child crash"]


def test_yield_non_event_raises_inside_process():
    eng = Engine()
    caught = []

    def bad():
        try:
            yield "not an event"
        except SimulationError as exc:
            caught.append("caught")
        yield eng.timeout(1.0)

    eng.process(bad())
    eng.run()
    assert caught == ["caught"]


def test_all_of_collects_values_in_order():
    eng = Engine()
    results = []

    def child(delay, value):
        yield eng.timeout(delay)
        return value

    def parent():
        procs = [eng.process(child(3.0, "a")), eng.process(child(1.0, "b"))]
        values = yield all_of(eng, procs)
        results.append((eng.now, values))

    eng.process(parent())
    eng.run()
    assert results == [(3.0, ["a", "b"])]


def test_all_of_empty_triggers_immediately():
    eng = Engine()
    results = []

    def parent():
        values = yield all_of(eng, [])
        results.append((eng.now, values))

    eng.process(parent())
    eng.run()
    assert results == [(0.0, [])]


def test_any_of_returns_first_value():
    eng = Engine()
    results = []

    def child(delay, value):
        yield eng.timeout(delay)
        return value

    def parent():
        procs = [eng.process(child(3.0, "slow")), eng.process(child(1.0, "fast"))]
        value = yield any_of(eng, procs)
        results.append((eng.now, value))

    eng.process(parent())
    eng.run()
    assert results == [(1.0, "fast")]


def test_any_of_empty_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        any_of(eng, [])


def test_all_of_fails_when_child_fails():
    eng = Engine()
    caught = []

    def ok():
        yield eng.timeout(5.0)

    def bad():
        yield eng.timeout(1.0)
        raise RuntimeError("child failed")

    def parent():
        a = eng.process(ok())
        b = eng.process(bad())
        try:
            yield all_of(eng, [a, b])
        except RuntimeError as exc:
            caught.append(str(exc))
        # Drain the surviving child so its failure doesn't crash the run.
        yield a

    eng.process(parent())
    eng.run()
    assert caught == ["child failed"]


def test_run_until_stops_clock_exactly():
    eng = Engine()
    log = []

    def proc():
        while True:
            yield eng.timeout(1.0)
            log.append(eng.now)

    eng.process(proc())
    eng.run(until=3.5)
    assert log == [1.0, 2.0, 3.0]
    assert eng.now == 3.5


def test_run_until_in_past_rejected():
    eng = Engine()

    def proc():
        yield eng.timeout(10.0)

    eng.process(proc())
    eng.run(until=5.0)
    with pytest.raises(ValueError):
        eng.run(until=1.0)


def test_stop_engine_halts_run():
    eng = Engine()
    log = []

    def stopper():
        yield eng.timeout(2.0)
        raise StopEngine()

    def other():
        yield eng.timeout(10.0)
        log.append("should not happen")

    eng.process(stopper())
    eng.process(other())
    eng.run()
    assert log == []
    assert eng.now == 2.0


def test_is_alive_lifecycle():
    eng = Engine()

    def child():
        yield eng.timeout(2.0)

    p = eng.process(child())
    assert p.is_alive
    eng.run()
    assert not p.is_alive


def test_nested_process_chain_timing():
    eng = Engine()

    def leaf():
        yield eng.timeout(1.0)
        return 1

    def mid():
        v = yield eng.process(leaf())
        yield eng.timeout(1.0)
        return v + 1

    def root():
        v = yield eng.process(mid())
        return v + 1

    p = eng.process(root())
    eng.run()
    assert p.value == 3
    assert eng.now == 2.0


def test_events_processed_counter_increases():
    eng = Engine()

    def proc():
        yield eng.timeout(1.0)
        yield eng.timeout(1.0)

    eng.process(proc())
    eng.run()
    assert eng.events_processed >= 3  # init + two timeouts


def test_peek_reports_next_event_time():
    eng = Engine()

    def proc():
        yield eng.timeout(4.0)

    eng.process(proc())
    # Drain the bootstrap event first.
    eng.step()
    eng.run()


def test_many_processes_scale_smoke():
    # 10k processes each doing two timeouts: the pattern the figure-scale
    # experiments rely on (65,536 ranks x handful of events each).
    eng = Engine()
    counter = []

    def proc(i):
        yield eng.timeout(float(i % 7))
        yield eng.timeout(1.0)
        counter.append(i)

    for i in range(10_000):
        eng.process(proc(i))
    eng.run()
    assert len(counter) == 10_000


# ---------------------------------------------------------------------------
# Cohort: one counted event standing for N identical completions
# ---------------------------------------------------------------------------

def test_cohort_wakes_all_waiters_and_credits_members():
    eng = Engine()
    woken = []
    coh = Cohort(eng, 8)

    def waiter(i):
        yield coh
        woken.append(i)

    def releaser():
        yield eng.timeout(2.0)
        coh.succeed()

    for i in range(3):
        eng.process(waiter(i))
    eng.process(releaser())
    eng.run()
    assert woken == [0, 1, 2]
    c = eng.counters()
    assert c["sim.batched_events"] == 7  # 8 members minus the dispatched event
    assert c["sim.batch_hist"] == {"8-15": 1}


def test_cohort_size_validated():
    eng = Engine()
    with pytest.raises(ValueError):
        Cohort(eng, 0)


def test_cohort_fail_credits_nothing():
    eng = Engine()
    caught = []
    coh = Cohort(eng, 16)

    def waiter():
        try:
            yield coh
        except RuntimeError:
            caught.append(True)

    eng.process(waiter())
    coh.fail(RuntimeError("collective aborted"))
    eng.run()
    assert caught == [True]
    assert eng.counters()["sim.batched_events"] == 0


def test_count_events_credits_absorbed():
    eng = Engine()
    eng.count_events(100)
    c = eng.counters()
    assert c["sim.absorbed_events"] == 100
    assert c["sim.events_processed"] == 100


def test_counters_breakdown_is_exact():
    eng = Engine()

    def proc():
        yield eng.timeout(1.0)
        for size in (4, 6):
            coh = Cohort(eng, size)
            coh.succeed()
            yield coh

    eng.process(proc())
    eng.count_events(3)
    eng.run()
    c = eng.counters()
    assert c["sim.events_processed"] == (
        c["sim.dispatched_events"] + c["sim.batched_events"]
        + c["sim.absorbed_events"]
    )
    assert c["sim.batched_events"] == (4 - 1) + (6 - 1)
    assert c["sim.absorbed_events"] == 3
    assert c["sim.batches"] == 2


# ---------------------------------------------------------------------------
# Wall-clock accounting (events_per_second must exclude setup time)
# ---------------------------------------------------------------------------

def test_wall_seconds_excludes_setup_time():
    eng = Engine()

    def proc():
        for _ in range(100):
            yield eng.timeout(1.0)

    eng.process(proc())
    # Expensive "setup" between construction and run() — building ranks,
    # fabrics, payloads in the real experiments — must not count toward
    # the dispatch-loop wall clock.
    time.sleep(0.05)
    eng.run()
    assert 0.0 < eng.wall_seconds < 0.05
    c = eng.counters()
    assert c["sim.events_per_second"] == pytest.approx(
        c["sim.events_processed"] / c["sim.wall_seconds"]
    )


def test_wall_seconds_zero_before_run():
    eng = Engine()
    assert eng.wall_seconds == 0.0
    assert eng.events_per_second == 0.0


def test_step_accumulates_wall_and_dispatch():
    eng = Engine()

    def proc():
        yield eng.timeout(1.0)

    eng.process(proc())
    eng.step()  # bootstrap event
    eng.step()  # the timeout
    assert eng.wall_seconds > 0.0
    assert eng.counters()["sim.dispatched_events"] == 2


# ---------------------------------------------------------------------------
# Mid-instant abort: the unprocessed bucket remainder stays schedulable
# ---------------------------------------------------------------------------

def test_stop_engine_mid_instant_keeps_remainder():
    eng = Engine()
    log = []

    def stopper():
        yield eng.timeout(1.0)
        raise StopEngine()

    def survivor():
        yield eng.timeout(1.0)  # same instant, scheduled after the stopper
        log.append(eng.now)

    eng.process(stopper())
    eng.process(survivor())
    eng.run()
    assert log == []  # StopEngine halted before the survivor fired
    eng.run()  # resuming processes the same-instant remainder
    assert log == [1.0]
