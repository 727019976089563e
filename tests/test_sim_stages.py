"""StagedOp: one operation, driven by a process (``run``) or by event
callbacks (``advance``), and the generator hand-off only a process takes."""

import pytest

from repro.sim import Engine, HandOffError, SimulationError, StagedOp


class _Sleep(StagedOp):
    """Waits ``delay``, then returns ``value``."""

    __slots__ = ("eng", "delay", "value")

    def __init__(self, eng, delay, value):
        super().__init__(_Sleep._wait)
        self.eng, self.delay, self.value = eng, delay, value

    def _wait(self):
        self.then = _Sleep._wake
        return self.eng.timeout(self.delay)

    def _wake(self):
        self.result = self.value
        return self.done()


class _HandOff(StagedOp):
    """Hands its driver ``gen``; returns what ``gen`` returned, plus one."""

    __slots__ = ("gen",)

    def __init__(self, gen):
        super().__init__(_HandOff._hand)
        self.gen = gen

    def _hand(self):
        self.then = _HandOff._took
        return self.gen

    def _took(self):
        self.result += 1
        return self.done()


class _Caller(StagedOp):
    """Calls ``op``; returns its result times ten."""

    __slots__ = ("op",)

    def __init__(self, op):
        super().__init__(_Caller._go)
        self.op = op

    def _go(self):
        self.then = _Caller._back
        return self.call(self.op)

    def _back(self):
        self.result *= 10
        return self.done()


def _sleepy(eng, value, delay=1.5):
    yield eng.timeout(delay)
    return value


def test_both_drivers_take_the_same_waits():
    eng = Engine()
    proc = eng.process(_Sleep(eng, 2.0, "x").run())
    eng.run()
    assert (proc.value, eng.now) == ("x", 2.0)
    eng = Engine()
    op = _Sleep(eng, 2.0, "x")
    op.advance()
    eng.run()
    assert (op.result, eng.now) == ("x", 2.0)


def test_run_runs_a_handed_over_generator_and_keeps_its_value():
    eng = Engine()
    proc = eng.process(_HandOff(_sleepy(eng, 41)).run())
    eng.run()
    assert (proc.value, eng.now) == (42, 1.5)


def test_the_value_goes_to_the_op_whose_stage_handed_over():
    eng = Engine()
    proc = eng.process(_Caller(_HandOff(_sleepy(eng, 41))).run())
    eng.run()
    assert (proc.value, eng.now) == (420, 1.5)


def test_run_propagates_the_generators_exception():
    eng = Engine()

    def failing():
        yield eng.timeout(1.0)
        raise ValueError("inside the hand-off")

    eng.process(_Caller(_HandOff(failing())).run())
    with pytest.raises(ValueError, match="inside the hand-off"):
        eng.run()
    assert eng.now == 1.0


def test_advance_raises_a_typed_error_on_a_hand_off():
    eng = Engine()
    op = _Caller(_HandOff(_sleepy(eng, 41)))
    with pytest.raises(HandOffError, match="generator"):
        op.advance()
    assert issubclass(HandOffError, SimulationError)


def test_a_hand_off_met_from_an_event_callback_raises_too():
    eng = Engine()

    class _Later(StagedOp):
        __slots__ = ()

        def __init__(self):
            super().__init__(_Later._wait)

        def _wait(self):
            self.then = _Later._hand
            return eng.timeout(1.0)

        def _hand(self):
            return _sleepy(eng, 0)

    _Later().advance()
    with pytest.raises(HandOffError):
        eng.run()
