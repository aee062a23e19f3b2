"""DES kernel: events, timeouts, processes, conditions."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Environment, Event, Interrupt, Timeout


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5.0)

    env.process(proc())
    env.run()
    assert env.now == pytest.approx(5.0)


def test_events_fire_in_timestamp_order():
    env = Environment()
    order = []

    def proc(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(3.0, "c"))
    env.process(proc(1.0, "a"))
    env.process(proc(2.0, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_creation_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("x", "y", "z"):
        env.process(proc(tag))
    env.run()
    assert order == ["x", "y", "z"]


def test_process_return_value_via_run_until():
    env = Environment()

    def proc():
        yield env.timeout(2.0)
        return 42

    p = env.process(proc())
    assert env.run(until=p) == 42


def test_yield_from_subprocess_composition():
    env = Environment()

    def inner():
        yield env.timeout(1.0)
        return "inner-done"

    def outer():
        val = yield from inner()
        yield env.timeout(1.0)
        return val + "/outer-done"

    p = env.process(outer())
    assert env.run(until=p) == "inner-done/outer-done"
    assert env.now == pytest.approx(2.0)


def test_event_succeed_delivers_value():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        got.append((yield ev))

    env.process(waiter())

    def trigger():
        yield env.timeout(1.0)
        ev.succeed("payload")

    env.process(trigger())
    env.run()
    assert got == ["payload"]


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield ev
        return "handled"

    p = env.process(waiter())
    ev.fail(ValueError("boom"))
    assert env.run(until=p) == "handled"


def test_failed_process_propagates_through_run_until():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise RuntimeError("exploded")

    p = env.process(bad())
    with pytest.raises(RuntimeError, match="exploded"):
        env.run(until=p)


def test_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        Timeout(env, -1.0)


def test_run_until_time_advances_clock_even_when_idle():
    env = Environment()
    env.run(until=100.0)
    assert env.now == pytest.approx(100.0)


def test_allof_collects_all_values():
    env = Environment()
    t1, t2 = env.timeout(1.0, "a"), env.timeout(2.0, "b")
    cond = AllOf(env, [t1, t2])
    results = []

    def waiter():
        results.append((yield cond))

    env.process(waiter())
    env.run()
    assert results == [{0: "a", 1: "b"}]
    assert env.now == pytest.approx(2.0)


def test_anyof_fires_on_first():
    env = Environment()
    t1, t2 = env.timeout(5.0, "slow"), env.timeout(1.0, "fast")
    cond = AnyOf(env, [t1, t2])
    results = []

    def waiter():
        results.append((yield cond))

    env.process(waiter())
    env.run(until=1.5)
    assert results == [{1: "fast"}]


def test_empty_allof_fires_immediately():
    env = Environment()
    cond = AllOf(env, [])
    assert cond.triggered


def test_interrupt_is_catchable_and_process_continues():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            log.append(("interrupted", exc.cause, env.now))
        yield env.timeout(1.0)
        log.append(("resumed", env.now))

    p = env.process(sleeper())

    def interrupter():
        yield env.timeout(2.0)
        p.interrupt(cause="hurry")

    env.process(interrupter())
    env.run()
    assert log == [("interrupted", "hurry", 2.0), ("resumed", 3.0)]


def test_uncaught_interrupt_fails_process():
    env = Environment()

    def sleeper():
        yield env.timeout(100.0)

    p = env.process(sleeper())

    def interrupter():
        yield env.timeout(1.0)
        p.interrupt()

    env.process(interrupter())
    with pytest.raises(Interrupt):
        env.run(until=p)


def test_yield_non_event_is_an_error():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_step_on_empty_heap_is_an_error():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(7.0)
    assert env.peek() == pytest.approx(7.0)


# -- absolute timeouts and equal-time ordering -------------------------------
#
# Every scheduling path (timeout, timeout_at, schedule, schedule_at,
# succeed/fail) must draw its tie-break counter from the same
# itertools.count, so events landing on the same timestamp fire in
# exactly the order they were scheduled — regardless of which API
# scheduled them.  The decode fast-forward depends on this: a sampler
# tick and a collapsed-decode timeout at the same instant must fire in
# schedule order, as their step-by-step counterparts would.


def test_timeout_at_advances_clock_to_absolute_time():
    env = Environment()

    def proc():
        yield env.timeout(2.0)
        yield env.timeout_at(7.0, value="x")

    env.process(proc())
    env.run()
    assert env.now == 7.0


def test_timeout_at_delivers_value():
    env = Environment()
    got = []

    def proc():
        got.append((yield env.timeout_at(1.5, value="payload")))

    env.process(proc())
    env.run()
    assert got == ["payload"]


def test_timeout_at_in_the_past_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.timeout_at(4.0)


def test_equal_time_relative_vs_absolute_fires_in_schedule_order():
    env = Environment()
    order = []

    def rel(tag):
        yield env.timeout(3.0)
        order.append(tag)

    def abs_(tag):
        yield env.timeout_at(3.0, value=None)
        order.append(tag)

    env.process(rel("rel-first"))
    env.process(abs_("abs-second"))
    env.process(rel("rel-third"))
    env.run()
    assert order == ["rel-first", "abs-second", "rel-third"]


def test_equal_time_ordering_survives_interleaved_apis():
    env = Environment()
    order = []

    def waiter(ev, tag):
        yield ev
        order.append(tag)

    def watch(ev, tag):
        ev.callbacks.append(lambda _e: order.append(tag))
        return ev

    # Interleave the four scheduling surfaces, all at t=2.0.
    env.process(waiter(env.timeout_at(2.0), "at-a"))
    env.process(waiter(env.timeout(2.0), "rel-b"))
    env.process(waiter(env.timeout_at(2.0), "at-c"))
    ev = Event(env)
    ev._value = None  # pre-assign: bare events fire with their value
    env.schedule_at(ev, 2.0)
    watch(ev, "sched-d")
    ev2 = Event(env)
    ev2._value = None
    env.schedule(ev2, 2.0)
    watch(ev2, "sched-e")
    env.run()
    assert order == ["at-a", "rel-b", "at-c", "sched-d", "sched-e"]


def test_schedule_at_rejects_double_schedule_and_past():
    env = Environment()
    ev = Event(env)
    env.schedule_at(ev, 1.0)
    with pytest.raises(SimulationError):
        env.schedule_at(ev, 2.0)

    env2 = Environment()
    env2.run(until=5.0)
    with pytest.raises(SimulationError):
        env2.schedule_at(Event(env2), 3.0)


def test_unwatched_process_failure_fails_the_run():
    env = Environment()
    done = []

    def crasher():
        yield env.timeout(1.0)
        raise RuntimeError("lost")

    def bystander():
        yield env.timeout(5.0)
        done.append(env.now)

    env.process(crasher())
    env.process(bystander())
    with pytest.raises(RuntimeError, match="lost"):
        env.run()
    assert env.now == 1.0 and done == []


def test_unwatched_uncaught_interrupt_stays_quiet():
    env = Environment()

    def sleeper():
        yield env.timeout(100.0)

    p = env.process(sleeper())

    def interrupter():
        yield env.timeout(1.0)
        p.interrupt("stop")

    env.process(interrupter())
    env.run(until=10.0)
    assert not p.ok and isinstance(p.value, Interrupt)


def test_awaited_failure_reaches_its_waiter():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        raise ValueError("child")

    def parent():
        try:
            yield env.process(child())
        except ValueError as exc:
            return f"caught {exc}"

    assert env.run(until=env.process(parent())) == "caught child"
