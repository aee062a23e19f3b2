"""DES resources and stores."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource, Store


def test_resource_grants_up_to_capacity_then_queues():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []

    def worker(tag, hold):
        req = res.request()
        yield req
        log.append((tag, "in", env.now))
        yield env.timeout(hold)
        res.release(req)
        log.append((tag, "out", env.now))

    env.process(worker("a", 5.0))
    env.process(worker("b", 5.0))
    env.process(worker("c", 1.0))
    env.run()
    # c waits for a slot until t=5.
    assert ("c", "in", 5.0) in log
    assert ("c", "out", 6.0) in log


def test_resource_fifo_ordering():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(tag):
        req = res.request()
        yield req
        order.append(tag)
        yield env.timeout(1.0)
        res.release(req)

    for tag in "abcd":
        env.process(worker(tag))
    env.run()
    assert order == list("abcd")


def test_release_of_unheld_request_is_error():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    res.release(r1)
    with pytest.raises(SimulationError):
        res.release(r1)


def test_resource_counts():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    res.request()
    assert res.count == 1
    assert res.queue_len == 1
    res.release(r1)
    assert res.queue_len == 0


def test_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)
    with pytest.raises(SimulationError):
        Store(env, capacity=0)


def test_store_fifo_put_get():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for i in range(3):
            yield env.timeout(1.0)
            yield store.put(i)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((item, env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == [(0, 1.0), (1, 2.0), (2, 3.0)]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        got.append((yield store.get()))

    env.process(consumer())

    def producer():
        yield env.timeout(4.0)
        yield store.put("late")

    env.process(producer())
    env.run()
    assert got == ["late"]
    assert env.now == pytest.approx(4.0)


def test_bounded_store_blocks_putter():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer():
        yield store.put("x")
        log.append(("put-x", env.now))
        yield store.put("y")
        log.append(("put-y", env.now))

    def consumer():
        yield env.timeout(3.0)
        item = yield store.get()
        log.append(("got", item, env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert ("put-x", 0.0) in log
    assert ("put-y", 3.0) in log  # unblocked when consumer drains
