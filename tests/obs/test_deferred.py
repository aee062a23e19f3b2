"""Deferred record sources: lazy emission in eager order.

A source registered with :meth:`Observer.defer` must see its due
records drained before anything else the observer records or changes,
and before any read, merged with other sources by due time.
"""

import pytest

from repro.obs import NULL_OBSERVER, Observer
from repro.sim.environment import Environment


class Ticks:
    """Emits one ``tick`` span per boundary in ``times`` (like a planned
    decode stretch emitting one span per step)."""

    def __init__(self, env, track, times):
        self.clock = env
        self.track = track
        self.times = list(times)
        self.k = 0

    def start(self, obs):
        obs.defer(self, self.times[1], self.times[0])

    def emit_deferred(self, obs):
        k = self.k
        obs.complete("tick", self.times[k], self.times[k + 1],
                     track=self.track, k=k)
        self.k = k + 1
        if self.k + 1 >= len(self.times):
            return None
        return self.times[self.k + 1], self.times[self.k]


def _setup(times=(0.0, 1.0, 2.0, 3.0)):
    env = Environment()
    obs = Observer()
    obs.bind(env)
    src = Ticks(env, "node0", times)
    src.start(obs)
    return env, obs, src


def _advance(env, t):
    env.run(until=t)


def _names(obs):
    return [(s.name, dict(s.args).get("k")) for s in obs.spans]


class TestDrainOrder:
    def test_nothing_drains_before_its_due_time(self):
        env, obs, _ = _setup()
        _advance(env, 0.5)
        assert len(obs) == 0
        _advance(env, 2.5)
        assert _names(obs) == [("tick", 0), ("tick", 1)]

    @pytest.mark.parametrize("record", [
        lambda o: o.begin("later", track="node0"),
        lambda o: o.complete("later", 2.5, 2.5, track="node0"),
        lambda o: o.instant("later", track="node0"),
        lambda o: o.counter("later", 1.0, track="node0"),
    ])
    def test_due_records_come_before_a_new_record(self, record):
        env, obs, _ = _setup()
        _advance(env, 2.5)
        record(obs)
        spans_before = [s.span_id for s in obs.spans if s.name == "tick"]
        assert spans_before == [1, 2]

    def test_due_records_drain_before_a_group_switch(self):
        env, obs, _ = _setup()
        _advance(env, 1.5)
        obs.set_group("other")
        _advance(env, 3.0)
        assert [s.group for s in obs.spans] == ["main", "other", "other"]

    def test_due_records_take_the_track_stack_of_their_time(self):
        env, obs, _ = _setup()
        _advance(env, 1.5)
        outer = obs.begin("outer", track="node0")
        _advance(env, 2.5)
        obs.end(outer)
        ticks = [s for s in obs.spans if s.name == "tick"]
        assert [s.parent_id for s in ticks] == [None, outer]

    def test_finish_open_drains_first(self):
        env, obs, _ = _setup()
        obs.begin("open", track="node0")
        _advance(env, 3.0)
        assert obs.finish_open() == 1
        assert [s.name for s in obs.spans] == ["tick", "tick", "tick",
                                               "open"]

    def test_ties_are_inclusive(self):
        env, obs, _ = _setup()
        _advance(env, 1.0)  # tick 0 ends exactly now
        obs.instant("same-instant", track="node0")
        assert obs.instants[0].event_id == 2
        assert _names(obs) == [("tick", 0)]

    def test_sources_merge_by_due_time(self):
        env = Environment()
        obs = Observer()
        obs.bind(env)
        a = Ticks(env, "a", (0.0, 1.0, 3.0, 5.0))
        b = Ticks(env, "b", (0.5, 2.0, 2.5, 4.0))
        a.start(obs)
        b.start(obs)
        _advance(env, 10.0)
        ends = [(s.end_s, s.track) for s in obs.spans]
        assert ends == sorted(ends)
        assert [s.span_id for s in obs.spans] == list(range(1, 7))

    def test_equal_due_times_order_by_start(self):
        env = Environment()
        obs = Observer()
        obs.bind(env)
        late = Ticks(env, "late", (0.5, 1.0))
        early = Ticks(env, "early", (0.0, 1.0))
        late.start(obs)
        early.start(obs)
        _advance(env, 1.0)
        assert [s.track for s in obs.spans] == ["early", "late"]

    def test_clear_drains_then_drops(self):
        env, obs, src = _setup()
        _advance(env, 1.5)
        obs.clear()
        assert len(obs) == 0
        _advance(env, 3.0)
        assert [s.span_id for s in obs.spans] == [2, 3]

    def test_rebinding_drops_another_clock_pending_records(self):
        env, obs, _ = _setup()
        _advance(env, 1.5)
        obs.bind(Environment())
        assert _names(obs) == [("tick", 0)]
        _advance(env, 3.0)
        assert _names(obs) == [("tick", 0)]


def test_disabled_observer_ignores_sources():
    env = Environment()
    src = Ticks(env, "node0", (0.0, 1.0))
    src.start(NULL_OBSERVER)
    env.run(until=2.0)
    NULL_OBSERVER.drain()
    assert src.k == 0 and len(NULL_OBSERVER) == 0
