"""Unit tests for the span collector and the metrics registry."""

from dataclasses import astuple

import pytest

from repro.errors import ConfigError
from repro.obs import (
    DEFAULT_BUCKETS,
    NO_SPAN,
    NULL_OBSERVER,
    CounterRecord,
    InstantRecord,
    MetricsRegistry,
    Observer,
)
from repro.sim.environment import Environment


class TestSpans:
    def test_begin_end_records_closed_span(self):
        obs = Observer()
        sid = obs.begin("request", cat="request", track="req0",
                        time_s=1.0, req=0)
        obs.end(sid, time_s=3.5, outcome="ok")
        (s,) = obs.spans
        assert s.name == "request" and s.cat == "request"
        assert s.start_s == 1.0 and s.end_s == 3.5
        assert s.duration_s == pytest.approx(2.5)
        assert dict(s.args) == {"req": 0, "outcome": "ok"}
        assert s.parent_id is None

    def test_same_track_spans_nest_implicitly(self):
        obs = Observer()
        outer = obs.begin("outer", time_s=0.0)
        inner = obs.begin("inner", time_s=1.0)
        obs.end(inner, time_s=2.0)
        obs.end(outer, time_s=3.0)
        by_name = {s.name: s for s in obs.spans}
        assert by_name["inner"].parent_id == outer
        assert by_name["outer"].parent_id is None

    def test_explicit_parent_crosses_tracks(self):
        obs = Observer()
        req = obs.begin("request", track="req7", time_s=0.0)
        work = obs.begin("prefill", track="node0", parent=req, time_s=0.0)
        obs.end(work, time_s=1.0)
        obs.end(req, time_s=1.0)
        assert obs.spans[0].parent_id == req
        assert obs.spans[0].track == "node0"

    def test_complete_records_interval_without_events(self):
        obs = Observer()
        sid = obs.complete("decode", 2.0, 5.0, cat="engine", track="node0",
                           tokens=96)
        (s,) = obs.spans
        assert s.span_id == sid
        assert (s.start_s, s.end_s) == (2.0, 5.0)
        assert dict(s.args) == {"tokens": 96}

    def test_span_context_manager(self):
        obs = Observer()
        with obs.span("step", cat="engine") as ctx:
            assert ctx.span_id != NO_SPAN
        assert obs.spans[0].name == "step"

    def test_bind_reads_simulation_clock(self):
        obs = Observer()
        env = Environment()
        obs.bind(env)
        sid = obs.begin("tick")

        def proc():
            yield env.timeout(4.0)
            obs.end(sid)

        env.process(proc())
        env.run()
        (s,) = obs.spans
        assert (s.start_s, s.end_s) == (0.0, 4.0)

    def test_finish_open_closes_leftovers(self):
        obs = Observer()
        obs.begin("a", time_s=0.0)
        obs.begin("b", track="t2", time_s=1.0)
        assert obs.finish_open(time_s=9.0) == 2
        assert all(s.end_s == 9.0 for s in obs.spans)
        assert all(dict(s.args)["unfinished"] for s in obs.spans)

    def test_open_start_and_spans_named(self):
        obs = Observer()
        sid = obs.begin("queue", time_s=2.5)
        assert obs.open_start(sid) == 2.5
        obs.end(sid, time_s=3.0)
        assert obs.open_start(sid) is None
        assert [s.span_id for s in obs.spans_named("queue")] == [sid]

    def test_instants_and_counters(self):
        obs = Observer()
        obs.instant("retry", cat="cluster", track="req0", time_s=1.0,
                    attempt=2)
        obs.counter("power_w", 31.5, track="node0", time_s=0.5)
        (i,) = obs.instants
        assert i.name == "retry" and dict(i.args) == {"attempt": 2}
        (c,) = obs.counters
        assert (c.name, c.value, c.time_s) == ("power_w", 31.5, 0.5)
        assert len(obs) == 2

    def test_clear_drops_everything(self):
        obs = Observer()
        obs.begin("open")
        obs.complete("done", 0.0, 1.0)
        obs.instant("i")
        obs.counter("c", 1.0)
        obs.metrics.counter("n").inc()
        assert len(obs.spans) == len(obs.instants) == len(obs.counters) == 1
        obs.clear()
        assert len(obs) == 0 and len(obs.metrics) == 0
        assert obs.spans == [] and obs.instants == [] and obs.counters == []
        assert obs.finish_open() == 0

    def test_records_are_built_from_rows_as_they_arrive(self):
        obs = Observer()
        obs.complete("a", 0.0, 1.0, track="t", k=1)
        first = obs.spans
        obs.complete("b", 1.0, 2.0, track="t")
        obs.instant("i", time_s=0.5, k=2)
        obs.counter("c", 3.0, time_s=0.25)
        assert obs.spans is first and obs.spans[0] is first[0]
        assert [s.name for s in obs.spans] == ["a", "b"]
        assert [astuple(s) for s in obs.spans] == obs.span_rows()
        assert obs.instants == [InstantRecord(*r) for r in obs.instant_rows()]
        assert obs.counters == [CounterRecord("main", "main", "c", 0.25, 3.0)]


class TestDisabledObserver:
    def test_null_observer_records_nothing(self):
        obs = NULL_OBSERVER
        sid = obs.begin("x", arg=1)
        assert sid == NO_SPAN
        obs.end(sid)
        assert obs.complete("y", 0.0, 1.0) == NO_SPAN
        assert obs.instant("z") == NO_SPAN
        obs.counter("w", 1.0)
        with obs.span("ctx") as ctx:
            assert ctx.span_id == NO_SPAN
        assert len(obs) == 0
        assert obs.finish_open() == 0

    def test_end_tolerates_no_span_and_unknown_ids(self):
        obs = Observer()
        obs.end(NO_SPAN)
        obs.end(12345)
        assert obs.spans == []


class TestMetricsRegistry:
    def test_counter_accumulates_and_rejects_decrease(self):
        reg = MetricsRegistry()
        reg.counter("tokens_total", node="0").inc(64)
        reg.counter("tokens_total", node="0").inc(32)
        assert reg.counter("tokens_total", node="0").value == 96
        with pytest.raises(ConfigError):
            reg.counter("tokens_total", node="0").inc(-1)

    def test_labels_distinguish_and_order_is_canonical(self):
        reg = MetricsRegistry()
        reg.counter("x", b="2", a="1").inc()
        reg.counter("x", a="1", b="2").inc()   # same instrument
        reg.counter("x", a="9").inc()          # different instrument
        assert len(reg) == 2
        (row, _) = [r for r in reg.snapshot_rows() if r["metric"] == "x"][:2]
        assert row["labels"] == "a=1,b=2"

    def test_gauge_sets_last_value(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(4)
        g.set(2)
        assert g.value == 2.0

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_s", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.cumulative() == [1, 2, 3]
        assert h.count == 4 and h.sum == pytest.approx(55.55)

    def test_histogram_default_buckets_and_validation(self):
        reg = MetricsRegistry()
        assert reg.histogram("d").bounds == DEFAULT_BUCKETS
        with pytest.raises(ConfigError):
            reg.histogram("bad", buckets=(2.0, 1.0))

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ConfigError):
            reg.gauge("m")

    def test_snapshot_rows_are_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("a", node="1").inc(3)
            reg.histogram("h", buckets=(1.0,)).observe(0.5)
            reg.gauge("g").set(7)
            return reg.snapshot_rows()

        assert build() == build()
