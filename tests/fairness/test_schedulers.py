"""Fair-scheduler unit behaviour: registry, FCFS, VTC, WSC."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.workload import ClusterRequest
from repro.errors import ConfigError
from repro.fairness import (FCFSScheduler, VTCScheduler, WSCScheduler,
                            get_fair_scheduler, list_fair_schedulers)


def req(rid, tenant, inp=32, out=32):
    return ClusterRequest(req_id=rid, arrival_s=0.0, input_tokens=inp,
                          output_tokens=out, tenant=tenant)


class TestRegistry:
    def test_known_names(self):
        assert list_fair_schedulers() == ["fcfs", "vtc", "wsc"]

    def test_none_means_fcfs(self):
        assert get_fair_scheduler(None).name == "fcfs"

    def test_instance_passthrough(self):
        inst = VTCScheduler()
        assert get_fair_scheduler(inst) is inst

    def test_unknown_name_is_typed_error_listing_names(self):
        with pytest.raises(ConfigError) as exc:
            get_fair_scheduler("lottery")
        msg = str(exc.value)
        assert "lottery" in msg
        for name in list_fair_schedulers():
            assert name in msg

    def test_weights_reach_the_scheduler(self):
        s = get_fair_scheduler("vtc", {"a": 2.0, "b": 1.0})
        assert s.weight_of("a") == 2.0
        assert s.weight_of("unknown") == 1.0


class TestFCFS:
    def test_always_selects_the_head(self):
        s = FCFSScheduler()
        q = [req(0, "b"), req(1, "a"), req(2, "c")]
        for r in q:
            s.on_arrival(r, 0.0)
        s.on_tokens_served(q[0], decode_tokens=100)
        assert s.select_next(q) == 0

    def test_hooks_are_stateless(self):
        s = FCFSScheduler()
        s.on_arrival(req(0, "a"), 1.0)
        s.on_tokens_served(req(0, "a"), prefill_tokens=10, decode_tokens=5)
        s.on_flush()
        assert s.counter_snapshot() == {}


class TestVTC:
    def test_least_served_tenant_wins(self):
        s = VTCScheduler()
        a, b = req(0, "a"), req(1, "b")
        for r in (a, b):
            s.on_arrival(r, 0.0)
        s.on_tokens_served(a, decode_tokens=50)
        # a has been served; b's counter is lower, so b jumps the queue.
        assert s.select_next([a, b]) == 1

    def test_decode_tokens_weighted_heavier_than_prefill(self):
        s = VTCScheduler()
        a, b = req(0, "a"), req(1, "b")
        for r in (a, b):
            s.on_arrival(r, 0.0)
        s.on_tokens_served(a, prefill_tokens=10)
        s.on_tokens_served(b, decode_tokens=10)
        snap = s.counter_snapshot()
        assert snap["b"] == pytest.approx(2 * snap["a"])

    def test_tenant_weight_discounts_service(self):
        s = VTCScheduler(weights={"heavy": 4.0, "light": 1.0})
        h, l = req(0, "heavy"), req(1, "light")
        for r in (h, l):
            s.on_arrival(r, 0.0)
        s.on_tokens_served(h, decode_tokens=40)
        s.on_tokens_served(l, decode_tokens=40)
        snap = s.counter_snapshot()
        # Same tokens, but the heavy tenant's entitlement is 4x.
        assert snap["light"] == pytest.approx(4 * snap["heavy"])

    def test_arrival_lift_prevents_banking_idle_time(self):
        s = VTCScheduler()
        a = req(0, "a")
        s.on_arrival(a, 0.0)
        s.on_dequeue(a)
        s.on_tokens_served(a, decode_tokens=100)
        # b was idle the whole time; on arrival it lifts to the floor
        # of the live counters instead of keeping a banked credit of 0
        # it could spend starving a for the next 100 tokens.
        b = req(1, "b")
        a2 = req(2, "a")
        s.on_arrival(a2, 1.0)
        s.on_arrival(b, 1.0)
        snap = s.counter_snapshot()
        assert snap["b"] == pytest.approx(snap["a"])
        # The lift makes them tie (position breaks it), not leapfrog;
        # one more token billed to a and b goes first.
        assert s.select_next([a2, b]) == 0
        s.on_tokens_served(a2, decode_tokens=1)
        assert s.select_next([a2, b]) == 1

    def test_ties_break_by_queue_position(self):
        s = VTCScheduler()
        q = [req(0, "a"), req(1, "b")]
        for r in q:
            s.on_arrival(r, 0.0)
        assert s.select_next(q) == 0

    def test_flush_clears_backlog(self):
        s = VTCScheduler()
        s.on_arrival(req(0, "a"), 0.0)
        s.on_flush()
        assert s.select_next([req(1, "a")]) == 0


class TestWSC:
    def test_unit_token_weights(self):
        s = WSCScheduler()
        a, b = req(0, "a"), req(1, "b")
        for r in (a, b):
            s.on_arrival(r, 0.0)
        s.on_tokens_served(a, prefill_tokens=10)
        s.on_tokens_served(b, decode_tokens=10)
        snap = s.counter_snapshot()
        assert snap["a"] == pytest.approx(snap["b"])

    def test_respects_tenant_weights(self):
        s = WSCScheduler(weights={"big": 3.0, "small": 1.0})
        big, small = req(0, "big"), req(1, "small")
        for r in (big, small):
            s.on_arrival(r, 0.0)
        s.on_tokens_served(big, decode_tokens=30)
        s.on_tokens_served(small, decode_tokens=30)
        # big's 30 tokens cost 10 counter units; small's cost 30.
        assert s.select_next([small, big]) == 1


class TestBatchedDecodeMetering:
    """``on_decode_steps`` leaves every counter bit-identical to billing
    one decode token per member per step through ``on_tokens_served``."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from([VTCScheduler, WSCScheduler]),
           st.lists(st.sampled_from("abcd"), min_size=1, max_size=8),
           st.integers(1, 40),
           st.dictionaries(st.sampled_from("abcd"),
                           st.floats(0.1, 7.0, allow_nan=False)),
           st.dictionaries(st.sampled_from("abcd"),
                           st.floats(0.0, 1e4, allow_nan=False)))
    def test_equals_per_request_hook(self, cls, tenants, steps, weights,
                                     start):
        batch = [req(i, t) for i, t in enumerate(tenants)]
        members = {}
        for r in batch:
            members[r.tenant] = members.get(r.tenant, 0) + 1
        one, many = cls(weights), cls(weights)
        one.counters.update(start)
        many.counters.update(start)
        for _ in range(steps):
            for r in batch:
                one.on_tokens_served(r, decode_tokens=1)
        many.on_decode_steps(members, steps)
        assert many.counters == one.counters
        assert list(many.counter_snapshot().items()) == \
            list(one.counter_snapshot().items())

    def test_fcfs_meters_nothing(self):
        fcfs = FCFSScheduler()
        fcfs.on_decode_steps({"a": 2}, 5)
        assert fcfs.counter_snapshot() == {}
