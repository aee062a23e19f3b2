"""Session model: staged turns, context growth, determinism."""

import numpy as np
import pytest

from repro.cluster.workload import (TenantProfile, multi_tenant_workload,
                                    normalized_weights)
from repro.errors import WorkloadError
from repro.fairness import Interaction, SessionTurn, session_workload


def turn(new_in=8, out=4, think=1.0, cum=8):
    return SessionTurn(new_input_tokens=new_in, output_tokens=out,
                       think_time_s=think, input_tokens=cum)


class TestInteraction:
    def test_needs_at_least_one_turn(self):
        with pytest.raises(WorkloadError):
            Interaction(interaction_id=0, tenant="a", arrival_s=0.0, turns=[])

    def test_staging_materialises_turns_in_order(self):
        inter = Interaction(0, "a", 0.0, [turn(cum=8), turn(cum=20)])
        r0 = inter.next_request(10, 0.0)
        assert (r0.req_id, r0.turn, r0.input_tokens) == (10, 0, 8)
        assert r0.interaction_id == 0 and r0.tenant == "a"
        assert inter.has_next
        r1 = inter.next_request(11, 5.0)
        assert (r1.turn, r1.input_tokens, r1.arrival_s) == (1, 20, 5.0)
        assert inter.next_request(12, 9.0) is None

    def test_completed_requires_all_turns_finished(self):
        inter = Interaction(0, "a", 0.0, [turn()])
        assert not inter.completed
        r = inter.next_request(0, 0.0)
        assert not inter.completed
        r.finish_s = 3.0
        assert inter.completed

    def test_abandoned_is_never_completed(self):
        inter = Interaction(0, "a", 0.0, [turn()])
        r = inter.next_request(0, 0.0)
        r.finish_s = 3.0
        inter.mark_abandoned()
        assert not inter.completed
        assert not inter.has_next


class TestSessionWorkload:
    def test_deterministic_under_seed(self):
        a = session_workload(2.0, 10, seed=7)
        b = session_workload(2.0, 10, seed=7)
        assert [(i.tenant, i.arrival_s, len(i.turns)) for i in a] == \
               [(i.tenant, i.arrival_s, len(i.turns)) for i in b]
        for ia, ib in zip(a, b):
            assert [t.prompt_ids for t in ia.turns] == \
                   [t.prompt_ids for t in ib.turns]

    def test_context_grows_cumulatively(self):
        for inter in session_workload(2.0, 6, seed=1):
            context = 0
            for t in inter.turns:
                assert t.input_tokens == context + t.new_input_tokens
                context += t.new_input_tokens + t.output_tokens

    def test_prompt_ids_chain_across_turns(self):
        """Turn k+1's prompt extends turn k's prompt AND its output."""
        for inter in session_workload(2.0, 6, seed=3):
            for prev, nxt in zip(inter.turns, inter.turns[1:]):
                assert len(prev.prompt_ids) == prev.input_tokens
                assert nxt.prompt_ids[:len(prev.prompt_ids)] == prev.prompt_ids
                assert len(nxt.prompt_ids) == (len(prev.prompt_ids)
                                               + prev.output_tokens
                                               + nxt.new_input_tokens)

    def test_first_turn_has_no_think_time(self):
        for inter in session_workload(2.0, 8, seed=2):
            assert inter.turns[0].think_time_s == 0.0
            for t in inter.turns[1:]:
                assert t.think_time_s >= 0.0

    def test_turn_count_respects_max(self):
        for inter in session_workload(2.0, 20, mean_turns=5.0, max_turns=3,
                                      seed=4):
            assert 1 <= len(inter.turns) <= 3

    def test_without_prompt_ids(self):
        inters = session_workload(2.0, 4, seed=5, with_prompt_ids=False)
        assert all(t.prompt_ids is None
                   for i in inters for t in i.turns)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            session_workload(0.0, 5)
        with pytest.raises(WorkloadError):
            session_workload(1.0, 0)
        with pytest.raises(WorkloadError):
            session_workload(1.0, 5, mean_turns=0.5)
        with pytest.raises(WorkloadError):
            session_workload(1.0, 5, mean_think_time_s=-1.0)


class TestWeightNormalisation:
    """The helper shared by multi_tenant_workload and session_workload."""

    def test_normalizes_to_one(self):
        tenants = (TenantProfile("a", weight=6.0),
                   TenantProfile("b", weight=2.0))
        w = normalized_weights(tenants)
        assert w == pytest.approx([0.75, 0.25])

    def test_empty_mix_is_typed_error(self):
        with pytest.raises(WorkloadError):
            normalized_weights(())

    def test_zero_weight_tenant_is_typed_error(self):
        """Regression: a weight=0 profile must raise WorkloadError, not
        produce NaN shares downstream."""
        with pytest.raises(WorkloadError):
            TenantProfile("zero", weight=0.0)

    def test_both_generators_share_the_draw(self):
        tenants = (TenantProfile("only", weight=3.0),)
        reqs = multi_tenant_workload(2.0, 5, tenants=tenants, seed=0)
        inters = session_workload(2.0, 5, tenants=tenants, seed=0)
        assert {r.tenant for r in reqs} == {"only"}
        assert {i.tenant for i in inters} == {"only"}


class TestServedSession:
    def test_lone_session_serves_every_turn_after_its_think_time(self):
        """Nothing else is in flight while the user thinks: the run must
        wait for the staged turn instead of ending."""
        from repro.cluster import EdgeCluster, FleetSpec

        fleet = FleetSpec.of(["jetson-orin-agx-64gb"], model="phi2",
                             precision="int8")
        inter = Interaction(0, "a", 1.0, [turn(cum=8), turn(cum=20),
                                          turn(think=3.0, cum=32)])
        cluster = EdgeCluster.of(fleet)
        report = cluster.run_interactions([inter])
        reqs = cluster.last_requests
        assert [r.turn for r in reqs] == [0, 1, 2]
        assert all(r.finish_s is not None for r in reqs)
        for prev, nxt, think in zip(reqs, reqs[1:], (1.0, 3.0)):
            assert nxt.arrival_s == prev.finish_s + think
        assert (report.interactions, report.abandoned_interactions) == (1, 0)
        assert inter.completed
