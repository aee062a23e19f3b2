"""Wasted-token ledgers: conservation, abandonment, throttling."""

import pytest

from repro.cluster.workload import ClusterRequest
from repro.errors import ExperimentError
from repro.fairness import build_ledger, check_books, conservation_violations


def req(rid, tenant, inp=10, out=20, generated=0, lost=0, finish=None,
        throttled=False, rejected=False, interaction=None):
    r = ClusterRequest(req_id=rid, arrival_s=0.0, input_tokens=inp,
                       output_tokens=out, tenant=tenant,
                       interaction_id=interaction)
    r.generated = generated
    r.lost_tokens = lost
    r.finish_s = finish
    r.throttled = throttled
    r.rejected = rejected or throttled
    return r


class TestLedger:
    def test_completed_request_serves_its_tokens(self):
        led = build_ledger([req(0, "a", generated=20, finish=5.0)])["a"]
        assert led.completed == 1
        assert led.served_tokens == 20
        assert led.wasted_tokens == 0
        assert led.produced_tokens == 20

    def test_replayed_tokens_are_waste(self):
        led = build_ledger([req(0, "a", generated=20, lost=7,
                                finish=5.0)])["a"]
        assert led.served_tokens == 20
        assert led.wasted_tokens == 7
        assert led.produced_tokens == 27

    def test_unfinished_request_wastes_everything(self):
        led = build_ledger([req(0, "a", generated=13, rejected=True)])["a"]
        assert led.served_tokens == 0
        assert led.wasted_tokens == 13
        assert led.rejected == 1

    def test_abandoned_session_turns_count_as_waste(self):
        """The FairServe notion: a dead conversation's context bought
        nothing, even for turns that completed."""
        rs = [req(0, "a", generated=20, finish=5.0, interaction=1),
              req(1, "a", generated=20, finish=9.0, interaction=2)]
        led = build_ledger(rs, abandoned_interactions=frozenset([2]))["a"]
        assert led.served_tokens == 20
        assert led.wasted_tokens == 20
        assert led.completed == 2

    def test_throttled_demand_is_counted_not_produced(self):
        rs = [req(0, "a", inp=10, out=20, throttled=True),
              req(1, "a", generated=20, finish=5.0)]
        led = build_ledger(rs)["a"]
        assert led.throttled == 1
        assert led.throttled_tokens == 30
        assert led.produced_tokens == 20
        assert led.admitted_output_tokens == 20

    def test_slo_predicate_gates_good_tokens(self):
        rs = [req(0, "a", generated=20, finish=5.0),
              req(1, "a", generated=20, finish=50.0)]
        led = build_ledger(rs, slo_met=lambda r: r.finish_s < 10.0)["a"]
        assert led.served_tokens == 40
        assert led.good_tokens == 20
        assert led.slo_good_share == 0.5

    def test_weights_fold_in(self):
        led = build_ledger([req(0, "a")], weights={"a": 3.0})["a"]
        assert led.weight == 3.0

    def test_ledgers_sorted_by_tenant(self):
        rs = [req(0, "z"), req(1, "a")]
        assert list(build_ledger(rs)) == ["a", "z"]


class TestConservation:
    def test_balanced_books_pass(self):
        rs = [req(0, "a", generated=20, lost=5, finish=5.0),
              req(1, "b", throttled=True)]
        ledgers = build_ledger(rs)
        assert conservation_violations(ledgers) == []
        assert conservation_violations(ledgers, node_served_tokens=25) == []

    def test_imbalance_is_reported(self):
        ledgers = build_ledger([req(0, "a", generated=20, finish=5.0)])
        ledgers["a"].wasted_tokens += 1
        out = conservation_violations(ledgers)
        assert len(out) == 1 and "a" in out[0]

    def test_fully_throttled_tenant_must_produce_nothing(self):
        bad = req(0, "a", throttled=True)
        bad.generated = 5  # throttle ran after serving started: a bug
        out = conservation_violations(build_ledger([bad]))
        assert any("throttled" in v for v in out)

    def test_fleet_meter_mismatch_is_reported(self):
        ledgers = build_ledger([req(0, "a", generated=20, finish=5.0)])
        out = conservation_violations(ledgers, node_served_tokens=19)
        assert any("fleet" in v for v in out)


class TestCheckBooks:
    def test_balanced_books_pass(self):
        check_books([req(0, "a", generated=20, lost=5, finish=5.0),
                     req(1, "b", throttled=True)], 25)

    def test_tampered_node_meter_raises(self):
        rs = [req(0, "a", generated=20, finish=5.0)]
        with pytest.raises(ExperimentError,
                           match="token books do not balance: fleet"):
            check_books(rs, 21)

    def test_sweep_point_raises_through_it(self, monkeypatch):
        """A node meter off by one token fails the sustain sweep."""
        from repro.cluster import EdgeCluster
        from repro.sustain import SustainSpec, run_sustain

        real_run = EdgeCluster.run

        def tampered_run(self, requests):
            report = real_run(self, requests)
            self.nodes[0]._served_tokens += 1
            return report

        monkeypatch.setattr(EdgeCluster, "run", tampered_run)
        spec = SustainSpec(n_requests=4, scenarios=("uniform",),
                           routers=("energy-aware",), cascades=("off",))
        with pytest.raises(ExperimentError, match="node production"):
            run_sustain(spec)
