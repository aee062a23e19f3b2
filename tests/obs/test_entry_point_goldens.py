"""Golden digests of the three ``EdgeCluster`` run entry points.

``run``, ``run_cascade`` and ``run_interactions`` each serve an observed
fleet under a :class:`~repro.fairness.throttle.TokenThrottle`.  The
Chrome trace, the Prometheus text and the report rows (fleet, tenants,
nodes) are pinned by sha256, so any change to how a run injects,
charges, follows up or ends its requests fails here.  Each run also
shows that it reaches the paths it pins: throttled arrivals, cascade
escalations (whose LLM twins the throttle never charges) and sessions
abandoned when a staged turn is throttled.
"""

import hashlib
import json

import pytest

from repro.cluster import EdgeCluster, FleetSpec, NodeSpec
from repro.cluster.workload import multi_tenant_workload, poisson_workload
from repro.fairness.session import session_workload
from repro.fairness.throttle import TokenThrottle
from repro.obs import Observer, chrome_trace_json, prometheus_text
from repro.sustain import LLM_TIER, SLM_TIER, CascadeSpec

GOLDEN = {
    "run": {
        "chrome":
            "d115ed7c6da2d1718769b32557143cc752628c4268985fc5f67cfcb4c8a530b4",
        "prometheus":
            "41120a0b03920de7812cf158ab857237be35965af6c91609120b4d4462a9d273",
        "rows":
            "1f475388e0bd02d7002dcae503310866771fee7d4d60f282dfa108e6472b85fd",
    },
    "run_cascade": {
        "chrome":
            "865ad021ecff29ab2aab1863c278ca73b561a1d40665478cbee8e456d9a62d3f",
        "prometheus":
            "35721d4b2b8d0047ab45c17b6d87d547dfc15a9164e98daf0424d41a2811708a",
        "rows":
            "bbc58ff80e9e3c8a03283df4b2438c963e4ffadf6579a5f1737affc31a5ef534",
    },
    "run_interactions": {
        "chrome":
            "57eb8a9b422ceb20800e00881e9188fe139a4135fa1f7e7a698ad112eb98ce04",
        "prometheus":
            "dc3fa98f5950d4b9f396e7516fc375050e4615e85b29c8de914c32e7815fba52",
        "rows":
            "199bc81f37786531280b0337fd07d4fd83d99d3e7919ce0ca7f6a06e2b1a1e9b",
    },
}


def _digests(obs, report):
    rows = ([report.as_row()] + [t.as_row() for t in report.tenants]
            + list(report.node_rows))
    blobs = {
        "chrome": chrome_trace_json(obs),
        "prometheus": prometheus_text(obs.metrics),
        "rows": json.dumps(rows, sort_keys=True, default=str),
    }
    return {k: hashlib.sha256(v.encode()).hexdigest()
            for k, v in blobs.items()}


def _serve(entry_point):
    obs = Observer()
    if entry_point == "run":
        fleet = FleetSpec.of(["jetson-orin-agx-64gb", "jetson-orin-agx-32gb"],
                             model="llama", precision="int8",
                             policy="energy-aware")
        cluster = EdgeCluster.of(fleet, observer=obs,
                                 throttle=TokenThrottle(100.0, burst_s=2.0))
        report = cluster.run(multi_tenant_workload(2.0, 40, seed=3))
    elif entry_point == "run_cascade":
        fleet = FleetSpec.of(
            [NodeSpec("jetson-orin-agx-64gb", max_batch=4, tier=SLM_TIER),
             NodeSpec("jetson-orin-agx-64gb", max_batch=4, tier=LLM_TIER)],
            model="phi2", precision="int8", policy="round-robin")
        cluster = EdgeCluster.of(fleet, observer=obs,
                                 throttle=TokenThrottle(60.0, burst_s=2.0))
        cas = CascadeSpec()
        report = cluster.run_cascade(
            poisson_workload(1.0, 20, input_tokens=32, output_tokens=32,
                             seed=4),
            lambda r: cas.should_escalate(r.req_id))
    else:
        fleet = FleetSpec.of(
            [NodeSpec("jetson-orin-agx-64gb", scheduler="vtc"),
             NodeSpec("jetson-orin-agx-32gb", scheduler="vtc")],
            model="llama", precision="int8", policy="energy-aware")
        cluster = EdgeCluster.of(fleet, observer=obs,
                                 throttle=TokenThrottle(300.0, burst_s=4.0))
        report = cluster.run_interactions(session_workload(0.3, 30, seed=0))
    return _digests(obs, report), report, cluster.last_requests


@pytest.fixture(scope="module")
def runs():
    return {ep: _serve(ep) for ep in GOLDEN}


@pytest.mark.parametrize("entry_point", sorted(GOLDEN))
def test_observed_run_matches_the_golden_digests(runs, entry_point):
    digests, _, _ = runs[entry_point]
    assert digests == GOLDEN[entry_point]


def test_plain_run_throttles_most_arrivals(runs):
    _, report, reqs = runs["run"]
    assert (report.throttled, len(reqs)) == (26, 40)
    assert report.completed == 14


def test_cascade_escalates_and_never_throttles_a_twin(runs):
    _, report, reqs = runs["run_cascade"]
    twins = [r for r in reqs if r.escalated_from >= 0]
    assert report.escalations == len(twins) == 5
    assert report.throttled == 3
    assert not any(r.throttled for r in twins)
    assert all(r.tier == LLM_TIER for r in twins)


def test_sessions_abandon_on_throttled_turns(runs):
    _, report, reqs = runs["run_interactions"]
    assert (report.abandoned_interactions, report.interactions) == (11, 30)
    # Staged turns are charged too: some later turns are turned away.
    assert sum(r.throttled and r.turn >= 1 for r in reqs) == 10
