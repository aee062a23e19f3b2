"""Golden digests of an observed multi-node sessions run.

Four nodes under VTC with energy-aware routing serve ~40 multi-turn
interactions with the observer on.  The Chrome trace, the Prometheus
text and the span CSV are pinned by sha256, so any change to the record
stream — order, span ids, parents, timestamps, float spelling — fails
here.  The same digests must come out whether nodes plan decode
stretches (the default) or serve one step per resumption, and the
default must actually plan multi-step stretches.
"""

import hashlib
from unittest import mock

import pytest

from repro.cluster import EdgeCluster, FleetSpec, NodeSpec
from repro.cluster.node import ClusterNode
from repro.fairness.session import session_workload
from repro.obs import (Observer, chrome_trace_json, prometheus_text,
                       write_spans_csv)

DEVICES = ("jetson-orin-agx-64gb", "jetson-orin-agx-64gb",
           "jetson-orin-agx-32gb", "jetson-xavier-agx-32gb")

GOLDEN = {
    "chrome":
        "b7ec3faa581b5c53b0d50ff57b7f8eb40721d6b0651f0e6f42a470ec65c41d0d",
    "prometheus":
        "913dd811ac49569f5e99a137197765d16c512206b8dcb833791b6f20560651ef",
    "spans_csv":
        "daa5be6189918787d6e76430e4dd998fd6c08acf959237fff0731107133b7870",
}


def _serve(stretch_steps, tmp_path):
    """Digests of one observed run, and the stretches its nodes planned."""
    fleet = FleetSpec.of([NodeSpec(d, scheduler="vtc") for d in DEVICES],
                         model="llama", precision="int8",
                         policy="energy-aware")
    obs = Observer()
    cluster = EdgeCluster.of(fleet, observer=obs)
    with mock.patch.object(ClusterNode, "_STRETCH_STEPS", stretch_steps), \
            mock.patch.object(ClusterNode, "_plan_stretch", autospec=True,
                              side_effect=ClusterNode._plan_stretch) as plan:
        cluster.run_interactions(session_workload(0.16, 40, seed=0))
    csv_path = write_spans_csv(tmp_path / f"spans{stretch_steps}.csv", obs)
    digests = {
        "chrome": chrome_trace_json(obs).encode(),
        "prometheus": prometheus_text(obs.metrics).encode(),
        "spans_csv": csv_path.read_bytes(),
    }
    return ({k: hashlib.sha256(v).hexdigest() for k, v in digests.items()},
            plan.call_count)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    return (_serve(ClusterNode._STRETCH_STEPS, tmp), _serve(1, tmp))


def test_default_run_matches_the_golden_digests(runs):
    (digests, _), _ = runs
    assert digests == GOLDEN


def test_one_step_serving_matches_the_golden_digests(runs):
    _, (digests, _) = runs
    assert digests == GOLDEN


def test_default_run_resumes_its_nodes_less_often(runs):
    (_, stretches), (_, steps) = runs
    assert stretches < steps / 2, (stretches, steps)
