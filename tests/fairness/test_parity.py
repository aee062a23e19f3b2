"""FCFS parity: the scheduler wiring must not move a single float.

The fairness refactor routed every admission decision through
``FairScheduler.select_next`` and added lifecycle hooks to the serving
loops.  With the default FCFS discipline all of that must be inert:
these tests pin bit-identical behaviour (exact float equality, byte-
identical obs traces) against a node running the verbatim pre-refactor
admission body.
"""

import types

from repro.cluster import EdgeCluster, FleetSpec, NodeSpec
from repro.cluster.workload import multi_tenant_workload, poisson_workload
from repro.obs import Observer, chrome_trace_json


def _legacy_admit(self):
    """The pre-scheduler ``ClusterNode._admit`` body, verbatim."""
    admitted = []
    limit = self.kv_policy.effective_budget(self.kv_budget)
    while self.queue and len(self.active) < self.max_batch:
        need = self._kv_need(self.queue[0])
        if (self.kv_in_use + need > limit and self.radix is not None):
            self.radix.reclaim(self.kv_in_use + need - limit,
                               self.env.now)
        if self.kv_in_use + need > limit:
            break
        r = self.queue.pop(0)
        self.active.append(r)
        admitted.append(r)
        if self.obs.enabled:
            self._obs_admitted(r)
    return admitted


FLEET = (NodeSpec("jetson-orin-agx-64gb", max_batch=2),
         NodeSpec("jetson-xavier-agx-32gb", max_batch=2))


def _build(legacy: bool, observer=None, nodes=FLEET):
    cluster = EdgeCluster.of(FleetSpec.of(list(nodes), policy="jsq"),
                             observer=observer)
    if legacy:
        for n in cluster.nodes:
            n._admit = types.MethodType(_legacy_admit, n)
    return cluster


def _workload():
    return multi_tenant_workload(4.0, 40, seed=11)


class TestClusterParity:
    def test_fcfs_is_bit_identical_to_legacy_admission(self):
        """Exact float equality on every per-request timestamp."""
        new = _build(legacy=False)
        old = _build(legacy=True)
        rep_new = new.run(_workload())
        rep_old = old.run(_workload())
        assert len(new.last_requests) == len(old.last_requests)
        for a, b in zip(new.last_requests, old.last_requests):
            assert a.req_id == b.req_id
            assert a.node_id == b.node_id
            assert a.first_token_s == b.first_token_s  # exact, no approx
            assert a.finish_s == b.finish_s
            assert a.energy_j == b.energy_j
        assert rep_new.as_row() == rep_old.as_row()

    def test_fcfs_obs_trace_is_byte_identical_to_legacy(self):
        """No new spans/instants/counters may appear on FCFS paths."""
        obs_new, obs_old = Observer(), Observer()
        _build(legacy=False, observer=obs_new).run(_workload())
        _build(legacy=True, observer=obs_old).run(_workload())
        assert chrome_trace_json(obs_new) == chrome_trace_json(obs_old)

    def test_single_node_is_bit_identical_to_legacy_admission(self):
        """The 1-node fleet that serves the continuous-batching row."""
        node = (NodeSpec("jetson-orin-agx-64gb", max_batch=4),)
        new = _build(legacy=False, nodes=node)
        old = _build(legacy=True, nodes=node)
        rep_new = new.run(poisson_workload(4.0, 24, seed=3))
        rep_old = old.run(poisson_workload(4.0, 24, seed=3))
        for a, b in zip(new.last_requests, old.last_requests, strict=True):
            assert a.first_token_s == b.first_token_s  # exact, no approx
            assert a.finish_s == b.finish_s
        assert rep_new.as_row() == rep_old.as_row()

    def test_scheduler_column_reports_the_discipline(self):
        cluster = _build(legacy=False)
        rep = cluster.run(_workload())
        assert rep.scheduler == "fcfs"
        assert rep.as_row()["scheduler"] == "fcfs"
