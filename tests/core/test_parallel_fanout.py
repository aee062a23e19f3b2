"""Dispatch mechanics of the process fan-out in repro.core.parallel.

Result identity between serial and parallel runs is asserted in
``tests/engine/test_fast_forward.py``; here we pin the machinery those
results ride on: the chunking heuristic, one run per distinct spec,
worker-side cache-stats folding through ``CacheStats.merge``, and pool
persistence across ``run_specs`` calls.
"""

from __future__ import annotations

import pytest

import repro.core.experiment as experiment
import repro.core.parallel as parallel
from repro.core.cache import ResultCache
from repro.core.experiment import ExperimentSpec
from repro.core.parallel import (
    chunk_specs,
    resolve_jobs,
    run_specs,
    shutdown_pool,
)


@pytest.fixture(autouse=True)
def _fresh_pool():
    shutdown_pool()
    yield
    shutdown_pool()


def test_chunk_specs_covers_in_order_and_balanced():
    for n, jobs in [(0, 4), (1, 4), (3, 8), (6, 4), (13, 4), (64, 4),
                    (97, 16), (5, 1)]:
        slices = chunk_specs(n, jobs)
        covered = [i for sl in slices for i in range(n)[sl]]
        assert covered == list(range(n)), (n, jobs)
        sizes = [sl.stop - sl.start for sl in slices]
        assert all(s >= 1 for s in sizes)
        if sizes:
            assert max(sizes) - min(sizes) <= 1, "chunks must be balanced"


def test_chunk_specs_heuristic_tiers():
    # Large sweep: ~4 chunks per worker so stragglers rebalance.
    assert len(chunk_specs(64, 4)) == 16
    # Mid-size sweep: 2 per worker.
    assert len(chunk_specs(13, 4)) == 8
    # Small sweep: one task per worker.
    assert len(chunk_specs(6, 4)) == 4
    # Fewer specs than workers: one spec per task.
    assert len(chunk_specs(3, 8)) == 3
    assert chunk_specs(0, 4) == []


def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(0) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(-1) >= 1


SPECS = [
    ExperimentSpec(model="MS-Phi2", batch_size=2, n_runs=1),
    ExperimentSpec(model="MS-Phi2", batch_size=4, n_runs=1),
    ExperimentSpec(model="MS-Phi2", power_mode="H", batch_size=2, n_runs=1),
]


def test_parallel_folds_worker_cache_stats(tmp_path):
    cache = ResultCache(tmp_path, version="test")
    cold = run_specs(SPECS, jobs=2, cache=cache)
    assert len(cold) == len(SPECS)
    # Every spec was cold: workers missed, computed, and stored; the
    # parent sees the folded counters even though lookups happened in
    # child processes.
    assert cache.stats.misses == len(SPECS)
    assert cache.stats.puts == len(SPECS)
    assert cache.stats.hits == 0

    warm = run_specs(SPECS, jobs=2, cache=cache)
    assert cache.stats.hits == len(SPECS)
    for a, b in zip(cold, warm):
        assert a.as_row() == b.as_row()


#: SPECS with every spec repeated out of order: 7 slots, 3 distinct.
DUPLICATED = [SPECS[0], SPECS[1], SPECS[0], SPECS[2], SPECS[1], SPECS[0],
              SPECS[2]]


def _assert_slots_share_results(out):
    assert [(r.batch_size, r.power_mode) for r in out] == \
        [(s.batch_size, s.power_mode) for s in DUPLICATED]
    first = {}
    for spec, result in zip(DUPLICATED, out):
        assert first.setdefault(spec, result) is result


@pytest.mark.parametrize("jobs", [1, 2])
def test_duplicate_specs_run_once(tmp_path, monkeypatch, jobs):
    calls = []
    simulate = experiment._simulate_spec
    monkeypatch.setattr(experiment, "_simulate_spec",
                        lambda spec, *a: calls.append(spec)
                        or simulate(spec, *a))
    cache = ResultCache(tmp_path, version="test")
    out = run_specs(DUPLICATED, jobs=jobs, cache=cache)
    _assert_slots_share_results(out)
    assert (cache.stats.misses, cache.stats.puts, cache.stats.hits) == \
        (len(SPECS), len(SPECS), 0)
    if jobs == 1:
        # Pool workers record their calls in their own copies of calls.
        assert calls == SPECS


def test_pool_persists_across_calls_and_rebuilds_on_config_change(tmp_path):
    run_specs(SPECS, jobs=2)
    first = parallel._pool
    assert first is not None
    run_specs(SPECS[::-1], jobs=2)
    assert parallel._pool is first, "same config must reuse the pool"

    # A different worker configuration (cache root appears in initargs)
    # must tear down and rebuild.
    cache = ResultCache(tmp_path, version="test")
    run_specs(SPECS, jobs=2, cache=cache)
    assert parallel._pool is not first

    shutdown_pool()
    assert parallel._pool is None


def test_serial_path_skips_pool():
    out = run_specs(SPECS[:2], jobs=1)
    assert len(out) == 2
    assert parallel._pool is None
