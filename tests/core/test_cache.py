"""Content-addressed result cache: keys, roundtrips, invalidation."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest

from repro.calibration.constants import CALIBRATED_COST_PARAMS
from repro.core.cache import (
    COST_MODEL_VERSION,
    CACHE_DIR_ENV,
    CacheStats,
    ResultCache,
    spec_fingerprint,
)
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.quant.dtypes import Precision

SPEC = ExperimentSpec(model="MS-Phi2", batch_size=2, n_runs=1)
PARAMS = CALIBRATED_COST_PARAMS

#: ``spec_fingerprint(SPEC, PARAMS)``, pinned: a refactor of the spec or
#: the key payload must not move an existing key.
SPEC_KEY = "4f3f560c2e536f96135c59e95d39b7e2f484c8e504c4f6200cebdfaac29fed94"


def test_fingerprint_is_pinned():
    assert spec_fingerprint(SPEC, PARAMS) == SPEC_KEY


def test_fingerprint_is_stable_and_spec_sensitive():
    a = spec_fingerprint(SPEC, PARAMS)
    assert a == spec_fingerprint(SPEC, PARAMS)
    assert len(a) == 64 and int(a, 16) >= 0
    # Every spec field participates in the key.
    variants = [
        ExperimentSpec(model="Llama3", batch_size=2, n_runs=1),
        ExperimentSpec(model="MS-Phi2", batch_size=4, n_runs=1),
        ExperimentSpec(model="MS-Phi2", batch_size=2, n_runs=2),
        ExperimentSpec(model="MS-Phi2", batch_size=2, n_runs=1,
                       precision=Precision.INT8),
        ExperimentSpec(model="MS-Phi2", batch_size=2, n_runs=1,
                       power_mode="H"),
        ExperimentSpec(model="MS-Phi2", batch_size=2, n_runs=1,
                       workload="longbench"),
        ExperimentSpec(model="MS-Phi2", batch_size=2, n_runs=1,
                       kv_mode="static"),
    ]
    keys = {spec_fingerprint(s, PARAMS) for s in variants}
    assert len(keys) == len(variants) and a not in keys


def test_fingerprint_invalidates_on_params_and_version():
    base = spec_fingerprint(SPEC, PARAMS)
    assert spec_fingerprint(SPEC, PARAMS.with_(bw_scale=0.9)) != base
    assert spec_fingerprint(SPEC, PARAMS, version="other") != base


def test_roundtrip_and_stats(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(SPEC, PARAMS) is None
    assert cache.stats.misses == 1 and cache.stats.hits == 0

    result = run_experiment(SPEC)
    cache.put(SPEC, PARAMS, result)
    assert len(cache) == 1 and cache.stats.puts == 1

    got = cache.get(SPEC, PARAMS)
    assert got is not None and cache.stats.hits == 1
    assert got.as_row() == result.as_row()
    assert got.mean_latency_s == result.mean_latency_s
    assert got.energy_j == result.energy_j
    assert cache.stats.hit_rate == pytest.approx(0.5)


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, PARAMS, run_experiment(SPEC))
    path = cache._path_for(cache.key_for(SPEC, PARAMS))
    path.write_bytes(b"not a pickle")
    assert cache.get(SPEC, PARAMS) is None


def test_clear_removes_entries(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, PARAMS, run_experiment(SPEC))
    assert cache.clear() == 1
    assert len(cache) == 0


def test_run_experiment_uses_and_fills_cache(tmp_path):
    cache = ResultCache(tmp_path)
    first = run_experiment(SPEC, cache=cache)
    assert cache.stats.misses == 1 and cache.stats.puts == 1
    second = run_experiment(SPEC, cache=cache)
    assert cache.stats.hits == 1
    assert second.as_row() == first.as_row()
    assert second.workload == SPEC.workload


def test_different_params_never_hit_stale_entries(tmp_path):
    cache = ResultCache(tmp_path)
    run_experiment(SPEC, cache=cache)
    other = PARAMS.with_(host_step_s=PARAMS.host_step_s * 2)
    res = run_experiment(SPEC, params=other, cache=cache)
    assert cache.stats.hits == 0 and cache.stats.misses == 2
    baseline = run_experiment(SPEC)
    assert res.mean_latency_s > baseline.mean_latency_s

    # A version bump orphans every existing entry too.
    stale = ResultCache(tmp_path, version=COST_MODEL_VERSION + ".bump")
    assert stale.get(SPEC, PARAMS) is None


def test_no_cache_means_no_disk_even_with_the_env_var(tmp_path):
    # REPRO_CACHE_DIR names a directory; it does not switch caching on.
    # A fresh interpreter, so no earlier test's process state can hide a
    # cache that the variable alone turned on.
    root = tmp_path / "envcache"
    planted = run_experiment(SPEC)
    planted.mean_latency_s = -1.0
    ResultCache(root).put(SPEC, PARAMS, planted)
    def entries():
        return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}

    before = entries()
    env = dict(os.environ, **{CACHE_DIR_ENV: str(root)},
               PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.core.experiment import ExperimentSpec, run_experiment\n"
         "spec = ExperimentSpec(model='MS-Phi2', batch_size=2, n_runs=1)\n"
         "print(run_experiment(spec, cache=None).mean_latency_s)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert float(out) > 0, "cache=None read the planted entry"
    assert entries() == before, "cache=None wrote an entry"


def test_cache_stats_merge():
    a = CacheStats(hits=2, misses=3, puts=1)
    total = CacheStats().merge(a).merge(CacheStats(hits=5))
    assert (total.hits, total.misses, total.puts) == (7, 3, 1)
    assert (a.hits, a.misses, a.puts) == (2, 3, 1)
    assert total.lookups == 10 and total.hit_rate == 0.7
    assert total.as_row() == {"hits": 7, "misses": 3, "puts": 1,
                              "hit_rate": 0.7}


def test_cached_result_pickles_standalone(tmp_path):
    # Workers exchange RunResults across process boundaries.
    result = run_experiment(SPEC)
    clone = pickle.loads(pickle.dumps(result))
    assert clone.as_row() == result.as_row()
