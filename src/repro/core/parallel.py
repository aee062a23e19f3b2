"""Process-pool fan-out over independent experiment specs.

Every :class:`~repro.core.experiment.ExperimentSpec` is a closed world —
its own simulated device, allocator, and event loop — so a sweep is an
embarrassingly parallel map.  :func:`run_specs` executes one, either
serially or across a :class:`~concurrent.futures.ProcessPoolExecutor`,
with four guarantees:

- **Each distinct spec runs once**: the paper's sweeps share cells
  (every sweep passes through the default bs-32/sl-96/MAXN point), so
  duplicates are dropped before dispatch and their slots share the one
  result.
- **Deterministic ordering**: results come back in spec order
  regardless of worker scheduling (futures are slotted back into the
  position their chunk was submitted from).
- **Determinism per worker**: workers re-seed the stdlib and numpy
  global RNGs on startup; the simulator itself never consumes global
  RNG state (every stochastic component derives its stream from
  explicit seeds), so serial and parallel runs are bit-identical —
  asserted by ``tests/engine/test_fast_forward.py``.
- **Shared cache**: when a :class:`~repro.core.cache.ResultCache` is
  given, workers consult and fill the same on-disk store (atomic
  writes; with duplicates dropped, no two workers of one call look up
  the same key).

Fan-out overhead is kept off the per-spec path: the shared immutables
(cost params, cache config, fast-forward flag) ship **once** through the
pool initializer instead of riding inside every task payload, specs are
dispatched in contiguous chunks so each task amortizes the pickle and
scheduling cost over several specs, and the pool itself persists across
calls (``run_full_study`` runs many sweep phases back to back — paying
worker startup once instead of per phase).
"""

from __future__ import annotations

import atexit
import os
import pickle
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import List, Optional, Sequence

from repro.core.experiment import ExperimentSpec
from repro.engine.kernels import EngineCostParams
from repro.engine.runtime import RunResult

#: Worker-process context installed by :func:`_worker_init` — the shared
#: immutables every chunk needs, shipped once per worker instead of once
#: per task.
_ctx: dict = {}


def _worker_init(params, cache_root, cache_version,
                 fast_forward) -> None:  # pragma: no cover - child process
    """Pin child RNG state and install the shared per-worker context."""
    import random

    random.seed(0)
    try:
        import numpy as np

        np.random.seed(0)
    except ImportError:
        pass
    _ctx["params"] = params
    _ctx["cache_root"] = cache_root
    _ctx["cache_version"] = cache_version
    _ctx["fast_forward"] = fast_forward


def _run_chunk(specs):
    """Module-level worker target (must be picklable).

    Runs a contiguous chunk of specs against a fresh cache handle and
    returns ``(results, stats)``: the chunk's
    :class:`~repro.core.cache.CacheStats` (``None`` when no cache is
    configured), ready for :meth:`CacheStats.merge` in the parent.
    """
    from repro.core.cache import ResultCache
    from repro.core.experiment import run_experiment

    root = _ctx.get("cache_root")
    cache = (ResultCache(root, version=_ctx["cache_version"])
             if root is not None else None)
    results = [run_experiment(s, params=_ctx.get("params"), cache=cache,
                              fast_forward=_ctx.get("fast_forward", True))
               for s in specs]
    return results, cache.stats if cache is not None else None


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: None/0/1 -> serial, -1 -> all cores."""
    if jobs is None or jobs == 0:
        return 1
    if jobs < 0:
        return max(1, os.cpu_count() or 1)
    return jobs


def chunk_specs(n_specs: int, n_jobs: int) -> List[slice]:
    """Contiguous, balanced slices assigning ``n_specs`` to pool tasks.

    The heuristic trades dispatch overhead against load balance: large
    sweeps get ~4 chunks per worker (stragglers rebalance), small ones
    fewer, and a sweep no bigger than the pool gets one spec per task.
    Chunk sizes differ by at most one, and concatenating the slices in
    order reproduces ``range(n_specs)`` exactly (spec order survives).
    """
    if n_specs <= 0:
        return []
    if n_specs >= n_jobs * 8:
        chunks_per_worker = 4
    elif n_specs >= n_jobs * 3:
        chunks_per_worker = 2
    else:
        chunks_per_worker = 1
    n_tasks = min(n_specs, n_jobs * chunks_per_worker)
    base, extra = divmod(n_specs, n_tasks)
    slices, start = [], 0
    for i in range(n_tasks):
        size = base + (1 if i < extra else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices


#: Persistent pool reused across run_specs calls (a full study is many
#: sweep phases; worker startup + initializer cost is paid once).  Keyed
#: by the worker configuration — a call with different shared immutables
#: tears it down and builds a fresh one.
_pool: Optional[ProcessPoolExecutor] = None
_pool_key: Optional[tuple] = None


def _get_pool(max_workers, initargs) -> ProcessPoolExecutor:
    global _pool, _pool_key
    # Pickle equality is the honest comparison for initargs: it is
    # exactly what the initializer would receive in the child.
    key = (max_workers, pickle.dumps(initargs))
    if _pool is not None and _pool_key == key:
        return _pool
    shutdown_pool()
    _pool = ProcessPoolExecutor(max_workers=max_workers,
                                initializer=_worker_init,
                                initargs=initargs)
    _pool_key = key
    return _pool


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (no-op when none is live)."""
    global _pool, _pool_key
    if _pool is not None:
        _pool.shutdown(wait=True)
    _pool = None
    _pool_key = None


atexit.register(shutdown_pool)


def run_specs(
    specs: Sequence[ExperimentSpec],
    params: Optional[EngineCostParams] = None,
    jobs: Optional[int] = None,
    cache=None,
    fast_forward: bool = True,
    observer=None,
) -> List[RunResult]:
    """Run every distinct spec once; returns one result per spec, in
    spec order.

    Equal specs (``ExperimentSpec`` is frozen, and its equality covers
    every field the cache key hashes) run once, in first-occurrence
    order, and their slots share that one :class:`RunResult`.

    ``jobs <= 1`` runs serially in-process (and still uses ``cache``).
    ``jobs > 1`` fans out over a persistent process pool; ``jobs = -1``
    uses every core.  Serial and parallel runs return identical results
    in identical order.

    An enabled ``observer`` forces the serial path: span records live in
    the parent process and cannot be collected across a pool boundary.
    """
    from repro.core.experiment import run_experiment

    distinct = list(dict.fromkeys(specs))
    observing = observer is not None and observer.enabled
    n_jobs = 1 if observing else resolve_jobs(jobs)
    if n_jobs <= 1 or len(distinct) <= 1:
        results = [run_experiment(s, params=params, cache=cache,
                                  fast_forward=fast_forward,
                                  observer=observer)
                   for s in distinct]
    else:
        results = _run_on_pool(distinct, params, n_jobs, cache,
                               fast_forward)
    by_spec = dict(zip(distinct, results))
    return [by_spec[s] for s in specs]


def _run_on_pool(specs, params, n_jobs, cache, fast_forward):
    """Fan ``specs`` out over the persistent pool; results in spec order."""
    cache_root = str(cache.root) if cache is not None else None
    cache_version = cache.version if cache is not None else None
    initargs = (params, cache_root, cache_version, fast_forward)
    max_workers = min(n_jobs, len(specs))
    slices = chunk_specs(len(specs), max_workers)
    pool = _get_pool(max_workers, initargs)

    futures = {pool.submit(_run_chunk, specs[sl]): i
               for i, sl in enumerate(slices)}
    chunk_results: List[Optional[list]] = [None] * len(slices)
    pending = set(futures)
    while pending:
        # Stream results back as chunks land (rather than map()'s
        # in-order drain) so parent-side stats fold overlaps the tail
        # of the computation; ordering is restored via the slot array.
        done, pending = wait(pending, return_when=FIRST_COMPLETED)
        for fut in done:
            results, stats = fut.result()
            chunk_results[futures[fut]] = results
            if stats is not None:
                cache.stats.merge(stats)
    return [r for chunk in chunk_results for r in chunk]
