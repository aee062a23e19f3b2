"""Trajectory-cache misses of one cold study: counts, replay time, digest.

    PYTHONPATH=src python3 tools/miss_replay.py [MODEL ...]

Clears the process-wide trajectory cache, runs ``run_full_study`` over
the given models (default: the paper's four; ``n_runs=1``, no result
cache) and wraps ``TRAJECTORY_CACHE.delta_for`` for the run.  It prints
hits, misses and follow-on entries, the seconds spent replaying misses
per stream regime, and one sha256 over every delta the study applied,
in order.  Regimes: ``eager`` (an eager score buffer), ``small`` (KV
tensors stay in the small pool), ``mixed`` (they start small and end
large) and ``large``.

The digest depends only on the answers, not on how fast they came, so
two source trees whose replays agree print the same one.
"""

from __future__ import annotations

import argparse
import hashlib
import time
from typing import Dict, Sequence

from repro import StudySpec, run_full_study
from repro.memsys.allocator import ROUND_SMALL, SMALL_LARGE_THRESHOLD, \
    _round_up
from repro.memsys.fastpath import TRAJECTORY_CACHE, StreamSpec
from repro.models.zoo import PAPER_MODELS

REGIMES = ("eager", "small", "mixed", "large")


def regime(stream: StreamSpec) -> str:
    """Which of :data:`REGIMES` a stream's replay falls in."""
    if stream.eager_step_bytes:
        return "eager"
    first = stream.kv_prefill_bytes
    last = stream.kv_step_bytes[-1] if stream.kv_step_bytes else first
    first_large, last_large = (_round_up(n, ROUND_SMALL)
                               >= SMALL_LARGE_THRESHOLD
                               for n in (first, last))
    if first_large:
        return "large"
    return "mixed" if last_large else "small"


def watch(models: Sequence[str]) -> Dict[str, object]:
    """Run one cold study over ``models``; returns what :func:`main`
    prints."""
    cache = TRAJECTORY_CACHE
    cache.clear()
    seconds = dict.fromkeys(REGIMES, 0.0)
    digest = hashlib.sha256()
    replay = cache.delta_for

    def delta_for(allocator, stream):
        misses = cache.misses
        t0 = time.perf_counter()
        delta = replay(allocator, stream)
        if cache.misses > misses:
            seconds[regime(stream)] += time.perf_counter() - t0
        digest.update(repr(delta).encode())
        return delta

    cache.delta_for = delta_for  # shadows the method for this run only
    try:
        run_full_study(StudySpec.of(models, n_runs=1), cache=None)
    finally:
        del cache.delta_for
    return {"hits": cache.hits, "misses": cache.misses,
            # Trees from before follow-on entries record none.
            "follow_ons": getattr(cache, "follow_ons", 0),
            "entries": len(cache), "seconds": seconds,
            "digest": digest.hexdigest()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("models", nargs="*", default=list(PAPER_MODELS),
                        help="paper models to study (default: all four)")
    out = watch(parser.parse_args(argv).models)
    seconds = out["seconds"]
    print(f"hits {out['hits']}  misses {out['misses']}  "
          f"follow-on entries {out['follow_ons']}  entries {out['entries']}")
    print("replay s: " + "  ".join(f"{k} {v:.2f}" for k, v in seconds.items())
          + f"  total {sum(seconds.values()):.2f}")
    print(f"applied-delta digest {out['digest']}")


if __name__ == "__main__":
    main()
