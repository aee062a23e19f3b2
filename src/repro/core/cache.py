"""Content-addressed on-disk cache for experiment results.

The study harness replays the same ~290 configurations every time any
bench or CLI invocation asks for them.  The simulator is deterministic:
a :class:`~repro.core.experiment.ExperimentSpec` plus the cost-model
constants fully determine the :class:`~repro.engine.runtime.RunResult`.
This module exploits that by addressing results with a SHA-256 digest of

- every field of the spec (model, precision, device, batch, generation
  split, power mode, workload, run protocol, KV mode, runtime),
- every calibration constant in the effective
  :class:`~repro.engine.kernels.EngineCostParams` (including the quant
  kernel model),
- the selected runtime backend's configuration payload plus
  :data:`~repro.backends.registry.BACKEND_MODEL_VERSION`, and
- :data:`COST_MODEL_VERSION`, a manually-bumped tag for semantic changes
  that the constants alone cannot see.

Invalidation is therefore automatic: change a calibration constant, pass
different params, or bump the version tag, and every affected key
misses.  There is deliberately no TTL — entries are immutable facts
about one (spec, model-version) point.

A cache is used only where one is passed: ``cache=None`` never
touches the disk.  ``REPRO_CACHE_DIR`` only names the directory a cache
built without an explicit root lives in (the CLI's ``--cache``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional

from repro.backends.registry import BACKEND_MODEL_VERSION
from repro.engine.kernels import EngineCostParams
from repro.engine.runtime import RunResult

#: Bump when the *semantics* of the cost/power/memory model change in a
#: way the calibration constants do not capture (e.g. a new roofline
#: term).  Every bump invalidates all previously cached results.
COST_MODEL_VERSION = "2026.08-runtime-axis-1"

#: Environment variable naming the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The cache root used when none is given explicitly."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-edge-llm"


def _canonical_params(params: EngineCostParams) -> dict:
    """EngineCostParams -> JSON-serialisable dict with stable keys."""
    d = dataclasses.asdict(params)
    quant = d.get("quant") or {}
    gpu_util = quant.get("gpu_util") or {}
    # Precision-enum keys -> their string values, sorted by json.dumps.
    quant["gpu_util"] = {getattr(k, "value", str(k)): v
                         for k, v in gpu_util.items()}
    d["quant"] = quant
    return d


def spec_fingerprint(spec, params: EngineCostParams,
                     version: str = COST_MODEL_VERSION) -> str:
    """SHA-256 content address of one (spec, constants, version) point."""
    from repro.core.experiment import backend_for_spec
    from repro.kvtier.policy import KV_TIER_VERSION

    payload = {
        "spec": {
            "model": spec.model,
            "precision": spec.precision.value,
            "device": spec.device,
            "batch_size": spec.batch_size,
            "input_tokens": spec.gen.input_tokens,
            "output_tokens": spec.gen.output_tokens,
            "power_mode": spec.power_mode,
            "workload": spec.workload,
            "n_runs": spec.n_runs,
            "warmup": spec.warmup,
            "kv_mode": spec.kv_mode,
            "runtime": spec.runtime,
        },
        "params": _canonical_params(params),
        "backend": backend_for_spec(spec).config_payload(),
        "backend_model_version": BACKEND_MODEL_VERSION,
        "cost_model_version": version,
        # KV lifecycle semantics (preemption, swap, prefix sharing) sit
        # under every serving result; bumping kvtier invalidates too.
        "kv_tier_version": KV_TIER_VERSION,
    }
    return payload_fingerprint(payload)


def payload_fingerprint(payload: dict) -> str:
    """SHA-256 of a canonical-JSON payload (shared key machinery).

    Everything content-addressed in this codebase — experiment results
    here, fault schedules in :mod:`repro.faults.schedule` — funnels
    through this one canonicalisation (sorted keys, no whitespace,
    ``str()`` for non-JSON leaves) so keys are comparable and collision
    semantics are uniform.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Fold another cache's counters into this one (in place).

        Each worker chunk of :func:`~repro.core.parallel.run_specs` runs
        against a fresh cache handle and ships its stats back to be
        folded here; ``hit_rate``/``lookups`` stay consistent because
        they derive from the folded counters.
        """
        self.hits += other.hits
        self.misses += other.misses
        self.puts += other.puts
        return self

    def as_row(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "puts": self.puts,
                "hit_rate": round(self.hit_rate, 3)}


class ResultCache:
    """Content-addressed store of :class:`RunResult` pickles.

    Layout: ``<root>/<aa>/<sha256>.pkl`` (two-level fan-out keeps
    directories small for study-scale grids).  Writes are atomic
    (temp file + rename), so concurrent workers — the parallel study
    fan-out — can share one cache directory without locking: the worst
    case is two workers computing the same entry and one rename winning.
    """

    def __init__(self, root: Optional[Path | str] = None,
                 version: str = COST_MODEL_VERSION):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.version = version
        self.stats = CacheStats()

    # -- keys --------------------------------------------------------------
    def key_for(self, spec, params: EngineCostParams) -> str:
        return spec_fingerprint(spec, params, self.version)

    def _path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # -- access ------------------------------------------------------------
    def get(self, spec, params: EngineCostParams) -> Optional[RunResult]:
        """Cached result for (spec, params); None when missing, torn, or
        incompatible."""
        try:
            with open(self._path_for(self.key_for(spec, params)), "rb") as fh:
                result = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def _store(self, path: Path, result: RunResult) -> None:
        """Atomic write (temp file + rename; last writer wins)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.puts += 1

    def put(self, spec, params: EngineCostParams, result: RunResult) -> None:
        """Store one result (atomic; last writer wins)."""
        self._store(self._path_for(self.key_for(spec, params)), result)

    # -- maintenance -------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl")) if self.root.exists() else 0

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        n = 0
        if self.root.exists():
            for p in self.root.glob("*/*.pkl"):
                try:
                    p.unlink()
                    n += 1
                except OSError:
                    pass
        return n

