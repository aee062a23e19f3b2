"""Layer-split tracing of the simulator's own host cost.

The tracer wraps public entry points of ``repro`` from outside the
package: no file under ``src/`` knows it exists.  Every wrapped call
opens a span on one stack; when it returns, its duration minus the time
its child spans covered is booked as the layer's *self* time, and the
layer's call count goes up by one.  Spans are folded into per-layer
totals as they close, so a run keeps only a few counters in memory and
reports them when it ends.

Layers are module names.  Process resumptions of the DES are timed by
proxying each process generator's ``send``/``throw``, and the process
name picks the layer (``node-*`` is the serve loop, ``power-sampler``
the telemetry sampler, admission/requeue/staging processes the
admission layer).
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Every layer the traced run reports, in report order.
LAYERS = (
    "sim",
    "cluster.node",
    "cluster.admit",
    "cluster.router",
    "cluster.slo",
    "fairness.scheduler",
    "engine.kernels",
    "power",
    "telemetry",
    "kvtier",
    "obs",
    "engine.executor",
    "memsys",
    "perplexity",
)

_ADMIT_PROCESSES = ("injector", "admit-", "requeue-", "stage-",
                    "escalate-", "kv-transfer-")


def process_layer(name: str) -> Optional[str]:
    """The layer a DES process's resumptions are booked to (None: its
    time stays with whatever resumed it)."""
    if name.startswith("node-"):
        return "cluster.node"
    if name == "power-sampler":
        return "telemetry"
    if name.startswith(_ADMIT_PROCESSES):
        return "cluster.admit"
    return None


class _TimedGenerator:
    """A generator proxy: each ``send``/``throw`` is one span."""

    __slots__ = ("_gen", "_layer", "_tracer")

    def __init__(self, gen, layer: str, tracer: "Tracer"):
        self._gen = gen
        self._layer = layer
        self._tracer = tracer

    def send(self, value):
        tracer = self._tracer
        tracer.enter(self._layer)
        try:
            return self._gen.send(value)
        finally:
            tracer.leave()

    def throw(self, *exc):
        tracer = self._tracer
        tracer.enter(self._layer)
        try:
            return self._gen.throw(*exc)
        finally:
            tracer.leave()

    def close(self):
        return self._gen.close()

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)


class Tracer:
    """Per-layer call counts and self times over one traced region."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Wall seconds of spans tagged with an extra key (e.g. export).
        self.tagged_s: Dict[str, float] = defaultdict(float)
        #: Open spans: [layer, start, seconds covered by children].
        self._stack: List[list] = []
        self._undo: List[Callable[[], None]] = []
        #: Step timers seen (their memo counters give the hit rate).
        self.timers: Dict[int, object] = {}
        #: Engine-state updates to the decode phase (one per decode step).
        self.decode_steps = 0

    def reset(self) -> None:
        """Forget what was counted so far; the patches stay."""
        self.calls.clear()
        self.self_s.clear()
        self.tagged_s.clear()
        self.timers.clear()
        self.decode_steps = 0

    # -- spans -------------------------------------------------------------
    def enter(self, layer: str) -> None:
        self._stack.append([layer, perf_counter(), 0.0])

    def leave(self, tag: Optional[str] = None) -> None:
        layer, start, child = self._stack.pop()
        dur = perf_counter() - start
        self.calls[layer] += 1
        self.self_s[layer] += dur - child
        if tag is not None:
            self.tagged_s[tag] += dur
        if self._stack:
            self._stack[-1][2] += dur

    # -- wrapping ----------------------------------------------------------
    def timed(self, fn: Callable, layer: str,
              tag: Optional[str] = None) -> Callable:
        """``fn`` wrapped in one span per call."""
        enter, leave = self.enter, self.leave

        def wrapper(*args, **kwargs):
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(tag)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, name: str, layer: str,
              tag: Optional[str] = None) -> None:
        """Replace ``owner.name`` (class, module or instance attribute)
        with a timed wrapper; :meth:`uninstall` restores it."""
        had_own = name in vars(owner)
        original = getattr(owner, name)
        setattr(owner, name, self.timed(original, layer, tag))
        if had_own:
            self._undo.append(lambda: setattr(owner, name, original))
        else:
            self._undo.append(lambda: delattr(owner, name))

    def patch_all(self, owner, names, layer: str) -> None:
        for name in names:
            self.patch(owner, name, layer)

    def uninstall(self) -> None:
        """Undo every patch, most recent first."""
        while self._undo:
            self._undo.pop()()

    # -- the program's layers ------------------------------------------------
    def install(self) -> None:
        """Wrap the layers shared by every workload (class/module level)."""
        import repro.cluster.cluster as cluster_mod
        import repro.core.study as study_mod
        import repro.engine.executor as executor_mod
        import repro.obs.export as export_mod
        from repro.engine.executor import BatchExecutor
        from repro.engine.kernels import StepTimer
        from repro.engine.state import EngineState
        from repro.hardware.thermal import ThermalModel
        from repro.memsys.allocator import CachingAllocator
        from repro.memsys.fastpath import TrajectoryCache
        from repro.memsys.kvcache import KVCache
        from repro.power.model import PowerModel
        from repro.sim.environment import Environment

        tracer = self
        enter, leave = self.enter, self.leave

        step = Environment.step

        def traced_step(env):
            enter("sim")
            try:
                step(env)
            finally:
                leave()

        process = Environment.process

        def traced_process(env, generator, name=""):
            layer = process_layer(name)
            if layer is not None:
                generator = _TimedGenerator(generator, layer, tracer)
            return process(env, generator, name)

        run = BatchExecutor.run

        def traced_executor_run(executor, *args, **kwargs):
            return _TimedGenerator(run(executor, *args, **kwargs),
                                   "engine.executor", tracer)

        for cls, name, fn in ((Environment, "step", traced_step),
                              (Environment, "process", traced_process),
                              (BatchExecutor, "run", traced_executor_run)):
            original = vars(cls)[name]
            setattr(cls, name, fn)
            self._undo.append(
                lambda cls=cls, name=name, original=original:
                setattr(cls, name, original))

        timers = self.timers
        for name in ("prefill", "decode_step", "decode_run"):
            original = vars(StepTimer)[name]
            wrapped = self.timed(original, "engine.kernels")

            def seen(timer, *args, _wrapped=wrapped, **kwargs):
                timers[id(timer)] = timer
                return _wrapped(timer, *args, **kwargs)

            setattr(StepTimer, name, seen)
            self._undo.append(
                lambda name=name, original=original:
                setattr(StepTimer, name, original))

        self.patch(PowerModel, "power_w", "power")
        self.patch(ThermalModel, "advance", "power")
        self.patch(EngineState, "set_idle", "power")
        state_set = self.timed(vars(EngineState)["set"], "power")

        def traced_set(state, phase, util):
            if phase == "decode":
                tracer.decode_steps += 1
            state_set(state, phase, util)

        EngineState.set = traced_set
        self._undo.append(lambda: setattr(EngineState, "set",
                                          state_set.__wrapped__))
        self.patch_all(CachingAllocator, ("alloc", "free", "realloc_grow"),
                       "memsys")
        self.patch(TrajectoryCache, "delta_for", "memsys")
        self.patch_all(KVCache, ("prefill", "append_token", "release"),
                       "memsys")
        self.patch(executor_mod, "apply_delta", "memsys")
        self.patch(study_mod, "perplexity_table", "perplexity")
        self.patch(cluster_mod, "build_report", "cluster.slo")
        self.patch(export_mod, "chrome_trace_json", "obs", tag="obs.export")
        self.patch(export_mod, "prometheus_text", "obs", tag="obs.export")

    def attach_cluster(self, cluster) -> None:
        """Wrap one fleet's per-instance collaborators."""
        self.patch(cluster.router, "choose", "cluster.router")
        for node in cluster.nodes:
            self.patch_all(node.scheduler,
                           ("select_next", "on_arrival", "on_dequeue",
                            "on_tokens_served", "on_flush"),
                           "fairness.scheduler")
            if node.swap is not None:
                self.patch_all(node.swap,
                               ("can_hold", "holds", "swap_out", "swap_in",
                                "drop"), "kvtier")
            if node.radix is not None:
                self.patch_all(node.radix,
                               ("match", "peek", "insert", "release",
                                "holds", "reclaim"), "kvtier")
        obs = cluster.obs
        if obs.enabled:
            self.patch_all(obs, ("bind", "set_group", "begin", "end",
                                 "complete", "instant", "counter",
                                 "open_start", "finish_open"), "obs")
            self.patch_all(obs.metrics, ("counter", "gauge", "histogram"),
                           "obs")

    def memo_hit_rate(self) -> float:
        hits = sum(t.memo_hits for t in self.timers.values())
        misses = sum(t.memo_misses for t in self.timers.values())
        return hits / (hits + misses) if hits + misses else 0.0
