"""One serving node: a device, its engine loop, queue and energy meter.

A :class:`ClusterNode` wraps an :class:`~repro.hardware.device.EdgeDevice`
with a continuous-batching serving loop (iteration-level scheduling, the
same discipline as
:class:`~repro.engine.scheduler.ContinuousBatchScheduler`) running as a
process on a *shared* simulation environment, so many nodes coexist on
one clock.  Each node owns:

- an admission queue with a depth cap (back-pressure) and a KV-budget
  check (requests whose full KV footprint can never fit are refused
  outright — the OOM-driven rejection path);
- an :class:`~repro.engine.state.EngineState` + jtop-style
  :class:`~repro.telemetry.sampler.PowerSampler`, so fleet energy is
  integrated from sampled traces exactly like the paper's methodology;
- exact per-step energy accounting used to attribute joules to the
  individual tokens each step produced;
- a lumped-RC :class:`~repro.hardware.thermal.ThermalModel` advanced by
  the *dissipated* step power, so thermal throttling emerges from the
  workload (a sustained MAXN batch heats the junction; the throttle
  multiplier then feeds back into the next step's clocks) instead of
  being scripted.

Nodes can serve both phases (default), or only prefill / only decode
for the Splitwise-style disaggregated routing policy.

Decode fast-forward: a run of decode steps with a fixed batch (no
completion, admission, throttle toggle or paged-pool overflow inside
it) is planned ahead as plain data — per-step boundary times folded
left from the clock in the step-by-step float order, step costs,
joules, the thermal trajectory and utilization — and served with one
DES resumption.  The plan is committed lazily: token counters,
per-request energy and timestamps, node meters and the thermal state
are applied up to the step the clock has reached when the stretch ends,
or earlier when anything reads or mutates the node (properties,
:meth:`submit`, faults, mode changes, the power sampler's ticks).  A
mutation that would change the next step cuts the plan at the boundary
of the step in progress.  On an observed node the planned steps' decode
spans and served-token counters are deferred to the observer, which
emits them in the one-step order before anything else it records or
reads.  Every observable, the trace included, is bit-identical to
serving one step per resumption (``docs/mechanisms.md`` §16).

Fault surface (driven by :mod:`repro.faults`): :meth:`crash` /
:meth:`restart` model a node death with KV-state loss, ``kv_shrink``
models transient OOM pressure, :meth:`set_slowdown` models straggler
interference, :meth:`shift_ambient` a hot enclosure, and
:meth:`set_precision` is the graceful-degradation hook.  All of it is
deterministic on the shared clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.backends.base import resolve_backend
from repro.cluster.workload import ClusterRequest
from repro.fairness.scheduler import get_fair_scheduler
from repro.engine.kernels import EngineCostParams, StepCost
from repro.engine.state import EngineState
from repro.errors import ConfigError
from repro.hardware.device import EdgeDevice
from repro.hardware.thermal import ThermalModel
from repro.kvtier.policy import get_kv_policy
from repro.kvtier.radix import RadixPrefixCache
from repro.kvtier.swap import HostSwapSpace, swap_bandwidth_bytes_s
from repro.models.architecture import TransformerArchitecture
from repro.obs import kinds
from repro.obs.span import NO_SPAN, NULL_OBSERVER, Observer
from repro.power.model import ComponentUtilization, PowerModel
from repro.power.modes import PowerMode, apply_power_mode, get_power_mode
from repro.quant.dtypes import Precision
from repro.sim.environment import Environment
from repro.sim.events import Interrupt
from repro.telemetry.sampler import PowerSampler

#: Workspace bytes reserved out of the KV budget (CUDA context, temps).
_WORKSPACE_BYTES = int(1e9)


def natural_kv_budget(device: EdgeDevice, backend,
                      arch: TransformerArchitecture,
                      precision: Precision) -> int:
    """KV bytes left on ``device`` after weights and workspace.

    This is the budget every node derives unless one was pinned
    explicitly at construction, and the same budget the analytic
    planner (:mod:`repro.plan`) uses for its M_total token capacity —
    one formula, two consumers, so the fluid model and the DES agree
    on memory by construction.  May be <= 0 when the weights alone
    exceed the board.
    """
    return int(
        device.memory.usable_bytes
        - backend.weight_bytes(arch, precision)
        - _WORKSPACE_BYTES
    )


class _Stretch:
    """A planned decode stretch: ``n`` steps of one fixed batch.

    Step ``k`` runs over ``[ts[k], ts[k+1])``.  ``started`` steps have
    their start effects (busy energy, thermal state, utilization)
    committed and ``ended`` steps their token effects; the last step's
    tokens are committed by the serve loop when it resumes.

    On an observed node a multi-step stretch is also a deferred record
    source (:meth:`~repro.obs.span.Observer.defer`): steps ``0..n-2``
    emit their boundary records lazily, in the order the one-step loop
    would, ``emitted`` of them so far; the serve loop emits the last.
    """

    __slots__ = ("batch", "bs", "tenants", "ts", "joules", "seconds", "utils",
                 "temps", "n", "started", "ended", "clock", "track",
                 "context", "counters", "emitted")

    def __init__(self, bs: int, start: float, step_j: float, seconds: float,
                 util: ComponentUtilization):
        """A one-step stretch: step 0, accounted live at ``start``."""
        self.bs = bs
        self.ts = [start, start + seconds]
        self.joules = [step_j]
        self.seconds = [seconds]
        self.utils = [util]
        self.temps = [None]
        self.n = 1
        self.started = 1
        self.ended = 0
        #: Set for multi-step stretches: the batch, and its members per
        #: tenant in first-appearance order.
        self.batch: List[ClusterRequest] = []
        self.tenants: Dict[str, int] = {}

    def defer_records(self, node: "ClusterNode", context: int) -> None:
        """Hand steps ``0..n-2``'s records to the node's observer."""
        self.clock = node.env
        self.track = node.obs_track
        self.context = context
        self.emitted = 0
        #: (series, meter value before step 0, tokens per step) per
        #: tenant in sorted order; fair-scheduler runs only, as in the
        #: serve loop.
        self.counters = []
        if node.scheduler.name != "fcfs":
            meter = node.tenant_served_tokens
            self.counters = [
                (kinds.served_tokens_kind(t), meter.get(t, 0),
                 self.tenants[t]) for t in sorted(self.tenants)]
        node.obs.defer(self, self.ts[1], self.ts[0])

    def emit_deferred(self, obs: Observer):
        """Emit step ``emitted``'s boundary records: its ``decode`` span
        and the per-tenant served-token counters at its end."""
        k = self.emitted
        if k >= self.n - 1:
            return None  # cut or crashed before this step ended
        ts = self.ts
        end = ts[k + 1]
        obs.complete(kinds.DECODE, ts[k], end, cat=kinds.CAT_CLUSTER,
                     track=self.track, batch=self.bs,
                     context=self.context + k)
        for series, base, per_step in self.counters:
            obs.counter(series, base + per_step * (k + 1), track=self.track,
                        time_s=end)
        k += 1
        self.emitted = k
        if k >= self.n - 1:
            return None
        return ts[k + 1], ts[k]


@dataclass
class CrashEpisode:
    """One down interval of a node (``up_s`` is None while still down)."""

    down_s: float
    up_s: Optional[float] = None

    @property
    def repair_s(self) -> Optional[float]:
        if self.up_s is None:
            return None
        return self.up_s - self.down_s


class ClusterNode:
    """A single device serving requests on the shared cluster clock.

    Parameters
    ----------
    env:
        The shared simulation environment.
    node_id:
        Stable index within the cluster (used for deterministic
        tie-breaking by routers).
    device:
        The hardware preset instance (owned by this node; power modes
        mutate it).
    arch / precision:
        Model served by this node (every node holds a full replica).
    power_mode:
        Optional nvpmodel-style mode name applied at construction.
    role:
        ``"both"`` (default), ``"prefill"`` or ``"decode"`` — the
        latter two implement the Splitwise-style split.
    max_batch / max_queue:
        Concurrency cap of the running batch and depth cap of the
        admission queue (``submit`` refuses above it).
    thermal:
        Thermal RC model advanced by dissipated power each step
        (default: a stock :class:`ThermalModel`).  Throttling applies
        the model's frequency multiplier to the GPU clock on top of
        whatever power mode is active.
    """

    #: Most decode steps one stretch plans ahead.  Planning past the
    #: next cut is wasted host time; 1 serves one step per resumption.
    _STRETCH_STEPS = 32

    def __init__(
        self,
        env: Environment,
        node_id: int,
        device: EdgeDevice,
        arch: TransformerArchitecture,
        precision: Precision,
        power_mode: Optional[str] = None,
        role: str = "both",
        max_batch: int = 8,
        max_queue: int = 256,
        params: Optional[EngineCostParams] = None,
        power_model: Optional[PowerModel] = None,
        kv_budget_bytes: Optional[int] = None,
        sample_period_s: float = 1.0,
        thermal: Optional[ThermalModel] = None,
        obs: Optional[Observer] = None,
        backend=None,
        kv_policy=None,
        scheduler=None,
        region: Optional[str] = None,
        carbon_trace=None,
        tier: Optional[str] = None,
    ):
        if max_batch < 1 or max_queue < 1:
            raise ConfigError("max_batch and max_queue must be >= 1")
        if role not in ("both", "prefill", "decode"):
            raise ConfigError(f"unknown node role {role!r}")
        self.env = env
        self.node_id = node_id
        self.device = device
        self.arch = arch
        self.precision = precision
        self.role = role
        #: Geographic placement (``repro.sustain``): the node's region
        #: and the carbon/price trace its energy is metered against
        #: (None = no carbon accounting, the legacy behaviour).
        self.region = region
        self.carbon_trace = carbon_trace
        #: Cascade tier label; tiered requests only land on matching
        #: nodes (None accepts untiered traffic only — see ``accepts``).
        self.tier = tier
        self.max_batch = max_batch
        self.max_queue = max_queue
        self._params = params
        #: Inference-runtime backend (name or instance); nodes of one
        #: fleet may mix runtimes.
        self.backend = resolve_backend(backend)
        if power_mode is not None:
            apply_power_mode(device, get_power_mode(power_mode))
        self.timer = self.backend.make_timer(arch, device, precision, params)
        self.power_model = power_model or PowerModel()
        self._explicit_kv_budget = kv_budget_bytes is not None
        if kv_budget_bytes is None:
            kv_budget_bytes = natural_kv_budget(device, self.backend,
                                                arch, precision)
        if kv_budget_bytes <= 0:
            raise ConfigError(
                f"model leaves no KV budget on node {node_id} ({device.name})"
            )
        self._kv_budget_base = kv_budget_bytes
        #: Fraction of the nominal KV budget currently usable (< 1 under
        #: injected OOM pressure).
        self.kv_shrink = 1.0
        self._kv_per_token = (
            arch.kv_cache_spec().bytes_per_token_per_layer * arch.n_layers
        )

        #: KV lifecycle policy (repro.kvtier): what happens to preempted
        #: requests' caches.  The default sacrifice/lifo/conservative is
        #: bit-identical to the historical preempt-youngest-recompute.
        self.kv_policy = get_kv_policy(kv_policy)
        self.swap: Optional[HostSwapSpace] = None
        if self.kv_policy.preserves_kv:
            self.swap = HostSwapSpace(int(
                self.kv_policy.host_capacity_frac
                * device.memory.capacity_bytes))
        #: Shared-prefix radix cache; only the paged runtime does block-
        #: granular sharing, and only ``prompt_ids``-carrying requests
        #: participate, so other configurations see an empty tree.
        self.radix: Optional[RadixPrefixCache] = None
        if self.backend.admits_by_free_blocks and self.role != "decode":
            bt = getattr(self.backend, "block_tokens", 16)
            self.radix = RadixPrefixCache(bt, bt * self._kv_per_token)
        #: Swap-out bus time accrued outside the serve loop, billed (with
        #: mem-bound energy) at the next loop iteration.
        self._pending_transfer_s = 0.0
        #: Preemptions that dropped KV (any policy; includes swap-space-
        #: full fallbacks).
        self.kv_sacrifices = 0

        #: Queue-scheduling discipline (``repro.fairness``): FCFS by
        #: default — a bit-identical extraction of the historical
        #: head-of-queue pop — or a fair policy (``vtc``, ``wsc``).
        self.scheduler = get_fair_scheduler(scheduler)
        #: Per-tenant decode-token production meter (see the
        #: ``tenant_served_tokens`` property).
        self._tenant_served_tokens: Dict[str, int] = {}

        self.queue: List[ClusterRequest] = []
        self.active: List[ClusterRequest] = []
        self.completed: List[ClusterRequest] = []
        #: Called when a prefill-role node finishes a prompt (set by the
        #: cluster to start the KV transfer to a decode node).
        self.on_prefill_done: Optional[Callable[[ClusterRequest], None]] = None
        #: Called when a request finishes decoding.
        self.on_complete: Optional[Callable[[ClusterRequest], None]] = None
        #: Called with the orphaned requests when the node crashes (set
        #: by the cluster to requeue them elsewhere).
        self.on_crash: Optional[
            Callable[[List[ClusterRequest]], None]] = None

        #: Observability sink (spans/instants on the ``node{i}`` track).
        self.obs = obs if obs is not None else NULL_OBSERVER
        self.obs_track = f"node{node_id}"
        self.state = EngineState()
        self.sampler = PowerSampler(env, device, self.power_model, self.state,
                                    period_s=sample_period_s, obs=self.obs,
                                    obs_track=self.obs_track)
        #: The decode stretch in flight (None between stretches).
        self._stretch: Optional[_Stretch] = None
        #: The last ``_admit`` admitted nothing and stopped at a candidate
        #: the KV budget refuses, and nothing changed since.
        self._admit_blocked = False
        self.sampler.before_sample = self._sync
        # Meters behind the lazily synced properties of the same name.
        self._busy_energy_j = 0.0
        self._busy_seconds = 0.0
        self._served_tokens = 0
        #: Prompt tokens this node prefilled (replayed prefills count).
        self.prefilled_tokens = 0
        self.last_busy_s = 0.0

        # -- fault/resilience state ----------------------------------------
        #: False while crashed; admission refuses and routers skip.
        self.healthy = True
        self._slowdown = 1.0
        #: Down intervals, for availability / MTTR accounting.
        self.crash_log: List[CrashEpisode] = []
        #: (time, throttled) transitions of the thermal governor.
        self.throttle_log: List[tuple] = []
        self.thermal = thermal if thermal is not None else ThermalModel()
        self._thermal_clock = env.now
        #: GPU clock the active power mode asks for; the thermal
        #: governor multiplies *this*, so throttling composes with
        #: nvpmodel changes instead of fighting them.
        self._base_gpu_hz = device.gpu.freq_hz

        self._wake = None
        self._restart_ev = None
        self._proc = env.process(self._serve_loop(), name=f"node-{node_id}")

    # -- lazily committed meters -------------------------------------------
    @property
    def busy_energy_j(self) -> float:
        """Exact step-accounted busy energy (J)."""
        self._sync()
        return self._busy_energy_j

    @property
    def busy_seconds(self) -> float:
        """Busy wall time (s), straggler slowdown included."""
        self._sync()
        return self._busy_seconds

    @property
    def served_tokens(self) -> int:
        """Decode tokens this node produced (each token exactly once per
        *production*; replays after KV loss produce tokens again)."""
        self._sync()
        return self._served_tokens

    @property
    def tenant_served_tokens(self) -> Dict[str, int]:
        """Per-tenant decode-token production meter (counts every token
        this node produced for the tenant, replays included)."""
        self._sync()
        return self._tenant_served_tokens

    @property
    def slowdown(self) -> float:
        """Wall-time multiplier on engine steps (straggler interference)."""
        return self._slowdown

    @slowdown.setter
    def slowdown(self, factor: float) -> None:
        self.set_slowdown(factor)

    # -- capacity ----------------------------------------------------------
    @property
    def kv_budget(self) -> int:
        """Usable KV bytes right now (nominal budget x pressure shrink)."""
        return int(self._kv_budget_base * self.kv_shrink)

    def kv_bytes(self, tokens: int) -> int:
        return tokens * self._kv_per_token

    def _kv_need(self, r: ClusterRequest) -> int:
        """KV bytes admission charges ``r`` (backend discipline: hf/gguf
        reserve the whole lifetime, paged only the prompt's blocks).

        A swapped request must restore everything it preserved — prompt
        plus generated-so-far — before it can decode again."""
        if getattr(r, "kv_state", "resident") == "swapped":
            return r.swapped_kv_bytes
        out = 0 if self.role == "prefill" else r.output_tokens
        return self.backend.request_kv_reservation(
            r.input_tokens, out, self._kv_per_token)

    def _kv_live(self, r: ClusterRequest, generated: Optional[int] = None
                 ) -> int:
        """KV bytes ``r`` holds privately right now (grows per token
        under paged), or after ``generated`` tokens if given.  Prompt
        blocks living in the radix tree are charged once through the
        tree, not per sharer."""
        out = 0 if self.role == "prefill" else r.output_tokens
        if generated is None:
            generated = r.generated
        live = self.backend.live_kv_bytes(
            r.input_tokens, generated, out, self._kv_per_token)
        if self.radix is not None and self.radix.holds(r.req_id):
            bt = self.radix.block_tokens
            live -= self.kv_bytes((r.input_tokens // bt) * bt)
        return max(0, live)

    @property
    def kv_in_use(self) -> int:
        self._sync()
        total = sum(self._kv_live(r) for r in self.active)
        if self.radix is not None:
            # Tree-resident prompt blocks (shared and retained-after-
            # completion alike) occupy the pool once.
            total += self.radix.resident_bytes
        return total

    @property
    def kv_pressure(self) -> float:
        """Committed KV (running + queued) over budget; can exceed 1."""
        queued = sum(self._kv_need(r) for r in self.queue)
        return (self.kv_in_use + queued) / self.kv_budget

    @property
    def depth(self) -> int:
        """Outstanding work: queued plus running requests."""
        self._sync()
        return len(self.queue) + len(self.active)

    def fits(self, r: ClusterRequest) -> bool:
        """Could this request *ever* run here (empty node, current budget)?"""
        return self._kv_need(r) <= self.kv_budget

    def accepts(self, r: ClusterRequest) -> bool:
        """Admission control: healthy, room in the queue, feasible
        footprint — and, for cascade fleets, a matching tier label
        (a tiered request names the model stage it needs; untiered
        requests go anywhere, so legacy fleets are unaffected)."""
        tier = getattr(r, "tier", None)
        if tier is not None and self.tier != tier:
            return False
        return (self.healthy and len(self.queue) < self.max_queue
                and self.fits(r))

    def submit(self, r: ClusterRequest) -> bool:
        """Enqueue a request; returns False if admission refuses it."""
        if not self.accepts(r):
            return False
        if len(self.active) < self.max_batch:
            self._cut()  # the next step boundary may admit r
        else:
            self._sync()  # fair schedulers read live counters on arrival
        r.node_id = self.node_id
        self.queue.append(r)
        self.scheduler.on_arrival(r, self.env.now)
        if self.obs.enabled:
            r.queue_span = self.obs.begin(
                kinds.QUEUE, cat=kinds.CAT_REQUEST, track=f"req{r.req_id}",
                parent=r.obs_span, node=self.node_id)
        self._notify()
        return True

    def _notify(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed(None)

    # -- operating point ---------------------------------------------------
    def apply_mode(self, mode: PowerMode) -> None:
        """Apply a power mode and rebase the thermal governor on it.

        All mode changes (autoscaler rungs, brownout downshifts) should
        come through here rather than mutating the device directly:
        the throttle multiplier is re-derived against the new base
        clock, so a throttled node switching modes stays throttled
        relative to the *new* mode.
        """
        self._cut()
        apply_power_mode(self.device, mode)
        self._base_gpu_hz = self.device.gpu.freq_hz
        self._apply_throttle()
        if self.obs.enabled:
            self.obs.instant(kinds.MODE_CHANGE, cat=kinds.CAT_CLUSTER,
                             track=self.obs_track, mode=mode.name,
                             gpu_mhz=round(mode.gpu_freq_hz / 1e6))

    def current_mode_snapshot(self) -> PowerMode:
        """The operating point as an (anonymous) PowerMode, for restore."""
        dev = self.device
        return PowerMode(
            name=f"node{self.node_id}-snapshot",
            gpu_freq_hz=self._base_gpu_hz,
            cpu_freq_hz=dev.cpu.freq_hz,
            cpu_online_cores=dev.cpu.online_cores,
            mem_freq_hz=dev.memory.freq_hz,
        )

    def _apply_throttle(self) -> None:
        gpu = self.device.gpu
        target = self._base_gpu_hz * self.thermal.freq_multiplier
        target = min(max(target, gpu.min_freq_hz), gpu.max_freq_hz)
        if gpu.freq_hz != target:
            gpu.set_freq(target)

    def _idle_watts(self) -> float:
        return self.power_model.power_w(self.device,
                                        ComponentUtilization.idle())

    def shift_ambient(self, delta_c: float) -> None:
        """Raise (or lower) the enclosure's ambient temperature; the
        next step boundary heats against the new ambient."""
        self._cut()
        self.thermal.ambient_c += delta_c

    def set_slowdown(self, factor: float) -> None:
        """Set the straggler wall-time multiplier; the step in progress
        keeps its duration, the next one stretches."""
        self._cut()
        self._slowdown = factor

    def _advance_thermal(self, watts: float, seconds: float) -> None:
        """Advance the RC node: idle gap since last step, then this step."""
        was_throttled = self.thermal.throttled
        gap = self.env.now - self._thermal_clock
        if gap > 0:
            self.thermal.advance(self._idle_watts(), gap)
        self.thermal.advance(watts, seconds)
        self._thermal_clock = self.env.now + seconds
        if self.thermal.throttled != was_throttled:
            self.throttle_log.append((self.env.now, self.thermal.throttled))
        self._apply_throttle()

    # -- faults ------------------------------------------------------------
    def crash(self) -> List[ClusterRequest]:
        """Kill the node: KV state is lost, outstanding work orphans.

        Active requests lose their generated tokens (``reset_for_replay``
        — the re-prefill bill lands on whichever node takes them next);
        queued ones had no state to lose.  Returns the orphans, and
        also hands them to ``on_crash`` if the cluster registered one.
        """
        if not self.healthy:
            return []
        self._sync()
        st = self._stretch
        if st is not None:
            # The step in progress never lands: the plan ends before it,
            # so only the records of steps already ended still drain.
            st.n = st.started
            self._stretch = None
        self.healthy = False
        orphans = list(self.active) + list(self.queue)
        if self.obs.enabled:
            for r in self.active:
                self.obs.instant(kinds.REPLAY, cat=kinds.CAT_REQUEST,
                                 track=f"req{r.req_id}", parent=r.obs_span,
                                 node=self.node_id,
                                 tokens_lost=r.generated)
            for r in self.queue:
                self.obs.end(r.queue_span, outcome="crash")
                r.queue_span = NO_SPAN
        for r in self.active:
            r.reset_for_replay()
        for r in orphans:
            # Host swap space and the radix tree live on the same board:
            # a crash loses preserved KV exactly like resident KV.
            if r.kv_state == "swapped":
                if self.swap is not None:
                    self.swap.drop(r.req_id)
                r.kv_state = "sacrificed"
                r.swapped_kv_bytes = 0
                r.reset_for_replay()
            r.prefix_cached_tokens = 0
        if self.radix is not None:
            self.radix.clear()
        self.active.clear()
        self.queue.clear()
        self.scheduler.on_flush()
        self.state.set_idle()
        self._wake = None
        self.crash_log.append(CrashEpisode(down_s=self.env.now))
        self._proc.interrupt("crash")
        if self.on_crash is not None and orphans:
            self.on_crash(orphans)
        return orphans

    def restart(self) -> None:
        """Bring the node back: cold board, empty queue, ambient junction."""
        if self.healthy:
            return
        self.healthy = True
        self.crash_log[-1].up_s = self.env.now
        self.thermal.temp_c = self.thermal.ambient_c
        self.thermal.throttled = False
        self._thermal_clock = self.env.now
        self._apply_throttle()
        if self._restart_ev is not None and not self._restart_ev.triggered:
            self._restart_ev.succeed(None)

    def set_kv_shrink(self, factor: float) -> List[ClusterRequest]:
        """Scale the usable KV budget (transient OOM pressure).

        Shrinking below the running batch's footprint evicts the
        youngest active requests (recompute-style, same victim rule as
        the single-node scheduler) back to the *head* of this node's
        queue; they re-prefill once the pressure lifts.  Returns the
        evicted requests.
        """
        if factor <= 0:
            raise ConfigError("kv_shrink must be positive")
        if int(self._kv_budget_base * factor) <= 0:
            raise ConfigError(
                f"kv_shrink {factor!r} leaves node {self.node_id} no KV "
                f"budget (nominal {self._kv_budget_base} bytes)")
        self._cut()
        grew = factor > self.kv_shrink
        self.kv_shrink = factor
        evicted = self._evict_over_budget(kv_shrink=factor)
        if grew:
            self._notify()  # headroom returned: head may fit now
        return evicted

    def _evict_over_budget(self, permanent: bool = False,
                           **obs_fields) -> List[ClusterRequest]:
        """Evict youngest active requests until KV fits the budget.

        Shared victim rule for both pressure sources: injected shrink
        faults (transient — pressure lifts, so victims wait at this
        node's queue head), and paged-runtime pool exhaustion
        (``permanent=True`` — optimistic admission let live KV outgrow
        the pool mid-decode, and the pool never grows back).  Under
        permanent pressure a victim whose *whole-lifetime* footprint
        exceeds the budget can never finish here no matter how often it
        re-prefills; requeueing it locally would livelock, so it is
        handed to the fleet (``on_crash``, whose requeue cap bounds the
        retries) or marked rejected.
        """
        policy = self.kv_policy
        limit = policy.effective_budget(self.kv_budget)
        if self.radix is not None and self.kv_in_use > limit:
            # Cheapest relief first: retained (unpinned) prefix blocks.
            self.radix.reclaim(self.kv_in_use - limit, self.env.now)
        evicted: List[ClusterRequest] = []
        while self.active and self.kv_in_use > limit:
            victim = policy.select_victim(self.active)
            if victim is None:  # pragma: no cover - active implies one
                break
            self.active.remove(victim)
            self._drop_radix_pin(victim)
            evicted.append(victim)
        if evicted:
            if self.obs.enabled:
                for r in evicted:
                    r.evicted = True
                    self.obs.instant(
                        kinds.EJECT, cat=kinds.CAT_REQUEST,
                        track=f"req{r.req_id}", parent=r.obs_span,
                        node=self.node_id, **obs_fields)
            hopeless: List[ClusterRequest] = []
            if permanent:
                out = 0 if self.role == "prefill" else None
                def lifetime(r):
                    o = r.output_tokens if out is None else out
                    return self.backend.live_kv_bytes(
                        r.input_tokens, o, o, self._kv_per_token)
                hopeless = [r for r in evicted
                            if lifetime(r) > self.kv_budget]
            requeue = [r for r in evicted if r not in hopeless]
            for r in hopeless:
                self._sacrifice(r)
            for r in requeue:
                if not self._try_swap_out(r):
                    self._sacrifice(r)
            # Evictions re-enter at the queue head (they were already
            # admitted once); the depth cap only gates *new* arrivals.
            self.queue[0:0] = requeue
            for r in requeue:
                self.scheduler.on_arrival(r, self.env.now)
            if self.obs.enabled:
                for r in requeue:
                    r.queue_span = self.obs.begin(
                        kinds.QUEUE, cat=kinds.CAT_REQUEST,
                        track=f"req{r.req_id}", parent=r.obs_span,
                        node=self.node_id, after_eviction=True)
            if hopeless:
                if self.on_crash is not None:
                    self.on_crash(hopeless)
                else:
                    for r in hopeless:
                        r.rejected = True
        return evicted

    def _drop_radix_pin(self, r: ClusterRequest) -> None:
        """Unpin ``r``'s prompt path (the tree keeps it, reclaimable)."""
        if self.radix is not None and self.radix.holds(r.req_id):
            self.radix.release(r.req_id)

    def _try_swap_out(self, r: ClusterRequest) -> bool:
        """Preserve an eviction victim's KV host-side (swap policies).

        Returns False when the policy sacrifices or host space is full;
        the caller then falls back to drop + re-prefill.  The transfer
        occupies the memory bus: its seconds accrue to
        ``_pending_transfer_s`` and the serve loop bills them (with
        mem-bound energy) before the next step.
        """
        if self.swap is None:
            return False
        nbytes = self._kv_live(r)
        if nbytes <= 0 or not self.swap.can_hold(nbytes):
            self.swap.stats.sacrifices += 1
            return False
        seconds = self.swap.swap_out(
            r.req_id, nbytes, swap_bandwidth_bytes_s(self.device))
        self._pending_transfer_s += seconds
        r.kv_state = "swapped"
        r.swapped_kv_bytes = nbytes
        r.swaps += 1
        if self.obs.enabled:
            self.obs.instant(
                kinds.KV_SWAP_OUT, cat=kinds.CAT_REQUEST,
                track=f"req{r.req_id}", parent=r.obs_span,
                node=self.node_id, kv_bytes=nbytes,
                transfer_s=round(seconds, 6))
            self.obs.metrics.histogram("kv_swap_out_bytes").observe(nbytes)
        return True

    def _sacrifice(self, r: ClusterRequest) -> None:
        """Drop + re-prefill accounting for one eviction victim, with
        the KV loss made explicit in traces (a ``kv_transfer`` instant:
        the bytes recomputation will have to move again)."""
        lost_bytes = self._kv_live(r)
        lost_tokens = r.generated
        r.reset_for_replay()
        r.kv_state = "sacrificed"
        r.swapped_kv_bytes = 0
        self.kv_sacrifices += 1
        if self.obs.enabled:
            self.obs.instant(
                kinds.KV_TRANSFER, cat=kinds.CAT_REQUEST,
                track=f"req{r.req_id}", parent=r.obs_span,
                node=self.node_id, kv_bytes=lost_bytes,
                lost_tokens=lost_tokens, reason="sacrifice")

    def set_precision(self, precision: Precision) -> None:
        """Swap the served precision (graceful degradation).

        Rebuilds the step timer and, unless the KV budget was pinned
        explicitly at construction, re-derives it from the new weight
        footprint — degrading INT8 -> INT4 roughly halves weight bytes,
        so the budget *grows* and queued work may become admissible.
        """
        if precision is self.precision:
            return
        self._cut()
        self.precision = precision
        self.timer = self.backend.make_timer(self.arch, self.device,
                                             precision, self._params)
        if not self._explicit_kv_budget:
            base = natural_kv_budget(self.device, self.backend,
                                     self.arch, precision)
            if base <= 0:
                raise ConfigError(
                    f"precision {precision.value} leaves no KV budget on "
                    f"node {self.node_id}"
                )
            self._kv_budget_base = base
        self._notify()

    @property
    def downtime_s(self) -> float:
        """Total down wall-time so far (open episode counts to now)."""
        total = 0.0
        for ep in self.crash_log:
            up = ep.up_s if ep.up_s is not None else self.env.now
            total += up - ep.down_s
        return total

    # -- energy ------------------------------------------------------------
    def predicted_j_per_token(self, batch_size: int = 4,
                              context: int = 256) -> float:
        """Marginal decode energy per token at the *current* operating
        point — the signal the energy-aware router ranks nodes by."""
        bs = max(1, min(batch_size, self.max_batch))
        concat = self.backend.decode_concat_bytes(self.kv_bytes(bs * context))
        cost = self.timer.decode_step(bs, context, concat_bytes=concat)
        watts = self.power_model.power_w(self.device, cost.util)
        return watts * cost.seconds / bs

    def _account(self, cost: StepCost, phase: str) -> tuple:
        """Publish utilization, integrate busy energy and heat.

        Returns ``(step_joules, step_seconds)`` — seconds include the
        straggler slowdown, and the joules integrate over that
        stretched wall time (interference keeps the board powered, it
        does not pause it).
        """
        util = cost.util
        self.state.set(phase, util)
        seconds = cost.seconds * self._slowdown
        watts = self.power_model.power_w(self.device, util)
        joules = watts * seconds
        self._busy_energy_j += joules
        self._busy_seconds += seconds
        self._advance_thermal(watts, seconds)
        return joules, seconds

    def _account_transfer(self, seconds: float, phase: str) -> tuple:
        """Bill a KV host transfer: the memory bus streams at its
        effective rate, one CPU core drives the copy, the GPU idles."""
        mem = self.device.memory
        util = ComponentUtilization(
            gpu_compute=0.0, gpu_busy=0.0,
            mem_bw=min(1.0, mem.streaming_efficiency * mem.effective_ratio),
            cpu_cores_active=1.0,
        )
        self.state.set(phase, util)
        seconds *= self._slowdown
        watts = self.power_model.power_w(self.device, util)
        joules = watts * seconds
        self._busy_energy_j += joules
        self._busy_seconds += seconds
        self._advance_thermal(watts, seconds)
        return joules, seconds

    # -- the serving loop --------------------------------------------------
    def _next_candidate(self) -> Optional[ClusterRequest]:
        """The queued request the scheduler would admit next."""
        if not self.queue:
            return None
        return self.queue[self.scheduler.select_next(self.queue)]

    def _admit(self) -> List[ClusterRequest]:
        """Admit scheduler-selected requests while the batch and KV
        budget allow.

        The scheduler picks *which* queued request each admission slot
        goes to; admission still stops at the first selected candidate
        that does not fit (head-of-line semantics relative to the
        scheduler's order — under FCFS this is exactly the historical
        ``queue[0]`` discipline, bit for bit).
        """
        admitted = []
        blocked = False
        limit = self.kv_policy.effective_budget(self.kv_budget)
        while self.queue and len(self.active) < self.max_batch:
            idx = self.scheduler.select_next(self.queue)
            need = self._kv_need(self.queue[idx])
            if (self.kv_in_use + need > limit and self.radix is not None):
                # Retained prefix blocks are the cache of last resort:
                # give them back before refusing admission.
                self.radix.reclaim(self.kv_in_use + need - limit,
                                   self.env.now)
            if self.kv_in_use + need > limit:
                blocked = True
                break
            r = self.queue.pop(idx)
            self.scheduler.on_dequeue(r)
            self.active.append(r)
            admitted.append(r)
            if self.obs.enabled:
                if idx:
                    # Queue jumps are the fair-scheduling signal worth
                    # tracing; FCFS never jumps, so legacy traces are
                    # unchanged byte for byte.
                    self.obs.instant(
                        kinds.SCHED_SELECT, cat=kinds.CAT_CLUSTER,
                        track=self.obs_track, req=r.req_id,
                        tenant=r.tenant, scheduler=self.scheduler.name,
                        queue_jump=idx)
                self._obs_admitted(r)
        # A refusal stands until something changes (every change cuts);
        # admitting runs prefills (prefix hits, swap-ins) that move live
        # KV before the next step, so it may not stand then.
        self._admit_blocked = blocked and not admitted
        return admitted

    def _obs_admitted(self, r: ClusterRequest) -> None:
        """Close the queue-wait span; note readmissions after eviction."""
        obs = self.obs
        start = obs.open_start(r.queue_span)
        if start is not None:
            obs.metrics.histogram("queue_wait_s").observe(self.env.now - start)
        obs.end(r.queue_span, node=self.node_id)
        r.queue_span = NO_SPAN
        if r.evicted:
            r.evicted = False
            obs.instant(kinds.READMIT, cat=kinds.CAT_REQUEST,
                        track=f"req{r.req_id}", parent=r.obs_span,
                        node=self.node_id)

    # -- decode fast-forward -------------------------------------------------
    def _plan_stretch(self, bs: int, context: int, cost: StepCost,
                      step_j: float, dur: float) -> _Stretch:
        """Plan the decode stretch whose first step was just accounted.

        Steps ``1..`` follow as plain data while the step-by-step loop
        would provably do nothing at their boundaries but bill the next
        step: the stretch ends at the batch's first completion, at the
        step whose growth overflows the paged pool, before a step that
        toggles the throttle, or after ``_STRETCH_STEPS``.  Boundary
        times fold left from the clock (``t + seconds``, the float sum
        ``env.timeout`` makes).

        One-step stretches: a batch with free slots and a non-empty
        queue unless this boundary's admission admitted nothing and
        found the candidate KV-blocked, under a scheduler whose choice
        cannot move per token (a counter scheduler's ``select_next``
        can).  Live KV only grows inside a stretch, so such a head stays
        blocked until something cuts the stretch.  On an observed node
        the planned steps' records are deferred to the observer.
        """
        st = _Stretch(bs, self.env.now, step_j, dur, cost.util)
        batch = self.active
        if (self.queue and len(batch) < self.max_batch
                and (self.scheduler.meters_service
                     or not self._admit_blocked)):
            return st
        n_max = min(self._STRETCH_STEPS,
                    min(r.output_tokens - r.generated for r in batch))
        if n_max <= 1:
            return st
        ts, joules, seconds = st.ts, st.joules, st.seconds
        utils, temps = st.utils, st.temps
        paged = self.backend.admits_by_free_blocks
        if paged:
            budget = self.kv_budget
            tree = self.radix.resident_bytes if self.radix is not None else 0
        timer, backend, power_w = self.timer, self.backend, self.power_model.power_w
        device, thermal, slowdown = self.device, self.thermal, self._slowdown
        kv_per_token = self._kv_per_token
        temp, throttled = thermal.temp_c, thermal.throttled
        t = ts[1]
        for k in range(1, n_max):
            if paged and tree + sum(
                    self._kv_live(r, r.generated + k) for r in batch) > budget:
                break  # step k-1's growth preempts at its boundary
            ctx = context + k
            cost = timer.decode_step(
                bs, ctx,
                concat_bytes=backend.decode_concat_bytes(
                    bs * ctx * kv_per_token))
            util = cost.util
            sec = cost.seconds * slowdown
            watts = power_w(device, util)
            temp, now_throttled = thermal.fold(temp, throttled, watts, sec)
            if now_throttled is not throttled:
                break  # the toggle re-clocks the GPU: bill that step live
            t = t + sec
            ts.append(t)
            joules.append(watts * sec)
            seconds.append(sec)
            utils.append(util)
            temps.append(temp)
        st.n = len(joules)
        if st.n > 1:
            st.batch = list(batch)
            for r in batch:
                st.tenants[r.tenant] = st.tenants.get(r.tenant, 0) + 1
            if self.obs.enabled:
                st.defer_records(self, context)
        return st

    def _sync(self) -> None:
        """Commit the in-flight stretch up to the clock (inclusive):
        step starts (busy meters, thermal state, utilization) and the
        tokens of every finished step but the last, which the serve
        loop commits when it resumes."""
        st = self._stretch
        if st is None:
            return
        now = self.env.now
        ts = st.ts
        k = st.started
        if k < st.n and ts[k] <= now:
            while k < st.n and ts[k] <= now:
                self._busy_energy_j += st.joules[k]
                self._busy_seconds += st.seconds[k]
                k += 1
            st.started = k
            self.thermal.temp_c = st.temps[k - 1]
            self._thermal_clock = ts[k]
            self.state.set("decode", st.utils[k - 1])
        first = st.ended
        last = st.n - 1
        if first < last and ts[first + 1] <= now:
            end = first + 1
            while end < last and ts[end + 1] <= now:
                end += 1
            # Steps first..end-1 ended.  Each meter gets the same adds
            # in the same order as one step at a time; only the
            # interleaving across independent meters differs.
            batch, bs, steps = st.batch, st.bs, end - first
            shares = [j / bs for j in st.joules[first:end]]
            t_first, t_last = ts[first + 1], ts[end]
            for r in batch:
                energy = r.energy_j
                for share in shares:
                    energy += share
                r.energy_j = energy
                r.generated += steps
                r.last_token_s = t_last
                if r.first_token_s is None:
                    r.first_token_s = t_first
            if self.scheduler.meters_service:
                hook = self.scheduler.on_tokens_served
                for _ in range(steps):
                    for r in batch:
                        hook(r, decode_tokens=1)
            tenant_tokens = self._tenant_served_tokens
            for tenant, count in st.tenants.items():
                tenant_tokens[tenant] = (tenant_tokens.get(tenant, 0)
                                         + count * steps)
            self._served_tokens += bs * steps
            self.last_busy_s = t_last
            st.ended = end

    def _cut(self) -> None:
        """Something is about to change what the next step would do:
        sync, then end the in-flight stretch at the boundary of the
        step in progress (the loop is interrupted to wait for it).
        Whatever changed may also unblock the queue's candidate."""
        self._sync()
        self._admit_blocked = False
        st = self._stretch
        if st is not None and st.started < st.n:
            st.n = st.started
            self._proc.interrupt("cut")

    def _serve_loop(self):
        env = self.env
        while True:
            if not self.healthy:
                self._restart_ev = env.event()
                try:
                    yield self._restart_ev
                except Interrupt:  # pragma: no cover - crash while down
                    pass
                self._restart_ev = None
                continue
            try:
                if self._pending_transfer_s > 0:
                    # Swap-out traffic from the last preemption round:
                    # the bus was busy writing victims' KV host-side.
                    seconds = self._pending_transfer_s
                    self._pending_transfer_s = 0.0
                    _, dur = self._account_transfer(seconds, "kv_swap_out")
                    yield env.timeout(dur)
                    self.last_busy_s = env.now
                admitted = self._admit()
                for r in admitted:
                    if r.kv_state == "swapped":
                        # Restore preserved KV instead of re-prefilling.
                        nbytes, seconds = self.swap.swap_in(
                            r.req_id, swap_bandwidth_bytes_s(self.device))
                        _, dur = self._account_transfer(
                            seconds, "kv_swap_in")
                        swap_start = env.now
                        yield env.timeout(dur)
                        self.last_busy_s = env.now
                        r.kv_state = "resident"
                        r.swapped_kv_bytes = 0
                        r.swap_ins += 1
                        if self.obs.enabled:
                            self.obs.complete(
                                kinds.KV_SWAP_IN, swap_start, env.now,
                                cat=kinds.CAT_CLUSTER, track=self.obs_track,
                                req=r.req_id, kv_bytes=nbytes)
                            self.obs.metrics.histogram(
                                "kv_swap_in_s").observe(env.now - swap_start)
                        continue
                    if self.role == "decode":
                        continue  # prompt KV arrives via the transfer link
                    hit = 0
                    if self.radix is not None and r.prompt_ids is not None:
                        if self.radix.holds(r.req_id):
                            self.radix.release(r.req_id)  # replay re-match
                        hit = self.radix.insert(
                            r.req_id, r.prompt_ids, env.now)
                        r.prefix_cached_tokens = hit
                        if hit and self.obs.enabled:
                            self.obs.instant(
                                kinds.KV_PREFIX_HIT, cat=kinds.CAT_REQUEST,
                                track=f"req{r.req_id}", parent=r.obs_span,
                                node=self.node_id, tokens=hit)
                            self.obs.metrics.histogram(
                                "kv_prefix_hit_tokens").observe(hit)
                    prefill_tokens = max(1, r.input_tokens - hit)
                    cost = self.timer.prefill(1, prefill_tokens)
                    _, dur = self._account(cost, "prefill")
                    prefill_start = env.now
                    yield env.timeout(dur)
                    self.last_busy_s = env.now
                    self.prefilled_tokens += prefill_tokens
                    if self.scheduler.meters_service:
                        self.scheduler.on_tokens_served(
                            r, prefill_tokens=prefill_tokens)
                    r.prefill_end_s = env.now
                    if self.obs.enabled:
                        self.obs.complete(
                            kinds.PREFILL, prefill_start, env.now,
                            cat=kinds.CAT_CLUSTER, track=self.obs_track,
                            req=r.req_id, tokens=prefill_tokens)
                    if self.role == "prefill":
                        self.active.remove(r)
                        self._drop_radix_pin(r)
                        if self.on_prefill_done is not None:
                            self.on_prefill_done(r)

                if not self.active:
                    self.state.set_idle()
                    head = self._next_candidate()
                    if (head is not None
                            and self._kv_need(head) <= self.kv_budget):
                        continue  # re-check admission (head now fits)
                    # Empty, or head-of-line blocked by shrunk KV budget:
                    # sleep until a submit/restore/degrade wakes us.
                    self._wake = env.event()
                    yield self._wake
                    self._wake = None
                    continue

                bs = len(self.active)
                context = max(r.input_tokens + r.generated for r in self.active)
                concat = self.backend.decode_concat_bytes(
                    self.kv_bytes(bs * context))
                cost = self.timer.decode_step(bs, context, concat_bytes=concat)
                step_j, dur = self._account(cost, "decode")
                st = self._plan_stretch(bs, context, cost, step_j, dur)
                self._stretch = st
                while True:
                    try:
                        yield env.timeout_at(st.ts[st.n])
                        break
                    except Interrupt:
                        if self._stretch is not st:
                            raise  # crashed: the plan died with the node
                        # Cut: the plan now ends at the step in progress.
                self._sync()
                self._stretch = None
                last = st.n - 1
                step_j = st.joules[last]
                self.last_busy_s = env.now
                if self.obs.enabled:
                    # The earlier steps' records drained through the
                    # observer; the last step's batch may have shrunk.
                    self.obs.complete(
                        kinds.DECODE, st.ts[last], env.now,
                        cat=kinds.CAT_CLUSTER, track=self.obs_track,
                        batch=bs, context=context + last)
                # Requests evicted mid-step (OOM pressure) left `active`
                # and get no token from this step.
                step_tenants = set()
                meters = self.scheduler.meters_service
                tenant_tokens = self._tenant_served_tokens
                now = env.now
                share = step_j / bs
                for r in list(self.active):
                    r.generated += 1
                    r.last_token_s = now
                    r.energy_j += share
                    self._served_tokens += 1
                    if meters:
                        self.scheduler.on_tokens_served(r, decode_tokens=1)
                    tenant_tokens[r.tenant] = tenant_tokens.get(r.tenant, 0) + 1
                    step_tenants.add(r.tenant)
                    if r.first_token_s is None:
                        r.first_token_s = now
                    if r.generated >= r.output_tokens:
                        r.finish_s = now
                        self.active.remove(r)
                        # The prompt path stays in the radix tree for
                        # future arrivals; only the pin is dropped.
                        self._drop_radix_pin(r)
                        self.completed.append(r)
                        if self.on_complete is not None:
                            self.on_complete(r)
                if self.obs.enabled and self.scheduler.name != "fcfs":
                    # Per-tenant served-token counter series (sorted so
                    # the trace stays byte-stable under PYTHONHASHSEED).
                    # Fair-scheduler runs only: legacy FCFS traces keep
                    # their exact historical record stream.
                    for tenant in sorted(step_tenants):
                        self.obs.counter(
                            kinds.served_tokens_kind(tenant),
                            tenant_tokens[tenant], track=self.obs_track)
                # Optimistic (free-block) admission can overcommit: live
                # KV grew this step and may now exceed the pool —
                # preempt the youngest (vLLM recompute preemption).
                if (self.backend.admits_by_free_blocks
                        and self.kv_in_use > self.kv_budget):
                    self._evict_over_budget(permanent=True,
                                            pool_exhausted=True)
            except Interrupt:
                continue  # crashed mid-step: loop re-checks health

    # -- reporting ---------------------------------------------------------
    def as_row(self) -> dict:
        return {
            "node": self.node_id,
            "device": self.device.name,
            "runtime": self.backend.name,
            "scheduler": self.scheduler.name,
            "served_tokens": self.served_tokens,
            "prefilled_tokens": self.prefilled_tokens,
            "completed": len(self.completed),
            "busy_s": round(self.busy_seconds, 1),
            "busy_energy_j": round(self.busy_energy_j, 1),
            "downtime_s": round(self.downtime_s, 1),
            "crashes": len(self.crash_log),
            "temp_c": round(self.thermal.temp_c, 1),
            "precision": self.precision.value,
        }
