"""Power-mode autoscaling: trade SLO headroom for fleet energy.

An idle or lightly-loaded Jetson still burns tens of watts at MAXN
clocks; the paper's Table 2/Fig 5 point is that reduced power modes cost
little throughput in memory-bound phases.  The
:class:`PowerModeAutoscaler` closes that loop at fleet level: a periodic
control process walks every node's queue depth and steps the node up or
down a ladder of nvpmodel-style modes (clamped to each device's actual
frequency/core ranges), so the fleet runs hot only while the load needs
it.

The cost model reads clocks live (``freq_ratio`` at call time), so a
mode switch changes both the node's service rate and its power draw from
the next engine step on — and the energy-aware router's J/token scores
move with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cluster.node import ClusterNode
from repro.errors import ConfigError
from repro.hardware.device import EdgeDevice
from repro.obs import kinds
from repro.power.modes import PAPER_POWER_MODES, PowerMode
from repro.sim.environment import Environment


def clamp_mode_to_device(mode: PowerMode, device: EdgeDevice) -> PowerMode:
    """Fit a mode into the device's frequency/core envelope.

    Heterogeneous fleets share one ladder; an Orin 32GB cannot reach the
    64GB's 1.301 GHz GPU clock, so each rung is clamped per device.
    """

    def _clamp(v: float, lo: float, hi: float) -> float:
        return min(max(v, lo), hi)

    return PowerMode(
        name=mode.name,
        gpu_freq_hz=_clamp(mode.gpu_freq_hz, device.gpu.min_freq_hz,
                           device.gpu.max_freq_hz),
        cpu_freq_hz=_clamp(mode.cpu_freq_hz, device.cpu.min_freq_hz,
                           device.cpu.max_freq_hz),
        cpu_online_cores=min(mode.cpu_online_cores, device.cpu.total_cores),
        mem_freq_hz=_clamp(mode.mem_freq_hz, device.memory.min_freq_hz,
                           device.memory.max_freq_hz),
    )


@dataclass(frozen=True)
class ModeSwitch:
    """One autoscaling action, for the audit trail."""

    time_s: float
    node_id: int
    mode: str
    reason: str


@dataclass
class AutoscalerConfig:
    """Control-loop tuning.

    The ladder is ordered efficiency -> performance; the paper's GPU-
    frequency modes make a natural one (B: 400 MHz, A: 800 MHz, MAXN).
    """

    ladder: Sequence[str] = ("B", "A", "MAXN")
    period_s: float = 5.0
    #: Queue depth (queued + running) at or above which a node steps up.
    up_depth: int = 4
    #: Depth at or below which a node steps down one rung.
    down_depth: int = 1
    #: Consecutive calm periods required before stepping down.
    down_patience: int = 2
    #: Rung every node starts on.  Defaults to the *bottom* (most
    #: efficient) rung: decode is memory-bound, so reduced GPU clocks
    #: cost little time but real watts (the paper's Fig 5 / mode A
    #: finding) — the fleet should earn its MAXN, not start there.
    initial_rung: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.ladder) < 2:
            raise ConfigError("autoscaler ladder needs >= 2 modes")
        if self.period_s <= 0:
            raise ConfigError("control period must be positive")
        if self.down_depth >= self.up_depth:
            raise ConfigError("down_depth must be < up_depth")
        for name in self.ladder:
            if name.upper() not in PAPER_POWER_MODES:
                raise ConfigError(f"unknown power mode {name!r} in ladder")


class PowerModeAutoscaler:
    """Periodic per-node power-mode controller on the cluster clock."""

    def __init__(self, env: Environment, nodes: Sequence[ClusterNode],
                 config: Optional[AutoscalerConfig] = None):
        if not nodes:
            raise ConfigError("autoscaler needs at least one node")
        self.env = env
        self.nodes = list(nodes)
        self.config = config or AutoscalerConfig()
        self._modes = [
            PAPER_POWER_MODES[name.upper()] for name in self.config.ladder
        ]
        start = (0 if self.config.initial_rung is None
                 else self.config.initial_rung)
        if not 0 <= start < len(self._modes):
            raise ConfigError("initial_rung outside the ladder")
        self._rung: Dict[int, int] = {}
        self._idle_periods: Dict[int, int] = {}
        self.history: List[ModeSwitch] = []
        self._running = False
        for node in self.nodes:
            self._set_rung(node, start, reason="initial")

    # -- actions -----------------------------------------------------------
    def _set_rung(self, node: ClusterNode, rung: int, reason: str) -> None:
        mode = clamp_mode_to_device(self._modes[rung], node.device)
        # Route through the node, not apply_power_mode directly: the
        # thermal governor rebases its throttle on the new clocks, so a
        # throttled node stays throttled relative to the new rung.
        node.apply_mode(mode)
        self._rung[node.node_id] = rung
        self._idle_periods[node.node_id] = 0
        self.history.append(
            ModeSwitch(self.env.now, node.node_id, mode.name, reason)
        )
        if node.obs.enabled:
            node.obs.instant(kinds.AUTOSCALE, cat=kinds.CAT_CLUSTER,
                             track=node.obs_track, rung=rung, mode=mode.name,
                             reason=reason)
            node.obs.metrics.counter(
                "autoscale_actions_total", node=str(node.node_id)).inc()

    def _control_step(self) -> None:
        cfg = self.config
        for node in self.nodes:
            if not node.healthy:
                continue  # a down board takes no nvpmodel commands
            rung = self._rung[node.node_id]
            depth = node.depth
            if depth >= cfg.up_depth and rung < len(self._modes) - 1:
                self._set_rung(node, rung + 1, reason=f"depth={depth}")
            elif depth <= cfg.down_depth and rung > 0:
                self._idle_periods[node.node_id] += 1
                if self._idle_periods[node.node_id] >= cfg.down_patience:
                    self._set_rung(node, rung - 1, reason=f"depth={depth}")
            else:
                self._idle_periods[node.node_id] = 0

    # -- process lifecycle -------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.env.process(self._run(), name="autoscaler")

    def stop(self) -> None:
        self._running = False

    def _run(self):
        while self._running:
            yield self.env.timeout(self.config.period_s)
            if not self._running:
                break
            self._control_step()

    def n_switches(self) -> int:
        """Mode changes excluding the initial assignment."""
        return sum(1 for s in self.history if s.reason != "initial")
