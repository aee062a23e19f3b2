"""The fault injector: replays a schedule against live cluster nodes.

A :class:`FaultInjector` is one DES process that walks the schedule's
time-sorted begin/end edges with absolute timeouts and pokes the target
node's fault surface:

====================  ==============================================
fault class           begin / end action on the node
====================  ==============================================
``crash``             ``node.crash()`` / ``node.restart()``
``brownout``          ``node.apply_mode(<forced mode>)`` / restore
                      the snapshot taken at begin
``oom``               ``node.set_kv_shrink(f)`` / ``set_kv_shrink(1)``
``straggler``         ``node.set_slowdown(m)`` / ``set_slowdown(1)``
``thermal``           ``node.shift_ambient(d)`` / ``shift_ambient(-d)``
====================  ==============================================

Every edge — applied or skipped — lands in :attr:`FaultInjector.trace`
as an :class:`AppliedFault`, so the injected history is itself part of
the deterministic chaos output.  Edges can be *skipped* when the
schedule asks for something already moot (crashing a node that a
different episode already took down, ending a brownout on a node that
crashed mid-episode and rebooted into its default mode — the restore
would be wrong, so it is dropped).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.autoscale import clamp_mode_to_device
from repro.cluster.node import ClusterNode
from repro.errors import ConfigError
from repro.obs import kinds
from repro.obs.span import NO_SPAN
from repro.power.modes import PowerMode, get_power_mode
from repro.sim.environment import Environment

from repro.faults.schedule import FaultClass, FaultEvent, FaultSchedule


@dataclass(frozen=True)
class AppliedFault:
    """One injector action, as it actually landed."""

    time_s: float
    node_id: int
    fault: str
    action: str   # "begin" | "end"
    applied: bool
    detail: str = ""

    def as_tuple(self) -> tuple:
        return (round(self.time_s, 9), self.node_id, self.fault,
                self.action, self.applied, self.detail)


class FaultInjector:
    """Drives one :class:`FaultSchedule` against a fleet of nodes.

    Same lifecycle contract as the autoscaler (``start`` / ``stop``;
    attach via ``EdgeCluster.attach_injector``).  The injector never
    creates faults of its own — it is a pure, replayable transcript
    player, which is what keeps chaos runs bit-reproducible.
    """

    def __init__(self, env: Environment, nodes: Sequence[ClusterNode],
                 schedule: FaultSchedule):
        if not nodes:
            raise ConfigError("fault injector needs at least one node")
        if schedule.spec.n_nodes > len(nodes):
            raise ConfigError(
                f"schedule targets {schedule.spec.n_nodes} nodes but the "
                f"fleet has {len(nodes)}"
            )
        self.env = env
        self.nodes: Dict[int, ClusterNode] = {n.node_id: n for n in nodes}
        self.schedule = schedule
        #: Shared observability sink (all cluster nodes carry the same
        #: observer); fault episodes land on ``node{i}.faults`` tracks.
        self.obs = next(iter(self.nodes.values())).obs
        #: (node_id, fault class) -> open episode span id.
        self._episode_spans: Dict[Tuple[int, str], int] = {}
        #: Deterministic transcript of every edge, applied or skipped.
        self.trace: List[AppliedFault] = []
        #: node_id -> operating point snapshot taken at brownout begin.
        self._brownout_restore: Dict[int, PowerMode] = {}
        #: node_id -> ambient delta currently applied (thermal episodes).
        self._ambient_applied: Dict[int, float] = {}
        self._running = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.env.process(self._run(), name="fault-injector")

    def stop(self) -> None:
        self._running = False

    def _run(self):
        for ev in self.schedule.events:
            if not self._running:
                return
            if ev.time_s > self.env.now:
                yield self.env.timeout_at(ev.time_s)
            if not self._running:
                return
            self._apply(ev)

    # -- edge handlers -----------------------------------------------------
    def _record(self, ev: FaultEvent, applied: bool, detail: str = "") -> None:
        self.trace.append(AppliedFault(
            time_s=self.env.now, node_id=ev.node_id, fault=ev.fault.value,
            action=ev.action, applied=applied, detail=detail,
        ))
        if not self.obs.enabled:
            return
        name = kinds.fault_kind(ev.fault.value)
        track = f"node{ev.node_id}.faults"
        key = (ev.node_id, ev.fault.value)
        if not applied:
            self.obs.instant(name, cat=kinds.CAT_FAULT, track=track,
                             action=ev.action, skipped=detail or "moot")
        elif ev.action == "begin":
            self._episode_spans[key] = self.obs.begin(
                name, cat=kinds.CAT_FAULT, track=track,
                magnitude=ev.magnitude, detail=detail)
            self.obs.metrics.counter("faults_injected_total",
                                     fault=ev.fault.value).inc()
        else:
            self.obs.end(self._episode_spans.pop(key, NO_SPAN), detail=detail)

    def _apply(self, ev: FaultEvent) -> None:
        node = self.nodes.get(ev.node_id)
        if node is None:
            self._record(ev, False, "no such node")
            return
        handler = {
            FaultClass.CRASH: self._crash,
            FaultClass.BROWNOUT: self._brownout,
            FaultClass.OOM: self._oom,
            FaultClass.STRAGGLER: self._straggler,
            FaultClass.THERMAL: self._thermal,
        }[ev.fault]
        handler(ev, node)

    def _crash(self, ev: FaultEvent, node: ClusterNode) -> None:
        if ev.action == "begin":
            if not node.healthy:
                self._record(ev, False, "already down")
                return
            orphans = node.crash()
            # A reboot wipes volatile operating state; pending restores
            # for this node no longer describe anything real.
            self._brownout_restore.pop(node.node_id, None)
            self._record(ev, True, f"orphaned={len(orphans)}")
        else:
            if node.healthy:
                self._record(ev, False, "already up")
                return
            node.restart()
            self._record(ev, True)

    def _brownout(self, ev: FaultEvent, node: ClusterNode) -> None:
        spec = self.schedule.spec
        if ev.action == "begin":
            if node.node_id in self._brownout_restore:
                self._record(ev, False, "already browned out")
                return
            self._brownout_restore[node.node_id] = node.current_mode_snapshot()
            forced = clamp_mode_to_device(
                get_power_mode(spec.brownout_mode), node.device)
            node.apply_mode(forced)
            self._record(ev, True, f"mode={forced.name}")
        else:
            restore = self._brownout_restore.pop(node.node_id, None)
            if restore is None:
                # Node crashed (and maybe rebooted) mid-brownout; the
                # reboot already restored the configured mode.
                self._record(ev, False, "no snapshot (crashed mid-episode)")
                return
            node.apply_mode(restore)
            self._record(ev, True)

    def _oom(self, ev: FaultEvent, node: ClusterNode) -> None:
        if ev.action == "begin":
            evicted = node.set_kv_shrink(ev.magnitude)
            self._record(ev, True, f"evicted={len(evicted)}")
        else:
            node.set_kv_shrink(1.0)
            self._record(ev, True)

    def _straggler(self, ev: FaultEvent, node: ClusterNode) -> None:
        if ev.action == "begin":
            node.set_slowdown(ev.magnitude)
        else:
            node.set_slowdown(1.0)
        self._record(ev, True)

    def _thermal(self, ev: FaultEvent, node: ClusterNode) -> None:
        if ev.action == "begin":
            if self._ambient_applied.get(node.node_id):
                self._record(ev, False, "episode already active")
                return
            node.shift_ambient(ev.magnitude)
            self._ambient_applied[node.node_id] = ev.magnitude
            self._record(ev, True)
        else:
            delta = self._ambient_applied.pop(node.node_id, 0.0)
            if not delta:
                self._record(ev, False, "no active episode")
                return
            node.shift_ambient(-delta)
            self._record(ev, True)

    # -- reporting ---------------------------------------------------------
    def applied_trace(self) -> List[Tuple]:
        """Canonical rows (what determinism comparisons use)."""
        return [a.as_tuple() for a in self.trace]

    def class_active_seconds(self, until_s: Optional[float] = None) -> Dict[str, float]:
        """Wall-seconds each fault class was active across the fleet.

        Sums per-episode overlap with ``[0, until_s]`` (default: now),
        from the *schedule* — the denominator for per-class energy
        overhead attribution.
        """
        horizon = self.env.now if until_s is None else until_s
        out: Dict[str, float] = {}
        for ep in self.schedule.episodes:
            active = max(0.0, min(ep.end_s, horizon) - min(ep.start_s, horizon))
            out[ep.fault.value] = out.get(ep.fault.value, 0.0) + active
        return out
