"""Instantaneous board power from device state and component utilization.

The model is the standard CMOS decomposition: a fixed idle floor plus,
per clock domain, ``C * f * V(f)^2`` scaled by how hard the domain is
actually working.  The GPU term distinguishes *compute-limited* execution
(ALUs toggling, maximum dynamic power) from *memory-stalled* execution
(kernels resident but waiting on DRAM, much lower dynamic power) — this
distinction is what lets the model reproduce the paper's observations
that (a) memory-throttled mode H cuts power 52% even with the GPU clock
untouched, and (b) INT8, which only keeps ~60% of the GPU busy, draws
much less power than FP16/INT4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigError
from repro.hardware.device import EdgeDevice
from repro.power.dvfs import DvfsCurve


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


@dataclass(frozen=True)
class ComponentUtilization:
    """Utilization snapshot produced by the inference engine for a phase.

    Attributes
    ----------
    gpu_compute:
        Fraction of wall time the GPU is executing compute-limited work.
    gpu_busy:
        Fraction of wall time any kernel is resident (>= gpu_compute).
    mem_bw:
        Achieved DRAM bandwidth / peak bandwidth *at the current clock*.
    cpu_cores_active:
        Average number of busy CPU cores (may be fractional).
    """

    gpu_compute: float = 0.0
    gpu_busy: float = 0.0
    mem_bw: float = 0.0
    cpu_cores_active: float = 0.0

    def __post_init__(self) -> None:
        if self.gpu_busy + 1e-9 < self.gpu_compute:
            raise ConfigError("gpu_busy must be >= gpu_compute")
        if self.cpu_cores_active < 0:
            raise ConfigError("cpu_cores_active must be >= 0")

    @staticmethod
    def idle() -> "ComponentUtilization":
        return ComponentUtilization()

    @staticmethod
    def from_step_cost(cost) -> "ComponentUtilization":
        """The utilization snapshot a :class:`~repro.engine.kernels.StepCost`
        implies — the single mapping both the cluster nodes and the
        analytic planner attribute step power through."""
        return ComponentUtilization(
            gpu_compute=cost.gpu_compute_frac,
            gpu_busy=cost.gpu_busy_frac,
            mem_bw=cost.mem_bw_frac,
            cpu_cores_active=cost.cpu_cores_active,
        )


@dataclass
class PowerModel:
    """Maps an :class:`EdgeDevice` operating point + utilization to watts.

    Coefficients are the *dynamic* power at max clock and 100% utilization
    of the respective domain; they are calibrated per device family (see
    :mod:`repro.calibration`).
    """

    #: GPU dynamic power when fully compute-bound at max clock (W).
    gpu_compute_w: float = 45.0
    #: GPU dynamic power when busy but stalled on memory at max clock (W).
    gpu_stall_w: float = 3.0
    #: Dynamic power of one active CPU core at max clock (W).
    cpu_core_w: float = 1.5
    #: DRAM dynamic power at 100% bandwidth utilization, max clock (W).
    mem_w: float = 8.0
    #: Static power adder per online CPU core (leakage + L2 clocking, W).
    cpu_core_static_w: float = 0.18
    gpu_dvfs: DvfsCurve = field(
        default_factory=lambda: DvfsCurve(f_min_hz=114.75e6, f_max_hz=1301e6)
    )
    cpu_dvfs: DvfsCurve = field(
        default_factory=lambda: DvfsCurve(f_min_hz=115.2e6, f_max_hz=2201.4e6)
    )
    mem_dvfs: DvfsCurve = field(
        default_factory=lambda: DvfsCurve(
            f_min_hz=204e6, f_max_hz=3199e6, v_min=0.55, v_max=0.85
        )
    )

    def __post_init__(self) -> None:
        #: power_w memo, per instance: (operating point, utilization)
        #: -> watts.  The coefficients above are never mutated in place.
        self._power_memo: Dict[tuple, float] = {}

    def breakdown(
        self, device: EdgeDevice, util: ComponentUtilization
    ) -> Dict[str, float]:
        """Per-component watts for the given state; keys sum to total."""
        gpu_scale = self.gpu_dvfs.dynamic_power_ratio(device.gpu.freq_hz)
        cpu_scale = self.cpu_dvfs.dynamic_power_ratio(device.cpu.freq_hz)
        mem_scale = self.mem_dvfs.dynamic_power_ratio(device.memory.freq_hz)

        compute = _clamp01(util.gpu_compute)
        stalled = _clamp01(util.gpu_busy) - compute
        gpu_w = gpu_scale * (self.gpu_compute_w * compute + self.gpu_stall_w * stalled)

        cores = min(util.cpu_cores_active, float(device.cpu.online_cores))
        cpu_w = cpu_scale * self.cpu_core_w * cores
        cpu_static = self.cpu_core_static_w * device.cpu.online_cores

        mem_w = mem_scale * self.mem_w * _clamp01(util.mem_bw)

        return {
            "idle": device.idle_power_w,
            "cpu_static": cpu_static,
            "gpu": gpu_w,
            "cpu": cpu_w,
            "mem": mem_w,
        }

    def power_w(self, device: EdgeDevice, util: ComponentUtilization) -> float:
        """Total instantaneous board power in watts.

        Memoized per operating point and utilization (the same
        summation as :meth:`breakdown`, so results are bit-identical):
        a serving node revisits the same few step costs at the same
        clocks for its whole run.
        """
        gpu, cpu = device.gpu, device.cpu
        key = (gpu.freq_hz, cpu.freq_hz, device.memory.freq_hz,
               cpu.online_cores, device.idle_power_w, util.gpu_compute,
               util.gpu_busy, util.mem_bw, util.cpu_cores_active)
        watts = self._power_memo.get(key)
        if watts is None:
            watts = sum(self.breakdown(device, util).values())
            self._power_memo[key] = watts
        return watts
