"""jtop-style periodic power sampler as a DES process."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.engine.state import EngineState
from repro.errors import ConfigError
from repro.hardware.device import EdgeDevice
from repro.obs import kinds
from repro.obs.span import NULL_OBSERVER, Observer
from repro.power.model import ComponentUtilization, PowerModel
from repro.sim.environment import Environment

#: What a board reports at the clock: its phase label and utilization.
Reading = Callable[[], Tuple[str, ComponentUtilization]]


@dataclass(frozen=True)
class PowerSample:
    """One reading: time, total watts, and the active phase label."""

    time_s: float
    power_w: float
    phase: str


class PowerSampler:
    """Samples one board's power every ``period_s`` of simulated time.

    Start with :meth:`start`; the process runs until the environment
    drains or :meth:`stop` is called.  Samples accumulate in
    :attr:`samples`; when an observer is attached each reading is also
    published as a :data:`~repro.obs.kinds.POWER_W` counter series on
    ``obs_track`` (one Perfetto counter lane per sampled board) and
    folded into the ``power_w`` histogram of the metrics registry.

    A board that commits its state lazily passes ``reading``, a pure
    function of the clock returning the ``(phase, util)`` the board
    shows now; by default the sampler reads ``state``.  Boards of one
    fleet are sampled together by a :class:`FleetSampler`; :meth:`start`
    runs a fleet of one.
    """

    def __init__(
        self,
        env: Environment,
        device: EdgeDevice,
        power_model: PowerModel,
        state: EngineState,
        period_s: float = 2.0,
        obs: Observer = NULL_OBSERVER,
        obs_track: str = "power",
        reading: Optional[Reading] = None,
    ):
        if period_s <= 0:
            raise ConfigError("sampling period must be positive")
        self.env = env
        self.device = device
        self.power_model = power_model
        self.state = state
        self.period_s = period_s
        self.obs = obs
        self.obs_track = obs_track
        self.reading = reading or self._read_state
        self.samples: List[PowerSample] = []
        self._fleet: Optional[FleetSampler] = None

    def start(self) -> None:
        """Begin sampling (idempotent)."""
        if self._fleet is None:
            self._fleet = FleetSampler([self])
        self._fleet.start()

    def stop(self) -> None:
        """End the sampling process; no later tick reads this board."""
        if self._fleet is not None:
            self._fleet.stop()

    def _read_state(self) -> Tuple[str, ComponentUtilization]:
        return self.state.phase, self.state.util

    def take_sample(self) -> None:
        """Read the board at the clock and record one sample."""
        phase, util = self.reading()
        watts = self.power_model.power_w(self.device, util)
        now = self.env.now
        self.samples.append(PowerSample(now, watts, phase))
        if self.obs.enabled:
            self.obs.counter(kinds.POWER_W, watts, track=self.obs_track,
                             time_s=now)
            self.obs.metrics.histogram(
                "power_w", buckets=(5, 10, 15, 20, 25, 30, 40, 50, 60, 80),
                track=self.obs_track,
            ).observe(watts)


class FleetSampler:
    """One ``power-sampler`` process reading every board of a fleet.

    Each period takes one heap event at the shared tick time and samples
    the boards in the order given.  Tick times fold left from the start
    (``t + period``, the sum ``env.timeout`` makes), so every board's
    samples equal those of its own per-board process.  :meth:`stop`
    ends the process; a restart resumes the same grid at its next tick,
    so a fleet served twice still samples once per period.
    """

    def __init__(self, samplers: Sequence[PowerSampler]):
        if not samplers:
            raise ConfigError("a fleet sampler needs at least one board")
        first = samplers[0]
        if any(s.env is not first.env or s.period_s != first.period_s
               for s in samplers):
            raise ConfigError(
                "a fleet's boards share one clock and one sampling period")
        self.env = first.env
        self.period_s = first.period_s
        self.samplers = list(samplers)
        #: Identifies the running process (None when stopped).
        self._token: Optional[object] = None
        #: Time of the last tick (None before the first).
        self._last: Optional[float] = None

    def start(self) -> None:
        """Begin sampling (idempotent while running)."""
        if self._token is None:
            self._token = object()
            self.env.process(self._run(self._token), name="power-sampler")

    def stop(self) -> None:
        """End the sampling process: its next tick reads nothing and
        returns, even when :meth:`start` has begun another."""
        self._token = None

    def _run(self, token: object):
        # Sample at the first start, then every period, like a jtop
        # session started alongside the workload.
        env, period, samplers = self.env, self.period_s, self.samplers
        if self._last is not None:
            tick = self._last + period
            while tick < env.now:
                tick = tick + period
            yield env.timeout_at(tick)
        while self._token is token:
            for s in samplers:
                s.take_sample()
            self._last = env.now
            yield env.timeout(period)
