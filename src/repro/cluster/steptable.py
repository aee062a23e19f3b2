"""What one planned decode step costs a cluster node, by context length.

At a fixed operating point (device clocks and online cores), straggler
slowdown, ambient temperature, step timer and thermal model, everything
the decode stretch planner needs for a step — except the running
junction temperature — is a pure function of (batch, context): the
step's wall seconds, its joules, its utilization and the RC step's
``(target, alpha)``.  A :class:`DecodeStepTable` keeps those as columns
indexed by context, one row set per (batch, clocks, cores, slowdown,
ambient), so the planner does one lookup and one RC fold per step
instead of a step-cost, a power and a thermal model call.

Entries are the floats the per-step path computes: missing contexts are
filled a stretch at a time by one vectorized
:meth:`~repro.engine.kernels.StepTimer.decode_run` pass (elementwise
equal to :meth:`~repro.engine.kernels.StepTimer.decode_step` under the
backend's concat rule), watts go through
:meth:`~repro.power.model.PowerModel.power_w` and the RC coefficients
through :meth:`~repro.hardware.thermal.ThermalModel.rc_coefficients`.
A new timer (precision change) or thermal model empties the table; the
power model, the device's idle floor and the thermal model's constants
never change in place.
"""

from __future__ import annotations

from array import array

from repro.power.model import ComponentUtilization

#: Filled entries a table holds before it starts over (a few MB).
TABLE_CAP = 1 << 15


class StepPrices:
    """Per-step columns of one (batch, operating point), indexed by
    context length; ``have[ctx]`` is 1 once context ``ctx`` is filled."""

    __slots__ = ("seconds", "joules", "target", "alpha", "utils", "have")

    def __init__(self) -> None:
        self.seconds = array("d")
        self.joules = array("d")
        self.target = array("d")
        self.alpha = array("d")
        self.utils: list = []
        self.have = bytearray()

    def grow(self, size: int) -> None:
        """Extend every column to hold contexts below ``size``."""
        extra = size - len(self.have)
        if extra > 0:
            zeros = bytes(8 * extra)
            for column in (self.seconds, self.joules, self.target,
                           self.alpha):
                column.frombytes(zeros)
            self.utils.extend([None] * extra)
            self.have.extend(bytes(extra))


class DecodeStepTable:
    """One node's decode-step prices (see the module docstring)."""

    def __init__(self, device, power_model, backend,
                 kv_per_token: int) -> None:
        self.device = device
        self.power_model = power_model
        self.backend = backend
        self.kv_per_token = kv_per_token
        self._rows: dict = {}
        #: The step timer and thermal model the entries were priced by.
        self._owner: tuple = (None, None)
        #: Filled entries across all rows.
        self.entries = 0

    def clear(self) -> None:
        self._rows.clear()
        self.entries = 0

    def prices(self, timer, thermal, slowdown: float, batch_size: int,
               ctx_start: int, ctx_end: int) -> StepPrices:
        """The row of ``batch_size`` at the current operating point,
        with contexts ``ctx_start..ctx_end-1`` filled."""
        if self._owner[0] is not timer or self._owner[1] is not thermal:
            self.clear()
            self._owner = (timer, thermal)
        dev = self.device
        cpu = dev.cpu
        key = (batch_size, dev.gpu.freq_hz, dev.memory.freq_hz, cpu.freq_hz,
               cpu.online_cores, slowdown, thermal.ambient_c)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = StepPrices()
        row.grow(ctx_end)
        have = row.have
        lo = have.find(0, ctx_start, ctx_end)
        if lo < 0:
            return row
        hi = have.rfind(0, ctx_start, ctx_end) + 1
        missing = have.count(0, lo, hi)
        if self.entries + missing > TABLE_CAP:
            self.clear()
            row = self._rows[key] = StepPrices()
            row.grow(ctx_end)
            lo, hi, missing = ctx_start, ctx_end, ctx_end - ctx_start
        self.entries += missing
        self._fill(row, timer, thermal, slowdown, batch_size, lo, hi)
        return row

    def _fill(self, row: StepPrices, timer, thermal, slowdown: float,
              batch_size: int, lo: int, hi: int) -> None:
        coef, lead = self.backend.decode_concat_run(
            batch_size * self.kv_per_token)
        run = timer.decode_run(batch_size, lo, hi - lo, coef, lead,
                               memoize=False)
        power_w, device = self.power_model.power_w, self.device
        rc = thermal.rc_coefficients
        seconds, joules, target, alpha = (row.seconds, row.joules,
                                          row.target, row.alpha)
        utils, have = row.utils, row.have
        for i, (sec, compute, busy, mem, cores) in enumerate(zip(
                run.seconds, run.gpu_compute_frac, run.gpu_busy_frac,
                run.mem_bw_frac, run.cpu_cores_active)):
            ctx = lo + i
            util = ComponentUtilization(gpu_compute=compute, gpu_busy=busy,
                                        mem_bw=mem, cpu_cores_active=cores)
            sec = sec * slowdown
            watts = power_w(device, util)
            seconds[ctx] = sec
            joules[ctx] = watts * sec
            target[ctx], alpha[ctx] = rc(watts, sec)
            utils[ctx] = util
            have[ctx] = 1
