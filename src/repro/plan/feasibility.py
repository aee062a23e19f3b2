"""Engine-probing feasibility search.

These searches answer the paper's OOM-cell questions by probing the
*actual simulated engine* (same allocator, same buffers): the largest
batch at a sequence length, the longest sequence at a batch.  They are
exact where the fluid planner is approximate, and slow where it is
fast — a handful of engine runs per probe.  The public surface is
:meth:`repro.plan.PlanSpec.feasibility` and friends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.engine.request import GenerationSpec
from repro.errors import ExperimentError
from repro.quant.dtypes import Precision


@dataclass(frozen=True)
class FeasibilityEnvelope:
    """The OOM boundary of one (model, precision, device) triple.

    ``None`` means even the smallest probe OOMed (the weights alone
    exceed the board).
    """

    max_batch_size: Optional[int]
    max_seq_len: Optional[int]


def engine_feasible(model: str, precision: Precision, device: str,
                    batch_size: int, gen: GenerationSpec) -> bool:
    """Does one engine run at this configuration complete without OOM?

    Probed at the board's *native* operating point (``power_mode=None``):
    the OOM boundary depends on memory capacity, not clocks, and the
    paper's named modes carry AGX clock values that the smaller family
    members (Orin NX, Nano) cannot apply.
    """
    from repro.core.experiment import ExperimentSpec, run_experiment

    spec = ExperimentSpec(
        model=model, precision=precision, device=device,
        batch_size=batch_size, gen=gen, n_runs=1, warmup=0,
        power_mode=None,
    )
    return not run_experiment(spec).oom


def probe_max_batch(
    model: str,
    precision: Precision,
    device: str = "jetson-orin-agx-64gb",
    gen: GenerationSpec = GenerationSpec(32, 64),
    upper: int = 4096,
) -> Optional[int]:
    """Largest feasible batch size at ``gen``; None if even bs=1 OOMs."""
    if upper < 1:
        raise ExperimentError("upper bound must be >= 1")
    if not engine_feasible(model, precision, device, 1, gen):
        return None
    # Exponential probe then binary search.
    lo, hi = 1, 2
    while hi <= upper and engine_feasible(model, precision, device, hi, gen):
        lo, hi = hi, hi * 2
    if hi > upper:
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if engine_feasible(model, precision, device, mid, gen):
            lo = mid
        else:
            hi = mid
    return lo


def probe_max_seq_len(
    model: str,
    precision: Precision,
    device: str = "jetson-orin-agx-64gb",
    batch_size: int = 32,
    input_fraction: float = 0.25,
    upper: int = 65536,
) -> Optional[int]:
    """Longest feasible total sequence length at ``batch_size``.

    Sequence lengths follow the paper's convention: ``input_fraction``
    of the total is prompt, the rest generated.  Returns None if even
    sl=8 OOMs.
    """
    if not (0.0 < input_fraction < 1.0):
        raise ExperimentError("input_fraction must be in (0, 1)")

    def gen_for(sl: int) -> GenerationSpec:
        inp = max(1, int(sl * input_fraction))
        return GenerationSpec(inp, max(1, sl - inp))

    if not engine_feasible(model, precision, device, batch_size, gen_for(8)):
        return None
    lo, hi = 8, 16
    while hi <= upper and engine_feasible(model, precision, device,
                                          batch_size, gen_for(hi)):
        lo, hi = hi, hi * 2
    if hi > upper:
        return lo
    while hi - lo > 8:
        mid = (lo + hi) // 2
        if engine_feasible(model, precision, device, batch_size,
                           gen_for(mid)):
            lo = mid
        else:
            hi = mid
    return lo
