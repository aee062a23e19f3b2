"""Exception hierarchy for the repro package.

Every error raised intentionally by this library derives from
:class:`ReproError` so callers can catch library failures without also
swallowing programming errors (``TypeError`` etc.).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration object failed validation."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel detected an inconsistency."""


class SimulationStalled(SimulationError):
    """A run stopped making progress: one request keeps being evicted
    and re-admitted without ever finishing (a replay livelock).

    Carries where it happened and the node's state at that point, so
    the failing cell can be diagnosed without rerunning it.
    """

    def __init__(self, node_id: int, req_id: int, replays: int,
                 queue_len: int, active: int, kv_in_use: int):
        self.node_id = node_id
        self.req_id = req_id
        self.replays = replays
        self.queue_len = queue_len
        self.active = active
        self.kv_in_use = kv_in_use
        super().__init__(
            f"node {node_id}: request {req_id} was sacrificed and replayed "
            f"{replays} times without finishing (queue {queue_len}, "
            f"active {active}, KV in use {kv_in_use} B)")


class OutOfMemoryError(ReproError):
    """The simulated device ran out of shared CPU/GPU memory.

    Mirrors a CUDA OOM on the real board.  Carries the number of bytes
    that were requested and how many were available at the failure point.
    """

    def __init__(self, requested_bytes: int, available_bytes: int, context: str = ""):
        self.requested_bytes = int(requested_bytes)
        self.available_bytes = int(available_bytes)
        self.context = context
        msg = (
            f"simulated OOM: requested {requested_bytes / 2**30:.2f} GiB, "
            f"only {available_bytes / 2**30:.2f} GiB available"
        )
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class AllocationError(ReproError):
    """An invalid allocator operation (double free, unknown handle, ...)."""


class QuantizationError(ReproError):
    """Invalid quantization input (bad block size, empty tensor, ...)."""


class TokenizerError(ReproError):
    """Tokenizer training or encoding failure."""


class ModelError(ReproError):
    """Invalid model architecture description or unknown model name."""


class PowerModeError(ReproError):
    """Invalid power-mode definition or unknown mode name."""


class WorkloadError(ReproError):
    """Workload/dataset construction failure (e.g. empty prompt pool)."""


class CalibrationError(ReproError):
    """Calibration fitting failed or calibration data is inconsistent."""


class ExperimentError(ReproError):
    """An experiment specification is invalid or a run failed."""
