"""The :class:`RuntimeBackend` abstraction.

A backend bundles everything about an inference stack that is *not* the
hardware or the model: how weights are laid out in memory, which KV
policy the cache follows, what the batching discipline admits, and the
per-phase kernel-cost hooks that feed the existing
:class:`~repro.engine.kernels.StepTimer` roofline machinery.

:class:`~repro.engine.runtime.ServingEngine` delegates to a backend for
every runtime-specific decision; :class:`~repro.cluster.node.ClusterNode`
uses the same hooks for its continuous-batching admission control, so a
fleet can mix runtimes per node.

Backends are frozen dataclasses: their configuration is part of the
experiment's content address (:meth:`config_payload` is hashed into the
result-cache key alongside
:data:`~repro.backends.registry.BACKEND_MODEL_VERSION`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.quant.dtypes import Precision


@dataclass(frozen=True)
class RuntimeBackend:
    """Base class for inference-runtime backends.

    Subclasses override the hooks below; the defaults describe the
    most common behaviour (full-request KV reservation, no growth
    traffic) so a minimal backend only needs weight layout and a timer.
    """

    #: Registry name (class attribute on subclasses).
    name = "base"
    #: One-line description for ``repro backends``.
    description = ""
    #: True when the runtime admits work by currently-free KV blocks
    #: rather than the request's whole-lifetime KV footprint (and may
    #: therefore have to preempt when the pool later runs dry).
    admits_by_free_blocks = False

    # -- weight layout -----------------------------------------------------
    def weight_bytes(self, arch, precision: Precision) -> int:
        """Bytes the loaded weights occupy under this runtime."""
        raise NotImplementedError

    def load_weights(self, allocator, arch, precision: Precision) -> None:
        """Allocate the weights the way this runtime's loader does."""
        raise NotImplementedError

    # -- kernel cost --------------------------------------------------------
    def make_timer(self, arch, device, precision: Precision, params=None):
        """Step-cost model for (model, device, precision) on this runtime.

        Must return a :class:`~repro.engine.kernels.StepTimer` (or
        subclass): the roofline/utilization machinery and the memo
        discipline are shared across runtimes.
        """
        raise NotImplementedError

    # -- memory + batching ---------------------------------------------------
    def workspace_bytes(self, arch, precision: Precision,
                        batch_size: int) -> int:
        """Runtime scratch held for the duration of a run."""
        raise NotImplementedError

    def make_executor(self, timer, allocator, arch, precision: Precision,
                      batch_size: int, fast_forward: bool = True):
        """Executor for one batch: an object whose ``run(env, request,
        state, obs=..., track=...)`` generator yields sim timeouts and
        returns a :class:`~repro.engine.request.BatchResult`."""
        raise NotImplementedError

    # -- cluster admission hooks --------------------------------------------
    def request_kv_reservation(self, input_tokens: int, output_tokens: int,
                               bytes_per_token: int) -> int:
        """KV bytes admission control charges an arriving request.

        Default: the whole-lifetime footprint (HF/static runtimes must
        guarantee the full sequence fits before starting it).
        """
        return (input_tokens + output_tokens) * bytes_per_token

    def live_kv_bytes(self, input_tokens: int, generated: int,
                      output_tokens: int, bytes_per_token: int) -> int:
        """KV bytes a running request holds right now.

        Default: equal to the admission reservation — runtimes that
        reserve up front never grow past it.
        """
        return self.request_kv_reservation(input_tokens, output_tokens,
                                           bytes_per_token)

    def live_kv_block_tokens(self) -> int:
        """The growth rule of :meth:`live_kv_bytes` while decoding.

        ``B > 0``: a running request's live KV grows by one block of
        ``B`` tokens' bytes exactly when ``input_tokens + generated``
        passes a multiple of ``B``, and is otherwise constant.  ``0``
        (default): live KV does not depend on ``generated``.
        """
        return 0

    def decode_concat_bytes(self, live_kv_bytes: float) -> float:
        """Extra DRAM traffic one decode step pays to grow the cache.

        Default: none (pre-allocated / paged caches write in place).
        """
        return 0.0

    def decode_concat_run(self, kv_bytes_per_ctx: int) -> tuple:
        """:meth:`decode_concat_bytes` as a linear rule in the context.

        Returns ``(concat_coef, concat_lead)`` for
        :meth:`~repro.engine.kernels.StepTimer.decode_run`, so that its
        concat term equals ``decode_concat_bytes(ctx * kv_bytes_per_ctx)``
        at every context ``ctx`` (``kv_bytes_per_ctx``: the live KV bytes
        one context token costs the whole batch).  Default: no traffic.
        """
        return 0, 0

    # -- identity ------------------------------------------------------------
    def config_payload(self) -> dict:
        """JSON-serialisable configuration for content addressing."""
        payload = {"name": self.name}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if dataclasses.is_dataclass(v):
                v = dataclasses.asdict(v)
            payload[f.name] = v
        return payload

    def with_(self, **kwargs) -> "RuntimeBackend":
        """Copy with configuration overrides."""
        return dataclasses.replace(self, **kwargs)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def resolve_backend(backend: "Optional[RuntimeBackend | str]",
                    default: str = "hf-transformers") -> RuntimeBackend:
    """Coerce a name-or-instance argument to a backend instance."""
    from repro.backends.registry import get_backend

    if backend is None:
        return get_backend(default)
    if isinstance(backend, RuntimeBackend):
        return backend
    return get_backend(backend)
