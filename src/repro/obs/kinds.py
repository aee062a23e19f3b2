"""Canonical span / event kind names for the observability layer.

Every subsystem that emits telemetry — the single-device engine, the
cluster serving loop, the fault injector, the power sampler — names its
spans and instants from this module instead of scattering ad-hoc kind
strings.  Reporting code (``repro.reporting.breakdown``), the exporters
and the tests all key off the same constants, so a renamed kind is a
one-line change that the whole stack follows.

Names are stable identifiers: they appear verbatim in exported Chrome
traces, Prometheus metric labels and CSV rows.  Treat a rename as a
breaking change to downstream tooling.
"""

from __future__ import annotations

# -- span / instant names -----------------------------------------------------

#: Whole-request lifecycle span (arrival to completion or rejection).
REQUEST = "request"
#: Admission-queue wait (placement/submit to batch admission).
QUEUE = "queue"
#: Prompt processing (the TTFT phase).
PREFILL = "prefill"
#: Token generation.  In fast-forward mode one span covers a whole
#: inter-event stretch of decode steps; step mode emits one per step.
DECODE = "decode"
#: One warm-up or measured batch of the single-device protocol.
BATCH = "batch"
#: A placement round that found no node with capacity.
RETRY = "retry"
#: A request re-placed after losing its node (crash orphan).
REQUEUE = "requeue"
#: A request replayed from scratch after KV-state loss.
REPLAY = "replay"
#: Admission control (or the retry budget) gave up on a request.
REJECT = "reject"
#: A running request evicted from its batch under KV pressure.
EJECT = "eject"
#: An evicted request re-admitted to a running batch.
READMIT = "readmit"
#: An nvpmodel-style operating-point change on a node.
MODE_CHANGE = "mode_change"
#: One autoscaler control action (carries the rung and reason).
AUTOSCALE = "autoscale"
#: A routing decision (carries the chosen node and policy).
ROUTE = "route"
#: KV-cache movement between prefill and decode nodes (disaggregated).
KV_TRANSFER = "kv_transfer"
#: A preempted request's KV written out to the host side (swap tier).
KV_SWAP_OUT = "kv.swap_out"
#: Swapped KV restored to device memory ahead of decode resumption.
KV_SWAP_IN = "kv.swap_in"
#: A prompt prefix served from the shared radix cache (paged backend).
KV_PREFIX_HIT = "kv.prefix_hit"
#: A fair scheduler admitted a request from other than the queue head
#: (carries the scheduler, tenant and the queue-jump distance).
SCHED_SELECT = "sched.select"
#: The per-tenant token throttle turned a request away at injection.
TENANT_THROTTLE = "tenant.throttle"
#: Per-tenant served-token counter series are named
#: ``served_tokens.<tenant>`` (fair-scheduler runs only).
SERVED_TOKENS_PREFIX = "served_tokens."
#: Fault-episode spans are named ``fault.<class>`` (``fault.crash``...).
FAULT_PREFIX = "fault."
#: jtop-style board power counter series (watts over sim time).
POWER_W = "power_w"
#: An SLM-tier request failed the cascade's quality gate; an LLM-tier
#: twin was injected (carries the wasted SLM tokens and the twin id).
CASCADE_ESCALATE = "cascade.escalate"
#: Cumulative per-node carbon counter series (grams CO₂ over sim time,
#: emitted only for nodes bound to a region's carbon trace).
CARBON_G = "carbon_g"

# -- categories ---------------------------------------------------------------

CAT_ENGINE = "engine"
CAT_CLUSTER = "cluster"
CAT_REQUEST = "request"
CAT_FAULT = "fault"


def fault_kind(fault_class: str) -> str:
    """Span name of one fault class (``"crash"`` -> ``"fault.crash"``)."""
    return FAULT_PREFIX + fault_class


def served_tokens_kind(tenant: str) -> str:
    """Counter-series name of one tenant's served-token meter."""
    return SERVED_TOKENS_PREFIX + tenant
