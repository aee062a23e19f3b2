"""Spec-first fleet construction: the declarative `FleetSpec`.

:class:`FleetSpec` is the spec-first fleet description: one frozen,
hashable value describes the whole fleet — regions, device presets,
per-node model/precision/runtime/kv-policy/power-mode, the routing
policy with its knobs, and the carbon/price trace bound to each region
— and :meth:`EdgeCluster.of <repro.cluster.cluster.EdgeCluster.of>`
instantiates it.

Being a plain dataclass of tuples, a ``FleetSpec`` folds directly into
content-addressed sweep cache keys via ``dataclasses.asdict``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.cluster.cluster import NodeSpec
from repro.cluster.router import list_policies
from repro.errors import ConfigError
from repro.models import get_model
from repro.quant.dtypes import Precision
from repro.sustain.trace import CarbonTrace


@dataclass(frozen=True)
class FleetSpec:
    """Declarative description of a whole serving fleet.

    ``traces`` binds a :class:`~repro.sustain.trace.CarbonTrace` to
    each named region (sorted ``(region, trace)`` pairs, so the spec
    stays hashable); nodes carrying that ``region`` meter their energy
    against it and the carbon-aware router reads it live.  Regions
    without a binding (or nodes without a region) simply have no carbon
    accounting — every legacy fleet is a valid ``FleetSpec``.
    """

    nodes: Tuple[NodeSpec, ...]
    model: str = "llama"
    precision: str = "fp16"
    policy: str = "round-robin"
    #: Sorted ``(region, CarbonTrace)`` bindings.
    traces: Tuple[Tuple[str, CarbonTrace], ...] = ()
    #: Sorted ``(name, value)`` keyword arguments for the router.
    router_args: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ConfigError("fleet needs at least one node")
        for s in self.nodes:
            if not isinstance(s, NodeSpec):
                raise ConfigError(
                    f"fleet nodes must be NodeSpec, got {type(s).__name__}")
        get_model(self.model)  # typed error on unknown names
        Precision.parse(self.precision)
        if self.policy.strip().lower() not in list_policies():
            raise ConfigError(
                f"unknown routing policy {self.policy!r}; known: "
                f"{', '.join(list_policies())}")
        seen = set()
        for binding in self.traces:
            if (not isinstance(binding, tuple) or len(binding) != 2
                    or not isinstance(binding[0], str)
                    or not isinstance(binding[1], CarbonTrace)):
                raise ConfigError(
                    "traces must be (region, CarbonTrace) pairs")
            if binding[0] in seen:
                raise ConfigError(
                    f"region {binding[0]!r} bound to more than one trace")
            seen.add(binding[0])

    @classmethod
    def of(
        cls,
        devices: Sequence[Union[str, NodeSpec]],
        model: str = "llama",
        precision: str = "fp16",
        policy: str = "round-robin",
        regions: Optional[Sequence[Optional[str]]] = None,
        traces: Optional[Mapping[str, CarbonTrace]] = None,
        **router_kwargs,
    ) -> "FleetSpec":
        """Build a spec from device presets and/or node specs.

        ``devices`` mixes preset names (``"jetson-orin-agx-64gb"``)
        and ready :class:`NodeSpec` values; ``regions`` (parallel to
        ``devices``) stamps a region onto each node; ``traces`` maps
        region names to :class:`CarbonTrace` bindings.  Extra keyword
        arguments are the routing policy's knobs.
        """
        if regions is not None and len(regions) != len(devices):
            raise ConfigError("regions must parallel devices one-to-one")
        nodes = []
        for i, d in enumerate(devices):
            spec = d if isinstance(d, NodeSpec) else NodeSpec(device=d)
            if regions is not None and regions[i] is not None:
                spec = NodeSpec(**{**_spec_fields(spec),
                                   "region": regions[i]})
            nodes.append(spec)
        return cls(
            nodes=tuple(nodes),
            model=model,
            precision=precision,
            policy=policy,
            traces=tuple(sorted((traces or {}).items())),
            router_args=tuple(sorted(router_kwargs.items())),
        )

    def trace_for(self, region: Optional[str]) -> Optional[CarbonTrace]:
        """The carbon trace bound to ``region`` (None when unbound)."""
        if region is None:
            return None
        return dict(self.traces).get(region)

    def router_kwargs(self) -> Dict[str, object]:
        return dict(self.router_args)


def _spec_fields(spec: NodeSpec) -> Dict[str, object]:
    """The constructor kwargs reproducing ``spec`` (for with-overrides)."""
    from dataclasses import fields

    return {f.name: getattr(spec, f.name) for f in fields(spec)}
