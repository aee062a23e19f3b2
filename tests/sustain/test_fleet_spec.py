"""FleetSpec: validation, region stamping and cache-key stability."""

import pytest

from repro.cluster import FleetSpec, NodeSpec
from repro.errors import ConfigError
from repro.sustain import CarbonTrace


class TestValidation:
    def test_needs_nodes(self):
        with pytest.raises(ConfigError):
            FleetSpec(nodes=())

    def test_nodes_must_be_nodespecs(self):
        with pytest.raises(ConfigError):
            FleetSpec(nodes=("jetson-orin-agx-64gb",))

    def test_unknown_model_precision_policy(self):
        from repro.errors import ReproError

        node = (NodeSpec("jetson-orin-agx-64gb"),)
        with pytest.raises(ReproError):
            FleetSpec(nodes=node, model="gpt17")
        with pytest.raises(ReproError):
            FleetSpec(nodes=node, precision="fp12")
        with pytest.raises(ConfigError):
            FleetSpec(nodes=node, policy="fifo")

    def test_duplicate_region_binding_rejected(self):
        tr = CarbonTrace.constant(100.0)
        with pytest.raises(ConfigError):
            FleetSpec(nodes=(NodeSpec("jetson-orin-agx-64gb"),),
                      traces=(("eu", tr), ("eu", tr)))

    def test_of_mixes_presets_and_specs_and_stamps_regions(self):
        fleet = FleetSpec.of(
            ["jetson-orin-agx-64gb",
             NodeSpec("jetson-xavier-agx-32gb", max_batch=2)],
            regions=["eu", None],
            traces={"eu": CarbonTrace.constant(90.0)})
        assert fleet.nodes[0].region == "eu"
        assert fleet.nodes[1].region is None
        assert fleet.nodes[1].max_batch == 2
        assert fleet.trace_for("eu").mean_intensity() == 90.0
        assert fleet.trace_for(None) is None
        assert fleet.trace_for("us") is None

    def test_regions_must_parallel_devices(self):
        with pytest.raises(ConfigError):
            FleetSpec.of(["jetson-orin-agx-64gb"], regions=["eu", "us"])

    def test_spec_is_hashable_and_cacheable(self):
        import dataclasses

        from repro.core.cache import payload_fingerprint

        fleet = FleetSpec.of(["jetson-orin-agx-64gb"],
                             traces={"eu": CarbonTrace.diurnal(seed=1)},
                             regions=["eu"])
        hash(fleet)  # frozen dataclass of tuples
        a = payload_fingerprint(dataclasses.asdict(fleet))
        b = payload_fingerprint(dataclasses.asdict(fleet))
        assert a == b
