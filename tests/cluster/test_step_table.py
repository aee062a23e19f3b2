"""The decode-step table: planned stretches priced by lookup must equal
stretches priced by the step-cost, power and thermal models step by step.

``per_step_plan`` below is the planner loop as it was before the table:
three model calls and one RC fold per step.  The differential property
drives one node through power modes, throttle toggles, slowdowns,
ambient shifts, precision changes and thermal-model swaps between plans,
so a table entry kept across any change that moves a step's price shows
up as a mismatch.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.cluster import ClusterRequest
from repro.cluster import steptable
from repro.cluster.node import ClusterNode
from repro.hardware import get_device
from repro.hardware.thermal import ThermalModel
from repro.models import get_model
from repro.power.modes import apply_power_mode, get_power_mode
from repro.quant.dtypes import Precision
from repro.sim.environment import Environment

ORIN64 = "jetson-orin-agx-64gb"
BACKENDS = ("hf-transformers", "gguf", "paged")
PRECISIONS = (Precision.FP16, Precision.INT8, Precision.INT4)
#: MAXN and one mode per resource dimension (GPU, CPU clock, cores,
#: memory clock), so every clock component of the key moves alone.
MODES = ("MAXN", "A", "C", "E", "G")


def hot_thermal(tau_s=4.0):
    """Crosses its throttle thresholds within a stretch at Orin power."""
    return ThermalModel(tau_s=tau_s, r_thermal_c_per_w=2.0,
                        throttle_temp_c=55.0, resume_temp_c=48.0)


def per_step_plan(node, bs, context, t, n_max):
    """Steps ``1..`` of a stretch, one model call of each kind per step:
    returns the boundary times after step 0, joules, seconds, utils and
    temperatures of every planned step."""
    timer, backend = node.timer, node.backend
    power_w, thermal = node.power_model.power_w, node.thermal
    temp, throttled = thermal.temp_c, thermal.throttled
    ts, joules, seconds, utils, temps = [], [], [], [], []
    for k in range(1, n_max):
        ctx = context + k
        cost = timer.decode_step(
            bs, ctx, concat_bytes=backend.decode_concat_bytes(
                bs * ctx * node._kv_per_token))
        sec = cost.seconds * node.slowdown
        watts = power_w(node.device, cost.util)
        temp, now_throttled = thermal.fold(temp, throttled, watts, sec)
        if now_throttled is not throttled:
            break
        t = t + sec
        ts.append(t)
        joules.append(watts * sec)
        seconds.append(sec)
        utils.append(cost.util)
        temps.append(temp)
    return ts, joules, seconds, utils, temps


def _fields(util):
    return (util.gpu_compute, util.gpu_busy, util.mem_bw,
            util.cpu_cores_active)


def _node(backend):
    # Start at MAXN: every other mode in MODES moves one clock from it.
    return ClusterNode(Environment(), 0, get_device(ORIN64),
                       get_model("phi2"), Precision.FP16, power_mode="MAXN",
                       backend=backend, thermal=hot_thermal())


def plan_and_check(node, bs, context, temp):
    """Plan one stretch through the table and compare it with the
    per-step loop from the same node state."""
    node.thermal.temp_c = temp
    node.active = [ClusterRequest(req_id=i, arrival_s=0.0,
                                  input_tokens=context - i,
                                  output_tokens=48)
                   for i in range(bs)]
    cost = node.timer.decode_step(bs, context)
    stretch = node._plan_stretch(bs, context, cost, 1.0, cost.seconds)
    want = per_step_plan(node, bs, context, stretch.ts[1],
                         min(ClusterNode._STRETCH_STEPS, 48))
    assert stretch.ts[2:] == want[0]
    assert stretch.joules[1:] == want[1]
    assert stretch.seconds[1:] == want[2]
    assert [_fields(u) for u in stretch.utils[1:]] == \
        [_fields(u) for u in want[3]]
    assert stretch.temps[1:] == want[4]
    assert stretch.n == len(want[1]) + 1
    node.active = []
    return stretch.n


#: One change to the node; every change in a script is followed by a
#: plan, so a table entry a change should have retired gets looked up.
changes = st.one_of(
    st.tuples(st.just("mode"), st.sampled_from(MODES)),
    st.tuples(st.just("throttle"), st.booleans()),
    st.tuples(st.just("slowdown"), st.sampled_from([1.0, 1.5, 2.5])),
    st.tuples(st.just("ambient"), st.sampled_from([-6.0, 4.0, 9.0])),
    st.tuples(st.just("precision"), st.sampled_from(PRECISIONS)),
    st.tuples(st.just("thermal"), st.sampled_from([4.0, 7.0])),
)
plans = st.tuples(st.just("plan"), st.integers(1, 2),
                  st.sampled_from([40, 52, 64]),
                  st.floats(44.0, 58.0, allow_nan=False))


def apply(node, op):
    kind, *args = op
    if kind == "mode":
        node.apply_mode(get_power_mode(args[0]))
    elif kind == "throttle":
        node.thermal.throttled = args[0]
        node._apply_throttle()
    elif kind == "slowdown":
        node.set_slowdown(args[0])
    elif kind == "ambient":
        node.shift_ambient(args[0])
    elif kind == "precision":
        node.set_precision(args[0])
    elif kind == "thermal":
        node.thermal = hot_thermal(tau_s=args[0])
    else:
        return plan_and_check(node, *args)
    return None


class TestStepTable:
    def test_table_plans_equal_per_step_plans(self):
        stops = []

        @settings(max_examples=200, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(st.sampled_from(BACKENDS), plans,
               st.lists(st.tuples(changes, plans), min_size=2, max_size=8))
        def check(backend, first, script):
            node = _node(backend)
            stops.append(apply(node, first))
            for change, plan in script:
                apply(node, change)
                stops.append(apply(node, plan))

        check()
        # Vacuous unless some stretches stop early on a throttle toggle
        # and some run to the step cap.
        assert any(n < ClusterNode._STRETCH_STEPS for n in stops)
        assert ClusterNode._STRETCH_STEPS in stops

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("change", [
        ("mode", "A"), ("mode", "C"), ("mode", "E"), ("mode", "G"),
        ("throttle", True), ("slowdown", 1.5), ("ambient", 4.0),
        ("precision", Precision.INT8), ("thermal", 7.0)])
    def test_each_change_alone_reprices(self, backend, change):
        """Plan, change one thing, plan the same (batch, context) again:
        the second plan must not reuse the first one's prices."""
        def prices():
            row = node._step_table.prices(node.timer, node.thermal,
                                          node.slowdown, 2, 53, 60)
            return [list(column[53:60]) for column in
                    (row.joules, row.target, row.alpha)]

        node = _node(backend)
        plan_and_check(node, 2, 52, 50.0)
        before = prices()
        apply(node, change)
        plan_and_check(node, 2, 52, 50.0)
        assert prices() != before

    def test_a_full_table_starts_over(self):
        node = _node("hf-transformers")
        with mock.patch.object(steptable, "TABLE_CAP", 40):
            for context in (40, 100, 160, 40):
                plan_and_check(node, 2, context, 30.0)
                assert node._step_table.entries <= 40


class TestDecodeRun:
    """``decode_run`` equals ``decode_step`` elementwise under every
    backend's concat rule, at every operating point."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("mode", ["MAXN", "B", "D", "F", "H"])
    def test_backend_rule(self, backend, precision, mode):
        be = get_backend(backend)
        device = get_device(ORIN64)
        apply_power_mode(device, get_power_mode(mode))
        arch = get_model("llama")
        timer = be.make_timer(arch, device, precision)
        kv = arch.kv_cache_spec().bytes_per_token_per_layer * arch.n_layers
        for bs in (1, 3, 8):
            coef, lead = be.decode_concat_run(bs * kv)
            run = timer.decode_run(bs, 61, 37, coef, lead, memoize=False)
            for j in range(37):
                ctx = 61 + j
                concat = be.decode_concat_bytes(bs * ctx * kv)
                assert coef * ctx + coef * (ctx + lead) == concat
                cost = timer.decode_step(bs, ctx, concat_bytes=concat)
                assert run.seconds[j] == cost.seconds
                assert run.gpu_compute_frac[j] == cost.gpu_compute_frac
                assert run.gpu_busy_frac[j] == cost.gpu_busy_frac
                assert run.mem_bw_frac[j] == cost.mem_bw_frac
                assert run.cpu_cores_active[j] == cost.cpu_cores_active

    def test_engine_rule_is_the_default(self):
        device = get_device(ORIN64)
        arch = get_model("phi2")
        timer = get_backend("hf-transformers").make_timer(
            arch, device, Precision.FP16)
        coef = arch.kv_cache_spec(2).bytes_total(4, 1)
        run = timer.decode_run(4, 30, 20, coef)
        assert timer.decode_run(4, 30, 20, coef) is run  # memoized
        fresh = timer.decode_run(4, 30, 20, coef, memoize=False)
        assert fresh == run and fresh is not run
        for j in range(20):
            ctx = 30 + j
            cost = timer.decode_step(
                4, ctx, concat_bytes=coef * ctx + coef * (ctx + 1))
            assert run.seconds[j] == cost.seconds
            assert run.mem_bw_frac[j] == cost.mem_bw_frac
