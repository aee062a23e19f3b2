"""The fleet power sampler: one process, per-board samples unchanged."""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.cluster import EdgeCluster, FleetSpec, poisson_workload
from repro.engine.state import EngineState
from repro.errors import ConfigError
from repro.hardware import get_device
from repro.power import ComponentUtilization, PowerModel
from repro.sim import Environment
from repro.telemetry.sampler import FleetSampler, PowerSampler

BUSY = ComponentUtilization(gpu_compute=0.6, gpu_busy=0.9, mem_bw=0.7,
                            cpu_cores_active=2)


@contextmanager
def _spawned():
    """Collect every process started inside the block."""
    procs = []
    spawn = Environment.process

    def spy(env, gen, name=""):
        proc = spawn(env, gen, name=name)
        procs.append(proc)
        return proc

    with mock.patch.object(Environment, "process", spy):
        yield procs


def _boards(env, period, n=2):
    boards = []
    for _ in range(n):
        state = EngineState()
        boards.append((state, PowerSampler(
            env, get_device("jetson-orin-agx-64gb"), PowerModel(), state,
            period_s=period)))
    return boards


def _toggler(env, state, period, pattern):
    """Flip ``state`` between idle and busy after each wait in
    ``pattern`` (multiples of ``period``, folded like the sampler's
    ticks, so every flip lands exactly on a tick time)."""
    def run():
        for mult in pattern:
            for _ in range(mult):
                yield env.timeout(period)
            if state.phase == "idle":
                state.set("decode", BUSY)
            else:
                state.set_idle()
    return run()


def _serve(period, merged, stop_at=None):
    env = Environment()
    boards = _boards(env, period)
    samplers = [s for _, s in boards]
    fleet = FleetSampler(samplers)
    if merged:
        fleet.start()
    else:
        for s in samplers:
            s.start()
    for (state, _), pattern in zip(boards, [(1, 2, 1, 3, 1), (2, 1, 1, 2)]):
        env.process(_toggler(env, state, period, pattern))
    if stop_at is not None:
        def stopper():
            for _ in range(stop_at):
                yield env.timeout(period)
            for s in ([fleet] if merged else samplers):
                s.stop()
        env.process(stopper())
    env.run(until=12 * period)
    return [s.samples for s in samplers]


class TestFleetMerge:
    @pytest.mark.parametrize("period", [0.5, 0.1, 0.013, 1.0 / 3.0])
    @pytest.mark.parametrize("stop_at", [None, 5])
    def test_matches_per_board_processes(self, period, stop_at):
        per_board = _serve(period, merged=False, stop_at=stop_at)
        merged = _serve(period, merged=True, stop_at=stop_at)
        assert merged == per_board
        phases = {s.phase for samples in merged for s in samples}
        assert phases == {"idle", "decode"}  # flips were seen at ticks

    def test_one_process_and_one_event_per_tick(self):
        env = Environment()
        with _spawned() as procs:
            fleet = FleetSampler([s for _, s in _boards(env, 1.0, n=3)])
            fleet.start()
        steps = 0
        while env.peek() <= 10.0:
            env.step()
            steps += 1
        assert [p.name for p in procs] == ["power-sampler"]
        assert steps == 11  # start + ticks at 1..10
        assert all(len(s.samples) == 11 for s in fleet.samplers)

    def test_boards_must_share_clock_and_period(self):
        env = Environment()
        (_, a), (_, b) = _boards(env, 1.0)
        (_, c), = _boards(env, 2.0, n=1)
        (_, d), = _boards(Environment(), 1.0, n=1)
        FleetSampler([a, b])
        with pytest.raises(ConfigError):
            FleetSampler([a, c])
        with pytest.raises(ConfigError):
            FleetSampler([a, d])
        with pytest.raises(ConfigError):
            FleetSampler([])


class TestRestart:
    def test_stop_ends_the_process(self):
        env = Environment()
        (_, sampler), = _boards(env, 1.0, n=1)
        with _spawned() as procs:
            sampler.start()
        env.run(until=3.5)
        sampler.stop()
        env.run(until=10.0)
        assert not procs[0].is_alive
        assert [s.time_s for s in sampler.samples] == [0.0, 1.0, 2.0, 3.0]

    def test_restart_resumes_the_grid(self):
        env = Environment()
        (_, sampler), = _boards(env, 1.0, n=1)
        sampler.start()
        env.run(until=3.5)
        sampler.stop()
        sampler.start()
        env.run(until=6.0)
        times = [s.time_s for s in sampler.samples]
        assert times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_cluster_served_twice_samples_once_per_period(self):
        fleet = FleetSpec.of(["jetson-orin-nano-8gb"] * 2, model="phi2",
                             precision="int8", policy="jsq")
        cluster = EdgeCluster.of(fleet)
        with _spawned() as procs:
            cluster.run(poisson_workload(1.0, 20))
            cluster.run(poisson_workload(1.0, 20, seed=1))
        samplers = [p for p in procs if p.name == "power-sampler"]
        assert len(samplers) == 2
        assert [p.is_alive for p in samplers] == [False, True]
        period = cluster.nodes[0].sampler.period_s
        for node in cluster.nodes:
            times = [s.time_s for s in node.sampler.samples]
            gaps = [b - a for a, b in zip(times, times[1:])]
            assert min(gaps) > period - 1e-9
            assert len(times) == int(cluster.env.now // period) + 1
