"""The paired-run summary behind ``tools/perf_pairs.py``, on canned runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "perf_pairs", ROOT / "tools" / "perf_pairs.py")
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

METRICS = [
    {"name": "configs_per_s", "unit": "configs/s", "better": "higher"},
    {"name": "setup_s", "unit": "s", "better": "lower"},
]


def _run(configs: float, setup: float, correct=True, failed=0) -> dict:
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"configs_per_s": {"value": configs, "unit": "x"},
                        "setup_s": {"value": setup, "unit": "s"}}}


PARENT = [_run(30, 3.0), _run(40, 3.0), _run(35, 2.0), _run(37, 4.0),
          _run(33, 3.5)]
CHANGE = [_run(38, 2.9), _run(39, 3.1), _run(45, 2.0), _run(46, 3.0),
          _run(44, 3.6)]


def test_spread_and_pairs_won_follow_each_metric_direction():
    s = perf_pairs.summarize(PARENT, CHANGE, METRICS)
    c = s["configs_per_s"]
    assert c["parent"] == {"q1": 33, "median": 35, "q3": 37}
    assert c["change"] == {"q1": 39, "median": 44, "q3": 45}
    # Higher is better: the change loses only pair 2 (39 < 40).
    assert (c["won"], c["pairs"]) == (4, 5)
    t = s["setup_s"]
    assert t["parent"]["median"] == 3.0 and t["change"]["median"] == 3.0
    # Lower is better: 2.9 < 3.0 and 3.0 < 4.0 win; the 2.0 tie wins
    # for neither side.
    assert t["won"] == 2
    assert s["_runs"] == {"pairs": 5, "bad_runs": 0}


def test_one_pair_and_bad_runs():
    s = perf_pairs.summarize([_run(30, 3.0, correct=False)],
                             [_run(31, 3.0, failed=2)], METRICS)
    assert s["configs_per_s"]["parent"] == {"q1": 30, "median": 30,
                                            "q3": 30}
    assert s["_runs"]["bad_runs"] == 2


def test_sides_must_pair_up():
    with pytest.raises(ValueError):
        perf_pairs.summarize(PARENT, CHANGE[:-1], METRICS)
    with pytest.raises(ValueError):
        perf_pairs.summarize([], [], METRICS)


def test_pairs_swap_which_side_runs_first():
    calls = []

    def fake_run(tree, workload, seed):
        calls.append((tree, seed))
        return _run(seed, 1.0)

    trees = {"parent": Path("p"), "change": Path("c")}
    runs = list(perf_pairs.run_pairs(trees, "w", [5, 6, 7, 8], fake_run))
    assert calls == [(Path("p"), 5), (Path("c"), 5), (Path("c"), 6),
                     (Path("p"), 6), (Path("p"), 7), (Path("c"), 7),
                     (Path("c"), 8), (Path("p"), 8)]
    assert [(r["side"], r["seed"]) for r in runs] == [
        ("parent", 5), ("change", 5), ("change", 6), ("parent", 6),
        ("parent", 7), ("change", 7), ("change", 8), ("parent", 8)]
    # Each result lands on its own side, whichever side ran first.
    seeds, parent, change = perf_pairs.split_sides(runs)
    assert seeds == [5, 6, 7, 8]
    assert [r["side"] for r in parent] == ["parent"] * 4
    assert [r["side"] for r in change] == ["change"] * 4
    assert [r["metrics"]["configs_per_s"]["value"] for r in change] == [
        5, 6, 7, 8]


def test_split_sides_needs_one_run_per_side_and_seed():
    p, c = dict(PARENT[0], side="parent", seed=1), dict(CHANGE[0],
                                                        side="change", seed=1)
    with pytest.raises(ValueError):
        perf_pairs.split_sides([p])
    with pytest.raises(ValueError):
        perf_pairs.split_sides([p, c, dict(p)])
    with pytest.raises(ValueError):
        perf_pairs.split_sides([p, dict(c, side="other")])


def test_lines_and_record_append(tmp_path, capsys):
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": METRICS, "run_seconds": 9}))
    tagged = [dict(r, side=side, seed=10 + i)
              for i, pair in enumerate(zip(PARENT, CHANGE))
              for side, r in zip(perf_pairs.SIDES, pair)]
    # Saved lines pair up by their tags, not by their position.
    lines = tmp_path / "runs.jsonl"
    lines.write_text("\n".join(json.dumps(r) for r in tagged[::-1]) + "\n")
    for _ in range(2):
        perf_pairs.main(["--change", str(tmp_path), "--workload", "w",
                         "--lines", str(lines), "--record", "--pr", "7",
                         "--parent-sha", "abc1234", "--sha", "def5678"])
    out = capsys.readouterr().out
    assert "configs_per_s" in out and "4/5" in out
    records = json.loads((tmp_path / perf_pairs.TRAJECTORY).read_text())
    assert len(records) == 2
    rec = records[0]
    assert (rec["pr"], rec["parent"], rec["sha"], rec["workload"],
            rec["pairs"], rec["seconds"]) == (7, "abc1234", "def5678", "w",
                                              5, 9)
    assert rec["seeds"] == [14, 13, 12, 11, 10]
    assert rec["metrics"]["configs_per_s"]["won"] == 4
    assert "_runs" not in rec["metrics"] and rec["bad_runs"] == 0


def _traced(memsys_calls: int) -> dict:
    """The final line of a ``--trace 1`` run: counts, timings, ratios."""
    values = {"sim.events": 29000, "sim.self_s": 0.4,
              "cluster.node.resumptions": 0, "cluster.admit.calls": 0,
              "engine.executor.calls": 14227, "memsys.calls": memsys_calls,
              "memsys.self_s": 1.5, "telemetry.samples": 0,
              "kvtier.swap_outs": 0, "engine.kernels.memo_hit_rate": 0.9,
              "trace.overhead_pct": 3.0}
    return {"correct": True, "attempted": 4, "failed": 0,
            "metrics": {k: {"value": v, "unit": "x"}
                        for k, v in values.items()}}


def test_layer_counts_keep_calls_events_resumptions_and_samples():
    assert perf_pairs.layer_counts(_traced(11585)) == {
        "cluster.admit.calls": 0, "cluster.node.resumptions": 0,
        "engine.executor.calls": 14227, "memsys.calls": 11585,
        "sim.events": 29000, "telemetry.samples": 0}


def test_layers_run_one_traced_seed_per_side_into_the_record(
        tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": METRICS, "run_seconds": 9}))
    lines = tmp_path / "runs.jsonl"
    lines.write_text("\n".join(
        json.dumps(dict(r, side=side, seed=3))
        for side, r in zip(perf_pairs.SIDES, (PARENT[0], CHANGE[0]))))
    calls = []

    def fake_run(tree, workload, seed, trace=0):
        calls.append((tree.name, workload, seed, trace))
        return _traced(11585 if tree.name == "p" else 11586)

    monkeypatch.setattr(perf_pairs, "run_once", fake_run)
    (tmp_path / "p").mkdir()
    argv = ["--change", str(tmp_path), "--workload", "w", "--lines",
            str(lines), "--layers", "--record"]
    perf_pairs.main(argv + ["--parent", str(tmp_path / "p")])
    assert calls == [("p", "w", 1, 1), (tmp_path.name, "w", 1, 1)]
    assert "memsys.calls" in capsys.readouterr().out
    rec = json.loads((tmp_path / perf_pairs.TRAJECTORY).read_text())[0]
    assert rec["layers"]["parent"]["memsys.calls"] == 11585
    assert rec["layers"]["change"]["memsys.calls"] == 11586
    assert set(rec["layers"]["change"]) == set(
        perf_pairs.layer_counts(_traced(0)))
    # The traced runs need the parent tree, even from saved lines.
    with pytest.raises(SystemExit):
        perf_pairs.main(argv)
