"""Command-line interface."""

import pytest

from repro.cli import main


def test_footprint_prints_table1(capsys):
    assert main(["footprint"]) == 0
    out = capsys.readouterr().out
    assert "MS-Phi2" in out and "Deepseek-Qwen" in out
    assert "47.1" in out  # Mistral FP16


def test_models_listing(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    assert "meta-llama/Llama-3.1-8B" in out


def test_devices_listing(capsys):
    assert main(["devices"]) == 0
    out = capsys.readouterr().out
    assert "jetson-orin-agx-64gb" in out and "a100-sxm-80gb" in out


def test_run_single_config(capsys):
    rc = main(["run", "--model", "phi2", "--batch-size", "2",
               "--input-tokens", "4", "--output-tokens", "8", "--runs", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "MS-Phi2" in out and "fp16" in out


def test_run_oom_exit_code(capsys):
    rc = main(["run", "--model", "deepq", "--precision", "fp16",
               "--runs", "1", "--batch-size", "1",
               "--input-tokens", "2", "--output-tokens", "2"])
    assert rc == 2  # OOM signalled distinctly


def test_run_bad_precision_is_clean_error(capsys):
    rc = main(["run", "--precision", "fp8"])
    assert rc == 1
    assert "unknown precision" in capsys.readouterr().err


def test_sweep_quant_with_csv(tmp_path, capsys):
    csv = tmp_path / "quant.csv"
    rc = main(["sweep", "quant", "--model", "phi2", "--runs", "1",
               "--csv", str(csv)])
    assert rc == 0
    assert csv.exists()
    text = csv.read_text()
    assert "fp32" in text and "int4" in text


def test_perplexity_table(capsys):
    assert main(["perplexity"]) == 0
    out = capsys.readouterr().out
    assert "OOM" in out  # Deepseek fp32/fp16 cells


def test_study_smoke_with_cache(tmp_path, capsys):
    args = ["study", "--models", "MS-Phi2", "--runs", "1",
            "--no-power-energy", "--quiet",
            "--cache", "--cache-dir", str(tmp_path / "cache")]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "batch-size sweep — MS-Phi2" in out
    assert "cache:" in out
    # Second invocation replays everything from the cache.
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "0 misses" in out


def test_study_rejects_unknown_model(capsys):
    assert main(["study", "--models", "not-a-model", "--runs", "1",
                 "--quiet"]) == 1
    assert "error:" in capsys.readouterr().err


CHAOS_ARGS = ["chaos", "--seed", "5", "--requests", "16", "--horizon", "20",
              "--crash-rate", "2.0", "--crash-downtime", "5",
              "--rate", "3.0", "--show-trace"]


def test_chaos_bit_reproducible(capsys):
    assert main(CHAOS_ARGS) == 0
    first = capsys.readouterr().out
    assert main(CHAOS_ARGS) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical, the acceptance bar
    assert "availability" in first and "cache_key=" in first
    assert "crash.begin" in first


def test_chaos_writes_csv(tmp_path, capsys):
    csv = tmp_path / "chaos.csv"
    assert main(["chaos", "--seed", "1", "--requests", "8", "--horizon", "10",
                 "--crash-rate", "1.0", "--csv", str(csv)]) == 0
    body = csv.read_text()
    assert "availability" in body and "retry_amp" in body


CLUSTER_OBS_ARGS = ["cluster", "--requests", "16", "--rate", "3.0",
                    "--seed", "7", "--output-tokens", "16"]


def test_cluster_trace_out_is_byte_identical(tmp_path, capsys):
    """The PR's acceptance bar: two same-seed runs, identical trace bytes."""
    t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
    assert main(CLUSTER_OBS_ARGS + ["--trace-out", str(t1)]) == 0
    assert main(CLUSTER_OBS_ARGS + ["--trace-out", str(t2)]) == 0
    capsys.readouterr()
    assert t1.read_bytes() == t2.read_bytes()
    import json
    trace = json.loads(t1.read_text())
    assert any(e["ph"] == "X" and e["name"] == "request"
               for e in trace["traceEvents"])


def test_cluster_obs_prints_breakdown_and_writes_metrics(tmp_path, capsys):
    prom = tmp_path / "m.prom"
    assert main(CLUSTER_OBS_ARGS + ["--metrics-out", str(prom)]) == 0
    out = capsys.readouterr().out
    assert "phase breakdown" in out
    text = prom.read_text()
    assert "# TYPE requests_completed_total counter" in text
    assert "ttft_s_bucket" in text


def test_run_trace_out_covers_engine_phases(tmp_path, capsys):
    trace = tmp_path / "run.json"
    assert main(["run", "--model", "phi2", "--batch-size", "2",
                 "--input-tokens", "4", "--output-tokens", "8", "--runs", "1",
                 "--trace-out", str(trace)]) == 0
    capsys.readouterr()
    import json
    names = {e["name"] for e in json.loads(trace.read_text())["traceEvents"]}
    assert {"prefill", "decode", "batch"} <= names


def test_obs_flags_off_leave_no_files(tmp_path, capsys):
    assert main(CLUSTER_OBS_ARGS) == 0
    assert "phase breakdown" not in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_backends_listing(capsys):
    assert main(["backends"]) == 0
    out = capsys.readouterr().out
    for name in ("hf-transformers", "gguf", "paged"):
        assert name in out


def test_sweep_runtime_prints_comparison_with_cache(tmp_path, capsys):
    args = ["sweep", "runtime", "--model", "phi2", "--runs", "1",
            "--cache", "--cache-dir", str(tmp_path / "cache")]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "runtime comparison" in out
    assert "speedup_x" in out and "gguf" in out and "paged" in out
    # Replay: every cell comes back from the cache, same table.
    assert main(args) == 0
    assert "0 misses" in capsys.readouterr().out


def test_run_accepts_runtime(capsys):
    rc = main(["run", "--model", "phi2", "--runtime", "gguf",
               "--batch-size", "1", "--input-tokens", "4",
               "--output-tokens", "8", "--runs", "1"])
    assert rc == 0
    assert "gguf" in capsys.readouterr().out


def test_kvtier_sweep_bit_reproducible(tmp_path, capsys):
    args = ["kvtier", "--requests", "12", "--policies", "sacrifice,swap-lru",
            "--triggers", "1.0", "--share-ratios", "0.5"]
    assert main(args + ["--csv", str(tmp_path / "a.csv")]) == 0
    first = capsys.readouterr().out
    assert main(args + ["--csv", str(tmp_path / "b.csv")]) == 0
    second = capsys.readouterr().out
    assert "swap-lru@1" in first and "cache_key=" in first
    assert first.replace("a.csv", "b.csv") == second
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_kvtier_rejects_unknown_policy(capsys):
    assert main(["kvtier", "--policies", "bogus"]) == 1
    assert "unknown KV lifecycle policy" in capsys.readouterr().err


def test_cluster_accepts_kv_policy(capsys):
    rc = main(["cluster", "--devices", "jetson-orin-agx-64gb",
               "--requests", "8", "--kv-policy", "swap-lru",
               "--kv-trigger", "0.9"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "swap_outs" in out and "prefix_hit_rate" in out


def test_chaos_accepts_kv_policy(capsys):
    rc = main(["chaos", "--devices", "jetson-orin-agx-64gb", "--requests",
               "8", "--kv-policy", "swap-lifo", "--crash-rate", "0.5"])
    assert rc == 0
    assert "cache_key=" in capsys.readouterr().out


def test_sustain_sweep_bit_reproducible(tmp_path, capsys):
    args = ["sustain", "--requests", "10", "--scenarios", "two-region",
            "--cascades", "off"]
    assert main(args + ["--csv", str(tmp_path / "a.csv")]) == 0
    first = capsys.readouterr().out
    assert main(args + ["--csv", str(tmp_path / "b.csv")]) == 0
    second = capsys.readouterr().out
    assert "carbon-aware" in first and "cache_key=" in first
    assert first.replace("a.csv", "b.csv") == second
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_sustain_rejects_unknown_scenario(capsys):
    assert main(["sustain", "--scenarios", "mars"]) == 1
    assert "scenario" in capsys.readouterr().err


def test_plan_carbon_flag_adds_column(capsys):
    assert main(["plan", "--carbon-gco2", "400"]) == 0
    out = capsys.readouterr().out
    assert "g_per_token" in out


def test_fairness_accepts_power_modes(capsys):
    rc = main(["fairness", "--schedulers", "fcfs,vtc", "--mixes", "flood",
               "--power-modes", "MAXN,B", "--interactions", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "power_mode" in out and "cache_key=" in out


def test_plan_writes_csv_without_validate(tmp_path, capsys):
    from repro.plan import PlanSpec, plan

    path = tmp_path / "plan.csv"
    assert main(["plan", "--csv", str(path)]) == 0
    assert f"wrote {path}" in capsys.readouterr().out
    assert path.read_text(encoding="utf-8") == plan(PlanSpec()).csv()


def test_uncastable_list_item_is_clean_error(capsys):
    assert main(["kvtier", "--triggers", "abc"]) == 1
    assert "error: 'abc'" in capsys.readouterr().err


def test_empty_list_where_one_value_is_required(capsys):
    assert main(["plan", "--validate", "--precisions", ""]) == 1
    assert "error: expected at least one value" in capsys.readouterr().err
