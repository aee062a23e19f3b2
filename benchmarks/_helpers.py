"""Shared builders for the performance-sweep benches."""

from __future__ import annotations

import functools
import tempfile
from typing import Dict, List, Sequence

from repro.calibration import paperdata
from repro.core import ExperimentSpec
from repro.core.cache import ResultCache
from repro.core.sweeps import batch_size_sweep, seq_len_sweep
from repro.reporting import ascii_lines, compare_rows, deviation_summary, format_table

@functools.cache
def _cache_dir() -> tempfile.TemporaryDirectory:
    """Result cache directory shared by every bench in one process.

    The batch/seqlen sweeps overlap between tables (e.g. Table 4 and
    Fig 1 consume the same grid), so later benches replay earlier work.
    The directory is removed when the process exits, so no run reads
    what an older source tree wrote.
    """
    return tempfile.TemporaryDirectory(prefix="repro-bench-cache-")


def paper_perf_rows(table: Dict, x_name: str) -> List[Dict]:
    """Appendix table -> flat rows keyed (model, x)."""
    rows = []
    for model, cells in table.items():
        for x, (ram, lat, tp) in cells.items():
            rows.append({
                "model": model, x_name: x, "ram_gb": ram,
                "latency_s": lat, "throughput_tok_s": tp,
            })
    return rows


def sweep_rows(results, x_name: str, x_getter) -> List[Dict]:
    rows = []
    for r in results:
        oom = r.oom
        rows.append({
            "model": r.model, x_name: x_getter(r),
            "ram_gb": None if oom else round(r.model_gb + r.incremental_gb, 2),
            "latency_s": None if oom else round(r.mean_latency_s, 2),
            "throughput_tok_s": None if oom else round(r.throughput_tok_s, 2),
            "power_w": None if oom else round(r.median_power_w, 1),
            "energy_j": None if oom else round(r.energy_j, 1),
        })
    return rows


def perf_report(
    title: str,
    ours: List[Dict],
    paper_table: Dict,
    x_name: str,
) -> str:
    """Paper-format table + comparison + figure panel, as one text blob."""
    paper = paper_perf_rows(paper_table, x_name)
    value_cols = ["ram_gb", "latency_s", "throughput_tok_s"]
    compared = compare_rows(paper, ours, ["model", x_name], value_cols)
    summary = deviation_summary(compared, value_cols)

    xs = sorted({r[x_name] for r in ours})
    tp_series = {
        model: [next((r["throughput_tok_s"] for r in ours
                      if r["model"] == model and r[x_name] == x), None)
                for x in xs]
        for model in paper_table
    }
    fig = ascii_lines(tp_series, [str(x) for x in xs],
                      title=f"throughput (tok/s) vs {x_name}", log_y=True)

    return "\n\n".join([
        format_table(ours, title=title),
        fig,
        format_table(compared, title="paper vs ours",
                     columns=["model", x_name] + [f"{c}_{s}" for c in value_cols
                                                  for s in ("paper", "ours", "dev")]),
        format_table([{"column": k, **v} for k, v in summary.items()],
                     title="deviation summary"),
    ])


def run_batch_sweep(workload: str, n_runs: int,
                    models: Sequence[str] = ("phi2", "llama", "mistral", "deepq"),
                    batch_sizes=paperdata.BATCH_SIZES,
                    runtime: str = "hf-transformers") -> List[Dict]:
    out = []
    for m in models:
        spec = ExperimentSpec.for_model(m, workload=workload, n_runs=n_runs,
                                        runtime=runtime)
        res = batch_size_sweep(spec, batch_sizes=batch_sizes,
                               cache=ResultCache(_cache_dir().name))
        out.extend(sweep_rows(res, "batch_size", lambda r: r.batch_size))
    return out


def run_seqlen_sweep(workload: str, n_runs: int,
                     models: Sequence[str] = ("phi2", "llama", "mistral", "deepq"),
                     seq_lengths=paperdata.SEQ_LENGTHS,
                     runtime: str = "hf-transformers") -> List[Dict]:
    out = []
    for m in models:
        spec = ExperimentSpec.for_model(m, workload=workload, n_runs=n_runs,
                                        runtime=runtime)
        res = seq_len_sweep(spec, seq_lengths=seq_lengths,
                            cache=ResultCache(_cache_dir().name))
        out.extend(sweep_rows(res, "seq_len", lambda r: r.gen.total_tokens))
    return out


def assert_latency_band(ours: List[Dict], paper_table: Dict, x_name: str,
                        band: float = 2.2) -> None:
    """Every non-OOM latency within a multiplicative band of the paper."""
    paper = {(r["model"], r[x_name]): r
             for r in paper_perf_rows(paper_table, x_name)}
    for r in ours:
        p = paper[(r["model"], r[x_name])]
        if p["latency_s"] is None:
            assert r["latency_s"] is None, (r, "paper says OOM")
            continue
        assert r["latency_s"] is not None, (r, "we OOM, paper does not")
        ratio = r["latency_s"] / p["latency_s"]
        assert 1 / band < ratio < band, (r["model"], r[x_name], ratio)
