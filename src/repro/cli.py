"""Command-line interface.

Installed as ``repro`` (or run ``python -m repro.cli``).  Subcommands
map onto the paper's experiments:

- ``repro footprint`` — Table 1 (weights per precision).
- ``repro run --model llama --precision fp16 --batch-size 32`` — one
  measured configuration.
- ``repro sweep batch|seqlen|quant|powermode --model llama`` — one of
  the §3 sweeps.
- ``repro perplexity`` — Table 3.
- ``repro profile`` — cProfile the cold simulate path and print a
  deterministic top-N report (stable sort, repo-relative paths).
- ``repro study --jobs -1 --cache`` — the entire paper in one go, with
  process fan-out and the on-disk result cache.
- ``repro cluster`` / ``repro chaos`` — multi-node serving, with and
  without fault injection; both take ``--kv-policy`` to pick the KV
  lifecycle policy (``sacrifice`` vs ``swap[-lifo|-fifo|-lru]``, with
  an optional ``-aggressive`` trigger suffix).
- ``repro kvtier`` — the KV lifecycle sweep: policy × trigger ×
  prefix-share-ratio on one memory-pressured node.
- ``repro sustain`` — the sustainability sweep: carbon-trace scenario ×
  routing policy × SLM-cascade mode × power mode over a geo-distributed
  fleet.
- ``repro devices`` / ``repro models`` / ``repro backends`` — list
  presets and registered inference runtimes.

``run``, ``sweep`` and ``study`` take ``--runtime`` to pick the
inference-runtime backend (``hf-transformers``, ``gguf``, ``paged``);
``repro sweep runtime`` runs one configuration on every backend and
prints the cross-backend comparison table.

``run``, ``sweep``, ``study``, ``cluster`` and ``chaos`` all accept
``--trace-out FILE`` (Chrome trace-event JSON for Perfetto) and
``--metrics-out FILE`` (Prometheus text or CSV); either flag also
prints a span-based per-phase latency breakdown.  Telemetry is
deterministic: same seed, byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ConfigError, ReproError


def _csv_list(text: str, cast=str, required: bool = False) -> tuple:
    """Parse a comma-separated option value, dropping empty items.

    An item ``cast`` rejects, or no item at all when ``required``, is a
    :class:`ConfigError` naming the value."""
    items = []
    for v in text.split(","):
        v = v.strip()
        if not v:
            continue
        try:
            items.append(cast(v))
        except ValueError:
            raise ConfigError(
                f"{v!r} in {text!r} is not a valid "
                f"{getattr(cast, '__name__', 'value')}") from None
    if required and not items:
        raise ConfigError(f"expected at least one value, got {text!r}")
    return tuple(items)


def _write_csv(report, csv_path: Optional[str]) -> None:
    """Write a grid report's canonical CSV, if a path was given."""
    if csv_path:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(report.csv())
        print(f"wrote {csv_path}")


def _emit_grid(report, csv_path: Optional[str], *notes: str) -> int:
    """Print a grid sweep's table, notes and cache key; write its CSV."""
    print(report.table())
    for note in notes:
        print(note)
    print(f"cache_key={report.spec.cache_key()}")
    _write_csv(report, csv_path)
    return 0


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write a Chrome trace-event JSON "
                             "(load in Perfetto / chrome://tracing)")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the metrics snapshot "
                             "(.prom/.txt: Prometheus text, else CSV)")


def _obs_from_args(args: argparse.Namespace):
    """An enabled Observer iff any observability output was requested."""
    if not (args.trace_out or args.metrics_out):
        return None
    from repro.obs import Observer

    return Observer()


def _finish_obs(args: argparse.Namespace, obs) -> None:
    """Write the requested exports and print the phase breakdown."""
    if obs is None:
        return
    from repro.obs import write_chrome_trace, write_metrics
    from repro.reporting import format_table, phase_breakdown

    rows = phase_breakdown(obs)
    if rows:
        print(format_table(rows, title="phase breakdown (simulated time)"))
    if args.trace_out:
        print(f"wrote {write_chrome_trace(args.trace_out, obs)}")
    if args.metrics_out:
        print(f"wrote {write_metrics(args.metrics_out, obs.metrics)}")


def _cmd_footprint(args: argparse.Namespace) -> int:
    from repro.models import PAPER_MODELS, footprint_table
    from repro.reporting import format_table

    print(format_table(footprint_table(PAPER_MODELS.values()),
                       title="Model weights per precision (GB)"))
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.models import list_models, get_model

    for name in list_models():
        arch = get_model(name)
        print(f"{name:14s} {arch.n_params_billions:5.1f}B  {arch.hf_id}")
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    from repro.backends import get_backend, list_backends

    for name in list_backends():
        b = get_backend(name)
        print(f"{name:16s} {b.description}")
    return 0


def _cmd_devices(args: argparse.Namespace) -> int:
    from repro.hardware import device_registry

    for name, factory in sorted(device_registry().items()):
        dev = factory()
        print(f"{name:24s} {dev.memory.capacity_bytes / 2**30:5.0f} GiB  "
              f"{dev.gpu.cuda_cores:5d} CUDA cores  "
              f"{dev.memory.peak_bandwidth / 1e9:6.1f} GB/s")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core import ExperimentSpec, run_experiment
    from repro.core.experiment import default_precision_for
    from repro.engine.request import GenerationSpec
    from repro.quant.dtypes import Precision
    from repro.reporting import format_table

    precision = (Precision.parse(args.precision) if args.precision
                 else default_precision_for(args.model))
    spec = ExperimentSpec(
        model=args.model,
        precision=precision,
        device=args.device,
        batch_size=args.batch_size,
        gen=GenerationSpec(args.input_tokens, args.output_tokens),
        power_mode=args.power_mode,
        n_runs=args.runs,
        runtime=args.runtime,
    )
    obs = _obs_from_args(args)
    result = run_experiment(spec, observer=obs)
    print(format_table([result.as_row()]))
    _finish_obs(args, obs)
    return 2 if result.oom else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.cache import ResultCache, default_cache_dir
    from repro.core.experiment import ExperimentSpec
    from repro.core.sweeps import (
        batch_size_sweep,
        power_mode_sweep,
        quantization_sweep,
        runtime_sweep,
        seq_len_sweep,
    )
    from repro.reporting import format_table, runtime_comparison, write_csv

    sweeps = {
        "batch": batch_size_sweep,
        "seqlen": seq_len_sweep,
        "quant": quantization_sweep,
        "powermode": power_mode_sweep,
        "runtime": runtime_sweep,
    }
    spec = ExperimentSpec.for_model(args.model, device=args.device,
                                    n_runs=args.runs, runtime=args.runtime)
    cache = None
    if args.cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    obs = _obs_from_args(args)
    runs = sweeps[args.kind](spec, cache=cache, observer=obs)
    if args.kind == "runtime":
        rows = runtime_comparison(runs)
        print(format_table(rows,
                           title=f"runtime comparison — {runs[0].model}"))
    else:
        rows = [r.as_row() for r in runs]
        print(format_table(rows, title=f"{args.kind} sweep — {runs[0].model}"))
    if args.csv:
        path = write_csv(args.csv, rows)
        print(f"wrote {path}")
    if cache is not None:
        s = cache.stats
        print(f"cache: {s.hits} hits / {s.misses} misses -> {cache.root}")
    _finish_obs(args, obs)
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import (
        AutoscalerConfig,
        EdgeCluster,
        FleetSpec,
        NodeSpec,
        PowerModeAutoscaler,
        SLOSpec,
        bursty_workload,
        diurnal_workload,
        multi_tenant_workload,
        poisson_workload,
    )
    from repro.reporting import format_table, write_csv

    devices = _csv_list(args.devices)
    specs = [NodeSpec(d, max_batch=args.max_batch, kv_policy=args.kv_policy,
                      kv_trigger=args.kv_trigger) for d in devices]
    slo = SLOSpec(ttft_s=args.ttft_slo, tpot_s=args.tpot_slo)
    obs = _obs_from_args(args)
    fleet = FleetSpec.of(specs, model=args.model, precision=args.precision,
                         policy=args.policy)
    cluster = EdgeCluster.of(fleet, slo=slo, observer=obs)
    if args.autoscale:
        cluster.attach_autoscaler(
            PowerModeAutoscaler(cluster.env, cluster.nodes, AutoscalerConfig())
        )

    kw = dict(input_tokens=args.input_tokens, output_tokens=args.output_tokens,
              seed=args.seed)
    if args.trace == "poisson":
        reqs = poisson_workload(args.rate, args.requests, **kw)
    elif args.trace == "bursty":
        reqs = bursty_workload(args.rate, 4.0 * args.rate, args.requests, **kw)
    elif args.trace == "diurnal":
        reqs = diurnal_workload(args.rate, args.requests, **kw)
    else:  # multi-tenant draws shapes from its tenant profiles
        reqs = multi_tenant_workload(args.rate, args.requests, seed=args.seed)

    report = cluster.run(reqs)
    print(format_table([report.as_row()],
                       title=f"cluster serving — {len(devices)} nodes, "
                             f"{args.trace} trace @ {args.rate} req/s"))
    print(format_table(report.node_rows, title="per node"))
    if len(report.tenants) > 1:
        print(format_table([t.as_row() for t in report.tenants],
                           title="per tenant"))
    if args.csv:
        path = write_csv(args.csv, [report.as_row()])
        print(f"wrote {path}")
    _finish_obs(args, obs)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import ChaosSpec, FaultScheduleSpec, run_chaos
    from repro.reporting import format_table, write_csv

    devices = _csv_list(args.devices)
    spec = ChaosSpec(
        devices=devices,
        model=args.model,
        precision=args.precision,
        policy=args.policy,
        rate_per_s=args.rate,
        n_requests=args.requests,
        input_tokens=args.input_tokens,
        output_tokens=args.output_tokens,
        workload_seed=args.seed,
        kv_policy=args.kv_policy,
        faults=FaultScheduleSpec(
            seed=args.seed,
            horizon_s=args.horizon,
            n_nodes=len(devices),
            crash_rate_per_min=args.crash_rate,
            crash_downtime_s=args.crash_downtime,
            brownout_rate_per_min=args.brownout_rate,
            oom_rate_per_min=args.oom_rate,
            straggler_rate_per_min=args.straggler_rate,
            thermal_rate_per_min=args.thermal_rate,
        ),
        enable_fallback=args.fallback,
    )
    obs = _obs_from_args(args)
    report = run_chaos(spec, observer=obs)
    # Output is a pure function of the spec (no wall clock, no paths),
    # so two invocations with one seed are byte-identical — diffable.
    print(format_table([report.as_row()],
                       title=f"chaos — seed {spec.faults.seed}, "
                             f"{len(devices)} nodes"))
    print(format_table(report.faulted.node_rows, title="per node (faulted)"))
    if args.show_trace:
        print("injected fault trace (+ applied, - skipped):")
        for line in report.trace_lines():
            print(f"  {line}")
    print(f"cache_key={report.cache_key}")
    print(f"schedule={report.schedule_fingerprint}")
    if args.csv:
        path = write_csv(args.csv, [report.as_row()])
        print(f"wrote {path}")
    _finish_obs(args, obs)
    return 0


def _cmd_kvtier(args: argparse.Namespace) -> int:
    from repro.kvtier import KvTierSpec, run_kvtier

    spec = KvTierSpec(
        device=args.device,
        model=args.model,
        precision=args.precision,
        power_mode=args.power_mode,
        rate_per_s=args.rate,
        n_requests=args.requests,
        prefix_tokens=args.prefix_tokens,
        unique_tokens=args.unique_tokens,
        output_tokens=args.output_tokens,
        max_batch=args.max_batch,
        kv_budget_frac=args.kv_budget_frac,
        policies=_csv_list(args.policies),
        triggers=_csv_list(args.triggers, float),
        share_ratios=_csv_list(args.share_ratios, float),
        seed=args.seed,
    )
    return _emit_grid(run_kvtier(spec), args.csv)


def _cmd_fairness(args: argparse.Namespace) -> int:
    from repro.fairness import FairnessSpec, run_fairness

    spec = FairnessSpec(
        device=args.device,
        model=args.model,
        precision=args.precision,
        runtimes=_csv_list(args.runtimes),
        kv_policies=_csv_list(args.kv_policies),
        schedulers=_csv_list(args.schedulers),
        mixes=_csv_list(args.mixes),
        power_modes=_csv_list(args.power_modes),
        routing=args.routing,
        rate_per_s=args.rate,
        n_interactions=args.interactions,
        mean_turns=args.mean_turns,
        max_turns=args.max_turns,
        mean_think_time_s=args.think_time,
        max_batch=args.max_batch,
        throttle_rate=args.throttle_rate,
        slo_ttft_s=args.slo_ttft,
        seed=args.seed,
    )
    return _emit_grid(run_fairness(spec), args.csv)


def _cmd_sustain(args: argparse.Namespace) -> int:
    from repro.sustain import SustainSpec, run_sustain

    spec = SustainSpec(
        devices=_csv_list(args.devices),
        model=args.model,
        precision=args.precision,
        slm_model=args.slm_model,
        slm_precision=args.slm_precision,
        scenarios=_csv_list(args.scenarios),
        routers=_csv_list(args.routers),
        cascades=_csv_list(args.cascades),
        power_modes=_csv_list(args.power_modes),
        gate=args.gate,
        rate_per_s=args.rate,
        n_requests=args.requests,
        input_tokens=args.input_tokens,
        output_tokens=args.output_tokens,
        defer_max_s=args.defer_max_s,
        defer_threshold_frac=args.defer_threshold,
        max_batch=args.max_batch,
        seed=args.seed,
    )
    return _emit_grid(run_sustain(spec), args.csv)


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.plan import PlanSpec, ValidationSpec, plan, run_validation
    from repro.reporting import format_table, plan_table

    if args.validate:
        vspec = ValidationSpec(
            model=args.model, device=args.device,
            precision=_csv_list(args.precisions, required=True)[0],
            power_mode=_csv_list(args.power_modes, required=True)[0],
            nodes=args.validate_nodes, n_requests=args.validate_requests,
            input_tokens=args.input_tokens,
            output_tokens=args.output_tokens, max_batch=args.max_batch,
            runtimes=_csv_list(args.runtimes), seed=args.seed,
        )
        report = run_validation(vspec)
        return _emit_grid(report, args.csv,
                          f"within_tolerance={report.within_fraction:.3f} "
                          f"(tolerance={vspec.tolerance})")

    spec = PlanSpec(
        model=args.model, device=args.device, rate_per_s=args.rate,
        input_tokens=args.input_tokens, output_tokens=args.output_tokens,
        slo_ttft_s=args.slo_ttft, slo_tpot_s=args.slo_tpot,
        slo_e2e_s=args.slo_e2e, runtimes=_csv_list(args.runtimes),
        precisions=_csv_list(args.precisions),
        power_modes=_csv_list(args.power_modes), max_nodes=args.max_nodes,
        max_batch=args.max_batch, max_utilization=args.max_utilization,
        carbon_gco2_per_kwh=args.carbon_gco2,
    )
    report = plan(spec)
    print(format_table(plan_table(report),
                       title=f"capacity plan: {spec.model} @ "
                             f"{spec.rate_per_s} req/s on {spec.device}"))
    if report.chosen is not None:
        c = report.chosen
        print(f"\nchosen: {c['nodes']}x {spec.device} [{c['runtime']}, "
              f"{c['precision']}, {c['power_mode']}] — "
              f"{c['watts']} W fleet, TTFT {c['ttft_s']} s, "
              f"latency {c['latency_s']} s")
    else:
        print("\nno configuration inside the candidate axes meets the SLO")
    print(f"cache_key={spec.cache_key()}")
    _write_csv(report, args.csv)
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    import time

    from repro.core.cache import ResultCache, default_cache_dir
    from repro.core.study import StudySpec, run_full_study
    from repro.reporting import format_table

    cache = None
    if args.cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    models = _csv_list(args.models) if args.models else None
    spec = StudySpec.of(
        models,
        n_runs=args.runs,
        include_power_energy=not args.no_power_energy,
        fast_forward=not args.no_fast_forward,
        runtime=args.runtime,
    )
    obs = _obs_from_args(args)

    t0 = time.perf_counter()
    results = run_full_study(
        spec,
        progress=not args.quiet,
        jobs=args.jobs,
        cache=cache,
        observer=obs,
    )
    elapsed = time.perf_counter() - t0

    print(format_table(results.table1_footprints,
                       title="Table 1: weights per precision (GB)"))
    print(format_table(results.table3_perplexity,
                       title="Table 3: perplexity by precision"))
    for model, by_wl in results.batch_sweeps.items():
        for wl, runs in by_wl.items():
            print(format_table([r.as_row() for r in runs],
                               title=f"batch-size sweep — {model} / {wl}"))
    n_configs = sum(
        len(runs)
        for group in (results.batch_sweeps, results.seqlen_sweeps)
        for by_wl in group.values() for runs in by_wl.values()
    ) + sum(len(r) for r in results.quant_sweeps.values()) \
      + sum(len(r) for r in results.power_mode_sweeps.values()) \
      + sum(len(runs) for by_prec in results.power_energy_sweeps.values()
            for runs in by_prec.values())
    line = f"{n_configs} configurations in {elapsed:.2f}s (jobs={args.jobs or 1})"
    if cache is not None:
        s = cache.stats
        line += f"; cache: {s.hits} hits / {s.misses} misses -> {cache.root}"
    print(line)
    _finish_obs(args, obs)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.profile import default_profile_specs, profile_specs

    models = _csv_list(args.models) if args.models else None
    specs = default_profile_specs(models, n_runs=args.runs)
    report = profile_specs(specs, fast_forward=not args.per_token,
                           top=args.top)
    text = report.format()
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_perplexity(args: argparse.Namespace) -> int:
    from repro.hardware import get_device
    from repro.perplexity import perplexity_table
    from repro.reporting import format_table

    rows = perplexity_table(get_device(args.device))
    print(format_table(rows, title="Perplexity by precision (OOM = does not fit)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulated reproduction of 'LLM Inferencing on Edge Accelerators'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("footprint", help="Table 1: weights per precision")
    sub.add_parser("models", help="list model presets")
    sub.add_parser("devices", help="list device presets")
    sub.add_parser("backends", help="list registered inference runtimes")

    run = sub.add_parser("run", help="measure one configuration")
    run.add_argument("--model", default="llama")
    run.add_argument("--precision", default=None,
                     help="fp32|fp16|int8|int4 (default: paper's choice)")
    run.add_argument("--device", default="jetson-orin-agx-64gb")
    run.add_argument("--batch-size", type=int, default=32)
    run.add_argument("--input-tokens", type=int, default=32)
    run.add_argument("--output-tokens", type=int, default=64)
    run.add_argument("--power-mode", default="MAXN")
    run.add_argument("--runs", type=int, default=5)
    run.add_argument("--runtime", default="hf-transformers",
                     help="inference runtime backend (see `repro backends`)")
    _add_obs_args(run)

    sweep = sub.add_parser("sweep", help="run one of the paper's sweeps")
    sweep.add_argument("kind", choices=["batch", "seqlen", "quant",
                                        "powermode", "runtime"])
    sweep.add_argument("--model", default="llama")
    sweep.add_argument("--device", default="jetson-orin-agx-64gb")
    sweep.add_argument("--runs", type=int, default=2)
    sweep.add_argument("--runtime", default="hf-transformers",
                       help="inference runtime backend; the `runtime` kind "
                            "sweeps every registered backend instead")
    sweep.add_argument("--cache", action=argparse.BooleanOptionalAction,
                       default=False,
                       help="reuse/populate the on-disk result cache")
    sweep.add_argument("--cache-dir", default=None,
                       help="cache directory (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro-edge-llm)")
    sweep.add_argument("--csv", default=None, help="also write rows to CSV")
    _add_obs_args(sweep)

    ppl = sub.add_parser("perplexity", help="Table 3: perplexity by precision")
    ppl.add_argument("--device", default="jetson-orin-agx-64gb")

    prof = sub.add_parser(
        "profile",
        help="cProfile the cold simulate path (deterministic top-N report)")
    prof.add_argument("--models", default=None,
                      help="comma-separated model names (default: llama)")
    prof.add_argument("--runs", type=int, default=2,
                      help="measured runs per configuration")
    prof.add_argument("--per-token", action="store_true",
                      help="profile the token-by-token path "
                           "(fast_forward=False)")
    prof.add_argument("--top", type=int, default=25,
                      help="rows to show (sorted by cumulative time)")
    prof.add_argument("--out", default=None,
                      help="also write the report to FILE")

    study = sub.add_parser("study", help="run the paper's full experiment matrix")
    study.add_argument("--models", default=None,
                       help="comma-separated model names (default: all four)")
    study.add_argument("--runs", type=int, default=5,
                       help="measured runs per configuration (paper: 5)")
    study.add_argument("--jobs", type=int, default=None,
                       help="worker processes (-1 = all cores; default serial)")
    study.add_argument("--cache", action=argparse.BooleanOptionalAction,
                       default=False,
                       help="reuse/populate the on-disk result cache")
    study.add_argument("--cache-dir", default=None,
                       help="cache directory (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro-edge-llm)")
    study.add_argument("--runtime", default="hf-transformers",
                       help="inference runtime backend for every "
                            "configuration (see `repro backends`)")
    study.add_argument("--no-power-energy", action="store_true",
                       help="skip the §3.3 power/energy batch grids")
    study.add_argument("--no-fast-forward", action="store_true",
                       help="step decode token-by-token (debugging)")
    study.add_argument("--quiet", action="store_true",
                       help="suppress per-sweep progress lines")
    _add_obs_args(study)

    clu = sub.add_parser("cluster",
                         help="multi-device serving: trace -> router -> fleet")
    clu.add_argument("--devices",
                     default="jetson-orin-agx-64gb,jetson-orin-agx-32gb",
                     help="comma-separated device presets (one node each)")
    clu.add_argument("--model", default="llama")
    clu.add_argument("--precision", default="fp16")
    clu.add_argument("--policy", default="jsq",
                     help="round-robin|jsq|least-kv|energy-aware|splitwise")
    clu.add_argument("--trace", default="poisson",
                     choices=["poisson", "bursty", "diurnal", "multi-tenant"])
    clu.add_argument("--rate", type=float, default=2.0,
                     help="mean arrival rate (req/s; bursty: calm rate)")
    clu.add_argument("--requests", type=int, default=100)
    clu.add_argument("--input-tokens", type=int, default=64)
    clu.add_argument("--output-tokens", type=int, default=64)
    clu.add_argument("--max-batch", type=int, default=8)
    clu.add_argument("--ttft-slo", type=float, default=10.0)
    clu.add_argument("--tpot-slo", type=float, default=1.0)
    clu.add_argument("--kv-policy", default="sacrifice",
                     help="KV lifecycle under preemption: sacrifice|"
                          "swap[-lifo|-fifo|-lru][-aggressive]")
    clu.add_argument("--kv-trigger", type=float, default=None,
                     help="override the preemption trigger fraction "
                          "(0 < t <= 1; e.g. 0.85 = aggressive)")
    clu.add_argument("--autoscale", action="store_true",
                     help="enable the power-mode autoscaler")
    clu.add_argument("--seed", type=int, default=0)
    clu.add_argument("--csv", default=None, help="also write the report row")
    _add_obs_args(clu)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injected serving vs fault-free twin (deterministic)")
    chaos.add_argument("--devices",
                       default="jetson-orin-agx-64gb,jetson-orin-agx-32gb",
                       help="comma-separated device presets (one node each)")
    chaos.add_argument("--model", default="llama")
    chaos.add_argument("--precision", default="int8")
    chaos.add_argument("--policy", default="jsq")
    chaos.add_argument("--rate", type=float, default=2.0)
    chaos.add_argument("--requests", type=int, default=80)
    chaos.add_argument("--input-tokens", type=int, default=32)
    chaos.add_argument("--output-tokens", type=int, default=64)
    chaos.add_argument("--seed", type=int, default=0,
                       help="seeds both the workload and the fault schedule")
    chaos.add_argument("--horizon", type=float, default=60.0,
                       help="fault-schedule horizon (s)")
    chaos.add_argument("--crash-rate", type=float, default=1.0,
                       help="crashes per node per minute")
    chaos.add_argument("--crash-downtime", type=float, default=8.0)
    chaos.add_argument("--brownout-rate", type=float, default=0.0)
    chaos.add_argument("--oom-rate", type=float, default=0.0)
    chaos.add_argument("--straggler-rate", type=float, default=0.0)
    chaos.add_argument("--thermal-rate", type=float, default=0.0)
    chaos.add_argument("--kv-policy", default="sacrifice",
                       help="KV lifecycle under preemption: sacrifice|"
                            "swap[-lifo|-fifo|-lru][-aggressive]")
    chaos.add_argument("--fallback", action="store_true",
                       help="enable INT8->INT4 precision fallback")
    chaos.add_argument("--show-trace", action="store_true",
                       help="print the applied-fault transcript")
    chaos.add_argument("--csv", default=None, help="also write the report row")
    _add_obs_args(chaos)

    kvt = sub.add_parser(
        "kvtier",
        help="KV lifecycle sweep: policy x trigger x prefix-share-ratio")
    kvt.add_argument("--device", default="jetson-orin-agx-64gb")
    kvt.add_argument("--model", default="llama3.1-8b")
    kvt.add_argument("--precision", default="fp16")
    kvt.add_argument("--power-mode", default="MAXN")
    kvt.add_argument("--rate", type=float, default=4.0,
                     help="mean arrival rate (req/s)")
    kvt.add_argument("--requests", type=int, default=40)
    kvt.add_argument("--prefix-tokens", type=int, default=128,
                     help="shared system-prompt length (tokens)")
    kvt.add_argument("--unique-tokens", type=int, default=32,
                     help="per-request unique suffix length (tokens)")
    kvt.add_argument("--output-tokens", type=int, default=64)
    kvt.add_argument("--max-batch", type=int, default=8)
    kvt.add_argument("--kv-budget-frac", type=float, default=0.005,
                     help="fraction of the natural KV budget kept "
                          "(< 1 forces preemption)")
    kvt.add_argument("--policies", default="sacrifice,swap-lifo,swap-lru",
                     help="comma-separated KV lifecycle policies")
    kvt.add_argument("--triggers", default="1.0,0.85",
                     help="comma-separated trigger fractions")
    kvt.add_argument("--share-ratios", default="0.0,0.5",
                     help="comma-separated shared-prefix ratios")
    kvt.add_argument("--seed", type=int, default=0)
    kvt.add_argument("--csv", default=None,
                     help="write the sweep rows as canonical CSV")

    fair = sub.add_parser(
        "fairness",
        help="fair-serving sweep: scheduler x tenant-mix x runtime x kv")
    fair.add_argument("--device", default="jetson-orin-agx-64gb")
    fair.add_argument("--model", default="llama3.1-8b")
    fair.add_argument("--precision", default="fp16")
    fair.add_argument("--runtimes", default="hf-transformers",
                      help="comma-separated runtime backends")
    fair.add_argument("--kv-policies", default="sacrifice",
                      help="comma-separated KV lifecycle policies")
    fair.add_argument("--schedulers", default="fcfs,vtc,wsc",
                      help="comma-separated queue disciplines")
    fair.add_argument("--mixes", default="balanced,flood",
                      help="comma-separated tenant mixes "
                           "(balanced|flood|weighted)")
    fair.add_argument("--power-modes", default="MAXN",
                      help="comma-separated nvpmodel operating points "
                           "the grid replays under")
    fair.add_argument("--routing", default="round-robin",
                      help="routing policy for the fleet")
    fair.add_argument("--rate", type=float, default=3.0,
                      help="mean session arrival rate (sessions/s)")
    fair.add_argument("--interactions", type=int, default=24,
                      help="number of multi-turn sessions")
    fair.add_argument("--mean-turns", type=float, default=3.0)
    fair.add_argument("--max-turns", type=int, default=6)
    fair.add_argument("--think-time", type=float, default=1.0,
                      help="mean user think time between turns (s)")
    fair.add_argument("--max-batch", type=int, default=2)
    fair.add_argument("--throttle-rate", type=float, default=0.0,
                      help="per-tenant token budget (tokens/s); 0 = off")
    fair.add_argument("--slo-ttft", type=float, default=30.0,
                      help="TTFT deadline the good-share metric uses (s)")
    fair.add_argument("--seed", type=int, default=0)
    fair.add_argument("--csv", default=None,
                      help="write the sweep rows as canonical CSV")

    sus = sub.add_parser(
        "sustain",
        help="sustainability sweep: trace x router x cascade x power mode")
    sus.add_argument("--devices",
                     default="jetson-orin-agx-64gb,jetson-orin-agx-32gb,"
                             "jetson-xavier-agx-32gb",
                     help="comma-separated device presets; order maps "
                          "round-robin onto each scenario's regions")
    sus.add_argument("--model", default="llama",
                     help="the LLM tier (and the no-cascade fleet model)")
    sus.add_argument("--precision", default="fp16")
    sus.add_argument("--slm-model", default="phi2",
                     help="the cascade's small first-pass model")
    sus.add_argument("--slm-precision", default="int8")
    sus.add_argument("--scenarios", default="uniform,two-region",
                     help="comma-separated carbon-trace scenarios")
    sus.add_argument("--routers", default="energy-aware,carbon-aware",
                     help="comma-separated routing policies")
    sus.add_argument("--cascades", default="off,on",
                     help="comma-separated cascade modes (off|on)")
    sus.add_argument("--power-modes", default="MAXN",
                     help="comma-separated nvpmodel operating points "
                          "(clamped per device on heterogeneous fleets)")
    sus.add_argument("--gate", type=float, default=0.5,
                     help="cascade escalation gate strictness (0 = never)")
    sus.add_argument("--rate", type=float, default=0.5,
                     help="mean arrival rate (req/s)")
    sus.add_argument("--requests", type=int, default=24)
    sus.add_argument("--input-tokens", type=int, default=48)
    sus.add_argument("--output-tokens", type=int, default=96)
    sus.add_argument("--defer-max-s", type=float, default=0.0,
                     help="defer latency-slack arrivals up to this long "
                          "toward cleaner grid hours (0 = off)")
    sus.add_argument("--defer-threshold", type=float, default=0.95,
                     help="defer while intensity exceeds this fraction "
                          "of the trace mean")
    sus.add_argument("--max-batch", type=int, default=8)
    sus.add_argument("--seed", type=int, default=0)
    sus.add_argument("--csv", default=None,
                     help="write the sweep rows as canonical CSV")

    pln = sub.add_parser(
        "plan",
        help="analytic capacity plan: nodes/power-mode/backend for an SLO")
    pln.add_argument("--device", default="jetson-orin-agx-64gb")
    pln.add_argument("--model", default="llama3.1-8b")
    pln.add_argument("--rate", type=float, default=2.0,
                     help="offered arrival rate (req/s)")
    pln.add_argument("--input-tokens", type=int, default=64)
    pln.add_argument("--output-tokens", type=int, default=64)
    pln.add_argument("--slo-ttft", type=float, default=10.0,
                     help="TTFT target (s)")
    pln.add_argument("--slo-tpot", type=float, default=1.0,
                     help="per-token decode target (s)")
    pln.add_argument("--slo-e2e", type=float, default=None,
                     help="end-to-end latency target (s); off by default")
    pln.add_argument("--runtimes", default="hf-transformers,paged,gguf",
                     help="comma-separated candidate runtimes")
    pln.add_argument("--precisions", default="fp16",
                     help="comma-separated candidate precisions")
    pln.add_argument("--power-modes", default="MAXN",
                     help="comma-separated candidate power modes")
    pln.add_argument("--max-nodes", type=int, default=8)
    pln.add_argument("--max-batch", type=int, default=8)
    pln.add_argument("--max-utilization", type=float, default=0.9,
                     help="refuse plans busier than this fraction")
    pln.add_argument("--carbon-gco2", type=float, default=None,
                     help="deployment region grid intensity (g CO2/kWh); "
                          "adds a g_per_token column and ranks winners "
                          "by it after nodes and watts")
    pln.add_argument("--validate", action="store_true",
                     help="cross-validate the fluid model against the "
                          "DES over a workload x router x runtime grid")
    pln.add_argument("--validate-nodes", type=int, default=2,
                     help="fleet size of the validation grid")
    pln.add_argument("--validate-requests", type=int, default=60,
                     help="requests per validation cell")
    pln.add_argument("--seed", type=int, default=0)
    pln.add_argument("--csv", default=None,
                     help="write the candidate (or, with --validate, "
                          "validation) rows as canonical CSV")

    return parser


_COMMANDS = {
    "footprint": _cmd_footprint,
    "models": _cmd_models,
    "devices": _cmd_devices,
    "backends": _cmd_backends,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "perplexity": _cmd_perplexity,
    "profile": _cmd_profile,
    "study": _cmd_study,
    "cluster": _cmd_cluster,
    "chaos": _cmd_chaos,
    "kvtier": _cmd_kvtier,
    "fairness": _cmd_fairness,
    "sustain": _cmd_sustain,
    "plan": _cmd_plan,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
