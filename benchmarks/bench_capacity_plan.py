"""The analytic capacity planner: DES cross-validation and the search.

The ``repro plan`` tier answers deployment questions in milliseconds by
solving the fluid model instead of replaying the DES.  Its committed
evidence:

- **Cross-validation grid** — every (workload, router, runtime) cell of
  the default :class:`~repro.plan.ValidationSpec` replayed through both
  tiers on the *same* deterministic arrival trace.  Asserted shape: at
  least :data:`~repro.plan.DEFAULT_PASS_FRACTION` of cells keep both
  steady throughput and mean request latency within
  :data:`~repro.plan.DEFAULT_TOLERANCE` relative error of the DES.  The
  CSV is written via :meth:`~repro.core.grid.GridReport.csv`, the same
  canonical bytes ``repro plan --validate --csv`` emits, so CI can
  byte-diff a fresh run against this committed artifact.
- **Capacity search** — the default :class:`~repro.plan.PlanSpec`
  answered end to end; the whole candidate walk must finish inside the
  one-second interactivity budget that justifies the analytic tier.
"""

import time

from repro.plan import (DEFAULT_PASS_FRACTION, PlanSpec, ValidationSpec,
                        plan, run_validation)
from repro.reporting import format_table, plan_table

VALIDATION_SPEC = ValidationSpec()  # 4 workloads x 3 routers x 3 runtimes
PLAN_SPEC = PlanSpec()


def test_fluid_model_tracks_the_des(benchmark, emit, results_dir):
    report = benchmark.pedantic(lambda: run_validation(VALIDATION_SPEC),
                                rounds=1, iterations=1)
    text = format_table(
        report.rows,
        title="Fluid-vs-DES validation (2x Orin AGX 64GB, Llama3.1-8B "
              "fp16 MAXN, 60 requests, identical arrival traces)")
    text += (f"\nwithin_tolerance={report.within_fraction:.3f} "
             f"(tolerance={VALIDATION_SPEC.tolerance}, "
             f"gate={DEFAULT_PASS_FRACTION})")
    emit("plan_validation", text)
    # The canonical CSV bytes (identical to `repro plan --validate
    # --csv`), not write_csv's DictWriter output — CI byte-diffs this.
    (results_dir / "plan_validation.csv").write_text(report.csv())

    assert report.within_fraction >= DEFAULT_PASS_FRACTION
    # Both metrics exist in every cell and the DES actually ran.
    for row in report.rows:
        assert row["des_tput_tok_s"] > 0
        assert row["des_latency_s"] > 0


def test_capacity_search_answers_inside_a_second(benchmark, emit):
    start = time.perf_counter()
    report = plan(PLAN_SPEC)
    elapsed = time.perf_counter() - start
    benchmark.pedantic(lambda: plan(PLAN_SPEC), rounds=1, iterations=1)

    rows = plan_table(report)
    emit(
        "plan_capacity",
        format_table(rows,
                     title=f"Capacity search: {PLAN_SPEC.model} @ "
                           f"{PLAN_SPEC.rate_per_s} req/s, TTFT SLO "
                           f"{PLAN_SPEC.slo_ttft_s}s"),
        rows,
    )
    assert elapsed < 1.0
    assert report.chosen is not None
    assert report.chosen["slo_ok"]
    # The chosen row is marked in the emitted table.
    assert any(r["chosen"] for r in rows)
