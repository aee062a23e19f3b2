"""Paired perfbench runs of two source trees, and a committed trajectory.

Runs ``perfbench/run.py`` in a parent tree and a change tree, one pair
of runs per seed, for the benchmark's ``run_seconds`` each.  The side
that runs first swaps from pair to pair (parent first in even pairs,
change first in odd ones), so an effect of running second, such as a
warmer file cache or host drift, does not always land on one side.  It
then prints, for every end-to-end metric in ``BENCHMARK.json``, the
median and quartiles of each side and how many pairs the change won.
Host noise on small machines is often 10% or more, so one run per side
says little; the parent's quartiles show how wide that noise was.

    python3 tools/perf_pairs.py --parent ../parent --change . \\
        --workload study_cold --pairs 10 --first-seed 2

``--layers`` then runs one ``--trace 1 --seed 1`` run per side and
prints each side's per-layer counts (``*.calls``, ``sim.events``,
``cluster.node.resumptions``, ``telemetry.samples``): unlike the
timings they are exact, so they show which layers the change made do
less work.  ``--record`` appends the summary, with those counts under
``"layers"`` when ``--layers`` is given, as one record to
``BENCH_perf.json`` in the change tree's root (a JSON list, oldest
first).  Every run is
printed as one JSON line tagged with its ``side`` and ``seed``;
``--lines`` summarises such lines saved from earlier runs instead of
running anything, pairing them up by seed whatever their order.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, \
    Sequence, Tuple

TRAJECTORY = "BENCH_perf.json"
SIDES = ("parent", "change")
#: Seed of the traced run ``--layers`` makes per side.
LAYER_SEED = 1
#: Per-layer counts besides the ``*.calls`` ones that ``--layers`` keeps.
LAYER_COUNTS = ("sim.events", "cluster.node.resumptions",
                "telemetry.samples")


def run_once(tree: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One perfbench run in ``tree``; returns its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_counts(traced: dict) -> Dict[str, int]:
    """The per-layer counts of one ``--trace 1`` run's final JSON line."""
    return {name: m["value"] for name, m in sorted(traced["metrics"].items())
            if name.endswith(".calls") or name in LAYER_COUNTS}


def format_layers(layers: Dict[str, Dict[str, int]]) -> str:
    rows = [f"{'layer count':<26} {'parent':>12} {'change':>12}"]
    for name in layers["parent"]:
        rows.append(f"{name:<26} {layers['parent'][name]:>12} "
                    f"{layers['change'].get(name, '-'):>12}")
    return "\n".join(rows)


def run_pairs(trees: Dict[str, Path], workload: str, seeds: Sequence[int],
              run: Callable[[Path, str, int], dict] = run_once
              ) -> Iterator[dict]:
    """Yields each run tagged with its side and seed, in the order run.

    Pair ``i`` runs seed ``seeds[i]`` on both sides, parent first when
    ``i`` is even and change first when it is odd.
    """
    for i, seed in enumerate(seeds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            yield {"side": side, "seed": seed,
                   **run(trees[side], workload, seed)}


def split_sides(runs: Iterable[dict]
                ) -> Tuple[List[int], List[dict], List[dict]]:
    """Pairs tagged runs up by seed: (seeds, parent runs, change runs).

    Seeds keep the order of their first run; every seed needs exactly
    one run per side.
    """
    by_seed: Dict[int, Dict[str, dict]] = {}
    for r in runs:
        pair = by_seed.setdefault(r["seed"], {})
        if r["side"] not in SIDES or r["side"] in pair:
            raise ValueError(f"seed {r['seed']}: unexpected or repeated "
                             f"{r['side']!r} run")
        pair[r["side"]] = r
    if any(len(pair) != len(SIDES) for pair in by_seed.values()):
        raise ValueError("every seed needs one run per side")
    seeds = list(by_seed)
    return (seeds, [by_seed[s]["parent"] for s in seeds],
            [by_seed[s]["change"] for s in seeds])


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median and inclusive quartiles (equal to the value for one run)."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarize(parent: Sequence[dict], change: Sequence[dict],
              metrics: Sequence[dict]) -> Dict[str, dict]:
    """Per metric: each side's spread and the pairs the change won.

    ``parent[i]`` and ``change[i]`` are the final JSON lines of pair
    ``i``; ``metrics`` are ``BENCHMARK.json``'s ``end_to_end`` entries.
    A tie wins for neither side.  Runs that were not correct or had
    failed operations are counted, not dropped.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs per side")
    out: Dict[str, dict] = {}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": spread(p),
            "change": spread(c),
            "won": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
            "pairs": len(p),
        }
    bad = sum(not r["correct"] or r["failed"] > 0
              for r in list(parent) + list(change))
    out["_runs"] = {"pairs": len(parent), "bad_runs": bad}
    return out


def format_summary(summary: Dict[str, dict]) -> str:
    rows = [f"{'metric':<20} {'parent median [q1, q3]':>34} "
            f"{'change median [q1, q3]':>34} {'ratio':>7} {'won':>6}"]
    for name, s in summary.items():
        if name.startswith("_"):
            continue
        p, c = s["parent"], s["change"]
        ratio = c["median"] / p["median"] if p["median"] else float("nan")
        rows.append(
            f"{name:<20} {p['median']:>12.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
            f"{'':>2} {c['median']:>12.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
            f"{'':>2} {ratio:>7.3f} {s['won']:>3}/{s['pairs']}")
    rows.append(f"runs not correct or with failed operations: "
                f"{summary['_runs']['bad_runs']}")
    return "\n".join(rows)


def append_record(path: Path, record: dict) -> None:
    records: List[dict] = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path, default=Path("."))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=2)
    ap.add_argument("--lines", type=Path,
                    help="summarise saved JSON lines instead of running")
    ap.add_argument("--layers", action="store_true",
                    help="also record each side's per-layer counts")
    ap.add_argument("--record", action="store_true",
                    help=f"append the summary to {TRAJECTORY}")
    ap.add_argument("--pr", type=int, help="PR number for the record")
    ap.add_argument("--parent-sha", help="parent commit for the record")
    ap.add_argument("--sha", help="change commit for the record")
    args = ap.parse_args(argv)

    change = args.change.resolve()
    bench = json.loads((change / "BENCHMARK.json").read_text())
    if args.parent is None and (args.lines is None or args.layers):
        ap.error("--parent is required unless --lines is given "
                 "without --layers")
    trees = {"parent": args.parent and args.parent.resolve(),
             "change": change}
    if args.lines is not None:
        runs = [json.loads(line) for line in args.lines.read_text().split("\n")
                if line.startswith("{")]
    else:
        runs = []
        seeds = range(args.first_seed, args.first_seed + args.pairs)
        for r in run_pairs(trees, args.workload, seeds):
            print(json.dumps(r), flush=True)
            runs.append(r)
    seeds, parent, changed = split_sides(runs)
    summary = summarize(parent, changed, bench["end_to_end"])
    print(format_summary(summary))
    layers = None
    if args.layers:
        layers = {side: layer_counts(run_once(trees[side], args.workload,
                                              LAYER_SEED, trace=1))
                  for side in SIDES}
        print(format_layers(layers))
    if args.record:
        counts = summary.pop("_runs")
        record = {
            "pr": args.pr, "parent": args.parent_sha, "sha": args.sha,
            "workload": args.workload, "pairs": counts["pairs"],
            "seeds": seeds, "seconds": bench["run_seconds"],
            "bad_runs": counts["bad_runs"],
            "metrics": summary, "source": "perfbench"}
        if layers is not None:
            record["layers"] = layers
        append_record(change / TRAJECTORY, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
