"""Regenerate the committed reference digests under ``perfbench/refs``.

Run from the root of a checkout, once per intended change of the
simulator's answers (a speed or simplicity change must leave them
bit-identical, so it never reruns this)::

    python3 perfbench/make_refs.py [workload ...]

Each reference holds, per trace generator seed, the operation count, the
SHA-256 of the exact outcome lines, one short tag per line (so a check
can count how many operations differ) and the modelled answers.
"""

from __future__ import annotations

import json
import sys

import run  # noqa: F401  (pins threads, finds the program)
from run import REFS, import_program, one_call
from workloads import HELDOUT_SEED, WORKLOADS


def reference(workload) -> dict:
    seeds = list(range(workload.family))
    if workload.kind == "cluster":
        seeds.append(HELDOUT_SEED)
    traces = {}
    for gen_seed in seeds:
        _, out = one_call(workload, gen_seed)
        if out.violations:
            raise SystemExit(f"{workload.name}/{gen_seed}: {out.violations}")
        traces[str(gen_seed)] = {
            "ops": out.counts["ops"], "n": len(out.lines), "sha": out.sha,
            "answers": out.answers, "tags": out.tags,
        }
        print(workload.name, gen_seed, out.counts["ops"], out.answers,
              flush=True)
    return {"workload": workload.name, "traces": traces}


def main(names) -> None:
    import_program()
    REFS.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        ref = reference(WORKLOADS[name])
        (REFS / f"{name}.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
