"""sha256 pins on the grid-sweep commands at the CI smoke arguments.

Covers stdout (minus the ``wrote <path>`` line) and the ``--csv`` file:
row order, columns, rounding, alignment, CSV framing and cache keys.
"""

import hashlib

import pytest

from repro.cli import main

CASES = {
    "kvtier": (
        ["kvtier", "--requests", "16", "--policies", "sacrifice,swap-lru",
         "--triggers", "1.0", "--share-ratios", "0.0,0.5"],
        "7c97814306ba0c4213156d9e5c5bc0c4e040b61a4bfdd5ddd52754d57e75a60b",
        "53d962ce4e51505850518219da1626d12009b48328b13d1675364e7f17a08ca2",
    ),
    "fairness": (
        ["fairness", "--interactions", "6", "--schedulers", "fcfs,vtc",
         "--mixes", "flood", "--rate", "3.0", "--mean-turns", "2.0",
         "--max-turns", "3", "--think-time", "0.5"],
        "83bfdc2a29d2f5e4317f73393493d90db8848003fa18cce106cf7912c239ae07",
        "58df9796d91ce332f46e318f88f9469c550d0bc2b233446e7095ab10b3ebfd87",
    ),
    "sustain": (
        ["sustain", "--requests", "12", "--scenarios", "uniform,two-region"],
        "f67b5a8f0de55e245ce4b27c84d29eff51b9cfa7d843fd0d6d861a19219ec1d4",
        "aaec1217b72018cb0a71f876e31e2b9b888d10de1eb3f360bf5acf1187e193b1",
    ),
    "plan-validate": (
        ["plan", "--validate"],
        "b0a387d04d779bf2b79b33b8965e93307f5660d16277319d63516fdbd50b7b42",
        "189eaa8ba385911ea831899073f59bc6dc629683df9bb18126001b682343f1b8",
    ),
    "plan": (
        ["plan"],
        "b7a80e7b52d3bdb63869375fc824cbfc52ec2a3fb4c5899d6dd07e4b28d56571",
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_output_bytes_are_pinned(name, tmp_path, capsys):
    argv, stdout_digest, csv_digest = CASES[name]
    csv_path = tmp_path / f"{name}.csv"
    if csv_digest is not None:
        argv = argv + ["--csv", str(csv_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    kept = "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith("wrote "))
    assert hashlib.sha256(kept.encode()).hexdigest() == stdout_digest
    if csv_digest is not None:
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_digest
