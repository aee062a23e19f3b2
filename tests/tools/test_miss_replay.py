"""``tools/miss_replay.py`` on a one-model cold study."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "miss_replay", ROOT / "tools" / "miss_replay.py")
miss_replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(miss_replay)

#: sha256 over every delta a cold MS-Phi2 study applies.  It depends
#: only on the answers: a change to the replay that keeps them keeps it.
PHI2_DIGEST = ("c6c2e3b92f5e54e08e6c162180c6c90c7be8942b34de69be908aca018a"
               "04e3b2")


def test_counts_regimes_and_digest_of_a_cold_phi2_study(capsys):
    miss_replay.main(["MS-Phi2"])
    counts, seconds, digest = capsys.readouterr().out.splitlines()
    # 42 misses, 5 of which record a follow-on entry; every later batch
    # is a hit.  The study plans 61 configurations, 49 distinct; each
    # distinct one runs once.
    assert counts == ("hits 52  misses 42  follow-on entries 5  "
                      "entries 47")
    # Every Phi-2 batch carries an eager score buffer.
    assert seconds.startswith("replay s: eager ")
    assert "small 0.00  mixed 0.00  large 0.00" in seconds
    assert digest == f"applied-delta digest {PHI2_DIGEST}"
