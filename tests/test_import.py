"""Import cost: the package and its CLI load without scipy.

scipy is only needed by the offline calibration fit, and importing it
costs ~0.5 s and ~40 MB on every process that imports ``repro``
(study workers, CLI calls, benchmark set-up).  A fresh interpreter is
the only place the check means anything, since this test process may
already have scipy loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_import_leaves_scipy_unloaded(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = (f"import sys, {module}; "
            "assert 'scipy' not in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('scipy'))[:5]")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
