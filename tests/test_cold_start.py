"""Cold-start guard: the package's entry points load no SciPy module
beyond ``scipy.sparse``, and no process-pool machinery.

Every fresh process pays for its imports: each CLI call, ``repro
serve``, and the set-up the paper-path benchmark times. ``scipy.stats``
alone costs more than NumPy and ``scipy.sparse`` together, and the
paper path (edge-list ingest, symmetrize, MLR-MCL) never calls it, so
heavy SciPy modules are imported where they are used: the §5.6 sign
test, the sparse eigensolver. Nothing in the package runs a process
pool, so ``multiprocessing`` and ``concurrent.futures.process`` stay
unloaded too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

HEAVY_MODULES = (
    "scipy.stats",
    "scipy.sparse.linalg",
    "scipy.linalg",
    "scipy.optimize",
    "scipy.spatial",
    "scipy.special",
    "multiprocessing",
    "concurrent.futures.process",
)


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        # what the paper-path benchmark's start-up script imports
        "repro.graph.io",
        # what `python -m repro serve` imports before it starts serving
        "repro.cli",
    ],
)
def test_entry_point_loads_no_heavy_scipy(module):
    script = (
        f"import json, sys\nimport {module}\n"
        f"print(json.dumps([m for m in {HEAVY_MODULES!r} "
        "if m in sys.modules]))"
    )
    env = dict(os.environ)
    src = str(Path(repro.__file__).parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
