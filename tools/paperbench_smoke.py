"""CI smoke check: the paper-path benchmark's output checks must pass.

``paperbench/run.py`` checks everything its workloads produce: the
SciPy ``U_d`` oracle against ``apply_pruned`` and byte-identical
repeats (``paper-prune``); the service's edge counts, dedup flags,
labels and Avg-F (``serve-jobs``). It reports the verdict as
``"correct"`` on the last line of its output, and its reasons as
``incorrect: ...`` lines on stderr, but exits 0 either way. This runs
each workload briefly and exits 1 unless that line has
``"correct": true`` and ``"failed": 0``.

Usage, from the checkout root (the benchmark imports ``src/`` itself;
about 30 s on 2 vCPUs)::

    python tools/paperbench_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-prune", "serve-jobs")
SEED = 1
#: Split over the run's three fresh set-ups: each serves requests for
#: two seconds, enough for every check to see output.
SECONDS = 6


def problem(workload: str) -> str | None:
    """Run one workload; why it failed, or ``None`` when it passed."""
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "paperbench" / "run.py"),
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", str(SECONDS),
            "--trace", "0",
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        return f"run.py exited {proc.returncode}"
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return f"last output line is not JSON: {proc.stdout[-300:]!r}"
    print(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        return (
            f"correct={result.get('correct')}, "
            f"{result.get('failed')} of {result.get('attempted')} "
            "requests failed"
        )
    return None


def main() -> int:
    failures = 0
    for workload in WORKLOADS:
        why = problem(workload)
        if why is None:
            print(f"paperbench-smoke OK: {workload}")
        else:
            print(f"paperbench-smoke FAIL: {workload}: {why}")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
