"""Paper-path benchmark for the symmetrize → prune → cluster system.

Run from the root of a checkout::

    python3 paperbench/run.py --workload paper-prune --seed 1 \
        --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
runs the same loop with the program's tracer on and reports the
per-layer metrics instead, and writes the benchmark's own spans to
``.paperbench/traces/``. See ``paperbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median. The measured time
#: is split into as many parts, each on a freshly set-up program, so
#: the set-ups sample the host over the whole run, not its first
#: seconds.
SETUP_REPEATS = 3

#: One BLAS thread in this process and every program process it
#: starts: on a small shared host, idle BLAS threads spinning on the
#: other cores made timings swing far more than the inputs do.
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

WORKLOADS = ("paper-prune", "serve-jobs")


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package() -> None:
    """Put the checkout's ``src`` first on the path and import from it;
    exits non-zero when the package source is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"paperbench: no package source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC not in where.parents:
        sys.exit(f"paperbench: imported repro from {where}, not {SRC}")


def _workload(name: str):
    import workloads

    if name == "paper-prune":
        return workloads.PaperPrune(SRC)
    return workloads.ServeJobs(SRC)


def measure(args: argparse.Namespace, workdir: Path) -> dict:
    import harness

    workload = _workload(args.workload)
    (workdir / "inputs").mkdir()
    inputs = workload.prepare(args.seed, workdir / "inputs")
    setups: list[float] = []
    peaks: list[float] = []
    ops = []
    for part in range(SETUP_REPEATS):
        target = workdir / f"part-{part}"
        target.mkdir()
        fresh = inputs.copy_to(target)
        t0 = time.perf_counter()
        state = workload.setup(fresh, target)
        setups.append(time.perf_counter() - t0)
        try:
            workload.warmup(state)
            ops += workload.run(
                state, args.seconds / SETUP_REPEATS, bool(args.trace)
            )
            peaks.append(workload.peak_rss_mb(state))
        finally:
            workload.close(state)
    for number, op in enumerate(ops):
        op.op_id = number
    problems = workload.check(inputs, ops) if ops else ["no requests"]
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    failed = sum(op.failed for op in ops)
    if args.trace:
        metrics = harness.per_layer(ops)
        harness.write_trace(
            ops,
            ROOT / ".paperbench" / "traces"
            / f"{args.workload}-seed{args.seed}.json",
        )
    else:
        metrics = harness.end_to_end(ops, setups, max(peaks))
    return {
        "correct": not problems and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    args = _parse(argv)
    os.environ.update(SINGLE_THREAD_ENV)
    _import_package()
    warnings.simplefilter("ignore")
    base = ROOT / ".paperbench"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
