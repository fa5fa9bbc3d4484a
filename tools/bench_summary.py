"""Append a bench-trajectory row to the CI job summary.

The CI scale leg benches the kernel (``BENCH_scale.json``) and
uploads the raw JSON as an artifact — this tool distills the file
into one markdown table row (date, commit, ``src/`` line count, key
timings, regression verdict) and appends it to
``$GITHUB_STEP_SUMMARY`` so the Actions UI shows the performance
trajectory, and the code size next to it, at a glance without
downloading anything. Falls back to stdout when the variable is unset
(local runs).

Usage::

    PYTHONPATH=src python tools/bench_summary.py [--scale BENCH_scale.json]

Exit code is 0 unless the input file is missing or unreadable.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
from pathlib import Path


def _git_sha() -> str:
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha[:12]
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _src_lines() -> int:
    """Lines of Python under ``src/``, counted as
    ``find src -name '*.py' | xargs cat | wc -l`` counts them."""
    src = Path(__file__).resolve().parents[1] / "src"
    return sum(
        path.read_bytes().count(b"\n") for path in src.rglob("*.py")
    )


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "**FAIL**"


def _scale_row(results: dict) -> tuple[str, str]:
    """(key timings, verdict) for a BENCH_scale.json dict; each point
    also shows its time in calibration units (its seconds over its
    ``calibration_seconds``, when recorded), its all-pairs candidate,
    scored and verified pair counts and its exactness certificate, and
    a missed or extra pair fails the verdict.

    Calibration units normalize only the CPU speed of in-cache sparse
    products, not the memory bandwidth a 1M point also depends on, so
    a 1M point's cal can move with the host state (453 and 588 cal in
    two runs against 238 in the schema-v3 file)."""
    parts = []
    peak = 0.0
    certified = True
    for point in results.get("points", []):
        metrics = point.get("metrics", {})
        candidates = metrics.get("allpairs_candidate_pairs_total", 0)
        verified = metrics.get("allpairs_pairs_verified_total", 0)
        scored = metrics.get("allpairs_pairs_scored_total", 0)
        cert = point.get("certificate")
        if cert is None:
            certificate = "no certificate"
            certified = False
        else:
            clean = not (cert["misses"] or cert["extras"])
            certified = certified and clean
            certificate = (
                f"exact on {cert['rows_checked']} rows"
                if clean
                else f"**{cert['misses']} missed, "
                f"{cert['extras']} extra**"
            )
        seconds = f"{point['symmetrize_seconds']:.1f}s"
        calibration = point.get("calibration_seconds")
        if calibration:
            seconds += (
                f" = {point['symmetrize_seconds'] / calibration:.0f} cal"
            )
        parts.append(
            f"{point['n_nodes']}n {seconds} "
            f"({candidates / 1e6:.2f}M candidates, "
            f"{scored / 1e3:.1f}k scored of "
            f"{verified / 1e3:.1f}k verified, {certificate})"
        )
        peak = max(peak, point.get("peak_rss_bytes", 0))
    timings = ", ".join(parts) or "no points"
    if peak:
        timings += f", peak {peak / 1024**3:.2f} GiB"
    reg = results.get("regression", {})
    diff = results.get("differential") or {}
    passed = (
        bool(reg.get("passed"))
        and bool(diff.get("identical", True))
        and certified
    )
    return timings, _verdict(passed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="BENCH_scale.json")
    args = parser.parse_args(argv)

    date = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%d"
    )
    path = Path(args.scale)
    if not path.exists():
        print(f"bench-summary: {path} not found", file=sys.stderr)
        return 1
    try:
        results = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(
            f"bench-summary: unreadable {path}: {exc}",
            file=sys.stderr,
        )
        return 1
    timings, verdict = _scale_row(results)

    lines = [
        "### Bench trajectory",
        "",
        "| date | sha | src lines | bench | key timings | regression |",
        "| --- | --- | --- | --- | --- | --- |",
        f"| {date} | `{_git_sha()}` | {_src_lines():,} | scale "
        f"| {timings} | {verdict} |",
        "",
    ]
    output = "\n".join(lines)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(output + "\n")
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
