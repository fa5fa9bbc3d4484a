"""CI smoke check for the clustering service daemon.

Boots ``python -m repro serve`` as a real subprocess on an ephemeral
port, registers a generated graph over HTTP, submits two identical
jobs plus one distinct job, and asserts the daemon's acceptance
criteria end to end:

1. the two identical submissions share one job id (exactly one dedup
   hit);
2. both deduplicated submissions return the same labels hash, and the
   distinct job a different job id;
3. once both jobs are done, a cluster job with a third cluster count
   (a recluster) is served the shared symmetrized artifact from the
   daemon's cache (``cache.hits >= 1`` in its result), for three
   executions server-side in all;
4. ``POST /shutdown`` drains the daemon to a clean exit (code 0)
   within the deadline, leaving no child processes behind.

``--chaos`` runs the durability smoke instead: boot with
``--state-dir``, complete one job, SIGKILL the daemon mid-flight on a
second job, restart against the same state directory, and assert the
graph and the finished result are recovered (no re-registration, the
same labels hash, zero re-executions for the recovered result) before
draining cleanly.

Exit code 0 on success, 1 with a diagnostic on any violation.

Usage::

    PYTHONPATH=src python tools/serve_smoke.py [--deadline 60]
    PYTHONPATH=src python tools/serve_smoke.py --chaos [--deadline 90]
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

_RECOVERY = re.compile(
    r"recovered (\d+) graph\(s\), (\d+) result\(s\); "
    r"re-running (\d+) incomplete job\(s\)"
)


def fail(message: str) -> int:
    print(f"serve-smoke FAIL: {message}", file=sys.stderr)
    return 1


def boot(extra_args: list[str]) -> tuple[subprocess.Popen, int, list[str]]:
    """Start the daemon; return (process, port, stdout lines so far).

    Reads stdout until the listen line announces the bound ephemeral
    port — any recovery summary printed before it is captured in the
    returned lines.
    """
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"]
        + extra_args,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert daemon.stdout is not None
    lines: list[str] = []
    for _ in range(20):
        line = daemon.stdout.readline()
        if not line:
            break
        lines.append(line.rstrip("\n"))
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match:
            return daemon, int(match.group(1)), lines
    daemon.kill()
    daemon.wait(10)
    raise RuntimeError(f"no listen line in daemon output: {lines!r}")


def drain(daemon: subprocess.Popen, client, deadline_s: float) -> int | None:
    """Shut the daemon down; return its exit code (None on timeout)."""
    client.shutdown()
    try:
        return daemon.wait(timeout=max(deadline_s, 1.0))
    except subprocess.TimeoutExpired:
        return None


def run_plain(args: argparse.Namespace, started: float) -> int:
    from repro.datasets import make_cora_like
    from repro.service import ServiceClient

    graph = make_cora_like(n_nodes=200, n_categories=4, seed=7).graph

    with tempfile.TemporaryDirectory() as tmp:
        daemon, port, _ = boot(
            ["--data-dir", str(Path(tmp) / "svc"), "--workers", "2"]
        )
        try:
            client = ServiceClient(
                "127.0.0.1", port, client="smoke", timeout=30.0
            )
            client.register_graph("cora", graph)

            first = client.submit(
                kind="cluster", graph="cora", n_clusters=8
            )
            second = client.submit(
                kind="cluster", graph="cora", n_clusters=8
            )
            distinct = client.submit(
                kind="cluster", graph="cora", n_clusters=16
            )
            if second["job_id"] != first["job_id"]:
                return fail("identical submissions got distinct jobs")
            if not second["deduped"] or first["deduped"]:
                return fail(
                    f"dedup flags wrong: {first['deduped']}, "
                    f"{second['deduped']}"
                )
            if distinct["job_id"] == first["job_id"]:
                return fail("distinct submission was deduplicated")

            shared = client.result(first["job_id"], timeout=60)
            other = client.result(distinct["job_id"], timeout=60)
            if shared["labels_sha256"] == other["labels_sha256"]:
                return fail("distinct jobs returned identical labels")

            recluster = client.submit(
                kind="cluster", graph="cora", n_clusters=12
            )
            reclustered = client.result(recluster["job_id"], timeout=60)
            if reclustered["cache"]["hits"] < 1:
                return fail(
                    "recluster missed the artifact cache: "
                    f"{reclustered['cache']}"
                )

            counters = client.stats()["metrics"]["counters"]
            if counters.get("service_dedup_hits_total") != 1:
                return fail(f"expected 1 dedup hit, got {counters}")
            if counters.get("service_job_executions_total") != 3:
                return fail(f"expected 3 executions, got {counters}")

            remaining = args.deadline - (time.monotonic() - started)
            code = drain(daemon, client, remaining)
            if code is None:
                return fail(
                    f"daemon did not drain within {args.deadline}s"
                )
            if code != 0:
                return fail(f"daemon exited {code}")
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(10)

    elapsed = time.monotonic() - started
    print(
        f"serve-smoke OK: 4 submissions, 1 dedup hit, 1 recluster "
        f"cache hit, clean drain in {elapsed:.1f}s"
    )
    return 0


def run_chaos(args: argparse.Namespace, started: float) -> int:
    from repro.datasets import make_cora_like
    from repro.service import ServiceClient

    graph = make_cora_like(n_nodes=200, n_categories=4, seed=7).graph

    with tempfile.TemporaryDirectory() as tmp:
        state = str(Path(tmp) / "state")
        serve_args = ["--state-dir", state, "--workers", "2"]

        # Phase 1: durable daemon, one finished job, one in flight,
        # then SIGKILL — no drain, no warning, lights out.
        daemon, port, lines = boot(serve_args)
        killed_cleanly = False
        try:
            if not any(_RECOVERY.search(ln) for ln in lines):
                return fail(f"no recovery summary on boot: {lines!r}")
            client = ServiceClient(
                "127.0.0.1", port, client="chaos", timeout=30.0
            )
            client.register_graph("cora", graph)
            done = client.submit(
                kind="cluster", graph="cora", n_clusters=8
            )
            finished = client.result(done["job_id"], timeout=60)
            reference_sha = finished["labels_sha256"]
            # A second, distinct job goes in and the daemon dies with
            # it (possibly) still running.
            client.submit(kind="cluster", graph="cora", n_clusters=16)
            daemon.send_signal(signal.SIGKILL)
            daemon.wait(10)
            killed_cleanly = True
        finally:
            if not killed_cleanly and daemon.poll() is None:
                daemon.kill()
                daemon.wait(10)

        # Phase 2: restart against the same state dir. The graph and
        # the finished result must come back without re-registration.
        daemon, port, lines = boot(serve_args)
        try:
            summary = next(
                (m for ln in lines if (m := _RECOVERY.search(ln))),
                None,
            )
            if summary is None:
                return fail(f"no recovery summary on restart: {lines!r}")
            graphs, results, rerun = (
                int(summary.group(1)),
                int(summary.group(2)),
                int(summary.group(3)),
            )
            if graphs != 1:
                return fail(f"expected 1 recovered graph, got {graphs}")
            if results < 1:
                return fail(
                    f"expected >=1 recovered result, got {results}"
                )
            print(
                f"serve-smoke chaos: restart recovered {graphs} "
                f"graph(s), {results} result(s), re-ran {rerun}"
            )

            client = ServiceClient(
                "127.0.0.1", port, client="chaos", timeout=30.0
            )
            # No register_graph here: submitting against the
            # recovered graph proves it survived the kill.
            resub = client.submit(
                kind="cluster", graph="cora", n_clusters=8
            )
            if not resub["deduped"]:
                return fail(
                    "finished job was not served from recovered state"
                )
            recovered = client.result(resub["job_id"], timeout=60)
            if recovered["labels_sha256"] != reference_sha:
                return fail(
                    "recovered result not byte-identical: "
                    f"{recovered['labels_sha256']} != {reference_sha}"
                )
            counters = client.stats()["metrics"]["counters"]
            if counters.get("service_results_recovered_total", 0) < 1:
                return fail(f"recovery counters missing: {counters}")

            # The in-flight job converges too — recovered or re-run,
            # resubmission must reach a done state with labels.
            second = client.submit(
                kind="cluster", graph="cora", n_clusters=16
            )
            other = client.result(second["job_id"], timeout=60)
            if other["labels_sha256"] == reference_sha:
                return fail("distinct jobs returned identical labels")

            remaining = args.deadline - (time.monotonic() - started)
            code = drain(daemon, client, remaining)
            if code is None:
                return fail(
                    f"daemon did not drain within {args.deadline}s"
                )
            if code != 0:
                return fail(f"daemon exited {code}")
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(10)

    elapsed = time.monotonic() - started
    print(
        f"serve-smoke OK (chaos): SIGKILL + restart recovered state, "
        f"byte-identical result, clean drain in {elapsed:.1f}s"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--deadline",
        type=float,
        default=60.0,
        help="seconds allowed for the whole boot/submit/drain cycle",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the SIGKILL/restart durability smoke instead",
    )
    args = parser.parse_args()
    started = time.monotonic()
    if args.chaos:
        return run_chaos(args, started)
    return run_plain(args, started)


if __name__ == "__main__":
    sys.exit(main())
