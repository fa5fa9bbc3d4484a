"""Command-line interface for the repro library.

Subcommands mirror the library's workflow on plain-text edge lists::

    python -m repro stats       graph.txt
    python -m repro symmetrize  graph.txt out.txt -m degree_discounted -t 0.05
    python -m repro cluster     undirected.txt labels.txt -c mlrmcl -k 20
    python -m repro pipeline    graph.txt labels.txt -m dd -c metis -k 20
    python -m repro generate    cora out.txt --labels labels.txt -n 1500
    python -m repro evaluate    labels.txt truth.txt
    python -m repro bench       -o BENCH_scale.json --smoke
    python -m repro cache       list | stats | clear
    python -m repro sweep       graph.txt -k 10 20 30 --journal run.jsonl
    python -m repro resume      run.jsonl

``pipeline --cache-dir DIR`` reuses symmetrization artifacts through
the disk-backed content-addressed cache (``docs/architecture.md``);
``cache list/stats/clear`` inspects or empties it.

Fault tolerance (see ``docs/robustness.md``): ``sweep --journal``
writes a crash-safe write-ahead journal of completed grid points;
``resume <journal>`` replays the recorded work and recomputes only the
unfinished tail; ``runs show <runlog> --failures`` lists the failed
and retried stages a journaled run recorded (the argument may also be
a journal file directly).

Observability (see ``docs/observability.md``): ``pipeline`` and
``bench`` append :class:`~repro.obs.manifest.RunManifest` records to a
JSONL run log with ``--runlog``; ``pipeline --trace-out`` exports the
span tree as Chrome ``trace_event`` JSON; ``runs`` lists/shows/diffs
run logs and ``trace`` re-exports a stored manifest's span tree::

    python -m repro pipeline graph.txt out.txt --runlog runs.jsonl
    python -m repro runs     list runs.jsonl
    python -m repro runs     diff runs.jsonl -a 0 -b 1
    python -m repro trace    runs.jsonl -o trace.json

Clustering as a service (see ``docs/service.md``): ``serve`` runs the
long-lived daemon holding registered graphs and a shared artifact
cache; ``submit`` posts a job (deduplicated against identical
requests) and waits for the result; ``jobs`` lists jobs or streams one
job's journal events::

    python -m repro serve  --port 8752 --graph cora=graph.txt
    python -m repro submit cluster cora -k 20 --port 8752
    python -m repro jobs   --port 8752

Graphs are whitespace edge lists (``src dst [weight]``); labels files
are one integer per line (``-1`` = unlabeled in truth files).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from repro.cluster.common import (
    Clustering,
    available_clusterers,
    get_clusterer,
)
from repro.datasets import (
    make_cora_like,
    make_flickr_like,
    make_livejournal_like,
    make_wikipedia_like,
)
from repro.eval.fmeasure import average_f_score
from repro.eval.groundtruth import GroundTruth
from repro.exceptions import ReproError
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.stats import degree_summary, percent_symmetric_links
from repro.pipeline.pipeline import SymmetrizeClusterPipeline
from repro.symmetrize.base import (
    available_symmetrizations,
    get_symmetrization,
)
from repro.symmetrize.pruning import choose_threshold_for_degree

__all__ = ["main", "build_parser"]

_GENERATORS = {
    "cora": make_cora_like,
    "wikipedia": make_wikipedia_like,
    "flickr": make_flickr_like,
    "livejournal": make_livejournal_like,
}


def _write_labels(labels: np.ndarray, path: str | Path) -> None:
    Path(path).write_text(
        "\n".join(str(int(v)) for v in labels) + "\n"
    )


def _read_labels(path: str | Path) -> np.ndarray:
    values = [
        int(line)
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]
    return np.asarray(values, dtype=np.int64)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Symmetrizations for clustering directed graphs "
            "(Satuluri & Parthasarathy, EDBT 2011)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print directed-graph statistics")
    p.add_argument("graph", help="edge-list file")

    p = sub.add_parser(
        "symmetrize", help="symmetrize a directed edge list"
    )
    p.add_argument("graph", help="input directed edge-list file")
    p.add_argument("output", help="output undirected edge-list file")
    p.add_argument(
        "-m",
        "--method",
        default="degree_discounted",
        help=f"one of: {', '.join(available_symmetrizations())}",
    )
    p.add_argument(
        "-t",
        "--threshold",
        type=float,
        default=0.0,
        help="prune threshold (0 keeps everything)",
    )
    p.add_argument(
        "--target-degree",
        type=float,
        default=None,
        help=(
            "choose the threshold automatically for this average "
            "degree (overrides --threshold; the paper's Sec 5.3.1 "
            "recipe)"
        ),
    )

    p = sub.add_parser(
        "cluster", help="cluster an undirected edge list"
    )
    p.add_argument("graph", help="undirected edge-list file")
    p.add_argument("output", help="output labels file")
    p.add_argument(
        "-c",
        "--clusterer",
        default="mlrmcl",
        help=f"one of: {', '.join(available_clusterers())}",
    )
    p.add_argument(
        "-k", "--n-clusters", type=int, default=None,
        help="requested cluster count (advisory for mlrmcl)",
    )

    p = sub.add_parser(
        "pipeline",
        help="symmetrize + cluster a directed edge list in one go",
    )
    p.add_argument("graph", help="directed edge-list file")
    p.add_argument("output", help="output labels file")
    p.add_argument("-m", "--method", default="degree_discounted")
    p.add_argument("-c", "--clusterer", default="mlrmcl")
    p.add_argument("-k", "--n-clusters", type=int, default=None)
    p.add_argument("-t", "--threshold", type=float, default=0.0)
    p.add_argument(
        "--truth", default=None,
        help="optional ground-truth labels file for Avg-F evaluation",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        help=(
            "trace the run and write the span tree as Chrome "
            "trace_event JSON (open in chrome://tracing or Perfetto)"
        ),
    )
    p.add_argument(
        "--runlog",
        default=None,
        help="append a RunManifest to this JSONL run log",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "reuse symmetrization artifacts through a disk-backed "
            "content-addressed cache at this directory (see "
            "'repro cache')"
        ),
    )

    p = sub.add_parser(
        "sweep",
        help=(
            "cluster-count sweep with a crash-safe journal; "
            "interrupted runs continue via 'repro resume'"
        ),
    )
    p.add_argument("graph", help="directed edge-list file")
    p.add_argument("-m", "--method", default="degree_discounted")
    p.add_argument("-c", "--clusterer", default="metis")
    p.add_argument(
        "-k",
        "--counts",
        type=int,
        nargs="+",
        required=True,
        help="requested cluster counts (one grid point each)",
    )
    p.add_argument("-t", "--threshold", type=float, default=0.0)
    p.add_argument(
        "--truth", default=None,
        help="optional ground-truth labels file for Avg-F evaluation",
    )
    p.add_argument(
        "--mode",
        choices=("strict", "lenient"),
        default="strict",
        help=(
            "lenient records a failed grid point and keeps sweeping; "
            "strict stops at the first error"
        ),
    )
    p.add_argument(
        "--journal",
        default=None,
        help=(
            "write-ahead journal JSONL file; records each completed "
            "point so 'repro resume' can pick up after a crash"
        ),
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help=(
            "replay points already recorded in --journal instead of "
            "recomputing them"
        ),
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="disk-backed artifact cache directory (see 'repro cache')",
    )

    p = sub.add_parser(
        "resume",
        help=(
            "finish an interrupted 'repro sweep' run from its journal"
        ),
    )
    p.add_argument("journal", help="journal JSONL written by sweep")
    p.add_argument(
        "--run-id",
        default=None,
        help="select one run when the journal holds several",
    )

    p = sub.add_parser(
        "generate", help="generate a synthetic benchmark dataset"
    )
    p.add_argument("kind", choices=sorted(_GENERATORS))
    p.add_argument("output", help="output edge-list file")
    p.add_argument(
        "--labels", default=None,
        help="where to write ground-truth labels (datasets with truth)",
    )
    p.add_argument("-n", "--n-nodes", type=int, default=None)
    p.add_argument("-s", "--seed", type=int, default=0)

    p = sub.add_parser(
        "evaluate",
        help="Avg-F of a labels file against a ground-truth file",
    )
    p.add_argument("labels", help="clustering labels file")
    p.add_argument("truth", help="ground-truth labels file (-1 = none)")

    p = sub.add_parser(
        "bench",
        help=(
            "out-of-core scale bench: mmap-backed power-law graphs "
            "(default 100k and 1M nodes) through the all-pairs "
            "symmetrize->prune kernel, checked against apply's "
            "route, with a peak-RSS regression floor; writes "
            "BENCH_scale.json"
        ),
    )
    p.add_argument(
        "-o",
        "--output",
        default="BENCH_scale.json",
        help="where to write the JSON results",
    )
    p.add_argument(
        "--block-size",
        type=int,
        default=4096,
        help="rows per block of the all-pairs candidate search",
    )
    p.add_argument(
        "--d-max",
        type=int,
        default=None,
        help=(
            "cap on out-degrees and expected in-degrees (default: "
            "fixed cap of 100 so the curve isolates scaling in n)"
        ),
    )
    p.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help="node counts to sweep (default depends on --smoke)",
    )
    p.add_argument(
        "-t",
        "--threshold",
        type=float,
        default=None,
        help="prune threshold for every point (default 0.5)",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="one ~50k-node graph instead of 100k + 1M, for CI",
    )
    p.add_argument("-s", "--seed", type=int, default=0)
    p.add_argument(
        "--runlog",
        default=None,
        help="append a bench RunManifest to this JSONL run log",
    )

    p = sub.add_parser(
        "cache",
        help="inspect or clear the on-disk artifact cache",
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("list", "one line per stored artifact, oldest first"),
        ("stats", "entry counts and byte totals per tier"),
        ("clear", "delete every stored artifact"),
    ):
        q = cache_sub.add_parser(name, help=help_text)
        q.add_argument(
            "--dir",
            dest="cache_dir",
            default=None,
            help=(
                "cache directory (default: $REPRO_CACHE_DIR or the "
                "XDG cache path)"
            ),
        )

    p = sub.add_parser(
        "runs",
        help="inspect a JSONL run log of RunManifest records",
    )
    runs_sub = p.add_subparsers(dest="runs_command", required=True)
    q = runs_sub.add_parser("list", help="one line per recorded run")
    q.add_argument("runlog", help="JSONL run log file")
    q = runs_sub.add_parser("show", help="dump one manifest as JSON")
    q.add_argument("runlog", help="JSONL run log file")
    q.add_argument(
        "-i", "--index", type=int, default=-1,
        help="run index (negative counts from the end; default last)",
    )
    q.add_argument(
        "--no-trace",
        action="store_true",
        help="omit the span tree from the dump",
    )
    q.add_argument(
        "--failures",
        action="store_true",
        help=(
            "list the failed/retried stages and skipped sweep points "
            "the run's journal recorded (runlog may also be a "
            "journal file)"
        ),
    )
    q = runs_sub.add_parser(
        "diff", help="compare two recorded runs"
    )
    q.add_argument("runlog", help="JSONL run log file")
    q.add_argument(
        "-a", type=int, default=-2,
        help="first run index (default second-to-last)",
    )
    q.add_argument(
        "-b", type=int, default=-1,
        help="second run index (default last)",
    )
    q.add_argument(
        "--json",
        action="store_true",
        help="emit the structured diff as JSON",
    )

    p = sub.add_parser(
        "trace",
        help=(
            "export a recorded manifest's span tree as Chrome "
            "trace_event JSON"
        ),
    )
    p.add_argument("runlog", help="JSONL run log file")
    p.add_argument(
        "-i", "--index", type=int, default=-1,
        help="run index (negative counts from the end; default last)",
    )
    p.add_argument(
        "-o", "--output", default="trace.json",
        help="where to write the Chrome trace JSON",
    )

    p = sub.add_parser(
        "serve",
        help=(
            "run the clustering service daemon (docs/service.md)"
        ),
    )
    p.add_argument(
        "--host", default="127.0.0.1", help="listen address"
    )
    p.add_argument(
        "--port", type=int, default=8752,
        help="listen port (0 = ephemeral; default 8752)",
    )
    p.add_argument(
        "--data-dir", default="service-data",
        help="state root for job journals and manifests",
    )
    p.add_argument(
        "--state-dir",
        help=(
            "durable state root (graphs, results, write-ahead "
            "journal); a restarted daemon recovers everything "
            "from it. Implies --data-dir=STATE_DIR."
        ),
    )
    p.add_argument(
        "--workers", type=int, default=2,
        help="max concurrently executing jobs (default 2)",
    )
    p.add_argument(
        "--max-queue", type=int, default=None,
        help=(
            "admission bound on queued jobs; beyond it new "
            "submissions are shed with 503 + Retry-After "
            "(default: unbounded)"
        ),
    )
    p.add_argument(
        "--max-jobs", type=int, default=None,
        help=(
            "retention bound: evict the oldest finished jobs "
            "beyond this many (default: keep all)"
        ),
    )
    p.add_argument(
        "--max-job-age", type=float, default=None,
        help=(
            "retention bound: evict finished jobs older than "
            "this many seconds (default: keep forever)"
        ),
    )
    p.add_argument(
        "--cache-dir",
        help="disk tier for the shared artifact cache "
        "(default: memory only)",
    )
    p.add_argument(
        "--job-wall-s", type=float,
        help="per-job wall-clock budget, seconds",
    )
    p.add_argument(
        "--job-mem-mb", type=float,
        help="per-job memory budget, megabytes",
    )
    p.add_argument(
        "--client-wall-s", type=float,
        help=(
            "cumulative per-client wall-clock allowance, seconds "
            "(default: unlimited)"
        ),
    )
    p.add_argument(
        "--graph", action="append", default=[],
        metavar="NAME=FILE",
        help=(
            "pre-register an edge-list file under NAME "
            "(repeatable)"
        ),
    )

    p = sub.add_parser(
        "submit",
        help="submit one job to a running service daemon",
    )
    p.add_argument(
        "kind", choices=("symmetrize", "cluster", "sweep"),
        help="job kind",
    )
    p.add_argument("graph", help="registered graph name")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8752)
    p.add_argument(
        "--client", default="cli",
        help="tenant identity for budget accounting",
    )
    p.add_argument(
        "-m", "--method", default="degree_discounted",
        help="symmetrization method",
    )
    p.add_argument(
        "-c", "--clusterer", default="mlrmcl",
        help="clustering algorithm",
    )
    p.add_argument(
        "-t", "--threshold", type=float, default=0.0,
        help="prune threshold",
    )
    p.add_argument(
        "-k", "--n-clusters", type=int,
        help="cluster count (cluster jobs)",
    )
    p.add_argument(
        "--counts", type=int, nargs="+",
        help="cluster counts (sweep jobs)",
    )
    p.add_argument(
        "--mode", choices=("strict", "lenient"), default="strict",
    )
    p.add_argument(
        "--upload", metavar="FILE",
        help=(
            "register this edge-list file under the graph name "
            "first (idempotent)"
        ),
    )
    p.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return without waiting",
    )
    p.add_argument(
        "--timeout", type=float, default=600.0,
        help="seconds to wait for the result (default 600)",
    )
    p.add_argument(
        "-o", "--output",
        help="write cluster labels to this file (cluster jobs)",
    )

    p = sub.add_parser(
        "jobs",
        help="list jobs (or stream one job's events) on a daemon",
    )
    p.add_argument(
        "job_id", nargs="?",
        help="show this job instead of listing all",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8752)
    p.add_argument(
        "--events", action="store_true",
        help="stream the job's journal as NDJSON (needs job_id)",
    )

    p = sub.add_parser(
        "experiment",
        help="regenerate one of the paper's tables/figures",
    )
    p.add_argument(
        "id",
        help="experiment id (e.g. table1, fig5a), 'list', or 'all'",
    )
    p.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="dataset scale multiplier (default 1.0)",
    )
    p.add_argument("-s", "--seed", type=int, default=0)

    return parser


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph, directed=True)
    print(f"nodes:              {graph.n_nodes}")
    print(f"directed edges:     {graph.n_edges}")
    print(
        f"% symmetric links:  "
        f"{percent_symmetric_links(graph):.1f}"
    )
    for label, degrees in (
        ("out", graph.out_degrees()),
        ("in", graph.in_degrees()),
    ):
        summary = degree_summary(degrees)
        print(
            f"{label}-degree:          median {summary.median:.0f}, "
            f"mean {summary.mean:.1f}, max {summary.max:.0f}, "
            f"isolated {summary.n_isolated}"
        )
    return 0


def _cmd_symmetrize(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph, directed=True)
    sym = get_symmetrization(args.method)
    threshold = args.threshold
    if args.target_degree is not None:
        full = sym.apply(graph)
        threshold = choose_threshold_for_degree(
            full, args.target_degree
        )
        print(f"chosen threshold: {threshold:.6g}")
    t0 = time.perf_counter()
    undirected = sym.apply(graph, threshold=threshold)
    seconds = time.perf_counter() - t0
    write_edge_list(undirected, args.output)
    print(
        f"wrote {undirected.n_edges} undirected edges to "
        f"{args.output} ({seconds:.2f}s)"
    )
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph, directed=False)
    clusterer = get_clusterer(args.clusterer)
    t0 = time.perf_counter()
    clustering = clusterer.cluster(graph, args.n_clusters)
    seconds = time.perf_counter() - t0
    _write_labels(clustering.labels, args.output)
    print(
        f"found {clustering.n_clusters} clusters in {seconds:.2f}s; "
        f"labels written to {args.output}"
    )
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph, directed=True)
    truth = None
    if args.truth is not None:
        truth = GroundTruth.from_labels(_read_labels(args.truth))
    cache = None
    if args.cache_dir is not None:
        from repro.engine.cache import ArtifactCache

        cache = ArtifactCache(directory=args.cache_dir)
    pipe = SymmetrizeClusterPipeline(
        args.method,
        args.clusterer,
        threshold=args.threshold,
    )
    result = pipe.run(
        graph,
        n_clusters=args.n_clusters,
        ground_truth=truth,
        trace=bool(args.trace_out),
        manifest_path=args.runlog,
        cache=cache,
    )
    _write_labels(result.clustering.labels, args.output)
    print(
        f"symmetrize {result.symmetrize_seconds:.2f}s "
        f"({result.symmetrized.n_edges} edges), cluster "
        f"{result.cluster_seconds:.2f}s "
        f"({result.clustering.n_clusters} clusters)"
    )
    if cache is not None and result.cache is not None:
        print(
            f"artifact cache: {result.cache['hits']} hits, "
            f"{result.cache['misses']} misses -> {args.cache_dir}"
        )
    if result.average_f is not None:
        print(f"Avg-F vs ground truth: {result.average_f:.2f}")
    if args.trace_out and result.trace is not None:
        import json

        from repro.obs.trace import Span, to_chrome_trace

        spans = [Span.from_dict(s) for s in result.trace["spans"]]
        payload = to_chrome_trace(spans)
        Path(args.trace_out).write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        print(
            f"chrome trace ({len(payload['traceEvents'])} events) "
            f"-> {args.trace_out}"
        )
    if args.runlog is not None:
        print(f"run manifest appended to {args.runlog}")
    return 0


def _execute_sweep(
    config: dict,
    mode: str,
    journal_path: str | None,
    resume: bool,
    run_id: str | None = None,
) -> int:
    """Run (or resume) a journaled cluster-count sweep.

    ``config`` is the self-describing run_start payload — everything
    needed to rebuild the sweep lives in it, which is what lets
    ``repro resume`` re-run from the journal alone.
    """
    from repro.engine.cache import ArtifactCache
    from repro.engine.journal import JournalReplay, RunJournal
    from repro.pipeline.sweep import (
        aggregate_average_f,
        sweep_n_clusters,
    )

    graph = read_edge_list(config["graph"], directed=True)
    truth = None
    if config.get("truth"):
        truth = GroundTruth.from_labels(_read_labels(config["truth"]))
    cache = None
    if config.get("cache_dir"):
        cache = ArtifactCache(directory=config["cache_dir"])
    journal = None
    replay = None
    if journal_path is not None:
        if resume and Path(journal_path).exists():
            replay = JournalReplay.from_path(
                journal_path, run_id=run_id
            )
        journal = RunJournal(
            journal_path,
            run_id=replay.run_id if replay is not None else run_id,
        )
        journal.ensure_started(
            kind="cli_sweep",
            name="sweep_n_clusters",
            dataset_sha="",
            mode=mode,
            config=config,
        )
    points = sweep_n_clusters(
        graph,
        config["method"],
        config["clusterer"],
        [int(k) for k in config["counts"]],
        ground_truth=truth,
        threshold=float(config.get("threshold", 0.0)),
        cache=cache,
        mode=mode,
        journal=journal,
        resume=replay,
    )
    if journal is not None:
        journal.finish()
        journal.close()
    for point in points:
        if point.failed:
            status = "failed"
        elif point.resumed:
            status = "resumed"
        else:
            status = "ok"
        score = (
            f"{point.average_f:.2f}"
            if point.average_f is not None
            else "-"
        )
        print(
            f"k={point.parameter!s:<6} "
            f"clusters={point.n_clusters:<6} "
            f"AvgF={score:<6} edges={point.n_edges:<8} [{status}]"
        )
    aggregate = aggregate_average_f(points)
    if aggregate is not None:
        print(f"mean Avg-F over successful points: {aggregate:.2f}")
    failed = sum(1 for point in points if point.failed)
    if failed:
        print(f"{failed} point(s) failed and were skipped")
    if journal_path is not None:
        print(f"journal -> {journal_path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = {
        "graph": str(args.graph),
        "method": args.method,
        "clusterer": args.clusterer,
        "counts": [int(k) for k in args.counts],
        "threshold": float(args.threshold),
        "truth": args.truth,
        "cache_dir": args.cache_dir,
    }
    if args.resume and args.journal is None:
        raise ReproError("--resume requires --journal")
    return _execute_sweep(
        config, args.mode, args.journal, resume=args.resume
    )


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.engine.journal import JournalReplay

    replay = JournalReplay.from_path(
        args.journal, run_id=args.run_id
    )
    if replay.run_start is None:
        raise ReproError(
            f"{args.journal} has no run_start record; nothing to "
            "resume"
        )
    if replay.run_start.get("kind") != "cli_sweep":
        raise ReproError(
            "only journals written by 'repro sweep' can be resumed "
            f"from the CLI (this one was started by "
            f"{replay.run_start.get('kind')!r})"
        )
    config = dict(replay.run_start.get("config", {}))
    mode = str(replay.run_start.get("mode", "strict"))
    total = len(config.get("counts", []))
    print(
        f"resuming run {replay.run_id}: "
        f"{len(replay.completed_points)} of {total} points recorded"
    )
    return _execute_sweep(
        config,
        mode,
        args.journal,
        resume=True,
        run_id=replay.run_id,
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    factory = _GENERATORS[args.kind]
    kwargs: dict[str, object] = {"seed": args.seed}
    if args.n_nodes is not None:
        kwargs["n_nodes"] = args.n_nodes
    dataset = factory(**kwargs)  # type: ignore[arg-type]
    write_edge_list(dataset.graph, args.output)
    print(f"{dataset.name}: {dataset.graph} -> {args.output}")
    if args.labels is not None:
        if dataset.ground_truth is None:
            print(
                f"note: {dataset.name} has no ground truth; "
                "no labels written",
                file=sys.stderr,
            )
        else:
            # Flatten overlapping truth to primary labels for the CLI.
            membership = dataset.ground_truth.membership.tocsr()
            labels = np.full(dataset.n_nodes, -1, dtype=np.int64)
            for v in range(dataset.n_nodes):
                start = membership.indptr[v]
                end = membership.indptr[v + 1]
                if end > start:
                    labels[v] = membership.indices[start]
            _write_labels(labels, args.labels)
            print(f"ground-truth labels -> {args.labels}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    labels = _read_labels(args.labels)
    truth_labels = _read_labels(args.truth)
    clustering = Clustering(labels)
    truth = GroundTruth.from_labels(truth_labels)
    score = average_f_score(clustering, truth)
    print(f"Avg-F: {score:.2f}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.scale_bench import (
        DEFAULT_SCALE_D_MAX,
        DEFAULT_SCALE_THRESHOLD,
        format_scale_summary,
        run_scale_bench,
        scale_manifest,
        write_bench,
    )

    results = run_scale_bench(
        sizes=args.sizes,
        threshold=(
            args.threshold
            if args.threshold is not None
            else DEFAULT_SCALE_THRESHOLD
        ),
        block_size=args.block_size,
        d_max=(
            args.d_max if args.d_max is not None else DEFAULT_SCALE_D_MAX
        ),
        seed=args.seed,
        smoke=args.smoke,
    )
    path = write_bench(results, args.output)
    print(format_scale_summary(results))
    print(f"results written to {path}")
    if args.runlog is not None:
        from repro.obs.manifest import append_manifest

        append_manifest(scale_manifest(results), args.runlog)
        print(f"run manifest appended to {args.runlog}")
    return 0 if results["regression"]["passed"] else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.engine.cache import ArtifactCache, default_cache_dir

    directory = (
        Path(args.cache_dir)
        if args.cache_dir is not None
        else default_cache_dir()
    )
    cache = ArtifactCache(directory=directory)
    if args.cache_command == "list":
        entries = cache.entries()
        if not entries:
            print(f"no cached artifacts under {directory}")
            return 0
        for record in entries:
            key = record.get("key", "?")
            print(
                f"{key[:16]}  nodes={record.get('n_nodes', '?'):>7} "
                f"nnz={record.get('nnz', '?'):>9} "
                f"bytes={record.get('nbytes', '?'):>10} "
                f"plan={record.get('plan', '-')}"
            )
        return 0
    if args.cache_command == "stats":
        stats = cache.stats()
        print(f"directory:      {stats['directory']}")
        print(f"disk entries:   {stats['disk_entries']}")
        print(f"disk bytes:     {stats['disk_bytes']}")
        return 0
    # clear
    removed = cache.clear()
    print(f"removed {removed} cached artifacts from {directory}")
    return 0


def _select_manifest(manifests, index: int):
    try:
        return manifests[index]
    except IndexError:
        raise ReproError(
            f"run index {index} out of range for a log with "
            f"{len(manifests)} runs"
        ) from None


def _print_journal_failures(journal_path: str | Path) -> int:
    """List a journal's failed/retried stages and skipped points."""
    import json

    from repro.engine.journal import JournalReplay

    replay = JournalReplay.from_path(journal_path)
    failed_points = [
        record
        for record in replay.completed_points.values()
        if record.get("payload", {}).get("failed")
    ]
    if not replay.failures and not failed_points:
        print(f"no failures recorded in {journal_path}")
        return 0
    for record in replay.failures:
        outcome = "fatal" if record.get("fatal") else "retried"
        line = (
            f"stage={record.get('stage')} "
            f"plan={record.get('plan')} "
            f"attempt={record.get('attempt')} [{outcome}] "
            f"{record.get('error')}: {record.get('message')}"
        )
        budget = record.get("budget")
        if budget:
            line += f" budget={json.dumps(budget, sort_keys=True)}"
        print(line)
    for record in failed_points:
        payload = record.get("payload", {})
        print(
            f"point parameter={record.get('parameter')!r} skipped: "
            f"{payload.get('error')} "
            f"(code={payload.get('warning_code')})"
        )
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    import json

    from repro.obs.manifest import (
        diff_manifests,
        format_diff,
        read_manifests,
    )

    if args.runs_command == "show" and args.failures:
        # The argument may be a journal file directly ...
        try:
            return _print_journal_failures(args.runlog)
        except ReproError:
            pass
        # ... or a manifest log whose run points at its journal.
        manifests = read_manifests(args.runlog)
        manifest = _select_manifest(manifests, args.index)
        journal_path = manifest.fault_tolerance.get("journal")
        if not journal_path:
            raise ReproError(
                f"run {args.index} in {args.runlog} recorded no "
                "journal; re-run with a journal to track failures"
            )
        return _print_journal_failures(journal_path)

    manifests = read_manifests(args.runlog)
    if args.runs_command == "list":
        for i, manifest in enumerate(manifests):
            print(f"[{i}] {manifest.summary()}")
        return 0
    if args.runs_command == "show":
        manifest = _select_manifest(manifests, args.index)
        payload = manifest.as_dict()
        if args.no_trace:
            payload["trace"] = []
        print(json.dumps(payload, indent=2))
        return 0
    # diff
    a = _select_manifest(manifests, args.a)
    b = _select_manifest(manifests, args.b)
    diff = diff_manifests(a, b)
    if args.json:
        print(json.dumps(diff, indent=2))
    else:
        print(format_diff(diff))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.manifest import read_manifests
    from repro.obs.trace import Span, to_chrome_trace

    manifests = read_manifests(args.runlog)
    manifest = _select_manifest(manifests, args.index)
    if not manifest.trace:
        raise ReproError(
            f"run {args.index} in {args.runlog} has no span tree; "
            "record it with --trace-out/--runlog on a traced run"
        )
    spans = [Span.from_dict(node) for node in manifest.trace]
    payload = to_chrome_trace(spans)
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"chrome trace ({len(payload['traceEvents'])} events) "
        f"-> {args.output}"
    )
    return 0


def _print_experiment(result, with_chart: bool) -> None:
    from repro.pipeline.charts import render_series_chart

    print(result.title)
    print(result.text)
    if with_chart and result.experiment.startswith("fig"):
        chart = render_series_chart(result.text)
        if chart is not None:
            print()
            print(chart)


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        available_experiments,
        run_all_experiments,
        run_experiment,
    )

    if args.id == "list":
        for name in available_experiments():
            print(name)
        return 0
    if args.id == "all":
        for result in run_all_experiments(
            scale=args.scale, seed=args.seed
        ):
            _print_experiment(result, with_chart=True)
            print()
        return 0
    result = run_experiment(args.id, scale=args.scale, seed=args.seed)
    _print_experiment(result, with_chart=True)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.engine import ArtifactCache, Budget
    from repro.service import ServiceServer, ServiceStore
    from repro.service.jobs import check_bounds
    from repro.service.server import serve

    # Before the state dir is created, so a bad bound leaves nothing.
    check_bounds(
        args.workers, args.max_queue, args.max_jobs, args.max_job_age
    )
    job_budget = None
    if args.job_wall_s is not None or args.job_mem_mb is not None:
        job_budget = Budget(
            wall_s=args.job_wall_s,
            mem_bytes=(
                int(args.job_mem_mb * 1024 * 1024)
                if args.job_mem_mb is not None
                else None
            ),
        )
    cache = ArtifactCache(directory=args.cache_dir)
    store = None
    data_dir = args.data_dir
    if args.state_dir:
        # Durable mode: every state artifact under one root, so a
        # restart recovers graphs, results and incomplete jobs.
        data_dir = args.state_dir
        store = ServiceStore(args.state_dir)
    server = ServiceServer(
        data_dir,
        host=args.host,
        port=args.port,
        cache=cache,
        max_workers=args.workers,
        job_budget=job_budget,
        client_wall_s=args.client_wall_s,
        store=store,
        max_queue_depth=args.max_queue,
        max_jobs=args.max_jobs,
        max_job_age_s=args.max_job_age,
    )
    if store is not None:
        counters = server.manager.metrics.as_dict().get(
            "counters", {}
        )
        print(
            "recovered "
            f"{int(counters.get('service_graphs_recovered_total', 0))}"
            " graph(s), "
            f"{int(counters.get('service_results_recovered_total', 0))}"
            " result(s); re-running "
            f"{int(counters.get('service_jobs_rerun_total', 0))}"
            " incomplete job(s)",
            flush=True,
        )
    for entry in args.graph:
        name, _, path = entry.partition("=")
        if not name or not path:
            raise ReproError(
                f"--graph expects NAME=FILE, got {entry!r}"
            )
        graph = read_edge_list(path, directed=True)
        server.manager.register_graph(name, graph)
        print(f"registered {name}: {graph.n_nodes} nodes, "
              f"{graph.n_edges} edges")
    clean = serve(server)
    return 0 if clean else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(
        args.host, args.port, client=args.client,
        timeout=max(args.timeout, 60.0),
    )
    if args.upload:
        graph = read_edge_list(args.upload, directed=True)
        registered = client.register_graph(args.graph, graph)
        print(
            f"graph {args.graph}: sha {registered['sha']}, "
            f"{registered['n_nodes']} nodes"
        )
    spec: dict[str, object] = {
        "kind": args.kind,
        "graph": args.graph,
        "method": args.method,
        "clusterer": args.clusterer,
        "threshold": args.threshold,
        "mode": args.mode,
    }
    if args.n_clusters is not None:
        spec["n_clusters"] = args.n_clusters
    if args.counts:
        spec["counts"] = args.counts
    submitted = client.submit(**spec)
    dedup = " (deduplicated)" if submitted["deduped"] else ""
    print(f"job {submitted['job_id']}{dedup}")
    if args.no_wait:
        return 0
    result = client.result(submitted["job_id"], timeout=args.timeout)
    if args.kind == "cluster":
        print(
            f"clusters: {result['n_clusters']}  "
            f"labels sha {result['labels_sha256']}  "
            f"{result['cluster_seconds']:.3f}s"
        )
        if args.output:
            labels = np.asarray(result["labels"], dtype=np.int64)
            _write_labels(labels, args.output)
            print(f"labels -> {args.output}")
    elif args.kind == "symmetrize":
        print(
            f"symmetrized: {result['n_edges']} edges  "
            f"sha {result['result_sha']}"
        )
    else:
        for point in result["points"]:
            marker = "cached" if point["cache_hit"] else "computed"
            avg_f = (
                f"{point['average_f']:.2f}"
                if point["average_f"] is not None
                else "-"
            )
            print(
                f"k={point['parameter']:>6}  "
                f"clusters={point['n_clusters']:>6}  "
                f"avg-f={avg_f:>7}  {marker}"
            )
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service import ServiceClient

    client = ServiceClient(args.host, args.port)
    if args.events:
        if not args.job_id:
            raise ReproError("--events needs a job id")
        for record in client.events(args.job_id):
            print(_json.dumps(record, sort_keys=True))
        return 0
    if args.job_id:
        print(
            _json.dumps(
                client.job(args.job_id), indent=2, sort_keys=True
            )
        )
        return 0
    for job in client.jobs():
        clients = ",".join(job["clients"])
        print(
            f"{job['job_id']}  {job['state']:>8}  "
            f"{job['kind']:>10}  {job['graph']:<12} {clients}"
        )
    return 0


_COMMANDS = {
    "stats": _cmd_stats,
    "symmetrize": _cmd_symmetrize,
    "cluster": _cmd_cluster,
    "pipeline": _cmd_pipeline,
    "sweep": _cmd_sweep,
    "resume": _cmd_resume,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "bench": _cmd_bench,
    "cache": _cmd_cache,
    "runs": _cmd_runs,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "experiment": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
